"""Exact arithmetic in the free graded-commutative algebra on declared generators.

A Context fixes an ordered list of named generators, each even or odd, with
optional field/antifield roles.  Polynomials are sparse maps from canonical
monomials to exact Scalars.  A monomial stores a vector of exponents over the
even generators and a strictly increasing set of odd generators (as a bitmask);
odd squares vanish, and every product sign is the parity of the number of
transpositions needed to merge the odd factor lists.

Every product goes through one private kernel, ``_mul_into(terms, a, b)``:
it adds ``a * b`` into a plain dict of terms, merging equal monomials as it
goes and leaving any coefficient that cancels to zero in place.  A sum of
products (a derivation applied to a polynomial, the antibracket, a
substitution) therefore accumulates into one dict, and the zero
coefficients are dropped once, when the ``Poly`` constructor takes the
dict.  ``Poly.__mul__`` is the kernel applied to an empty dict.

Every first derivative comes from one private sweep, ``_derivs(terms,
even_slots, odd_bits, right)``: one pass over the terms yields the left (or
right) derivative by each listed generator, and it is the only code that
knows their Koszul signs.  ``Poly.left_deriv``, ``Poly.right_deriv``, the
antibracket and ``Derivation.apply`` all take their derivatives from it.

``Poly.substitute`` touches only the assigned generators: it groups the terms
by their assigned part, passes the terms with none through unchanged, and
multiplies each group by the product of its images once.

All values here are immutable after construction and every operation is
pure, so they can be shared freely between threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .scalars import Scalar

EVEN = 0
ODD = 1

FIELD = "field"
ANTIFIELD = "antifield"
PLAIN = "plain"


@dataclass(frozen=True)
class Generator:
    name: str
    parity: int
    role: str = PLAIN
    partner: str | None = None  # for antifields: the paired field's name


class Context:
    """Ordered generator table; declaration order is the canonical odd order."""

    __slots__ = ("generators", "_slot", "_role", "even_names", "odd_names",
                 "antifield_even_slots", "antifield_odd_mask", "pairs")

    def __init__(self, generators):
        generators = tuple(generators)
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        slot = {}
        even_names, odd_names = [], []
        for g in generators:
            if g.parity not in (EVEN, ODD):
                raise ValueError(f"bad parity for generator {g.name}")
            if g.role not in (FIELD, ANTIFIELD, PLAIN):
                raise ValueError(f"bad role for generator {g.name}")
            if g.parity == EVEN:
                slot[g.name] = (EVEN, len(even_names))
                even_names.append(g.name)
            else:
                slot[g.name] = (ODD, len(odd_names))
                odd_names.append(g.name)
        self.generators = generators
        self._slot = slot
        self._role = {g.name: g.role for g in generators}
        self.even_names = tuple(even_names)
        self.odd_names = tuple(odd_names)

        by_name = {g.name: g for g in generators}
        pairs = []
        claimed = {}
        for g in generators:
            if g.role == ANTIFIELD:
                f = by_name.get(g.partner)
                if f is None or f.role != FIELD:
                    raise ValueError(f"antifield {g.name} is not paired with a field")
                if f.parity == g.parity:
                    raise ValueError(f"antifield {g.name} must have opposite parity to {f.name}")
                if f.name in claimed:
                    raise ValueError(f"field {f.name} has two antifields")
                claimed[f.name] = g.name
        for g in generators:
            if g.role == FIELD and g.name in claimed:
                pairs.append((g.name, claimed[g.name]))
        self.pairs = tuple(pairs)

        af_even, af_mask = set(), 0
        for g in generators:
            if g.role == ANTIFIELD:
                p, s = slot[g.name]
                if p == EVEN:
                    af_even.add(s)
                else:
                    af_mask |= 1 << s
        self.antifield_even_slots = frozenset(af_even)
        self.antifield_odd_mask = af_mask

    # -- construction helpers ------------------------------------------

    @classmethod
    def plain(cls, specs) -> "Context":
        """Context from (name, parity) pairs, all with role 'plain'."""
        return cls(Generator(name, parity) for name, parity in specs)

    def slot(self, name: str):
        try:
            return self._slot[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None

    def parity_of(self, name: str) -> int:
        return self.slot(name)[0]

    def role_of(self, name: str) -> str:
        try:
            return self._role[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None

    @property
    def n_even(self) -> int:
        return len(self.even_names)

    @property
    def n_odd(self) -> int:
        return len(self.odd_names)

    def zero_mono(self):
        return ((0,) * self.n_even, 0)

    # -- polynomial constructors ----------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {})

    def scalar(self, value) -> "Poly":
        s = Scalar.of(value)
        if s.is_zero:
            return self.zero()
        return Poly(self, {self.zero_mono(): s})

    def one(self) -> "Poly":
        return self.scalar(1)

    def gen(self, name: str) -> "Poly":
        parity, s = self.slot(name)
        exps = [0] * self.n_even
        mask = 0
        if parity == EVEN:
            exps[s] = 1
        else:
            mask = 1 << s
        return Poly(self, {(tuple(exps), mask): Scalar.one()})

    def monomial(self, coeff=1, even=None, odd=()) -> "Poly":
        """Monomial from {even name: exponent} and an odd name sequence.

        The odd names may come in any order; reordering to canonical form
        contributes the usual sign, and a repeated odd name gives zero.
        """
        exps = [0] * self.n_even
        for name, k in (even or {}).items():
            parity, s = self.slot(name)
            if parity != EVEN:
                raise ValueError(f"{name} is odd; pass it in the odd sequence")
            if not isinstance(k, int):
                raise TypeError(f"exponent of {name} must be an int, not {k!r}")
            if k < 0:
                raise ValueError(f"exponent of {name} must be non-negative, not {k}")
            exps[s] += k
        c = Scalar.of(coeff)
        mask = 0
        for name in odd:
            parity, s = self.slot(name)
            if parity != ODD:
                raise ValueError(f"{name} is even; pass it in the even mapping")
            sign = _merge_sign(mask, 1 << s)
            if sign is None:
                return self.zero()
            if sign < 0:
                c = -c
            mask |= 1 << s
        return Poly(self, {(tuple(exps), mask): c})

    def transport(self, poly: "Poly", target: "Context") -> "Poly":
        """Rebuild a Poly by generator names inside another context.

        Each generator of this context maps to its slot in the target once;
        a generator the target lacks is an error only where it occurs.
        """
        if target == self:
            return poly
        even_to = [target._slot.get(name) for name in self.even_names]
        odd_to = [target._slot.get(name) for name in self.odd_names]
        terms = {}
        for (exps, mask), c in poly.terms.items():
            new_exps = [0] * target.n_even
            for s, k in enumerate(exps):
                if k:
                    new_exps[_target_slot(even_to[s], self.even_names[s], EVEN)] = k
            # odd factors are placed left to right in this context's order,
            # each to the right of those before it, as a product would
            new_mask = 0
            for s in _mask_bits(mask):
                bit = 1 << _target_slot(odd_to[s], self.odd_names[s], ODD)
                if _merge_sign(new_mask, bit) < 0:
                    c = -c
                new_mask |= bit
            terms[(tuple(new_exps), new_mask)] = c
        # the slot map is injective and signs never vanish: no merge, no zero
        return _poly(target, terms)

    def __eq__(self, other):
        return self is other or (isinstance(other, Context)
                                 and self.generators == other.generators)

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        gens = ",".join(g.name for g in self.generators)
        return f"Context({gens})"


# -- monomial helpers ----------------------------------------------------

def _target_slot(target, name: str, parity: int) -> int:
    if target is None:
        raise ValueError(f"unknown generator {name!r}")
    if target[0] != parity:
        raise ValueError(f"generator {name} changes parity")
    return target[1]


def _mask_bits(mask: int):
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _merge_sign(a: int, b: int):
    """Koszul sign for placing odd set b to the right of odd set a.

    Returns None when the sets overlap (an odd square), otherwise +1/-1 from
    the parity of transpositions needed to merge-sort the concatenation.
    """
    if a & b:
        return None
    inv = 0
    m = b
    while m:
        low = m & -m
        j = low.bit_length() - 1
        inv += (a >> (j + 1)).bit_count()
        m ^= low
    return -1 if inv & 1 else 1


def _mul_into(terms: dict, a: dict, b: dict) -> dict:
    """Add a * b into ``terms``, with a, b and terms monomial -> coefficient
    (a Scalar, or an int or Fraction in ``lie``).

    Each term pair follows the ``_merge_sign`` rule: overlapping odd masks
    are skipped, and the Koszul sign of merging a's odd factors with b's
    flips the product.  Coefficients that cancel stay in ``terms`` as zeros;
    the ``Poly`` constructor drops them once the sum is complete.
    """
    get = terms.get
    for (e1, m1), c1 in a.items():
        neg = None
        # bit j of above1 is the parity of the odd factors of a above slot
        # j: the transpositions that an odd factor j of b makes merging in
        above1 = 0
        m = m1
        while m:
            low = m & -m
            above1 ^= low - 1
            m ^= low
        for (e2, m2), c2 in b.items():
            if m1 & m2:
                continue
            if (above1 & m2).bit_count() & 1:
                if neg is None:
                    neg = -c1
                c = neg * c2
            else:
                c = c1 * c2
            mono = (tuple(map(add, e1, e2)), m1 | m2)
            prev = get(mono)
            terms[mono] = c if prev is None else prev + c
    return terms


def _add_into(terms: dict, a: dict) -> dict:
    """Add the terms of a into ``terms``; zeros are left for ``Poly``."""
    get = terms.get
    for mono, c in a.items():
        prev = get(mono)
        terms[mono] = c if prev is None else prev + c
    return terms


def _derivs(terms: dict, even_slots, odd_bits, right: bool = False) -> dict:
    """{i: the first derivative of ``terms`` by generator i} for each listed
    generator whose derivative is nonzero, from one sweep over the terms.

    The generators are the even ones at ``even_slots`` and then the odd ones
    at ``odd_bits`` (``1 << slot``), and i indexes that joint list.  The
    derivatives are left ones, or right ones when ``right``; by an even
    generator the two agree.  Coefficients may be of any type with ``*`` by
    an int and unary ``-``.  Each derivative lowers one exponent or clears
    one bit, which is injective on the monomials it applies to, and c*k with
    k > 0 never vanishes, so no derivative needs merging or a zero filter.
    """
    out = {}
    get = out.get
    evens = list(enumerate(even_slots))
    odds = list(enumerate(odd_bits, len(even_slots)))
    for (exps, mask), c in terms.items():
        for i, s in evens:
            k = exps[s]
            if k:
                d = get(i)
                if d is None:
                    d = out[i] = {}
                d[exps[:s] + (k - 1,) + exps[s + 1:], mask] = c * k
        if mask:
            # the left sign is (-1)^(odd generators before v); the right
            # sign (-1)^(1 + odd generators after v) is that times
            # (-1)^p(monomial)
            flip = mask.bit_count() & 1 if right else 0
            for i, bit in odds:
                if mask & bit:
                    d = get(i)
                    if d is None:
                        d = out[i] = {}
                    d[exps, mask ^ bit] = -c if ((mask & (bit - 1)).bit_count() + flip) & 1 else c
    return out


class Poly:
    """Sparse exact superpolynomial attached to a Context."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms):
        self.ctx = ctx
        self.terms = {m: c for m, c in terms.items() if not c.is_zero}

    # -- ring structure -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ctx != self.ctx:
                raise ValueError("context mismatch")
            return other
        return self.ctx.scalar(other)

    def __add__(self, other):
        other = self._coerce(other)
        return Poly(self.ctx, _add_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return Poly(self.ctx, _mul_into({}, self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = self.ctx.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.ctx.scalar(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- parity ----------------------------------------------------------

    def parity(self) -> int:
        """Parity of a homogeneous Poly (0 for the zero Poly); raises if mixed."""
        parities = {m[1].bit_count() & 1 for m in self.terms}
        if len(parities) > 1:
            raise ValueError("polynomial is not parity-homogeneous")
        return parities.pop() if parities else 0

    def parity_split(self):
        """(even part, odd part)."""
        even, odd = {}, {}
        for m, c in self.terms.items():
            (even if m[1].bit_count() & 1 == 0 else odd)[m] = c
        return _poly(self.ctx, even), _poly(self.ctx, odd)

    # -- derivatives -------------------------------------------------------

    def left_deriv(self, name: str) -> "Poly":
        return self._deriv(name, False)

    def right_deriv(self, name: str) -> "Poly":
        """(-1)^(parity(v)*parity(F)) * left derivative, sign taken per monomial."""
        return self._deriv(name, True)

    def _deriv(self, name: str, right: bool) -> "Poly":
        parity, s = self.ctx.slot(name)
        even_slots, odd_bits = ((s,), ()) if parity == EVEN else ((), (1 << s,))
        return _poly(self.ctx, _derivs(self.terms, even_slots, odd_bits, right).get(0, {}))

    # -- substitution ------------------------------------------------------

    def substitute(self, assignments) -> "Poly":
        """Algebra morphism sending each assigned generator to its image.

        Every image must be parity-homogeneous of the generator's own parity
        (zero always qualifies); unassigned generators map to themselves.

        The terms are grouped by their assigned part, P = sum_a A_a * g^a,
        where g^a is a monomial in the assigned generators and A_a a terms
        dict in the unassigned ones only.  Splitting an odd set into its
        unassigned part u and assigned part a gives
        theta = _merge_sign(u, a) * theta_u * theta_a; since each image has
        its generator's parity, the morphism maps this to
        _merge_sign(u, a) * theta_u * (the images of theta_a, in order).
        So A_0 passes through unchanged, and each other group costs one
        product of cached image powers and odd images, multiplied by A_a
        into the output.
        """
        ctx = self.ctx
        even_images, odd_images = {}, {}
        for name, img in assignments.items():
            parity, s = ctx.slot(name)
            img = img if isinstance(img, Poly) else ctx.scalar(img)
            if img.ctx != ctx:
                raise ValueError("context mismatch in substitution")
            if not img.is_zero and img.parity() != parity:
                raise ValueError(f"substitution for {name} changes parity")
            (even_images if parity == EVEN else odd_images)[s] = img.terms
        even_slots = sorted(even_images)
        odd_mask = sum(1 << s for s in odd_images)
        take = tuple(int(s in even_images) for s in range(ctx.n_even))
        keep = tuple(1 - k for k in take)

        out, groups = {}, {}
        for mono, c in self.terms.items():
            exps, mask = mono
            a_exps = tuple(map(mul, exps, take))
            a_mask = mask & odd_mask
            if not a_mask and not any(a_exps):
                out[mono] = c
                continue
            u_mask = mask ^ a_mask
            if _merge_sign(u_mask, a_mask) < 0:
                c = -c
            # the split is injective, so no two terms meet in one group
            groups.setdefault((a_exps, a_mask), {})[(tuple(map(mul, exps, keep)), u_mask)] = c

        powers = {s: [None, img] for s, img in even_images.items()}
        for (a_exps, a_mask), part in groups.items():
            # even factors first, then odd ones in canonical order, as in
            # the assigned part of the monomial itself
            factors = []
            for s in even_slots:
                k = a_exps[s]
                if k:
                    cache = powers[s]
                    while len(cache) <= k:
                        cache.append(Poly(ctx, _mul_into({}, cache[-1], cache[1])).terms)
                    factors.append(cache[k])
            factors += [odd_images[s] for s in _mask_bits(a_mask)]
            product = factors[0]
            for f in factors[1:]:
                product = _mul_into({}, product, f)
            _mul_into(out, part, product)
        return Poly(ctx, out)

    # -- gradings -----------------------------------------------------------

    def mono_degree(self, mono) -> int:
        exps, mask = mono
        return sum(exps) + mask.bit_count()

    def mono_antifield_degree(self, mono) -> int:
        exps, mask = mono
        deg = sum(exps[s] for s in self.ctx.antifield_even_slots)
        deg += (mask & self.ctx.antifield_odd_mask).bit_count()
        return deg

    def max_degree(self) -> int:
        return max((self.mono_degree(m) for m in self.terms), default=0)

    def degree_part(self, n: int) -> "Poly":
        return _poly(self.ctx, {m: c for m, c in self.terms.items()
                                if self.mono_degree(m) == n})

    def hbar_decompose(self):
        """[(k, Poly)] with the hbar powers stripped out of the coefficients."""
        buckets: dict[int, dict] = {}
        for m, c in self.terms.items():
            for k, piece in c.split_hbar():
                buckets.setdefault(k, {})[m] = piece
        return [(k, Poly(self.ctx, buckets[k])) for k in sorted(buckets)]

    def antifield_decompose(self):
        buckets: dict[int, dict] = {}
        for m, c in self.terms.items():
            buckets.setdefault(self.mono_antifield_degree(m), {})[m] = c
        return [(k, Poly(self.ctx, buckets[k])) for k in sorted(buckets)]

    # -- rendering -----------------------------------------------------------

    def _mono_text(self, mono) -> str:
        exps, mask = mono
        parts = []
        for g in self.ctx.generators:
            parity, s = self.ctx._slot[g.name]
            if parity == EVEN:
                k = exps[s]
                if k == 1:
                    parts.append(g.name)
                elif k > 1:
                    parts.append(f"{g.name}^{k}")
            elif mask >> s & 1:
                parts.append(g.name)
        return "*".join(parts)

    def sorted_monos(self):
        return sorted(self.terms, key=lambda m: (self.mono_degree(m), m[0], m[1]))

    def __str__(self):
        if not self.terms:
            return "0"
        rendered = []
        for mono in self.sorted_monos():
            coeff = self.terms[mono]
            atoms = coeff.atoms()
            mtext = self._mono_text(mono)
            if len(atoms) == 1:
                sign, text = atoms[0]
            else:
                sign, text = 1, "(" + str(coeff) + ")"
            if mtext:
                full = mtext if text == "1" else f"{text}*{mtext}"
            else:
                full = text
            rendered.append((sign, full))
        parts = []
        for n, (sign, full) in enumerate(rendered):
            if sign < 0 and not full[0].isdigit():
                full = "1*" + full
            if n == 0:
                parts.append("-" + full if sign < 0 else full)
            else:
                parts.append((" - " if sign < 0 else " + ") + full)
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self})"

    def key(self):
        """Canonical hashable form; equal Polys have equal keys."""
        return tuple((m, self.terms[m].key()) for m in self.sorted_monos())


def _poly(ctx: Context, terms) -> Poly:
    """Trusted constructor: ``terms`` has no zero coefficient and is not copied."""
    p = object.__new__(Poly)
    p.ctx = ctx
    p.terms = terms
    return p
