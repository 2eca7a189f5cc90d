"""Exact arithmetic in the free graded-commutative algebra on declared generators.

A Context fixes an ordered list of named generators, each even or odd, with
optional field/antifield role labels (the pairing and the antifield grading
live in ``bv.BVSpace``).  Polynomials are sparse maps from canonical
monomials to exact Scalars.  A monomial stores a vector of exponents over the
even generators and a strictly increasing set of odd generators (as a bitmask);
odd squares vanish, and every product sign is the parity of the number of
transpositions needed to merge the odd factor lists.  An ordered product of
odd generators is sorted by one fold, ``_odd_product``, which gives its
canonical mask and the parity of the sort (None for an odd square);
``Context.monomial`` (and so ``gen``), ``Context.transport`` and
``randgen.random_poly`` all take it from there.  Two sorted odd sets merge
by one crossing mask, ``_crossings(m, left)``, whose bit j is the parity of
m's factors that a factor at slot j crosses on the other side of m; the
product kernel, the split of a substitution and ``gauge._integrate`` take
every merge sign from it.

Every product goes through one private kernel, ``_mul_into(terms, a, b)``:
it adds ``a * b`` into a plain dict of terms, merging equal monomials as it
goes and leaving any coefficient that cancels to zero in place.  Its outer
loop runs over the factor with fewer terms, and the crossing mask comes
from whichever side that is; coefficients commute, so the products are the
same either way.  A sum of products (a derivation applied to a polynomial,
the antibracket, a substitution) therefore accumulates into one dict, and
the zero coefficients are dropped once, when the ``Poly`` constructor takes
the dict.  ``Poly.__mul__`` is the kernel applied to an empty dict; by a
scalar it scales each coefficient in one pass instead.

Every first derivative comes from one private sweep, ``_derivs(terms,
sweep, right)``: one pass over the terms yields the left (or right)
derivative by each generator of ``sweep = _sweep(slots)``, which a caller
builds once from its generators' ``Context.slot`` pairs in its own order;
derivative i is the one by ``slots[i]``.  A sweep holds an even and an odd
half of (index, slot) pairs, which callers may read as slot lists; only
``_derivs`` applies signs from it.  ``Poly.left_deriv``,
``Poly.right_deriv``, the antibracket, ``Derivation.apply`` and the per-field
derivative lists of ``BVSpace`` all take their derivatives from it; only
``BVSpace.delta`` repeats the odd left sign, fused into its double
derivative.

No route splits a polynomial by parity.  A formula stated for a homogeneous
argument Phi with a sign (-1)^p(Phi) takes that sign from ``_twisted``, the
one place it is written: it negates each odd monomial's coefficient, which
by linearity is the formula applied to each parity part.  ``exp_delta``'s
sP and ``BVSpace.bracket_via_defect`` read it there.

Substitution touches only the assigned generators, in two halves.
``_split`` groups the terms by their assigned part, with the Koszul sign of
taking that part out, and sets aside the terms with none; it reads only
which slots are assigned.  ``_substitute`` passes those terms through and
multiplies each group by the product of its images, memoised by assigned
part in a cache its caller owns, so one split can be substituted under many
image sets.  ``_substitution`` checks the images and composes the two, with
one cache that every Poly it maps shares; ``Poly.substitute`` is that
applied once.

All values here are immutable after construction and every operation is
pure, so they can be shared freely between threads or processes.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul

from .scalars import Scalar, _signed_sum

EVEN = 0
ODD = 1

FIELD = "field"
ANTIFIELD = "antifield"
PLAIN = "plain"


class _Record:
    """A value record: its fields are the attributes its __init__ sets, in that
    order; == compares them between records of one class, and repr lists them."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class _FrozenRecord(_Record):
    """A record whose fields cannot be assigned or deleted; it hashes them."""

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Generator(_FrozenRecord):
    def __init__(self, name: str, parity: int, role: str = PLAIN,
                 partner: str | None = None):  # partner: an antifield's field
        vars(self).update(name=name, parity=parity, role=role, partner=partner)


class Context:
    """Ordered generator table; declaration order is the canonical odd order."""

    __slots__ = ("generators", "_slot", "_role", "even_names", "odd_names")

    def __init__(self, generators):
        generators = tuple(generators)
        slot = {}
        even_names, odd_names = [], []
        for g in generators:
            if g.name in slot:
                raise ValueError(f"generator names must be unique: {g.name} is repeated")
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
        if self.parity_of(name) == EVEN:
            return self.monomial(even={name: 1})
        return self.monomial(odd=(name,))

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
            if not isinstance(k, int) or isinstance(k, bool):
                raise TypeError(f"exponent of {name} must be an int, not {k!r}")
            if k < 0:
                raise ValueError(f"exponent of {name} must be non-negative, not {k}")
            exps[s] += k
        c = Scalar.of(coeff)
        slots = []
        for name in odd:
            parity, s = self.slot(name)
            if parity != ODD:
                raise ValueError(f"{name} is even; pass it in the even mapping")
            slots.append(s)
        product = _odd_product(slots)
        if product is None:
            return self.zero()
        mask, flip = product
        return Poly(self, {(tuple(exps), mask): -c if flip else c})

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
            # the odd factors, in this context's order, as a product there
            new_mask, flip = _odd_product(_target_slot(odd_to[s], self.odd_names[s], ODD)
                                          for s in _mask_bits(mask))
            terms[(tuple(new_exps), new_mask)] = -c if flip else c
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
    return [s for s in range(mask.bit_length()) if mask >> s & 1]


def _crossings(m: int, left: bool = True) -> int:
    """The crossing mask of the odd set m: bit j is the parity of the
    factors of m that an odd factor at slot j crosses when it sits on the
    other side of m.  Those are m's factors above j when m is the left set,
    and m's factors below j when it is the right one.  So for disjoint odd
    sets a and b, theta_a * theta_b is (-1)^k theta_(a|b) with k the parity
    of ``_crossings(a) & b``, or equally of ``_crossings(b, left=False) & a``.
    """
    mask = 0
    while m:
        low = m & -m
        # the bits below the factor, or (m on the right) the bits above it
        mask ^= low - 1 if left else -(low << 1)
        m ^= low
    return mask


def _odd_product(slots):
    """(mask, parity) of the product of the odd generators at ``slots``, in
    that order: its canonical mask and the parity of the transpositions that
    sort it, each factor moving left past the earlier ones above it (the
    ``_crossings`` sign of one bit).  None when a slot repeats: an odd square."""
    mask = flips = 0
    for s in slots:
        if mask >> s & 1:
            return None
        flips += (mask >> s).bit_count()
        mask |= 1 << s
    return mask, flips & 1


def _mul_into(terms: dict, a: dict, b: dict) -> dict:
    """Add a * b into ``terms``, with a, b and terms monomial -> coefficient
    (a Scalar, or an int or Fraction in ``lie``).

    Each term pair follows the Koszul merge rule: overlapping odd masks
    are skipped, and the parity of the odd factors that cross each other
    when a's and b's are merged flips the product.  The outer loop runs
    over the factor with fewer terms (a on a tie), so its crossing mask,
    ``_crossings(m, left)`` with ``left`` true when a is outer, is built
    once per outer term and the inner loop is the long one.  The
    coefficient is ``c_outer * c_inner`` either way, which is the same
    value since Scalar, int and Fraction products commute.  Coefficients
    that cancel stay in ``terms`` as zeros; the ``Poly`` constructor drops
    them once the sum is complete.
    """
    get = terms.get
    left = len(a) <= len(b)
    outer, inner = (a, b) if left else (b, a)
    for (e1, m1), c1 in outer.items():
        neg = None
        mask = _crossings(m1, left)
        for (e2, m2), c2 in inner.items():
            if m1 & m2:
                continue
            if (mask & m2).bit_count() & 1:
                if neg is None:
                    neg = -c1
                c = neg * c2
            else:
                c = c1 * c2
            # with no even generators every exponent tuple is ()
            mono = (tuple(map(add, e1, e2)) if e1 else e1, m1 | m2)
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


def _twisted(terms: dict) -> dict:
    """``terms`` with each odd monomial's coefficient negated: the sign
    (-1)^p(Phi) that a formula stated for a homogeneous Phi puts on Phi,
    taken per monomial, so the formula holds for Phi of mixed parity."""
    return {m: -c if m[1].bit_count() & 1 else c for m, c in terms.items()}


def _sweep(slots) -> tuple:
    """The sweep ``_derivs`` takes for the generators at ``slots``, a list of
    ``Context.slot`` pairs (parity, slot) in the caller's order: the
    (index, slot) pairs of the even generators and the (index, 1 << slot)
    pairs of the odd ones, index i being the position in ``slots``.  Build
    it once per generator list; ``_derivs`` does no setup of its own."""
    evens, odds = [], []
    for i, (parity, s) in enumerate(slots):
        if parity == EVEN:
            evens.append((i, s))
        else:
            odds.append((i, 1 << s))
    return tuple(evens), tuple(odds)


def _derivs(terms: dict, sweep, right: bool = False) -> dict:
    """{i: the first derivative of ``terms`` by ``slots[i]``} for each
    generator of ``sweep = _sweep(slots)`` whose derivative is nonzero, from
    one pass over the terms.

    The derivatives are left ones, or right ones when ``right``; by an even
    generator the two agree.  Coefficients may be of any type with ``*`` by
    an int and unary ``-``.  Each derivative lowers one exponent or clears
    one bit, which is injective on the monomials it applies to, and c*k with
    k > 0 never vanishes, so no derivative needs merging or a zero filter.
    """
    out = {}
    get = out.get
    evens, odds = sweep
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
        return self + -other

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            s = other if type(other) is int else Scalar.of(other)
            # Q(i)[hbar, hbar^-1] has no zero divisors: no coefficient vanishes
            return _poly(self.ctx, {m: c * s for m, c in self.terms.items()} if s else {})
        other = self._coerce(other)
        return Poly(self.ctx, _mul_into({}, self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = self.ctx.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)) and not isinstance(other, bool):
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

    # -- derivatives -------------------------------------------------------

    def left_deriv(self, name: str) -> "Poly":
        return self._deriv(name, False)

    def right_deriv(self, name: str) -> "Poly":
        """(-1)^(parity(v)*parity(F)) * left derivative, sign taken per monomial."""
        return self._deriv(name, True)

    def _deriv(self, name: str, right: bool) -> "Poly":
        parity, s = self.ctx.slot(name)
        sweep = (((0, s),), ()) if parity == EVEN else ((), ((0, 1 << s),))
        return _poly(self.ctx, _derivs(self.terms, sweep, right).get(0, {}))

    # -- substitution ------------------------------------------------------

    def substitute(self, assignments) -> "Poly":
        """Algebra morphism sending each assigned generator to its image.

        Every image must be parity-homogeneous of the generator's own parity
        (zero always qualifies); unassigned generators map to themselves.
        This is ``_substitution(ctx, assignments)`` applied once.
        """
        return _substitution(self.ctx, assignments)(self)

    # -- gradings -----------------------------------------------------------

    def mono_degree(self, mono) -> int:
        exps, mask = mono
        return sum(exps) + mask.bit_count()

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
        return _signed_sum(rendered)

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


def _substitution(ctx: Context, assignments):
    """``Poly.substitute`` as a map, Poly -> Poly, that checks the images
    once: ``_split`` then ``_substitute`` through one product cache that
    every Poly it maps shares.  A zero image sends its generator to 0, and a
    Poly with no assigned term comes back as it is."""
    even_images, odd_images = {}, {}
    for name, img in assignments.items():
        parity, s = ctx.slot(name)
        img = img if isinstance(img, Poly) else ctx.scalar(img)
        if img.ctx != ctx:
            raise ValueError("context mismatch in substitution")
        if not img.is_zero and img.parity() != parity:
            raise ValueError(f"substitution for {name} changes parity")
        (even_images if parity == EVEN else odd_images)[s] = img.terms
    assigned = (tuple(sorted(even_images)), sum(1 << s for s in odd_images))
    cache = {}

    def apply(poly: Poly) -> Poly:
        split = _split(ctx, assigned, poly)
        return Poly(ctx, _substitute(split, even_images, odd_images, cache)) if split[1] else poly

    return apply


def _split(ctx: Context, assigned, poly: Poly):
    """(free, groups) for ``assigned = (even slots, odd mask)``: the terms of
    poly with no assigned generator, and {assigned part: the rest}.

    The terms are grouped as P = sum_a A_a * g^a, where g^a is a monomial in
    the assigned generators and A_a a terms dict in the unassigned ones
    only.  Splitting an odd set into its unassigned part u and assigned part
    a gives theta = (-1)^k theta_u * theta_a, k the parity of
    ``_crossings(u) & a``, and that sign goes into A_a.  The split is
    injective, so no two terms meet in one group.
    """
    if poly.ctx != ctx:
        raise ValueError("context mismatch in substitution")
    even_slots, odd_mask = assigned
    take = tuple(int(s in even_slots) for s in range(ctx.n_even))
    keep = tuple(1 - k for k in take)
    free, groups = {}, {}
    for mono, c in poly.terms.items():
        exps, mask = mono
        a_mask = mask & odd_mask
        if not a_mask:
            for s in even_slots:
                if exps[s]:
                    break
            else:
                free[mono] = c
                continue
        u_mask = mask ^ a_mask
        if (_crossings(u_mask) & a_mask).bit_count() & 1:
            c = -c
        groups.setdefault((tuple(map(mul, exps, take)), a_mask), {})[
            tuple(map(mul, exps, keep)), u_mask] = c
    return free, groups


def _substitute(split, even_images: dict, odd_images: dict, cache: dict) -> dict:
    """The terms of a ``_split`` Poly with the generator at even (odd) slot s
    sent to the terms ``even_images[s]`` (``odd_images[s]``).

    Each image has its generator's parity, so A_a * g^a goes to A_a times
    the images of g^a, even factors first, then odd ones in canonical order.
    ``cache`` holds those products by assigned part, each the product of a
    shorter part, one factor less, times that factor's image, so every
    prefix is multiplied once per cache.
    """
    free, groups = split
    out = dict(free)
    for part, rest in groups.items():
        chain, key = [], part
        while key not in cache and (key[1] or any(key[0])):
            exps, mask = key
            if mask:
                s = mask.bit_length() - 1
                chain.append((key, odd_images[s]))
                key = (exps, mask ^ (1 << s))
            else:
                s = next(s for s, k in enumerate(exps) if k)
                chain.append((key, even_images[s]))
                key = (exps[:s] + (exps[s] - 1,) + exps[s + 1:], 0)
        product = cache.get(key)  # None at the empty part
        for key, image in reversed(chain):
            product = cache[key] = image if product is None else {
                m: c for m, c in _mul_into({}, product, image).items() if not c.is_zero}
        _mul_into(out, rest, cache[part])
    return out
