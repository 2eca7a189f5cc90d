"""Exact integration of exponential elements over graph Lagrangians.

An ExpElement is a finite sum of pairs P * exp(T) with T even.  Restriction
to the Lagrangian of a gauge fermion F substitutes every antifield by the
right derivative of F with respect to its field, taken from one derivative
sweep of F; ``restrict_to_lagrangian`` is ``superalgebra._substitution`` of
those images.  Every gauge assigns every antifield (``BVSpace``'s antifield
slots), so the integrals split each P and T by its antifield part once per
call (``_split``) and, per gauge, substitute the images into the split
terms through one cache of image products that dies with the call
(``_substitute``).  ``lagrangian_integral`` is ``_gauge_integrals`` on one
gauge, so every integral checks every exponent of the element before it
integrates any pair.

The integral of P * exp(N), N the exponent minus the standard damping, is
fused: only the products of a P term and an exp(N) term that can reach a
nonzero moment are formed, summed by monomial, and read by the one moment
rule of ``_expectation``; no integrand Poly is built.  That rule gives 0
for an odd power of an even field, whatever else the monomial holds, and
refuses any other monomial with an odd generator or a non-field, so a
result never depends on the declaration order.  ``gaussian_expectation``
is the public face of that moment rule.  Everything stays in exact scalars,
so gauge comparisons are equality checks rather than tolerance checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, and_, mul

from .bv import BVSpace, _bracket_into, _half_self_bracket_into
from .scalars import Scalar
from .superalgebra import (EVEN, FIELD, ODD, Poly, _Record, _crossings, _derivs, _mul_into,
                           _poly, _split, _substitute, _substitution, _twisted)


class NotDeltaClosed(Exception):
    """Raised when a gauge experiment is asked to integrate a non-closed element."""

    def __init__(self, residual: "ExpElement"):
        super().__init__("integrand is not delta-closed")
        self.residual = residual


class NonNormalizedDamping(Exception):
    """Raised when the even quadratic body of an exponent is not the
    standard damping -1/2 sum of squared even fields."""


class NonGaussianIntegrand(ValueError):
    """Raised when a Gaussian moment is asked of a monomial with an odd
    generator or an even generator that is not a field."""


class GaugeFermion:
    """An odd polynomial in which no antifield occurs: the fields, and any
    plain generator (``w*th`` with w plain is one); an antifield is refused."""

    __slots__ = ("bvs", "poly")

    def __init__(self, bvs: BVSpace, poly: Poly):
        if poly.ctx != bvs.ctx:
            raise ValueError("context mismatch")
        if any(bvs.antifield_degree(m) for m in poly.terms):
            raise ValueError("gauge fermion depends on antifields")
        if not poly.is_zero and poly.parity() != ODD:
            raise ValueError("gauge fermion must be odd")
        self.bvs = bvs
        self.poly = poly

    def antifield_images(self):
        """{antifield: right derivative of F by its field}, as Polys over _slot_images.

        The right derivative (an extra sign on odd fields) is what makes the
        exact Stokes property of the integral hold; see the gauge tests.
        """
        ctx, images = self.bvs.ctx, self._slot_images()
        return {a: _poly(ctx, images[p][s]) for _, a in self.bvs.pairs for p, s in [ctx.slot(a)]}

    def _slot_images(self):
        """(even, odd) {antifield slot: terms}, from one sweep of F's right
        derivatives by the fields; F is odd, so each has its antifield's parity."""
        derivs = _derivs(self.poly.terms, self.bvs._field_sweep, right=True)
        evens, odds = self.bvs._antifield_sweep
        return ({s: derivs.get(i, {}) for i, s in evens},
                {bit.bit_length() - 1: derivs.get(i, {}) for i, bit in odds})

    def __repr__(self):
        return f"GaugeFermion({self.poly})"


class ExpElement:
    """Finite sum of P * exp(T) pairs over a BVSpace, with each T even; pairs
    with equal T merge, zero sums drop out, and the rest sort by T.key()."""

    __slots__ = ("bvs", "pairs")

    def __init__(self, bvs: BVSpace, pairs):
        pairs = list(pairs)
        for p, t in pairs:
            if p.ctx != bvs.ctx or t.ctx != bvs.ctx:
                raise ValueError("context mismatch")
            if not t.is_zero and t.parity() != EVEN:
                raise ValueError("exponent must be even")
        self.bvs = bvs
        merged = _merged(pairs)
        if len(merged) > 1:
            merged.sort(key=lambda pair: pair[1].key())
        self.pairs = tuple(merged)

    @property
    def is_zero(self) -> bool:
        return not self.pairs

    def __add__(self, other: "ExpElement") -> "ExpElement":
        if other.bvs is not self.bvs and other.bvs.ctx != self.bvs.ctx:
            raise ValueError("context mismatch")
        return ExpElement(self.bvs, list(self.pairs) + list(other.pairs))

    def __neg__(self) -> "ExpElement":
        return ExpElement(self.bvs, [(-p, t) for p, t in self.pairs])

    def __sub__(self, other: "ExpElement") -> "ExpElement":
        return self + (-other)

    def __eq__(self, other):
        return (isinstance(other, ExpElement) and self.bvs.ctx == other.bvs.ctx
                and (self - other).is_zero)

    def __str__(self):
        return " + ".join(f"({p})*exp({t})" for p, t in self.pairs) or "0"

    def __repr__(self):
        return f"ExpElement({self})"


def _merged(pairs) -> list:
    """(P, T, ...) tuples with equal T merged into the first one: a bucket per
    monomial set finds them (terms are canonical), their P add, and the
    tuples whose P sums to zero drop."""
    buckets = {}
    for pair in pairs:
        t = pair[1]
        bucket = buckets.setdefault(frozenset(t.terms), [])
        for entry in bucket:
            if entry[1].terms == t.terms:
                entry[0] = entry[0] + pair[0]
                break
        else:
            bucket.append(list(pair))
    return [tuple(entry) for bucket in buckets.values() for entry in bucket
            if not entry[0].is_zero]


def exp_delta(element: ExpElement) -> ExpElement:
    """delta of a sum of P*exp(T): the coefficient of exp(T) becomes

    delta(P) + {sP, T} + sP (delta(T) + 1/2 {T, T}),

    where sP is P with its odd monomials negated (``_twisted``).  One pair
    sweep of T feeds both brackets, through the kernels of ``bv`` (see its
    module docstring for 1/2 {T, T}).  The three parts add into one terms
    dict.
    """
    return ExpElement(element.bvs, _delta_pairs(element))


def _delta_pairs(element: ExpElement) -> list:
    """``exp_delta``'s (coefficient, T) per pair of the element, zeros kept."""
    bvs = element.bvs
    sweep = bvs._pair_sweep
    out = []
    for p, t in element.pairs:
        d_t = _derivs(t.terms, sweep)
        curvature = _half_self_bracket_into(dict(bvs.delta(t).terms), d_t)
        signed = _twisted(p.terms)
        terms = _bracket_into(dict(bvs.delta(p).terms), _derivs(signed, sweep, right=True), d_t)
        _mul_into(terms, signed, Poly(bvs.ctx, curvature).terms)
        out.append((Poly(bvs.ctx, terms), t))
    return out


def restrict_to_lagrangian(obj, fermion: GaugeFermion):
    """Substitute every antifield by the gauge-fermion derivative of its field."""
    restrict = _substitution(fermion.bvs.ctx, fermion.antifield_images())
    if isinstance(obj, Poly):
        return restrict(obj)
    return ExpElement(obj.bvs, [(restrict(p), restrict(t)) for p, t in obj.pairs])


def gaussian_expectation(poly: Poly) -> Scalar:
    """Moments of the product weight exp(-1/2 sum x^2), normalized to 1, by
    the rule of ``_expectation``: an odd power of an even field gives 0,
    each even power 2k gives (2k-1)!!, and any other monomial that holds an
    odd generator or a non-field variable is an error."""
    ctx = poly.ctx
    return _expectation(ctx, [int(ctx.role_of(name) == FIELD) for name in ctx.even_names],
                        poly.terms)


def _expectation(ctx, fields: list, terms: dict) -> Scalar:
    """The Gaussian expectation of a terms dict, ``fields`` holding 1 at
    each even field's slot and 0 at every other even slot.

    A monomial with an odd power of an even field gives 0, whatever else it
    holds: the integral of an odd function of x vanishes, and a plain
    generator is a constant.  Any other monomial gives its coefficient
    times (k-1)!! per power k, unless it holds an odd generator or a
    non-field; one such monomial with a nonzero coefficient refuses the
    sum.  The refusal names an odd generator if any of them holds one, and
    else the first non-field they hold, so no verdict hangs on the
    declaration order of the generators.
    """
    total, refused = Scalar.zero(), []
    for (exps, mask), c in terms.items():
        if any(map(and_, exps, fields)):
            continue
        if not (mask or sum(exps) > sum(map(mul, exps, fields))):  # fields only
            # (k-1)!! is 1 below k = 4
            total = total + c * math.prod(math.prod(range(k - 1, 0, -2)) for k in exps if k > 3)
        elif not c.is_zero:
            refused.append((exps, mask))
    if any(mask for _, mask in refused):
        raise NonGaussianIntegrand("odd generator present in a Gaussian moment")
    if refused:
        name = next(name for s, name in enumerate(ctx.even_names)
                    if not fields[s] and any(exps[s] for exps, _ in refused))
        raise NonGaussianIntegrand(f"{name} is not an even field")
    return total


def standard_damping(bvs: BVSpace) -> Poly:
    """-1/2 sum over even fields of the squared coordinate, built from slots."""
    half, zero = Scalar.of(Fraction(-1, 2)), (0,) * bvs.ctx.n_even
    return _poly(bvs.ctx, {(zero[:s] + (2,) + zero[s + 1:], 0): half
                           for _, s in bvs._field_sweep[0]})  # the even fields' slots


def lagrangian_integral(element: ExpElement, fermion: GaugeFermion) -> Scalar:
    """Exact integral over the graph Lagrangian of the gauge fermion.

    After restriction each exponent must be the standard damping plus a
    nilpotent part N whose monomials all contain an odd generator; exp(N) is
    then a finite sum, the odd field directions are Berezin-integrated in
    declaration order and the even ones averaged against the normalized
    Gaussian weight.  Of P * exp(N) only the term products that can reach a
    nonzero moment are formed; the value, and any refusal, is that of the
    whole product.  This is ``_gauge_integrals`` on the one gauge.
    """
    return _gauge_integrals(element.bvs, element.pairs, [fermion])[0]


def _nilpotent_part(damping: dict, t: Poly) -> dict:
    """N = T - damping for a restricted exponent T, as a terms dict."""
    nil = dict(t.terms)
    # N has an odd-free monomial unless T holds every damping term with its
    # coefficient and no other odd-free one
    if any(nil.pop(mono, None) != c for mono, c in damping.items()) \
            or any(not mask for (_, mask) in nil):
        raise NonNormalizedDamping(f"exponent body {t} is not the standard damping")
    return nil


def _integrate(bvs: BVSpace, pairs) -> Scalar:
    """The integral of the sum of P * exp(N) over (P, N) pairs, P restricted
    and N its exponent's nilpotent part, taken one pair at a time.

    Only the term products that can reach a nonzero moment are formed: one
    that misses an odd field has no Berezin part, and one with an odd power
    of an even field is 0 by the rule of ``_expectation``.  So P's terms are
    grouped by their odd fields and the parities of their even-field
    exponents, and each exp(N) term meets the one group that completes it.
    The Koszul sign of merging P's odd factors with the exp(N) term's is
    read off that term's crossing mask, ``_crossings(mask, left=False)``,
    built once per exp(N) term: P's odd fields take it once per exp(N)
    term, and only a P term with another odd generator adds its own.  Every
    exp(N) term has an even number of odd factors, so the block order of a
    P term's plain odd factors and an exp(N) term cannot change a sign,
    nor can the side the crossing mask is built for.  Each pair's products
    are summed by Berezin-part monomial, other generators included, and
    read by ``_expectation``.  The Berezin integral takes no sign where the
    odd fields are the only odd generators: their bits increase in pair
    order, so clearing the last one first crosses none.  Elsewhere its sign
    is one per monomial, which has no value and can only be refused, so it
    is dropped.
    """
    ctx = bvs.ctx
    evens, odds = bvs._field_sweep
    fields = [0] * ctx.n_even  # 1 at each even field's slot
    for _, s in evens:
        fields[s] = 1
    need = sum(bit for _, bit in odds)
    total = Scalar.zero()
    for p, nil in pairs:
        groups = {}
        for (exps, mask), c in p.terms.items():
            groups.setdefault((mask & need, tuple(map(and_, exps, fields))), []).append(
                (exps, mask & ~need, c))
        sums = {}
        for (exps, mask), c in _exp_nilpotent(ctx, nil).items():
            fill = need & ~mask
            group = groups.get((fill, tuple(map(and_, exps, fields))))
            if group:
                cross = _crossings(mask, left=False)
                if (cross & fill).bit_count() & 1:
                    c = -c
                rest = mask & ~need
                for p_exps, other, p_c in group:
                    if other & mask:  # an odd generator twice
                        continue
                    if (cross & other).bit_count() & 1:
                        p_c = -p_c
                    key = (tuple(map(add, p_exps, exps)), other | rest)
                    prev = sums.get(key)
                    sums[key] = p_c * c if prev is None else prev + p_c * c
        if sums:
            total = total + _expectation(ctx, fields, sums)
    return total


def _gauge_integrals(bvs: BVSpace, pairs, fermions) -> list:
    """The integral of the pairs over the graph Lagrangian of each gauge.
    Every gauge assigns every antifield, so each P and T is split once, and
    per gauge substituted through one product cache that lives for this
    call only.  All restricted exponents are checked before any integral,
    so a refusal never hangs on a P that restricts or merges to zero, nor
    on the gauge order; the pairs then merge on equal T and integrate with
    their N."""
    ctx, assigned = bvs.ctx, bvs._antifield_slots
    splits = [(_split(ctx, assigned, p), _split(ctx, assigned, t)) for p, t in pairs]
    damping = standard_damping(bvs).terms
    restricted = []
    for fermion in fermions:
        if fermion.bvs.ctx != ctx:
            raise ValueError("context mismatch in substitution")
        images, cache = fermion._slot_images(), {}
        rows = []
        for p, t in splits:
            t = Poly(ctx, _substitute(t, *images, cache))
            rows.append((Poly(ctx, _substitute(p, *images, cache)), t, _nilpotent_part(damping, t)))
        restricted.append(rows)
    return [_integrate(bvs, [(p, nil) for p, _, nil in _merged(rows)]) for rows in restricted]


def _exp_nilpotent(ctx, nil: dict) -> dict:
    """exp(N) = sum of N^k / k! on terms dicts, to the first zero power; zeros may stay."""
    unit = ctx.zero_mono()
    out = {unit: Scalar.one()}
    power, k = {unit: Scalar.one()}, 1
    while power := {m: c for m, c in _mul_into({}, power, nil).items() if not c.is_zero}:
        _mul_into(out, {unit: Scalar.of(Fraction(1, math.factorial(k)))}, power)
        k += 1
    return out


def gauge_independence_experiment(element: ExpElement, fermions):
    """Integrate a delta-closed element over every gauge; refuse otherwise.

    Returns a GaugeReport with the exact per-gauge values and whether they
    all coincide.
    """
    residual = exp_delta(element)
    if not residual.is_zero:
        raise NotDeltaClosed(residual)
    values = list(zip(fermions, _gauge_integrals(element.bvs, element.pairs, fermions)))
    return GaugeReport(values, len({v.key() for _, v in values}) <= 1)


def exact_boundary_integrals(element: ExpElement, fermions):
    """Companion check: integrals of delta(element) per gauge, all zero by
    the Stokes property.  Every exponent of the element is checked, even
    where delta leaves it no term."""
    values = list(zip(fermions, _gauge_integrals(element.bvs, _delta_pairs(element), fermions)))
    return GaugeReport(values, all(v.is_zero for _, v in values))


class GaugeReport(_Record):
    def __init__(self, values, all_equal):
        vars(self).update(values=values, all_equal=all_equal)
