"""Exact integration of exponential elements over graph Lagrangians.

An ExpElement is a finite sum of pairs P * exp(T) with T even.  Restriction
to the Lagrangian of a gauge fermion F substitutes every antifield by the
right derivative of F with respect to its field; integration is Berezin over
the odd field directions followed by normalized Gaussian moments over the
even ones.  Everything stays in exact scalars, so gauge comparisons are
equality checks rather than tolerance checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter

from .bv import BVSpace
from .scalars import Scalar
from .superalgebra import EVEN, FIELD, ODD, Poly, _add_into, _mul_into


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
    """An odd polynomial in the field generators only."""

    __slots__ = ("bvs", "poly")

    def __init__(self, bvs: BVSpace, poly: Poly):
        if poly.ctx != bvs.ctx:
            raise ValueError("context mismatch")
        if any(poly.mono_antifield_degree(m) for m in poly.terms):
            raise ValueError("gauge fermion depends on antifields")
        if not poly.is_zero and poly.parity() != ODD:
            raise ValueError("gauge fermion must be odd")
        self.bvs = bvs
        self.poly = poly

    def antifield_images(self):
        """{antifield: right derivative of F by its field}.

        The right derivative (an extra sign on odd fields) is what makes the
        exact Stokes property of the integral hold; see the gauge tests.
        """
        return {a: self.poly.right_deriv(f) for f, a in self.bvs.pairs}

    def __repr__(self):
        return f"GaugeFermion({self.poly})"


class ExpElement:
    """Finite sum of P * exp(T) pairs over a BVSpace, with each T even."""

    __slots__ = ("bvs", "pairs")

    def __init__(self, bvs: BVSpace, pairs):
        # T.key() -> [sum of the P that share T, T]; the key is hashed once
        # per pair and is also the sort key, so pair order is canonical
        merged = {}
        for p, t in pairs:
            if p.ctx != bvs.ctx or t.ctx != bvs.ctx:
                raise ValueError("context mismatch")
            if not t.is_zero and t.parity() != EVEN:
                raise ValueError("exponent must be even")
            entry = merged.setdefault(t.key(), [None, t])
            entry[0] = p if entry[0] is None else entry[0] + p
        self.bvs = bvs
        self.pairs = tuple((p, t) for _, (p, t) in sorted(merged.items(), key=itemgetter(0))
                           if not p.is_zero)

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


def exp_delta(element: ExpElement) -> ExpElement:
    """delta of a sum of P*exp(T): the coefficient of exp(T) becomes

    delta(P) + {sP, T} + sP (delta(T) + 1/2 {T, T}),

    where sP is the even part of P minus its odd part.
    """
    bvs = element.bvs
    half = Fraction(1, 2)
    out = []
    for p, t in element.pairs:
        even, odd = p.parity_split()
        signed = even - odd
        curvature = bvs.delta(t) + half * bvs.bracket(t, t)
        out.append((bvs.delta(p) + bvs.bracket(signed, t) + signed * curvature, t))
    return ExpElement(bvs, out)


def restrict_to_lagrangian(obj, fermion: GaugeFermion):
    """Substitute every antifield by the gauge-fermion derivative of its field."""
    images = fermion.antifield_images()
    if isinstance(obj, Poly):
        return obj.substitute(images)
    return ExpElement(obj.bvs, [(p.substitute(images), t.substitute(images))
                                for p, t in obj.pairs])


def berezin_integrate(poly: Poly, odd_names) -> Poly:
    """Iterated single-variable Berezin integrals, innermost = last listed.

    A single integral extracts the coefficient with the variable moved to the
    rightmost position of the odd part, which is minus the right derivative,
    so integrating in declaration order picks out the top monomial
    coefficient with sign +1.
    """
    out = poly
    for name in reversed(list(odd_names)):
        if poly.ctx.parity_of(name) != ODD:
            raise ValueError(f"{name} is not odd")
        out = -out.right_deriv(name)
    return out


def gaussian_expectation(poly: Poly) -> Scalar:
    """Moments of the product weight exp(-1/2 sum x^2), normalized to 1.

    Each even-field power 2k contributes (2k-1)!! and odd powers kill the
    monomial; any odd generator or non-field variable is an error.
    """
    ctx = poly.ctx
    total = Scalar.zero()
    for (exps, mask), c in poly.terms.items():
        if mask:
            raise NonGaussianIntegrand("odd generator present in a Gaussian moment")
        weight = 1
        dead = False
        for s, k in enumerate(exps):
            if not k:
                continue
            if ctx.role_of(ctx.even_names[s]) != FIELD:
                raise NonGaussianIntegrand(f"{ctx.even_names[s]} is not an even field")
            if k % 2:
                dead = True
                break
            weight *= math.prod(range(k - 1, 0, -2))
        if not dead:
            total = total + c * weight
    return total


def standard_damping(bvs: BVSpace) -> Poly:
    """-1/2 sum over even fields of the squared coordinate."""
    ctx = bvs.ctx
    out = {}
    half = Fraction(-1, 2)
    for f, _ in bvs.pairs:
        if ctx.parity_of(f) == EVEN:
            _add_into(out, ctx.monomial(half, even={f: 2}).terms)
    return Poly(ctx, out)


def lagrangian_integral(element: ExpElement, fermion: GaugeFermion) -> Scalar:
    """Exact integral over the graph Lagrangian of the gauge fermion.

    After restriction each exponent must be the standard damping plus a
    nilpotent part N whose monomials all contain an odd generator; exp(N) is
    then a finite sum, the odd field directions are Berezin-integrated in
    declaration order and the even ones averaged against the normalized
    Gaussian weight.
    """
    bvs = element.bvs
    ctx = bvs.ctx
    restricted = restrict_to_lagrangian(element, fermion)
    damping = standard_damping(bvs)
    odd_fields = [f for f, _ in bvs.pairs if ctx.parity_of(f) == ODD]
    total = Scalar.zero()
    for p, t in restricted.pairs:
        nil = t - damping
        if any(not mask for (_, mask) in nil.terms):
            raise NonNormalizedDamping(
                f"exponent body {t} is not the standard damping")
        integrand = p * _exp_nilpotent(nil)
        body = berezin_integrate(integrand, odd_fields)
        total = total + gaussian_expectation(body)
    return total


def _exp_nilpotent(nil: Poly) -> Poly:
    ctx = nil.ctx
    out = dict(ctx.one().terms)
    power = ctx.one()
    k = 1
    while True:
        power = power * nil
        if power.is_zero:
            return Poly(ctx, out)
        _mul_into(out, ctx.scalar(Fraction(1, math.factorial(k))).terms, power.terms)
        k += 1


def gauge_independence_experiment(element: ExpElement, fermions):
    """Integrate a delta-closed element over every gauge; refuse otherwise.

    Returns a GaugeReport with the exact per-gauge values and whether they
    all coincide.
    """
    residual = exp_delta(element)
    if not residual.is_zero:
        raise NotDeltaClosed(residual)
    values = [(fermion, lagrangian_integral(element, fermion))
              for fermion in fermions]
    all_equal = len({v.key() for _, v in values}) <= 1
    return GaugeReport(values, all_equal)


def exact_boundary_integrals(element: ExpElement, fermions):
    """Companion check: integrals of delta(element) per gauge, all zero by
    the Stokes property."""
    boundary = exp_delta(element)
    values = [(fermion, lagrangian_integral(boundary, fermion))
              for fermion in fermions]
    return GaugeReport(values, all(v.is_zero for _, v in values))


class GaugeReport:
    __slots__ = ("values", "all_equal")

    def __init__(self, values, all_equal):
        self.values = values
        self.all_equal = all_equal

    def __repr__(self):
        vals = ", ".join(str(v) for _, v in self.values)
        return f"GaugeReport([{vals}], all_equal={self.all_equal})"
