"""Seeded random inputs for the identity suites.

Everything draws from a caller-supplied random.Random so that a fixed seed
reproduces the exact same polynomials, reports and verdicts.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar
from .superalgebra import Context, EVEN, ODD, Poly, _add_into


def random_scalar(rng, hbar_max: int = 0) -> Scalar:
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.4 else 0
    power = rng.randint(0, hbar_max) if hbar_max else 0
    s = Scalar({power: (re, im)})
    if s.is_zero:
        return Scalar.of(1)
    return s


def random_poly(rng, ctx: Context, max_degree: int = 4, terms: int = 4,
                parity=None, hbar_max: int = 0) -> Poly:
    """Random sparse Poly; with parity set, every monomial matches it."""
    names = [g.name for g in ctx.generators]
    out = {}
    for _ in range(terms):
        d = rng.randint(0, max_degree)
        picks = [rng.choice(names) for _ in range(d)]
        odd = [g for g in picks if ctx.parity_of(g) == ODD]
        if len(set(odd)) != len(odd):
            continue
        if parity is not None and len(odd) % 2 != parity:
            continue
        even: dict[str, int] = {}
        for g in picks:
            if ctx.parity_of(g) == EVEN:
                even[g] = even.get(g, 0) + 1
        _add_into(out, ctx.monomial(random_scalar(rng, hbar_max), even, odd).terms)
    return Poly(ctx, out)


def random_homogeneous(rng, ctx: Context, max_degree: int = 4, terms: int = 4):
    """A random parity plus an hbar-free Poly homogeneous of that parity."""
    parity = rng.randint(0, 1)
    return parity, random_poly(rng, ctx, max_degree, terms, parity)
