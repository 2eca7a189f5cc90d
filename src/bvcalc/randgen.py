"""Seeded random inputs for the identity suites.

Everything draws from a caller-supplied random.Random so that a fixed seed
reproduces the exact same polynomials, reports and verdicts.

Draw order, on which every ``--seed`` report of the CLI depends: per term,
``random_poly`` draws the degree d by ``randint(0, max_degree)``, then d
``choice`` calls over the generators in declaration order.  The odd picks,
in draw order, are sorted by ``superalgebra._odd_product``, whose parity
signs the coefficient.  A term with a repeated odd generator, or of the
wrong parity, draws nothing more; the others draw ``randint(-4, 4)``,
``randint(1, 3)`` and ``random()``, then ``randint(-3, 3)`` and
``randint(1, 2)`` only if that was below 0.4, then ``randint(0, hbar_max)``
only if ``hbar_max`` is nonzero.  A zero coefficient becomes 1.
``random_homogeneous`` first draws ``randint(0, 1)``.
"""

from __future__ import annotations

from math import gcd

from .scalars import _make
from .superalgebra import Context, EVEN, ODD, Poly, _add_into, _odd_product


def _coefficient(rng, hbar_max: int) -> tuple:
    """The hbar power and the canonical Scalar triple of a/b + (c/e) i, or 1."""
    a, b = rng.randint(-4, 4), rng.randint(1, 3)
    c, e = (rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.4 else (0, 1)
    power = rng.randint(0, hbar_max) if hbar_max else 0
    if not (a or c):
        return 0, (1, 0, 1)
    re, im, den = a * e, c * b, b * e
    g = gcd(re, im, den)
    return power, (re // g, im // g, den // g)


def random_poly(rng, ctx: Context, max_degree: int = 4, terms: int = 4,
                parity=None, hbar_max: int = 0) -> Poly:
    """Random sparse Poly; with parity set, every monomial matches it."""
    slots = [ctx.slot(g.name) for g in ctx.generators]
    out = {}
    for _ in range(terms):
        picks = [rng.choice(slots) for _ in range(rng.randint(0, max_degree))]
        odd = _odd_product(s for p, s in picks if p == ODD)
        if odd is None or (parity is not None and odd[0].bit_count() % 2 != parity):
            continue
        mask, flip = odd
        exps = [0] * ctx.n_even
        for p, s in picks:
            if p == EVEN:
                exps[s] += 1
        power, (re, im, den) = _coefficient(rng, hbar_max)
        c = _make({power: (-re, -im, den) if flip else (re, im, den)})
        _add_into(out, {(tuple(exps), mask): c})
    return Poly(ctx, out)


def random_homogeneous(rng, ctx: Context, max_degree: int = 4, terms: int = 4):
    """A random parity plus an hbar-free Poly homogeneous of that parity."""
    parity = rng.randint(0, 1)
    return parity, random_poly(rng, ctx, max_degree, terms, parity)
