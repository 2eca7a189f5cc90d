"""Randomized exact checks of the Laplacian/bracket compatibility identities.

Each identity is verified as stated, term by term, on parity-homogeneous
random inputs; a failure count of zero means every sampled instance held
exactly.  The seven-terms relation is checked from delta and the product
alone, independently of the bracket.
"""

from __future__ import annotations

import random

from .bv import BVSpace
from .randgen import random_homogeneous

IDENTITY_NAMES = (
    "delta_squared",
    "bracket_matches_defect",
    "odd_anticommutativity",
    "odd_poisson",
    "odd_jacobi",
    "delta_derives_bracket",
    "seven_terms",
)

# size of each random input: total degree at most MAX_DEGREE, TERMS draws
MAX_DEGREE = 4
TERMS = 3


def bv_identity_suite(bvs: BVSpace, seed: int, triples: int) -> dict:
    """Failure counts per identity over the given number of random triples."""
    rng = random.Random(seed)
    fails = {name: 0 for name in IDENTITY_NAMES}
    for _ in range(triples):
        pf, phi = random_homogeneous(rng, bvs.ctx, MAX_DEGREE, TERMS)
        ps, psi = random_homogeneous(rng, bvs.ctx, MAX_DEGREE, TERMS)
        pu, ups = random_homogeneous(rng, bvs.ctx, MAX_DEGREE, TERMS)

        if not bvs.delta(bvs.delta(phi)).is_zero:
            fails["delta_squared"] += 1

        if bvs.bracket(phi, psi) != bvs.bracket_via_defect(phi, psi):
            fails["bracket_matches_defect"] += 1

        sign = -1 if ((pf + 1) * (ps + 1)) % 2 else 1
        if bvs.bracket(psi, phi) != -sign * bvs.bracket(phi, psi):
            fails["odd_anticommutativity"] += 1

        sign = -1 if ((pf + 1) * ps) % 2 else 1
        lhs = bvs.bracket(phi, psi * ups)
        rhs = bvs.bracket(phi, psi) * ups + sign * psi * bvs.bracket(phi, ups)
        if lhs != rhs:
            fails["odd_poisson"] += 1

        sign = -1 if ((pf + 1) * (ps + 1)) % 2 else 1
        lhs = bvs.bracket(phi, bvs.bracket(psi, ups))
        rhs = bvs.bracket(bvs.bracket(phi, psi), ups) \
            + sign * bvs.bracket(psi, bvs.bracket(phi, ups))
        if lhs != rhs:
            fails["odd_jacobi"] += 1

        sign = -1 if (pf + 1) % 2 else 1
        lhs = bvs.delta(bvs.bracket(phi, psi))
        rhs = bvs.bracket(bvs.delta(phi), psi) + sign * bvs.bracket(phi, bvs.delta(psi))
        if lhs != rhs:
            fails["delta_derives_bracket"] += 1

        s_f = -1 if pf % 2 else 1
        s_fs = -1 if (pf + ps) % 2 else 1
        s_f1s = -1 if ((pf + 1) * ps) % 2 else 1
        lhs = (bvs.delta(phi * psi * ups) + bvs.delta(phi) * psi * ups
               + s_f * phi * bvs.delta(psi) * ups
               + s_fs * phi * psi * bvs.delta(ups))
        rhs = (bvs.delta(phi * psi) * ups + s_f * phi * bvs.delta(psi * ups)
               + s_f1s * psi * bvs.delta(phi * ups))
        if lhs != rhs:
            fails["seven_terms"] += 1
    return fails
