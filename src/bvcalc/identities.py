"""Randomized exact checks of the Laplacian/bracket compatibility identities.

Each identity is verified as stated, term by term, on parity-homogeneous
random inputs; a failure count of zero means every sampled instance held
exactly.  The seven-terms relation is checked from delta and the product
alone, independently of the bracket.

Per triple, the values several identities read are formed once: delta of
phi, psi and ups, the brackets {phi, psi} and {phi, ups}, and the products
phi*psi, psi*ups and phi*ups.  Each identity still forms its two sides
separately from them, with Koszul signs as negations or subtractions.
``bracket_via_defect``, the bracket's cross-check, forms its own Laplacians.
"""

from __future__ import annotations

import random

from .bv import BVSpace
from .randgen import random_homogeneous
from .superalgebra import Poly

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


def _plus(a: Poly, b: Poly, odd: int) -> Poly:
    """a + (-1)^odd b."""
    return a - b if odd & 1 else a + b


def bv_identity_suite(bvs: BVSpace, seed: int, triples: int) -> dict:
    """Failure counts per identity over the given number of random triples."""
    rng = random.Random(seed)
    fails = {name: 0 for name in IDENTITY_NAMES}
    for _ in range(triples):
        pf, phi = random_homogeneous(rng, bvs.ctx, MAX_DEGREE, TERMS)
        ps, psi = random_homogeneous(rng, bvs.ctx, MAX_DEGREE, TERMS)
        _, ups = random_homogeneous(rng, bvs.ctx, MAX_DEGREE, TERMS)
        d_phi, d_psi, d_ups = bvs.delta(phi), bvs.delta(psi), bvs.delta(ups)
        b_fs, b_fu = bvs.bracket(phi, psi), bvs.bracket(phi, ups)
        fs, su, fu = phi * psi, psi * ups, phi * ups

        if not bvs.delta(d_phi).is_zero:
            fails["delta_squared"] += 1

        if b_fs != bvs.bracket_via_defect(phi, psi):
            fails["bracket_matches_defect"] += 1

        # {psi, phi} = -(-1)^((pf+1)(ps+1)) {phi, psi}
        if bvs.bracket(psi, phi) != (b_fs if (pf + 1) * (ps + 1) & 1 else -b_fs):
            fails["odd_anticommutativity"] += 1

        lhs = bvs.bracket(phi, su)
        rhs = _plus(b_fs * ups, psi * b_fu, (pf + 1) * ps)
        if lhs != rhs:
            fails["odd_poisson"] += 1

        lhs = bvs.bracket(phi, bvs.bracket(psi, ups))
        rhs = _plus(bvs.bracket(b_fs, ups), bvs.bracket(psi, b_fu), (pf + 1) * (ps + 1))
        if lhs != rhs:
            fails["odd_jacobi"] += 1

        lhs = bvs.delta(b_fs)
        rhs = _plus(bvs.bracket(d_phi, psi), bvs.bracket(phi, d_psi), pf + 1)
        if lhs != rhs:
            fails["delta_derives_bracket"] += 1

        lhs = _plus(_plus(bvs.delta(fs * ups) + d_phi * su, phi * d_psi * ups, pf),
                    fs * d_ups, pf + ps)
        rhs = _plus(_plus(bvs.delta(fs) * ups, phi * bvs.delta(su), pf),
                    psi * bvs.delta(fu), (pf + 1) * ps)
        if lhs != rhs:
            fails["seven_terms"] += 1
    return fails
