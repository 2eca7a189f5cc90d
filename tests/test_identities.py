"""The identity suite and its random inputs against their oracles in
oracles.py.

The suite forms each shared bracket, Laplacian and product once per triple.
On healthy spaces, and on three broken ones, it must return the failure
counts of the suite that forms every value afresh, so sharing hides no
fault.  The draw must return the terms of the Fraction-built draw and leave
the generator in the same state, since every seeded report depends on it.
"""

import random

import pytest

from bvcalc import BVSpace, EVEN, ODD
from bvcalc.identities import bv_identity_suite
from bvcalc.randgen import random_poly
from bvcalc.superalgebra import Context, Poly

from oracles import bv_identity_suite_unshared, random_poly_monomials

FIELDS_1_1 = [("x", EVEN), ("th", ODD)]
FIELDS_2_2 = [("x1", EVEN), ("x2", EVEN), ("t1", ODD), ("t2", ODD)]


class FlippedPairBracket(BVSpace):
    """The bracket with the sign of <-dPhi/dx+ dPsi/dx flipped for the first pair."""

    def bracket(self, phi, psi):
        f, a = self.pairs[0]
        return super().bracket(phi, psi) - 2 * phi.right_deriv(a) * psi.left_deriv(f)


class LastPairSkippedDelta(BVSpace):
    """delta summed over every pair but the last."""

    def delta(self, phi):
        f, a = self.pairs[-1]
        return super().delta(phi) - phi.left_deriv(f).left_deriv(a)


class ProductAddedBracket(BVSpace):
    """The bracket plus the product of its arguments."""

    def bracket(self, phi, psi):
        return super().bracket(phi, psi) + phi * psi


class CountedBrackets(BVSpace):
    """A healthy space that counts its bracket calls."""

    def bracket(self, phi, psi):
        self.brackets = getattr(self, "brackets", 0) + 1
        return super().bracket(phi, psi)


@pytest.mark.parametrize("space", [FlippedPairBracket, LastPairSkippedDelta,
                                   ProductAddedBracket])
def test_suite_counts_each_fault_as_the_oracle_does(space):
    bvs = space.over_fields(FIELDS_2_2)
    total = 0
    for seed in range(4):
        fails = bv_identity_suite(bvs, seed, 4)
        assert fails == bv_identity_suite_unshared(bvs, seed, 4)
        total += sum(fails.values())
    assert total > 0


@pytest.mark.parametrize("fields", [FIELDS_1_1, FIELDS_2_2], ids=["1|1", "2|2"])
def test_suite_matches_the_oracle_on_healthy_spaces(fields):
    bvs = BVSpace.over_fields(fields)
    for seed in range(50):
        assert bv_identity_suite(bvs, seed, 2) == bv_identity_suite_unshared(bvs, seed, 2)


def test_a_triple_makes_ten_brackets_and_no_product_by_a_unit(monkeypatch):
    units = []
    mul = Poly.__mul__

    def spy(self, other):
        # a drawn input may itself be the constant 1; a sign is not a Poly
        if not isinstance(other, Poly) and other in (1, -1):
            units.append(other)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", spy)
    monkeypatch.setattr(Poly, "__rmul__", spy)
    bvs = CountedBrackets.over_fields(FIELDS_2_2)
    bv_identity_suite(bvs, 7, 20)
    assert bvs.brackets <= 10 * 20
    assert units == []
    # the spy sees the oracle's products by +-1
    bv_identity_suite_unshared(bvs, 7, 2)
    assert units


CONTEXTS = {
    "bv_2_2": BVSpace.over_fields(FIELDS_2_2).ctx,
    "all_even": Context.plain([("a", EVEN), ("b", EVEN), ("c", EVEN)]),
    "all_odd": Context.plain([("a", ODD), ("b", ODD), ("c", ODD)]),
}


@pytest.mark.parametrize("name", sorted(CONTEXTS))
@pytest.mark.parametrize("parity", [None, EVEN, ODD])
def test_draw_matches_the_oracle_and_its_rng_calls(name, parity):
    ctx = CONTEXTS[name]
    for hbar_max in range(3):
        for max_degree in range(7):
            for terms in range(7):
                seed = 100 * hbar_max + 10 * max_degree + terms
                rng, ref = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    drawn = random_poly(rng, ctx, max_degree, terms, parity, hbar_max)
                    expected = random_poly_monomials(ref, ctx, max_degree, terms,
                                                     parity, hbar_max)
                    assert drawn.terms == expected.terms
                    assert rng.getstate() == ref.getstate()
