"""Property tests against the oracles in oracles.py: the multiply-accumulate
product equals the pairwise product on small drawn polynomials over 2 even +
2 odd generators, and the rational Lie routes equal the Scalar ones on drawn
antisymmetric tables."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bvcalc import EVEN, ODD, LieModel, Scalar, jacobi_check, rep_check  # noqa: E402
from bvcalc.lie import _ce_images  # noqa: E402
from bvcalc.superalgebra import Context, Poly  # noqa: E402

from oracles import (ce_images_scalar, jacobi_triple_loop, mul_pairwise,  # noqa: E402
                     rep_commutator_check)

CTX = Context.plain([("x", EVEN), ("y", EVEN), ("t1", ODD), ("t2", ODD)])

# (re + im*i) * hbar^k with small rationals; zero scalars are dropped by Poly
scalars = st.builds(lambda k, num, den, im: Scalar({k: (Fraction(num, den), im)}),
                    st.integers(-1, 2), st.integers(-3, 3), st.integers(1, 3),
                    st.sampled_from([0, 0, 1, -1]))
monomials = st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(0, 3))
polys = st.dictionaries(monomials, scalars, max_size=5).map(lambda terms: Poly(CTX, terms))


@hypothesis.settings(max_examples=200, deadline=1000)
@hypothesis.given(polys, polys)
def test_kernel_product_equals_pairwise_product(a, b):
    assert a * b == mul_pairwise(a, b)
    assert all(not c.is_zero for c in (a * b).terms.values())


rationals = st.one_of(st.integers(-3, 3),
                      st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


def _table(draw, keys, max_size):
    return draw(st.dictionaries(st.sampled_from(keys), rationals, max_size=max_size)) \
        if keys else {}


@st.composite
def lie_tables(draw):
    """Antisymmetric f of dim <= 4, Jacobi or not, with a module of dim <= 2."""
    dim = draw(st.integers(1, 4))
    module_dim = draw(st.integers(0, 2))
    brackets = _table(draw, [(i, j, k) for j in range(dim) for k in range(j + 1, dim)
                             for i in range(dim)], 8)
    rho = _table(draw, [(i, j, k) for i in range(module_dim) for j in range(module_dim)
                        for k in range(dim)], 6)
    return LieModel.build(dim, brackets, module_dim, rho)


@hypothesis.settings(max_examples=80, deadline=2000)
@hypothesis.given(lie_tables())
def test_rational_lie_routes_equal_scalar_oracles(model):
    for p in range(1 + bool(model.module_dim)):
        assert _ce_images(model, p) == ce_images_scalar(model, p)
    assert jacobi_check(model) == jacobi_triple_loop(model)
    assert rep_check(model) == rep_commutator_check(model)
