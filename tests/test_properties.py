"""Property test: the multiply-accumulate product equals the pairwise
oracle product on small drawn polynomials over 2 even + 2 odd generators."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bvcalc import EVEN, ODD, Scalar  # noqa: E402
from bvcalc.superalgebra import Context, Poly  # noqa: E402

from oracles import mul_pairwise  # noqa: E402

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
