"""Property tests against the oracles in oracles.py: the multiply-accumulate
product equals the pairwise product on small drawn polynomials over 2 even +
2 odd generators, substitution equals the term-by-term substitution over
2 even + 3 odd generators, the rational Lie routes equal the Scalar ones
on drawn antisymmetric tables, and the Chevalley-Eilenberg dims equal the
full-complex ranks on drawn tables, traceless or not."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bvcalc import EVEN, ODD, LieModel, Scalar, jacobi_check, rep_check  # noqa: E402
from bvcalc.lie import _ad_traces, _ce_images, ce_cohomology_dims  # noqa: E402
from bvcalc.superalgebra import Context, Poly  # noqa: E402

from oracles import (ce_cohomology_dims_full, ce_images_scalar,  # noqa: E402
                     jacobi_triple_loop, mul_pairwise, rep_commutator_check,
                     substitute_sum)

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


# three odd generators, so that unassigned odd factors sit on both sides of
# assigned ones and the split sign is exercised
CTX5 = Context.plain([("x", EVEN), ("y", EVEN), ("t1", ODD), ("t2", ODD), ("t3", ODD)])
monomials5 = st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(0, 7))
polys5 = st.dictionaries(monomials5, scalars, max_size=6).map(lambda terms: Poly(CTX5, terms))


def _homogeneous5(parity):
    monos = monomials5.filter(lambda m: m[1].bit_count() % 2 == parity)
    return st.dictionaries(monos, scalars, min_size=1, max_size=3).map(
        lambda terms: Poly(CTX5, terms))


@st.composite
def assignments5(draw):
    """A random subset of the generators, each sent to zero, a scalar (even
    ones only), another generator of its parity, itself times x, or a drawn
    homogeneous polynomial that may contain the assigned generators."""
    out = {}
    for g in CTX5.generators:
        if not draw(st.booleans()):
            continue
        kinds = ["zero", "swap", "times_x", "poly"] + (["scalar"] if g.parity == EVEN else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            out[g.name] = CTX5.zero()
        elif kind == "scalar":
            out[g.name] = draw(scalars)
        elif kind == "swap":
            same = [h.name for h in CTX5.generators if h.parity == g.parity]
            out[g.name] = CTX5.gen(draw(st.sampled_from(same)))
        elif kind == "times_x":
            out[g.name] = CTX5.gen(g.name) * CTX5.gen("x")
        else:
            out[g.name] = draw(_homogeneous5(g.parity))
    return out


@hypothesis.settings(max_examples=200, deadline=2000)
@hypothesis.given(polys5, assignments5())
def test_grouped_substitution_equals_term_by_term(p, assignments):
    out = p.substitute(assignments)
    assert out == substitute_sum(p, assignments)
    assert all(not c.is_zero for c in out.terms.values())


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


@st.composite
def ce_tables(draw):
    """Antisymmetric f of dim 0..6 with integer entries and halves and
    thirds, mostly failing Jacobi; about half of them are made traceless by
    correcting f^j_jk, j = k+1 mod dim, which enters tr ad(e_k) alone."""
    dim = draw(st.integers(0, 6))
    brackets = _table(draw, [(i, j, k) for j in range(dim) for k in range(j + 1, dim)
                             for i in range(dim)], 14)
    if dim >= 2 and draw(st.booleans()):
        for k, trace in enumerate(_ad_traces(LieModel.build(dim, brackets))):
            j = (k + 1) % dim
            key, sign = ((j, j, k), 1) if j < k else ((j, k, j), -1)
            brackets[key] = brackets.get(key, 0) - sign * trace
    return LieModel.build(dim, brackets)


@hypothesis.settings(max_examples=200, deadline=5000)
@hypothesis.given(ce_tables())
@hypothesis.example(LieModel.build(4, {(2, 0, 1): 1, (0, 1, 2): 1, (0, 2, 3): 1}))
@hypothesis.example(LieModel.build(3, {(1, 0, 1): Fraction(1, 2), (0, 1, 2): 1}))
def test_ce_dims_equal_full_complex_oracle(model):
    hypothesis.event("traceless" if not any(_ad_traces(model)) else "not traceless")
    hypothesis.event("Jacobi holds" if not jacobi_triple_loop(model) else "Jacobi fails")
    assert ce_cohomology_dims(model, 0) == ce_cohomology_dims_full(model, 0)
