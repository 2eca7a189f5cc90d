"""Property tests against the oracles in oracles.py: the multiply-accumulate
product equals the pairwise product on small drawn polynomials over 2 even +
2 odd generators, and its kernel fills the same terms dict as the left-outer
kernel, zeros included; subtracting a Poly or a scalar equals adding its
negation and leaves the left operand as it was; substitution equals the term-by-term substitution
over 2 even + 3 odd generators, the ExpElement pairs equal the key merge
and sort on shuffled pair lists whose exponents share monomial sets and
whose prefactors cancel, the rational Lie routes and the squares read off
per-monomial images equal the Scalar and the whole-image routes on drawn
antisymmetric tables, and the Chevalley-Eilenberg dims equal the
full-complex ranks on drawn Lie algebras, traceless or not, at p = 0 and with
the adjoint module at p = 1, with the weight-zero monomials the brute-force
filter names, also when the gate of the eigenbasis route is open and every
sheared table takes it, and the derivation read off an antifield-linear
S1 by one sweep equals the one built from an antibracket per field on every
field layout of tests/test_bv.py.  On the same layouts, the master residuals
and the off-shell residual of drawn even actions equal the general bracket,
and exp_delta takes no self-bracket through ``bracket``.  Both gauge routes
refuse a delta-closed element, with the same message, exactly when one of
its restricted exponents is not the standard damping plus a nilpotent part,
also where delta of the element leaves the boundary route nothing to
integrate.  On drawn elements and fermions of the spaces of
tests/test_gauge.py, refusals included, the routes' integrals equal the
whole-product oracle on every gauge or raise the same refusal type, and
one split of each P and T, shared by every gauge, substitutes to the
term-by-term substitution."""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bvcalc import EVEN, ODD, BVSpace, LieModel, Scalar, jacobi_check, rep_check  # noqa: E402
from bvcalc.gauge import (ExpElement, GaugeFermion, NonGaussianIntegrand,  # noqa: E402
                          NonNormalizedDamping, _gauge_integrals, exact_boundary_integrals,
                          exp_delta, gauge_independence_experiment, lagrangian_integral,
                          restrict_to_lagrangian, standard_damping)
from bvcalc import lie  # noqa: E402
from bvcalc._eigenbasis import rewrite  # noqa: E402
from bvcalc.lie import (_ad_traces, _brst_table, _ce_basis, _weight_zero_bases,  # noqa: E402
                        ce_cohomology_dims)
from bvcalc.randgen import random_poly  # noqa: E402
from bvcalc.superalgebra import Context, Poly, _mul_into, _split, _substitute  # noqa: E402

from conftest import (_matrix_algebra, change_basis, gl, refusing_self_brackets, sl2,  # noqa: E402
                      solvable2)
from oracles import (bracket_sum, ce_cohomology_dims_full, ce_images,  # noqa: E402
                     ce_images_scalar, ce_weight_zero_keys, exp_delta_split, exp_pairs_by_key,
                     extract_by_bracket, first_split_element, jacobi_triple_loop,
                     lagrangian_integral_full,
                     mul_into_left_outer, mul_pairwise, parity_split,
                     rep_commutator_check, substitute_sum, violations_square)
from test_bv import FIELD_SPECS  # noqa: E402
from test_lie import diagonal_spectra  # noqa: E402
from test_gauge import SPACES, integral_outcome  # noqa: E402

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


@hypothesis.settings(max_examples=200, deadline=1000)
@hypothesis.given(polys, st.one_of(polys, scalars, rationals))
def test_subtraction_equals_adding_the_negation(a, b):
    hypothesis.event("poly" if isinstance(b, Poly) else type(b).__name__)
    before = dict(a.terms)
    assert a - b == a + (-b)
    assert b - a == b + (-a)
    assert all(not c.is_zero for c in (a - b).terms.values())
    assert (a - a).terms == {}
    assert a.terms == before


@st.composite
def terms_dicts(draw):
    """Three mixed-parity terms dicts over 0 or 2 even and 4 odd generators,
    all with Scalar (i, hbar) coefficients or all with int/Fraction ones."""
    n_even = draw(st.sampled_from((0, 2)))
    monos = st.tuples(st.tuples(*[st.integers(0, 2)] * n_even), st.integers(0, 15))
    coeffs = draw(st.sampled_from((scalars, rationals)))
    return [draw(st.dictionaries(monos, coeffs, max_size=6)) for _ in range(3)]


def _typed(terms):
    return {m: (type(c), c) for m, c in terms.items()}


@hypothesis.settings(max_examples=300, deadline=1000)
@hypothesis.given(terms_dicts())
def test_kernel_fills_the_same_dict_as_the_left_outer_kernel(dicts):
    a, b, c = dicts
    # a and b in both orders cover |a| < |b| and |a| > |b|, a with itself
    # |a| = |b|; c is a sum already under way, so cancellations reach zero
    for x, y in ((a, b), (b, a), (a, a)):
        hypothesis.event("<" if len(x) < len(y) else ">" if len(x) > len(y) else "=")
        assert _typed(_mul_into(dict(c), x, y)) == _typed(mul_into_left_outer(dict(c), x, y))


BV_SPACES = {spec: BVSpace.over_fields(fields) for spec, fields in FIELD_SPECS.items()}


@st.composite
def antifield_linear(draw, bvs):
    """A parity-homogeneous sum of antifield times field monomial, with
    Scalar (i, hbar) coefficients and the odd fields in drawn order; zero
    included."""
    ctx = bvs.ctx
    evens = [f for f, _ in bvs.pairs if ctx.parity_of(f) == EVEN]
    odds = [f for f, _ in bvs.pairs if ctx.parity_of(f) == ODD]
    s1 = ctx.zero()
    for _ in range(draw(st.integers(0, 4))):
        _, a = draw(st.sampled_from(bvs.pairs))
        even = {x: draw(st.integers(0, 2)) for x in evens}
        odd = draw(st.permutations(odds))[:draw(st.integers(0, len(odds)))]
        s1 = s1 + ctx.gen(a) * ctx.monomial(draw(scalars), even, odd)
    return parity_split(s1)[draw(st.integers(0, 1))]


@pytest.mark.parametrize("spec", sorted(FIELD_SPECS))
@hypothesis.settings(max_examples=100, deadline=2000)
@hypothesis.given(data=st.data())
def test_extract_derivation_equals_bracket_oracle(spec, data):
    bvs = BV_SPACES[spec]
    s1 = data.draw(antifield_linear(bvs))
    hypothesis.event(f"{len(s1.terms)} terms, parity {s1.parity()}")
    swept, oracle = bvs.extract_derivation(s1), extract_by_bracket(bvs, s1)
    assert swept.parity == oracle.parity and swept.ctx == oracle.ctx
    assert list(swept.images.items()) == list(oracle.images.items())


@st.composite
def bv_polys(draw, bvs, parity=None):
    """A Poly over ``bvs`` of up to 6 terms with exponents up to 2 and Scalar
    (i, hbar^-1..hbar^2) coefficients, even when ``parity`` is EVEN; zero
    included."""
    ctx = bvs.ctx
    masks = [m for m in range(1 << len(ctx.odd_names))
             if parity is None or m.bit_count() % 2 == parity]
    mono = st.tuples(st.tuples(*[st.integers(0, 2)] * ctx.n_even), st.sampled_from(masks))
    return Poly(ctx, draw(st.dictionaries(mono, scalars, max_size=6)))


@pytest.mark.parametrize("spec", sorted(FIELD_SPECS))
@hypothesis.settings(max_examples=100, deadline=2000)
@hypothesis.given(data=st.data())
def test_self_bracket_residuals_equal_the_general_bracket(spec, data):
    bvs = BV_SPACES[spec]
    s = data.draw(bv_polys(bvs, EVEN))
    parts = dict(bvs.antifield_decompose(s))
    s0, s1, s2 = (parts.get(k, bvs.ctx.zero()) for k in range(3))
    hypothesis.event(f"antifield degrees {sorted(parts)}")
    ss = bvs.bracket(s, s)
    assert bvs.classical_master_residual(s) == ss == bracket_sum(bvs, s, s)
    assert bvs.quantum_master_residual(s) == ss - 2 * Scalar.hbar() * Scalar.i() * bvs.delta(s)
    assert bvs.antifield_report(s).offshell_residual == \
        bvs.bracket(s1, s1) + 2 * bvs.bracket(s0, s2)


@pytest.mark.parametrize("spec", sorted(FIELD_SPECS))
@hypothesis.settings(max_examples=50, deadline=2000)
@hypothesis.given(data=st.data())
def test_exp_delta_takes_no_self_bracket_through_bracket(spec, data):
    bvs = BV_SPACES[spec]
    element = ExpElement(bvs, data.draw(st.lists(
        st.tuples(bv_polys(bvs), bv_polys(bvs, EVEN)), max_size=2)))
    expected = exp_delta_split(element)
    with refusing_self_brackets():
        assert exp_delta(element) == expected


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


# the paired space on x even and t odd: x, tp even and t, xp odd, so its
# monomials have the same shape as CTX's
BVS = BVSpace.over_fields([("x", EVEN), ("t", ODD)])
EVEN_MONOS = [((0, 0), 0), ((2, 0), 0), ((1, 1), 0), ((0, 0), 3), ((1, 0), 3)]
COEFFS = [Scalar.of(1), Scalar.of(-1), Scalar.of(2), Scalar.i() * Scalar.hbar(-1)]
prefactors = st.dictionaries(monomials, scalars, min_size=1, max_size=3).map(
    lambda terms: Poly(BVS.ctx, terms))


def _exponents(monos):
    """Even exponents with the monomial set ``monos``."""
    monos = sorted(monos)
    return st.lists(st.sampled_from(COEFFS), min_size=len(monos), max_size=len(monos)).map(
        lambda cs: Poly(BVS.ctx, dict(zip(monos, cs))))


@st.composite
def exp_pair_lists(draw):
    """Pairs over three to five distinct exponents on two monomial sets, so
    that two of them always share a set, and sometimes the zero exponent;
    each has one to three prefactors and, one time in three, a last one
    that cancels their sum.  The list is shuffled."""
    sets = draw(st.lists(st.frozensets(st.sampled_from(EVEN_MONOS), min_size=1, max_size=3),
                         min_size=2, max_size=2, unique=True))
    exponent = st.sampled_from(sets).flatmap(_exponents)
    ts = draw(st.lists(exponent, min_size=3, max_size=5, unique_by=Poly.key))
    if draw(st.booleans()):
        ts.append(BVS.ctx.zero())
    pairs = []
    for t in ts:
        ps = draw(st.lists(prefactors, min_size=1, max_size=3))
        if draw(st.integers(0, 2)) == 0:
            ps.append(-sum(ps, BVS.ctx.zero()))
        pairs += [(p, t) for p in ps]
    return draw(st.permutations(pairs))


@hypothesis.settings(max_examples=200, deadline=1000)
@hypothesis.given(exp_pair_lists())
def test_exp_element_merges_like_the_key_merge(pairs):
    element = ExpElement(BVS, pairs)
    hypothesis.event(f"{len(element.pairs)} pairs left")
    expected = exp_pairs_by_key(pairs)
    assert element.pairs == expected
    assert str(element) == (" + ".join(f"({p})*exp({t})" for p, t in expected) or "0")


# exponents on BVS: the damping -x^2/2 or not, plus monomials that may hold
# an odd generator (t*xp, x*t*xp) or not (1, x*tp, which F sends to x*dF/dt)
damped_exponents = st.tuples(st.sampled_from([0, 1, 1, 2]), st.dictionaries(
    st.sampled_from([((0, 0), 0), ((1, 1), 0), ((0, 0), 3), ((1, 0), 3)]),
    st.sampled_from(COEFFS), max_size=2)).map(
        lambda drawn: drawn[0] * standard_damping(BVS) + Poly(BVS.ctx, drawn[1]))
# t * (a + b x + c x^2), zero included
gauge_fermions = st.lists(rationals, min_size=3, max_size=3).map(
    lambda cs: GaugeFermion(BVS, Poly(BVS.ctx, {((k, 0), 1): Scalar.of(c)
                                                for k, c in enumerate(cs) if c})))


def _refusal(route, element, fermions):
    try:
        route(element, fermions)
    except NonNormalizedDamping as exc:
        return str(exc)
    return None


@hypothesis.settings(max_examples=100, deadline=2000)
@hypothesis.given(st.lists(st.tuples(prefactors, damped_exponents), max_size=2),
                  st.lists(gauge_fermions, min_size=1, max_size=3))
def test_both_gauge_routes_refuse_the_same_damping(pairs, fermions):
    element = exp_delta(ExpElement(BVS, pairs))   # delta-closed, and its boundary is zero
    damping = standard_damping(BVS)
    bad = any(not mask for fermion in fermions for _, t in element.pairs
              for _, mask in (restrict_to_lagrangian(t, fermion) - damping).terms)
    hypothesis.event("refused" if bad else "integrated")
    refusal = _refusal(gauge_independence_experiment, element, fermions)
    assert (refusal is not None) == bad
    assert _refusal(exact_boundary_integrals, element, fermions) == refusal


GAUGE_SPACES = {name: make() for name, make in SPACES.items()}


@st.composite
def gauge_cases(draw):
    """(space, element, fermions) on a space of tests/test_gauge.py: the zero
    fermion, on plain-w maybe w*th (whose images hold w), and up to two
    drawn ones; one to three pairs of a drawn P and the damping plus a drawn
    even part, with or without its odd-free monomials (a refusal), and
    maybe a pair whose exponent differs from the first by an antifield
    term, so that its P merges with the first one's under the zero gauge
    and cancels it.  The polynomials come from random_poly on a drawn seed."""
    name = draw(st.sampled_from(sorted(GAUGE_SPACES)))
    bvs = GAUGE_SPACES[name]
    ctx = bvs.ctx
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    fermions = [GaugeFermion(bvs, ctx.zero())]
    if name == "plain-w" and draw(st.booleans()):
        fermions.append(GaugeFermion(bvs, ctx.gen("w") * ctx.gen("th")))
    for _ in range(draw(st.integers(0, 2))):
        drawn = random_poly(rng, bvs.field_ctx, 3, 3, parity=ODD)
        fermions.append(GaugeFermion(bvs, bvs.field_ctx.transport(drawn, ctx)))
    damping = standard_damping(bvs)
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        body = random_poly(rng, ctx, 4, 3, parity=EVEN, hbar_max=1)
        if draw(st.booleans()):
            body = Poly(ctx, {m: c for m, c in body.terms.items() if m[1]})
        pairs.append((random_poly(rng, ctx, 5, 5, hbar_max=1), damping + body))
    if draw(st.booleans()):
        anti = next(a for f, a in bvs.pairs if ctx.parity_of(f) == EVEN)
        odd_field = next(f for f, _ in bvs.pairs if ctx.parity_of(f) == ODD)
        pairs.append((-pairs[0][0], pairs[0][1] + ctx.gen(anti) * ctx.gen(odd_field)))
    return bvs, ExpElement(bvs, pairs), fermions


@hypothesis.settings(max_examples=100, deadline=5000)
@hypothesis.given(gauge_cases())
def test_gauge_integrals_equal_the_full_product_oracle(case):
    # every restricted exponent is checked first; then each gauge gives the
    # whole-product value, or the first gauge the oracle refuses raises
    # that refusal.  lagrangian_integral on each gauge is the helper on
    # that gauge alone: the same value, or the same refusal type
    bvs, element, fermions = case
    damping = standard_damping(bvs)
    if any(not mask for fermion in fermions for _, t in element.pairs
           for _, mask in (restrict_to_lagrangian(t, fermion) - damping).terms):
        expected = NonNormalizedDamping
    else:
        values = [integral_outcome(lagrangian_integral_full, element, f) for f in fermions]
        expected = next((v for v in values if isinstance(v, type)), values)
    try:
        got = _gauge_integrals(bvs, element.pairs, fermions)
    except (NonNormalizedDamping, NonGaussianIntegrand) as exc:
        got = type(exc)
    hypothesis.event(got.__name__ if isinstance(got, type) else "integrated")
    assert got == expected
    for fermion in fermions:
        try:
            alone = _gauge_integrals(bvs, element.pairs, [fermion])[0]
        except (NonNormalizedDamping, NonGaussianIntegrand) as exc:
            alone = type(exc)
        assert integral_outcome(lagrangian_integral, element, fermion) == alone


@hypothesis.settings(max_examples=100, deadline=5000)
@hypothesis.given(gauge_cases())
def test_one_split_serves_every_gauge(case):
    # each P and T split once against the antifield slots, then substituted
    # per gauge through one cache, against the term-by-term substitution;
    # the splits stay as they were, and no cache gives the same terms
    bvs, element, fermions = case
    ctx = bvs.ctx
    evens, odds = bvs._antifield_sweep
    assigned = (tuple(s for _, s in evens), sum(bit for _, bit in odds))
    polys = [q for pair in element.pairs for q in pair]
    splits = [_split(ctx, assigned, q) for q in polys]
    for fermion in fermions:
        images, cache = fermion._slot_images(), {}
        expected = [substitute_sum(q, fermion.antifield_images()) for q in polys]
        assert [Poly(ctx, _substitute(split, *images, cache)) for split in splits] == expected
        assert [Poly(ctx, _substitute(split, *images, {})) for split in splits] == expected
    assert splits == [_split(ctx, assigned, q) for q in polys]


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
        assert ce_images(model, p) == ce_images_scalar(model, p)
    assert jacobi_check(model) == jacobi_triple_loop(model)
    assert rep_check(model) == rep_commutator_check(model)


NON_JACOBI = LieModel.build(3, {(2, 0, 1): 1, (0, 0, 1): 1, (0, 1, 2): 1, (1, 2, 0): 1})
NON_REP = LieModel.build(3, {(1, 0, 1): 2, (2, 0, 2): -2, (0, 1, 2): 1}, 2,
                         {(0, 0, 0): 1, (1, 0, 1): 1})


@hypothesis.settings(max_examples=150, deadline=2000)
@hypothesis.given(lie_tables())
@hypothesis.example(NON_JACOBI)
@hypothesis.example(NON_REP)
def test_checks_equal_the_squaring_oracle(model):
    table = _brst_table(model)
    for check, public in (("jacobi", jacobi_check), ("rep", rep_check)):
        expected = violations_square(table, check)
        hypothesis.event(f"{check} {'fails' if expected else 'holds'}")
        assert public(model) == expected


def direct_sum(models) -> LieModel:
    brackets, offset = {}, 0
    for model in models:
        brackets.update({(i + offset, j + offset, k + offset): val
                         for (i, j, k), val in model.f.items() if j < k})
        offset += model.dim
    return LieModel.build(offset, brackets)


def rescale(model: LieModel, scales) -> LieModel:
    """The same algebra in the basis s_j e_j."""
    return LieModel.build(model.dim, {(i, j, k): val * scales[j] * scales[k] / scales[i]
                                      for (i, j, k), val in model.f.items() if j < k})


def heisenberg() -> LieModel:
    """[x, y] = z."""
    return LieModel.build(3, {(2, 0, 1): 1})


PIECES = {"gl2": gl(2), "sl2": sl2(), "solvable2": solvable2(), "heisenberg": heisenberg()}


@st.composite
def triangular_subalgebras(draw):
    """The span of some diagonal matrix units, the identity or not, and a set
    of strictly upper-triangular units closed under (a,b), (b,c) -> (a,c),
    in gl(n) for n = 2..4: a bracket-closed subalgebra of dimension 1..6."""
    n = draw(st.integers(2, 4))
    cells = set(draw(st.sets(st.sampled_from([(a, b) for a in range(n)
                                              for b in range(a + 1, n)]))))
    while True:
        more = {(a, d) for a, b in cells for c, d in cells if b == c} - cells
        if not more:
            break
        cells |= more
    cells = sorted(cells)
    diag = [{(a, a): 1} for a in sorted(draw(st.sets(st.integers(0, n - 1))))]
    if len(diag) < n and draw(st.booleans()):
        diag.append({(a, a): 1 for a in range(n)})
    hypothesis.assume(1 <= len(diag) + len(cells) <= 6)

    def coords(m):
        # brackets of upper-triangular matrices are strictly upper-triangular
        assert all(not v for cell, v in m.items() if cell not in cells)
        return [0] * len(diag) + [m.get(cell, 0) for cell in cells]
    return _matrix_algebra(diag + [{cell: 1} for cell in cells], coords)


@st.composite
def lie_algebras(draw):
    """Lie algebras of dimension <= 6: a direct sum of one to three of gl(2),
    sl(2), solvable2 and the Heisenberg algebra, or an upper-triangular
    subalgebra; then up to four unimodular shears and an optional rescaling
    of the basis by small rationals."""
    if draw(st.booleans()):
        names = draw(st.lists(st.sampled_from(sorted(PIECES)), min_size=1, max_size=3))
        hypothesis.assume(sum(PIECES[name].dim for name in names) <= 6)
        model = direct_sum(PIECES[name] for name in names)
    else:
        model = draw(triangular_subalgebras())
    n = model.dim
    if n >= 2:
        shears = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                         st.sampled_from((-1, 1))), max_size=4))
        model = change_basis(model, [(a, b, s) for a, b, s in shears if a != b])
        if draw(st.booleans()):
            model = rescale(model, draw(st.lists(
                st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                                 Fraction(-1, 3)]), min_size=n, max_size=n)))
    return model


@hypothesis.settings(max_examples=200, deadline=5000)
@hypothesis.given(lie_algebras())
@hypothesis.example(change_basis(gl(2), [(0, 3, 1), (2, 1, -1)]))
@hypothesis.example(rescale(sl2(), [Fraction(1), Fraction(1), Fraction(1, 2)]))
def test_ce_dims_equal_full_complex_oracle(model):
    hypothesis.event("traceless" if not any(_ad_traces(model)) else "not traceless")
    bases = _weight_zero_bases(model, 0)
    hypothesis.event("weight-filtered" if bases else "unfiltered")
    for q in range(model.dim + 1):
        keys = ce_weight_zero_keys(model, 0, q)
        assert (sorted(bases[q]) == sorted(keys) if bases
                else keys == _ce_basis(model.module_dim, model.dim, 0, q))
    assert jacobi_check(model) == []
    assert ce_cohomology_dims(model, 0) == ce_cohomology_dims_full(model, 0)
    if model.dim <= 4:
        adj = model.adjoint()
        assert rep_check(adj) == []
        assert ce_cohomology_dims(adj, 1) == ce_cohomology_dims_full(adj, 1)


@hypothesis.settings(max_examples=150, deadline=5000)
@hypothesis.given(lie_algebras())
@hypothesis.example(change_basis(gl(2), [(0, 3, 1), (2, 1, -1)]))
@hypothesis.example(rescale(change_basis(sl2(), [(0, 1, 1), (2, 0, -1)]),
                            [Fraction(1), Fraction(2), Fraction(-1, 3)]))
def test_eigenbasis_route_equals_full_complex_oracle(model):
    """Each drawn table, and its adjoint at p = 1, is rewritten in an
    eigenbasis of the element ``first_split_element`` names, if there is
    one: the rewritten table is a Lie algebra and a module on which that
    element acts diagonally with its spectrum.  With the gate open,
    ``ce_cohomology_dims`` takes that route wherever no basis vector acts
    diagonally, and its dims equal the full-complex oracle's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lie, "_EIGENBASIS_MIN_SIZE", 0)
        for p, table in [(0, model)] + [(1, model.adjoint())] * (model.dim <= 4):
            rewritten, split = rewrite(table, p), first_split_element(table, p)
            routed = rewritten is not None and _weight_zero_bases(table, p) is None
            hypothesis.event(f"p = {p}: " + ("eigenbasis route" if routed else "other route"))
            assert (rewritten is None) == (split is None)
            if rewritten is not None:
                _, ad, action = split
                assert jacobi_check(rewritten) == rep_check(rewritten) == []
                assert (sorted(v for v, k in ad.items() for _ in range(k)),
                        sorted(v for v, k in action.items() for _ in range(k))) \
                    in diagonal_spectra(rewritten, p)
            assert ce_cohomology_dims(table, p) == ce_cohomology_dims_full(table, p)
