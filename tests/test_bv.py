from fractions import Fraction

import pytest

from bvcalc import (BVSpace, Derivation, EVEN, ODD, Scalar, brst_lie,
                    brst_rep, cli, load_model, parse_expression, trace_condition)
from bvcalc.gauge import ExpElement, exp_delta, standard_damping
from bvcalc.randgen import random_poly
from bvcalc.superalgebra import ANTIFIELD, FIELD, Context, Generator, Poly

from conftest import MODELS, sl2, sl2_rescaled, solvable2
from oracles import (berezin_loop, berezin_right_deriv, bracket_split, bracket_sum, delta_sum,
                     exp_delta_split, hbar_equations_loop, right_deriv_split)


def random_field_derivation(rng, bvs, max_degree=3):
    """Random odd derivation touching only the field generators."""
    field_ctx = bvs.field_ctx
    images = {}
    for g in field_ctx.generators:
        img = random_poly(rng, field_ctx, max_degree, 2, parity=(g.parity + 1) % 2)
        if not img.is_zero:
            images[g.name] = img
    return Derivation(field_ctx, ODD, images)


# a 1|1 space and another context, for the context checks
BVS = BVSpace.over_fields([("x", EVEN), ("th", ODD)])
OTHER = Context.plain([("x", EVEN)])

# refusals of a context or a point value, each with its whole message; a point
# value goes by Scalar.of, so a float, str or bool is not silently converted
REFUSALS = {
    "delta": (lambda: BVS.delta(OTHER.one()), ValueError, "context mismatch"),
    "bracket": (lambda: BVS.bracket(BVS.ctx.one(), OTHER.one()), ValueError, "context mismatch"),
    "defect": (lambda: BVS.bracket_via_defect(BVS.ctx.zero(), OTHER.one()),
               ValueError, "context mismatch"),
    "action": (lambda: BVS.check_action(OTHER.one()), ValueError, "context mismatch"),
    "float-point": (lambda: BVS.evaluate_even_fields(BVS.ctx.one(), {"x": 0.1}),
                    TypeError, "cannot make a Scalar out of 0.1"),
    "str-point": (lambda: BVS.evaluate_even_fields(BVS.ctx.one(), {"x": "1/2"}),
                  TypeError, "cannot make a Scalar out of '1/2'"),
    "bool-point": (lambda: BVS.evaluate_even_fields(BVS.ctx.one(), {"x": True}),
                   TypeError, "cannot make a Scalar out of True"),
    "i-point": (lambda: BVS.evaluate_even_fields(BVS.ctx.one(), {"x": Scalar.i()}),
                ValueError, "scalar i has an imaginary part"),
    "hbar-point": (lambda: BVS.evaluate_even_fields(BVS.ctx.one(), {"x": Scalar.hbar()}),
                   ValueError, "scalar hbar carries hbar, not a plain rational"),
    "report-point": (lambda: BVS.antifield_report(BVS.ctx.gen("x"), [{"x": 0.5}]),
                     TypeError, "cannot make a Scalar out of 0.5"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


class TestDelta:
    def test_pair_examples(self, bvs_1_1):
        ctx = bvs_1_1.ctx
        assert bvs_1_1.delta(ctx.gen("x") * ctx.gen("xp")) == ctx.one()
        assert bvs_1_1.delta(ctx.gen("th") * ctx.gen("thp")) == ctx.one()
        assert bvs_1_1.delta(ctx.gen("x") * ctx.gen("x")).is_zero

    def test_flips_parity(self, bvs_2_2, rng):
        for _ in range(40):
            parity = rng.randint(0, 1)
            phi = random_poly(rng, bvs_2_2.ctx, 4, 3, parity=parity)
            out = bvs_2_2.delta(phi)
            if not out.is_zero:
                assert out.parity() == (parity + 1) % 2

    def test_squares_to_zero(self, bvs_2_2, rng):
        for _ in range(80):
            phi = random_poly(rng, bvs_2_2.ctx, 4, 4, hbar_max=1)
            assert bvs_2_2.delta(bvs_2_2.delta(phi)).is_zero

    def test_requires_pairing(self):
        ctx = Context.plain([("x", EVEN), ("t", ODD)])
        with pytest.raises(ValueError, match="pairing"):
            BVSpace(ctx)


class TestBracket:
    def test_coordinate_pairs(self, bvs_1_1):
        ctx = bvs_1_1.ctx
        assert bvs_1_1.bracket(ctx.gen("x"), ctx.gen("xp")) == ctx.one()
        assert bvs_1_1.bracket(ctx.gen("xp"), ctx.gen("x")) == -ctx.one()
        assert bvs_1_1.bracket(ctx.gen("x"), ctx.gen("x")).is_zero

    def test_both_routes_agree(self, bvs_2_2, rng):
        # mixed-parity draws, with Q(i) and with Laurent-hbar coefficients
        for hbar_max in (0, 1):
            for _ in range(60):
                a = random_poly(rng, bvs_2_2.ctx, 4, 3, hbar_max=hbar_max)
                b = random_poly(rng, bvs_2_2.ctx, 4, 3, hbar_max=hbar_max)
                assert bvs_2_2.bracket(a, b) == bvs_2_2.bracket_via_defect(a, b)

    def test_constants_central(self, bvs_2_2, rng):
        one = bvs_2_2.ctx.one()
        for _ in range(20):
            psi = random_poly(rng, bvs_2_2.ctx, 4, 3)
            assert bvs_2_2.bracket(one, psi).is_zero
            assert bvs_2_2.bracket(psi, one).is_zero


FIELD_SPECS = {
    "2|2": [("x1", EVEN), ("x2", EVEN), ("t1", ODD), ("t2", ODD)],
    "1|1": [("x", EVEN), ("th", ODD)],
    "0|3": [("t1", ODD), ("t2", ODD), ("t3", ODD)],
    # odd fields before even ones, alternating, so that a pair's position
    # among the pairs differs from its position among the even or the odd
    # fields
    "odd-first": [("t1", ODD), ("x", EVEN), ("t2", ODD), ("y", EVEN)],
}


# Each antifield right after its field: the odd generators are then
# t1, x1p, t2, x2p, so field and antifield odd bits interleave, a layout
# that over_fields (every antifield after every field) never builds.
INTERLEAVED = [("t1", ODD), ("x1", EVEN), ("t2", ODD), ("x2", EVEN)]


def space(spec):
    if spec == "interleaved":
        return BVSpace(Context(
            g for name, parity in INTERLEAVED
            for g in (Generator(name, parity, FIELD),
                      Generator(name + "p", 1 - parity, ANTIFIELD, name))))
    return BVSpace.over_fields(FIELD_SPECS[spec])


def test_interleaved_layout():
    ctx = space("interleaved").ctx
    assert [g.name for g in ctx.generators] == ["t1", "t1p", "x1", "x1p",
                                                "t2", "t2p", "x2", "x2p"]
    assert ctx.odd_names == ("t1", "x1p", "t2", "x2p")


@pytest.mark.parametrize("spec", sorted(FIELD_SPECS) + ["interleaved"])
def test_standard_damping_is_the_monomial_sum(spec):
    bvs = space(spec)
    ctx = bvs.ctx
    expected = ctx.zero()
    for f, _ in bvs.pairs:
        if ctx.parity_of(f) == EVEN:
            expected = expected + ctx.monomial(Fraction(-1, 2), even={f: 2})
    damping = standard_damping(bvs)
    assert damping == expected and damping.parity() == EVEN


@pytest.mark.parametrize("spec", sorted(FIELD_SPECS) + ["interleaved"])
class TestSignOracles:
    """Per-monomial signs against the parity-split routes in tests/oracles.py,
    on mixed-parity inputs with i and hbar; every tenth argument is zero."""

    def pairs(self, rng, ctx, count):
        for n in range(count):
            a = ctx.zero() if n % 10 == 3 else random_poly(rng, ctx, 4, 4, hbar_max=1)
            b = ctx.zero() if n % 10 == 7 else random_poly(rng, ctx, 4, 4, hbar_max=1)
            yield a, b

    def test_bracket_and_right_deriv(self, spec, rng):
        bvs = space(spec)
        names = [g.name for g in bvs.ctx.generators]
        for a, b in self.pairs(rng, bvs.ctx, 120):
            assert bvs.bracket(a, b) == bracket_split(bvs, a, b)
            for name in names:
                assert a.right_deriv(name) == right_deriv_split(a, name)

    def test_delta_and_bracket_sum_loops(self, spec, rng):
        bvs = space(spec)
        for a, b in self.pairs(rng, bvs.ctx, 120):
            assert bvs.delta(a) == delta_sum(bvs, a)
            assert bvs.bracket(a, b) == bracket_sum(bvs, a, b)
            # the same object as both arguments
            assert bvs.bracket(a, a) == bracket_sum(bvs, a, a)
        # {psi, psi} of an odd psi with several terms cancels pair by pair
        for _ in range(20):
            psi = random_poly(rng, bvs.ctx, 3, 5, ODD, hbar_max=1)
            assert bvs.bracket(psi, psi).terms == {}
            assert bracket_sum(bvs, psi, psi).is_zero

    def test_bracket_builds_no_derivative_poly(self, spec, rng, monkeypatch):
        bvs = space(spec)
        two_i_hbar = 2 * Scalar.hbar(1) * Scalar.i()
        cases = []
        for a, b in self.pairs(rng, bvs.ctx, 30):
            s = random_poly(rng, bvs.ctx, 3, 4, parity=EVEN, hbar_max=1)
            # the oracles take their derivatives as Polys, so run them first
            qme = bracket_sum(bvs, s, s) - two_i_hbar * delta_sum(bvs, s)
            cases.append((a, b, bracket_split(bvs, a, b), s, qme,
                          hbar_equations_loop(bvs, s)))

        def refuse(poly, name):
            raise AssertionError("derivative Poly built")

        monkeypatch.setattr(Poly, "left_deriv", refuse)
        monkeypatch.setattr(Poly, "right_deriv", refuse)
        for a, b, expected, s, qme, rows in cases:
            assert bvs.bracket(a, b) == expected
            assert bvs.hbar_equations(s) == rows
            total = bvs.ctx.zero()
            for k, r in rows:
                total = total + Scalar.hbar(k) * r
            assert total == qme
            assert bvs.quantum_master_residual(s) == qme

    def test_berezin(self, spec, rng):
        # the coefficient loop against minus the right derivative per
        # variable, on shuffled and repeated names; an even or unknown name
        # is refused even after a repeated one
        bvs = space(spec)
        ctx = bvs.ctx
        odd_fields = [f for f, _ in bvs.pairs if ctx.parity_of(f) == ODD]
        first = ctx.odd_names[0]
        bad = [[first, first, ctx.even_names[0]], [first, first, "zz"]]
        for a, _ in self.pairs(rng, ctx, 120):
            shuffled = list(ctx.odd_names)
            rng.shuffle(shuffled)
            repeated = shuffled + [rng.choice(shuffled)]
            rng.shuffle(repeated)
            for names in ([odd_fields, ctx.odd_names, shuffled, repeated, [first, first]]
                          + [[n] for n in ctx.odd_names]):
                out = berezin_loop(a, names)
                assert out == berezin_right_deriv(a, names)
                assert all(not c.is_zero for c in out.terms.values())
            assert berezin_loop(a, repeated).is_zero
            for names in bad:
                for route in (berezin_loop, berezin_right_deriv):
                    with pytest.raises(ValueError):
                        route(a, names)

    def test_exp_delta(self, spec, rng):
        bvs = space(spec)
        ctx = bvs.ctx
        for _ in range(30):
            # one to three pairs, with exponents of any antifield degree
            pairs = [(random_poly(rng, ctx, 4, 4, hbar_max=1),
                      random_poly(rng, ctx, 3, 3, parity=EVEN, hbar_max=1))
                     for _ in range(rng.randint(1, 3))]
            element = ExpElement(bvs, pairs)
            assert exp_delta(element).pairs == exp_delta_split(element).pairs


class TestQuadraticLift:
    def test_sl2_s1(self):
        D = brst_lie(sl2())
        bvs = BVSpace.over_fields([("c1", ODD), ("c2", ODD), ("c3", ODD)])
        s1 = bvs.s1_of(D)
        ctx = bvs.ctx
        expected = (ctx.gen("c1p") * ctx.monomial(1, odd=["c2", "c3"])
                    + ctx.gen("c2p") * ctx.monomial(2, odd=["c1", "c2"])
                    + ctx.gen("c3p") * ctx.monomial(-2, odd=["c1", "c3"]))
        assert s1 == expected
        assert s1.parity() == EVEN

    def test_zero_derivation(self, bvs_2_2):
        D = Derivation(bvs_2_2.field_ctx, ODD, {})
        assert bvs_2_2.s1_of(D).is_zero

    def test_solvable_s1(self):
        D = brst_lie(solvable2())
        bvs = BVSpace.over_fields([("c1", ODD), ("c2", ODD)])
        s1 = bvs.s1_of(D)
        ctx = bvs.ctx
        assert s1 == ctx.gen("c2p") * ctx.monomial(1, odd=["c1", "c2"])

    def test_rejects_antifield_images(self, bvs_1_1):
        ctx = bvs_1_1.ctx
        D = Derivation(ctx, ODD, {"x": ctx.gen("xp")})
        with pytest.raises(ValueError, match="antifield"):
            bvs_1_1.s1_of(D)

    def test_extract_round_trip(self, rng, bvs_2_2):
        for _ in range(15):
            D = random_field_derivation(rng, bvs_2_2)
            s1 = bvs_2_2.s1_of(D)
            if s1.is_zero:
                continue
            back = bvs_2_2.extract_derivation(s1)
            for g in bvs_2_2.field_ctx.generators:
                assert back.image(g.name) == D.image(g.name)
            assert bvs_2_2.s1_of(back) == s1

    def test_extract_examples(self):
        bvs = BVSpace.over_fields([("c1", ODD), ("c2", ODD)])
        ctx = bvs.ctx
        s1 = ctx.gen("c2p") * ctx.monomial(1, odd=["c1", "c2"])
        D = bvs.extract_derivation(s1)
        assert D.image("c1").is_zero
        assert D.image("c2") == bvs.field_ctx.monomial(1, odd=["c1", "c2"])
        with pytest.raises(ValueError, match="degree"):
            bvs.extract_derivation(ctx.gen("c1"))

    def test_extract_zero_gives_zero_derivation(self, bvs_2_2):
        D = bvs_2_2.extract_derivation(bvs_2_2.ctx.zero())
        assert D.is_zero

    def test_bracket_with_s1_is_the_derivation(self, rng, bvs_2_2):
        for _ in range(15):
            D = random_field_derivation(rng, bvs_2_2)
            s1 = bvs_2_2.s1_of(D)
            lifted = bvs_2_2.lift(D)
            phi = random_poly(rng, bvs_2_2.field_ctx, 3, 3)
            phi = bvs_2_2.field_ctx.transport(phi, bvs_2_2.ctx)
            assert bvs_2_2.bracket(s1, phi) == lifted.apply(phi)

    def test_s1_self_bracket_is_twice_delta_s1(self, rng, bvs_2_2):
        for _ in range(15):
            D = random_field_derivation(rng, bvs_2_2)
            s1 = bvs_2_2.s1_of(D)
            lifted = bvs_2_2.lift(D)
            assert bvs_2_2.bracket(s1, s1) == 2 * lifted.apply(s1)


class TestMasterEquations:
    def test_antifield_free_action_solves_classical(self, bvs_2_2, rng):
        for _ in range(20):
            s0 = random_poly(rng, bvs_2_2.field_ctx, 4, 3, parity=EVEN)
            s0 = bvs_2_2.field_ctx.transport(s0, bvs_2_2.ctx)
            assert bvs_2_2.classical_master_residual(s0).is_zero

    def test_sl2_rescaled_lift(self):
        # basis (t, e, f): the invariant of the adjoint action is vh^2 + 4 ve vf
        adj = sl2_rescaled().adjoint()
        D = brst_rep(adj, ["vh", "ve", "vf"])
        bvs = BVSpace.over_fields([("vh", EVEN), ("ve", EVEN), ("vf", EVEN),
                                   ("c1", ODD), ("c2", ODD), ("c3", ODD)])
        ctx = bvs.ctx
        s0 = parse_expression("vh^2 + 4*ve*vf", ctx)
        assert bvs.lift(D).apply(s0).is_zero
        s = s0 + Scalar.hbar() * bvs.s1_of(D)
        assert bvs.classical_master_residual(s).is_zero

        bad = ctx.gen("ve") + Scalar.hbar() * bvs.s1_of(D)
        residual = bvs.classical_master_residual(bad)
        assert residual == 2 * Scalar.hbar() * bvs.lift(D).apply(ctx.gen("ve"))
        assert not residual.is_zero

    def test_invariant_coefficient_tracks_basis_normalization(self):
        # under [h,e] = 2e, [h,f] = -2f, [e,f] = h the invariant is vh^2 + ve*vf
        adj = sl2().adjoint()
        D = brst_rep(adj, ["vh", "ve", "vf"])
        ctx = D.ctx
        assert D.apply(parse_expression("vh^2 + ve*vf", ctx)).is_zero
        assert not D.apply(parse_expression("vh^2 + 4*ve*vf", ctx)).is_zero

    def test_qme_sl2_adjoint(self):
        adj = sl2().adjoint()
        D = brst_rep(adj)
        bvs = BVSpace.over_fields([(n, EVEN) for n in ("v1", "v2", "v3")]
                                  + [(n, ODD) for n in ("c1", "c2", "c3")])
        s = Scalar.hbar() * bvs.s1_of(D)
        assert bvs.quantum_master_residual(s).is_zero

    def test_qme_solvable_residual(self):
        D = brst_lie(solvable2())
        bvs = BVSpace.over_fields([("c1", ODD), ("c2", ODD)])
        s = Scalar.hbar() * bvs.s1_of(D)
        residual = bvs.quantum_master_residual(s)
        expected = 2 * Scalar.i() * Scalar.hbar(2) * bvs.ctx.gen("c1")
        assert residual == expected

    def test_qme_zero_action(self, bvs_1_1):
        assert bvs_1_1.quantum_master_residual(bvs_1_1.ctx.zero()).is_zero

    def test_action_must_be_even(self, bvs_1_1):
        with pytest.raises(ValueError, match="even"):
            bvs_1_1.quantum_master_residual(bvs_1_1.ctx.gen("th"))


def assert_hbar_ladder(bvs, s):
    """hbar_equations gives the rows of the order-by-order oracle, and those
    rows sum back to the quantum master residual."""
    rows = hbar_equations_loop(bvs, s)
    assert bvs.hbar_equations(s) == rows
    total = bvs.ctx.zero()
    for k, r in rows:
        total = total + Scalar.hbar(k) * r
    assert total == bvs.quantum_master_residual(s)


class TestHbarEquations:
    def test_reconstructs_qme_residual(self, bvs_2_2, rng):
        for _ in range(30):
            s = random_poly(rng, bvs_2_2.ctx, 3, 4, parity=EVEN, hbar_max=2)
            assert_hbar_ladder(bvs_2_2, s)

    @pytest.mark.parametrize("name", sorted(p.name for p in MODELS.glob("*.model")))
    def test_fixture_default_action(self, name):
        model = load_model(str(MODELS / name))
        assert_hbar_ladder(model.bvs, cli._action(model, None))

    def test_antifield_free_action_all_zero(self, bvs_2_2, rng):
        s0 = random_poly(rng, bvs_2_2.field_ctx, 4, 3, parity=EVEN)
        s0 = bvs_2_2.field_ctx.transport(s0, bvs_2_2.ctx)
        assert bvs_2_2.hbar_equations(s0) == []

    def test_solvable_row(self):
        D = brst_lie(solvable2())
        bvs = BVSpace.over_fields([("c1", ODD), ("c2", ODD)])
        s = Scalar.hbar() * bvs.s1_of(D)
        rows = bvs.hbar_equations(s)
        assert [(k, str(r)) for k, r in rows] == [(2, "2*i*c1")]

    def test_reconstruction_with_laurent_powers(self, bvs_1_1, rng):
        # actions carrying negative hbar powers still satisfy the contract
        for _ in range(25):
            s = bvs_1_1.ctx.zero()
            for k in range(-2, 3):
                s = s + Scalar.hbar(k) * random_poly(rng, bvs_1_1.ctx, 3, 2,
                                                     parity=EVEN)
            assert_hbar_ladder(bvs_1_1, s)

    def test_qme_solution_has_no_rows(self):
        adj = sl2().adjoint()
        bvs = BVSpace.over_fields([(n, EVEN) for n in ("v1", "v2", "v3")]
                                  + [(n, ODD) for n in ("c1", "c2", "c3")])
        s = Scalar.hbar() * bvs.s1_of(brst_rep(adj))
        assert bvs.hbar_equations(s) == []


class TestOmega:
    def test_kills_constants(self, bvs_2_2, rng):
        s = random_poly(rng, bvs_2_2.ctx, 3, 3, parity=EVEN, hbar_max=1)
        assert bvs_2_2.omega_apply(s, bvs_2_2.ctx.one()).is_zero

    def test_square_is_half_bracket_with_residual(self, bvs_2_2, rng):
        half = Fraction(1, 2)
        for _ in range(40):
            s = random_poly(rng, bvs_2_2.ctx, 3, 3, parity=EVEN, hbar_max=1)
            psi = random_poly(rng, bvs_2_2.ctx, 3, 3, hbar_max=1)
            residual = bvs_2_2.quantum_master_residual(s)
            lhs = bvs_2_2.omega_apply(s, bvs_2_2.omega_apply(s, psi))
            assert lhs == half * bvs_2_2.bracket(residual, psi)

    def test_nilpotent_on_qme_solution(self, rng):
        adj = sl2().adjoint()
        bvs = BVSpace.over_fields([(n, EVEN) for n in ("v1", "v2", "v3")]
                                  + [(n, ODD) for n in ("c1", "c2", "c3")])
        s = Scalar.hbar() * bvs.s1_of(brst_rep(adj))
        assert bvs.quantum_master_residual(s).is_zero
        for _ in range(10):
            psi = random_poly(rng, bvs.ctx, 3, 3)
            assert bvs.omega_apply(s, bvs.omega_apply(s, psi)).is_zero


class TestTraceCrossCheck:
    def test_divergence_equals_delta_s1(self, rng):
        from bvcalc import LieModel
        for _ in range(30):
            m, n = rng.randint(1, 3), rng.randint(0, 2)
            brackets = {}
            for j in range(m):
                for k in range(j + 1, m):
                    for i in range(m):
                        if rng.random() < 0.5:
                            brackets[(i, j, k)] = Fraction(rng.randint(-2, 2))
            rho = {}
            for i in range(n):
                for j in range(n):
                    for k in range(m):
                        if rng.random() < 0.4:
                            rho[(i, j, k)] = Fraction(rng.randint(-2, 2))
            model = LieModel.build(m, brackets, n, rho)
            D = brst_rep(model) if n else brst_lie(model)
            fields = ([(f"v{i+1}", EVEN) for i in range(n)]
                      + [(f"c{i+1}", ODD) for i in range(m)])
            bvs = BVSpace.over_fields(fields)
            delta_s1 = bvs.delta(bvs.s1_of(D))
            trace = trace_condition(model)
            assert bvs.ctx.transport(trace.ctx.transport(trace, bvs.ctx), bvs.ctx) \
                == delta_s1
            assert trace.ctx.transport(trace, bvs.ctx) == delta_s1


class TestAntifieldReport:
    def test_first_order_master_solution(self):
        adj = sl2_rescaled().adjoint()
        D = brst_rep(adj, ["vh", "ve", "vf"])
        bvs = BVSpace.over_fields([("vh", EVEN), ("ve", EVEN), ("vf", EVEN),
                                   ("c1", ODD), ("c2", ODD), ("c3", ODD)])
        s0 = parse_expression("vh^2 + 4*ve*vf", bvs.ctx)
        s = s0 + bvs.s1_of(D)
        report = bvs.antifield_report(s)
        assert report.bracket_s0_s1.is_zero
        assert report.offshell_residual.is_zero
        assert report.first_order_consistent

    def test_engineered_cancellation(self, bvs_2_2):
        # S1 comes from a non-nilpotent first-order piece (delta t1 = x1^2,
        # delta x1 = x2 t1), so {S1,S1} is nonzero; S2 is solved for so that
        # {S1,S1} + 2{S0,S2} cancels identically.
        ctx = bvs_2_2.ctx
        g = ctx.gen
        s1 = g("t1p") * g("x1") * g("x1") + g("x1p") * g("x2") * g("t1")
        s0 = Fraction(1, 2) * g("x2") * g("x2")
        s2 = (2 * g("x1") * g("t1") * g("t1p") * g("x2p")
              - g("x1") * g("x1") * g("x1p") * g("x2p"))
        assert not bvs_2_2.bracket(s1, s1).is_zero
        assert (bvs_2_2.bracket(s1, s1) + 2 * bvs_2_2.bracket(s0, s2)).is_zero
        report = bvs_2_2.antifield_report(s0 + s1 + s2)
        assert report.offshell_residual.is_zero

    def test_onshell_point_evaluation(self, bvs_2_2):
        ctx = bvs_2_2.ctx
        x1 = ctx.gen("x1")
        s0 = x1 * x1
        s1 = ctx.gen("x1p") * x1 * ctx.gen("t1")
        s = s0 + s1
        report = bvs_2_2.antifield_report(s, points=[{"x1": 0, "x2": 0}])
        assert report.points[0].is_critical
        assert report.points[0].onshell_residual.is_zero

        # a non-critical point is reported, not silently used
        report = bvs_2_2.antifield_report(s, points=[{"x1": 1, "x2": 0}])
        assert not report.points[0].is_critical
        assert "x1" in report.points[0].gradient_failures

    def test_point_values_are_exact(self, bvs_2_2):
        x1 = bvs_2_2.ctx.gen("x1")
        for value in (Fraction(1, 10), Scalar.of(Fraction(1, 10))):
            assert bvs_2_2.evaluate_even_fields(x1, {"x1": value}) == Fraction(1, 10)

    def test_missing_coordinates_are_zero(self, bvs_2_2):
        ctx = bvs_2_2.ctx
        g = ctx.gen
        s = g("x1") * g("x1") + g("x2") * g("t1") * g("t2") + 2 * g("x2") + g("x1p") * g("t1")
        assert bvs_2_2.evaluate_even_fields(s, {"x1": 3}) \
            == bvs_2_2.evaluate_even_fields(s, {"x1": 3, "x2": 0}) == 9 + g("x1p") * g("t1")
        assert bvs_2_2.evaluate_even_fields(s, {}) == bvs_2_2.evaluate_even_fields(
            s, {"x1": 0, "x2": 0})
        short, full = bvs_2_2.antifield_report(s, [{"x1": 3}, {"x1": 3, "x2": 0}]).points
        assert (short.is_critical, short.gradient_failures, short.onshell_residual) \
            == (full.is_critical, full.gradient_failures, full.onshell_residual)

    def test_gradient_is_the_per_field_left_derivative(self, bvs_2_2):
        # every field's derivative of S0, in pair order, at a point where
        # each of them is nonzero
        ctx = bvs_2_2.ctx
        g = ctx.gen
        s0 = g("x1") * g("x1") * g("x2") + g("x1") * g("t1") * g("t2") + 3 * g("x2")
        s1 = g("x1p") * g("x2") * g("t1")
        point = {"x1": 1, "x2": Fraction(1, 2)}
        report = bvs_2_2.antifield_report(s0 + s1, points=[point])
        failures = report.points[0].gradient_failures
        expected = {f: bvs_2_2.evaluate_even_fields(s0.left_deriv(f), point)
                    for f, _ in bvs_2_2.pairs}
        assert list(failures.items()) == list(expected.items())
        assert not any(v.is_zero for v in failures.values())

    def test_offshell_nonzero_onshell_zero(self, bvs_2_2):
        # S0 = x1^2 has critical locus x1 = 0; the second-order piece makes
        # the off-shell residual proportional to the gradient, so it dies at
        # the critical point without vanishing identically
        ctx = bvs_2_2.ctx
        g = ctx.gen
        s0 = g("x1") * g("x1")
        s2 = g("x1p") * g("t1p") * g("t1")
        s = s0 + s2
        report = bvs_2_2.antifield_report(s, points=[{"x1": 0, "x2": 0}])
        assert not report.offshell_residual.is_zero
        assert report.points[0].is_critical
        assert report.points[0].onshell_residual.is_zero
