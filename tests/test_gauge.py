from fractions import Fraction

import pytest

from bvcalc import (EVEN, ODD, BVSpace, Scalar, exact_boundary_integrals, exp_delta,
                    gauge_independence_experiment, gaussian_expectation,
                    lagrangian_integral, parse_expression, restrict_to_lagrangian,
                    standard_damping)
from bvcalc.gauge import (ExpElement, GaugeFermion, NonGaussianIntegrand,
                          NonNormalizedDamping, NotDeltaClosed, _exp_nilpotent, _gauge_integrals,
                          _integrate, _nilpotent_part)
from bvcalc.modelfile import load_model
from bvcalc.randgen import random_poly
from bvcalc.superalgebra import (ANTIFIELD, FIELD, Context, Generator, Poly, _mul_into,
                                 _substitution)

from conftest import MODELS, splitting_each_poly_once
from oracles import (berezin_loop, berezin_right_deriv, exp_nilpotent, exp_pairs_by_key,
                     integrate_top, lagrangian_integral_full, substitute_sum)

# a 2|2 space, and a 1|1 space with an even plain generator w that no
# restriction removes and no Gaussian moment accepts
SPACES = {
    "2|2": lambda: BVSpace.over_fields([("x1", EVEN), ("x2", EVEN), ("t1", ODD), ("t2", ODD)]),
    "plain-w": lambda: BVSpace(Context([
        Generator("x", EVEN, FIELD), Generator("th", ODD, FIELD), Generator("w", EVEN),
        Generator("xp", ODD, ANTIFIELD, "x"), Generator("thp", EVEN, ANTIFIELD, "th")])),
}


# a 1|1 space and a 2|2 space, for the context checks
BVS = BVSpace.over_fields([("x", EVEN), ("th", ODD)])
OTHER = BVSpace.over_fields([("x1", EVEN), ("x2", EVEN), ("t1", ODD), ("t2", ODD)])

# the context refusals of gauge, each with its whole message
REFUSALS = {
    "fermion": lambda: GaugeFermion(BVS, OTHER.ctx.gen("t1")),
    "element": lambda: ExpElement(BVS, [(OTHER.ctx.one(), BVS.ctx.zero())]),
    "sum": lambda: ExpElement(BVS, []) + ExpElement(OTHER, []),
}


@pytest.mark.parametrize("call", REFUSALS.values(), ids=REFUSALS)
def test_refusal(call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == "context mismatch"


@pytest.fixture
def fermions(bvs_1_1):
    ctx = bvs_1_1.ctx
    return [GaugeFermion(bvs_1_1, ctx.monomial(a, {"x": 1}, ["th"]))
            for a in (0, 1, 2, -3)]


def element(bvs, poly, exponent=None):
    return ExpElement(bvs, [(poly, standard_damping(bvs) if exponent is None
                             else exponent)])


def drawn_fermions(rng, bvs, count):
    """The zero fermion, one linear in an odd field (so its derivative by
    every other field vanishes), and random odd field-only fermions."""
    ctx = bvs.ctx
    odd_field = next(f for f, _ in bvs.pairs if ctx.parity_of(f) == ODD)
    fermions = [GaugeFermion(bvs, ctx.zero()), GaugeFermion(bvs, ctx.gen(odd_field))]
    while len(fermions) < count:
        drawn = random_poly(rng, bvs.field_ctx, 3, 3, parity=ODD)
        fermions.append(GaugeFermion(bvs, bvs.field_ctx.transport(drawn, ctx)))
    return fermions


def integral_outcome(route, element, fermion):
    """The value of an integral route, or the type of its refusal."""
    try:
        return route(element, fermion)
    except (NonNormalizedDamping, NonGaussianIntegrand) as exc:
        return type(exc)


class TestExpDelta:
    def test_antifield_free_closed(self, bvs_1_1):
        assert exp_delta(element(bvs_1_1, bvs_1_1.ctx.one())).is_zero

    def test_quantum_master_coefficient(self, bvs_2_2, rng):
        # delta of exp((i/hbar) S) carries (i/hbar) delta S - 1/(2 hbar^2){S,S}
        ctx = bvs_2_2.ctx
        i_over_h = Scalar.i() * Scalar.hbar(-1)
        for _ in range(10):
            s = random_poly(rng, ctx, 3, 3, parity=EVEN)
            t = i_over_h * s
            out = exp_delta(ExpElement(bvs_2_2, [(ctx.one(), t)]))
            expected = (i_over_h * bvs_2_2.delta(s)
                        - Scalar.hbar(-2) * Fraction(1, 2) * bvs_2_2.bracket(s, s))
            assert out == ExpElement(bvs_2_2, [(expected, t)])

    def test_pair_with_zero_exponent_is_plain_delta(self, bvs_2_2, rng):
        ctx = bvs_2_2.ctx
        for _ in range(20):
            p = random_poly(rng, ctx, 4, 3)
            lhs = exp_delta(ExpElement(bvs_2_2, [(p, ctx.zero())]))
            assert lhs == ExpElement(bvs_2_2, [(bvs_2_2.delta(p), ctx.zero())])

    def test_leibniz_expansion_example(self, bvs_1_1):
        # delta((xp th) exp(-x^2/2)) = -(x th) exp(-x^2/2)
        ctx = bvs_1_1.ctx
        xi = element(bvs_1_1, ctx.gen("xp") * ctx.gen("th"))
        out = exp_delta(xi)
        expected = element(bvs_1_1, -(ctx.gen("x") * ctx.gen("th")))
        assert out == expected

    def test_squares_to_zero(self, bvs_1_1, rng):
        for _ in range(40):
            p = random_poly(rng, bvs_1_1.ctx, 4, 3)
            t = standard_damping(bvs_1_1) + random_poly(
                rng, bvs_1_1.ctx, 3, 2, parity=EVEN)
            xi = ExpElement(bvs_1_1, [(p, t)])
            assert exp_delta(exp_delta(xi)).is_zero

    def test_exponent_must_be_even(self, bvs_1_1):
        with pytest.raises(ValueError, match="even"):
            ExpElement(bvs_1_1, [(bvs_1_1.ctx.one(), bvs_1_1.ctx.gen("th"))])


class TestRestriction:
    def test_zero_fermion_kills_antifields(self, bvs_1_1, fermions):
        ctx = bvs_1_1.ctx
        phi = ctx.gen("xp") + ctx.gen("x") * ctx.gen("thp")
        assert restrict_to_lagrangian(phi, fermions[0]).is_zero

    def test_graph_substitution(self, bvs_1_1):
        # F = th*x: the even field's antifield goes to the th-derivative,
        # the odd field's antifield picks up the right-derivative sign
        ctx = bvs_1_1.ctx
        F = GaugeFermion(bvs_1_1, ctx.monomial(1, {"x": 1}, ["th"]))
        assert restrict_to_lagrangian(ctx.gen("xp"), F) == ctx.gen("th")
        assert restrict_to_lagrangian(ctx.gen("thp"), F) == -ctx.gen("x")

    def test_is_algebra_morphism(self, bvs_1_1, fermions, rng):
        F = fermions[2]
        for _ in range(40):
            a = random_poly(rng, bvs_1_1.ctx, 3, 3)
            b = random_poly(rng, bvs_1_1.ctx, 3, 3)
            assert restrict_to_lagrangian(a * b, F) == \
                restrict_to_lagrangian(a, F) * restrict_to_lagrangian(b, F)

    def test_commutes_with_forming_elements(self, bvs_1_1, fermions, rng):
        F = fermions[3]
        for _ in range(15):
            p = random_poly(rng, bvs_1_1.ctx, 3, 3)
            t = standard_damping(bvs_1_1) + random_poly(rng, bvs_1_1.ctx, 2, 2,
                                                        parity=EVEN)
            restricted = restrict_to_lagrangian(ExpElement(bvs_1_1, [(p, t)]), F)
            rebuilt = ExpElement(bvs_1_1, [(restrict_to_lagrangian(p, F),
                                            restrict_to_lagrangian(t, F))])
            assert restricted == rebuilt

    def test_antifield_images_equal_per_field_right_derivatives(self, bvs_2_2, rng):
        # one sweep over F against one right_deriv per field, on odd
        # field-only fermions over two even and two odd fields, zero
        # included: the evens first, and then alternating from an odd one
        odd_first = BVSpace.over_fields([("t1", ODD), ("x", EVEN), ("t2", ODD), ("y", EVEN)])
        for bvs in (bvs_2_2, odd_first):
            fields = bvs.field_ctx
            seen_zero = False
            for n in range(40):
                drawn = random_poly(rng, fields, 4, 5, parity=1, hbar_max=1)
                poly = fields.transport(drawn, bvs.ctx) if n % 8 else bvs.ctx.zero()
                seen_zero |= poly.is_zero
                images = GaugeFermion(bvs, poly).antifield_images()
                assert list(images) == [a for _, a in bvs.pairs]
                assert images == {a: poly.right_deriv(f) for f, a in bvs.pairs}
                assert all(not c.is_zero for img in images.values() for c in img.terms.values())
            assert seen_zero

    @pytest.mark.parametrize("space", sorted(SPACES))
    def test_sweep_fed_map_equals_checked_map(self, space, rng):
        # restriction, fed by the fermion's slot images, against the checked
        # map of its antifield images and the term-by-term sum
        bvs = SPACES[space]()
        ctx = bvs.ctx
        fermions = drawn_fermions(rng, bvs, 6)
        assert any(not img.terms for img in fermions[1].antifield_images().values())
        for fermion in fermions:
            images = fermion.antifield_images()
            checked = _substitution(ctx, images)
            for _ in range(10):
                p = random_poly(rng, ctx, 5, 5, hbar_max=1)
                assert restrict_to_lagrangian(p, fermion) == checked(p) == substitute_sum(p, images)

    @pytest.mark.parametrize("space", sorted(SPACES))
    def test_restricted_pairs_equal_checked_constructor(self, space, rng):
        # restriction merges its pairs through the constructor: the same
        # pairs in the same order as the constructor on the checked
        # substitution, and as the merge under each exponent's key
        bvs = SPACES[space]()
        ctx = bvs.ctx
        damping = standard_damping(bvs)
        fermions = drawn_fermions(rng, bvs, 4)
        merged = sorted_pairs = 0
        for _ in range(15):
            pairs = [(random_poly(rng, ctx, 4, 3), damping + random_poly(rng, ctx, 3, 2, parity=EVEN))
                     for _ in range(3)]
            pairs.append((random_poly(rng, ctx, 4, 3), damping))
            element = ExpElement(bvs, pairs)
            for fermion in fermions:
                sub = _substitution(ctx, fermion.antifield_images())
                subbed = [(sub(p), sub(t)) for p, t in element.pairs]
                got = restrict_to_lagrangian(element, fermion)
                assert type(got) is ExpElement and got.bvs is bvs
                assert got.pairs == ExpElement(bvs, subbed).pairs == exp_pairs_by_key(subbed)
                merged += len(got.pairs) < len(element.pairs)
                sorted_pairs += len(got.pairs) > 1
        assert merged and sorted_pairs

    def test_result_antifield_free(self, bvs_1_1, fermions, rng):
        for _ in range(20):
            p = random_poly(rng, bvs_1_1.ctx, 4, 4)
            out = restrict_to_lagrangian(p, fermions[1])
            assert all(bvs_1_1.antifield_degree(m) == 0 for m in out.terms)

    def test_gauge11_model_equals_oracle(self):
        # the fixture's gauges F0..F3 on P0, XI and S times the damping and
        # on delta of the XI element; every odd product these gauges make
        # vanishes, so the split sign is left to the property test
        model = load_model(str(MODELS / "gauge11.model"))
        bvs = model.bvs
        damping = standard_damping(bvs)
        elements = [ExpElement(bvs, [(model.expr(name), damping)]) for name in ("P0", "XI", "S")]
        elements.append(exp_delta(elements[1]))
        for name in ("F0", "F1", "F2", "F3"):
            fermion = GaugeFermion(bvs, model.expr(name))
            images = fermion.antifield_images()
            for xi in elements:
                pairs = [(substitute_sum(p, images), substitute_sum(t, images))
                         for p, t in xi.pairs]
                for (p, t), (p_sum, t_sum) in zip(xi.pairs, pairs):
                    assert restrict_to_lagrangian(p, fermion) == p_sum
                    assert restrict_to_lagrangian(t, fermion) == t_sum
                assert restrict_to_lagrangian(xi, fermion) == ExpElement(bvs, pairs)

    def test_fermion_validation(self, bvs_1_1):
        ctx = bvs_1_1.ctx
        with pytest.raises(ValueError, match="odd"):
            GaugeFermion(bvs_1_1, ctx.gen("x"))
        with pytest.raises(ValueError, match="antifield"):
            GaugeFermion(bvs_1_1, ctx.gen("xp"))


class TestBerezin:
    # the package's one Berezin route is fused into the gauge integral; these
    # closed forms keep both of its oracle routes honest
    ROUTES = (berezin_loop, berezin_right_deriv)

    def test_single_variable(self, bvs_1_1):
        ctx = bvs_1_1.ctx
        a_plus_b_th = ctx.gen("x") + 2 * ctx.gen("th")
        for berezin in self.ROUTES:
            assert berezin(a_plus_b_th, ["th"]) == ctx.scalar(2)
            assert berezin(ctx.one(), ["th"]).is_zero

    def test_iterated_orderings(self, bvs_2_2):
        ctx = bvs_2_2.ctx
        top = ctx.gen("t1") * ctx.gen("t2")
        for berezin in self.ROUTES:
            # declaration order extracts the top coefficient with sign +1
            assert berezin(top, ["t1", "t2"]) == ctx.one()
            # the reversed ordering is one transposition away
            assert berezin(top, ["t2", "t1"]) == -ctx.one()
            # and matches doing the two single integrals by hand
            inner = berezin(top, ["t1"])
            assert berezin(inner, ["t2"]) == -ctx.one()

    def test_unknown_generator(self, bvs_1_1):
        for berezin in self.ROUTES:
            with pytest.raises(ValueError, match="unknown generator 'zz'"):
                berezin(bvs_1_1.ctx.one(), ["zz"])
            with pytest.raises(ValueError, match="not odd"):
                berezin(bvs_1_1.ctx.one(), ["x"])


class TestGaussian:
    @pytest.mark.parametrize("power, moment", [(0, 1), (2, 1), (4, 3), (6, 15)])
    def test_even_moments(self, bvs_1_1, power, moment):
        p = bvs_1_1.ctx.monomial(1, {"x": power}) if power else bvs_1_1.ctx.one()
        assert gaussian_expectation(p) == Scalar.of(moment)

    def test_odd_moment_vanishes(self, bvs_1_1):
        assert gaussian_expectation(bvs_1_1.ctx.gen("x")).is_zero

    def test_odd_generator_rejected(self, bvs_1_1):
        with pytest.raises(ValueError, match="odd"):
            gaussian_expectation(bvs_1_1.ctx.gen("th"))

    def test_stein_identity(self, bvs_1_1, rng):
        # E[x g(x)] = E[g'(x)] pins the moments against differentiation
        ctx = bvs_1_1.ctx
        x = ctx.gen("x")
        for _ in range(30):
            g = ctx.zero()
            for k in range(rng.randint(1, 5)):
                g = g + ctx.monomial(Fraction(rng.randint(-4, 4)), {"x": k})
            assert gaussian_expectation(x * g) == gaussian_expectation(g.left_deriv("x"))


def plain_wu(plain_first):
    """x, th and their antifields, with a plain even w and a plain odd u
    declared after the fields or before them."""
    fields = [Generator("x", EVEN, FIELD), Generator("th", ODD, FIELD),
              Generator("xp", ODD, ANTIFIELD, "x"), Generator("thp", EVEN, ANTIFIELD, "th")]
    plain = [Generator("w", EVEN), Generator("u", ODD)]
    return BVSpace(Context(plain + fields if plain_first else fields + plain))


@pytest.mark.parametrize("plain_first", [False, True])
class TestMomentRule:
    """An odd power of an even field integrates to 0 whatever else its
    monomial holds; any other monomial with an odd generator or a non-field
    is refused, for an odd generator if one of them holds one.  Neither
    verdict hangs on the declaration order."""

    @pytest.mark.parametrize("p, refusal", [
        ("th*x*w", None),
        ("th*x^2*w", "w is not an even field"),
        ("th*x*u", None),
        ("th*u", "odd generator present in a Gaussian moment"),
        # equal degrees, whose monomial order follows the declaration order
        ("th*w^3 + th*u*x^2", "odd generator present in a Gaussian moment"),
        ("th*w^3 - th*x^2*w^3", "w is not an even field"),
    ])
    def test_closed_forms(self, plain_first, p, refusal):
        bvs = plain_wu(plain_first)
        phi = element(bvs, parse_expression(p, bvs.ctx))
        F = GaugeFermion(bvs, bvs.ctx.zero())
        if refusal is None:
            assert lagrangian_integral(phi, F).is_zero
        else:
            with pytest.raises(NonGaussianIntegrand) as err:
                lagrangian_integral(phi, F)
            assert str(err.value) == refusal

    @pytest.mark.parametrize("p, outcome", [
        ("x*w", 0),
        ("x*th", 0),
        ("x*w*u + 3*x^2", 3),
        ("u*x^2 + w", "odd generator present in a Gaussian moment"),
        ("x^2*w + 3", "w is not an even field"),
    ])
    def test_gaussian_expectation(self, plain_first, p, outcome):
        poly = parse_expression(p, plain_wu(plain_first).ctx)
        if isinstance(outcome, int):
            assert gaussian_expectation(poly) == Scalar.of(outcome)
        else:
            with pytest.raises(NonGaussianIntegrand) as err:
                gaussian_expectation(poly)
            assert str(err.value) == outcome


class TestLagrangianIntegral:
    def test_plain_odd_coordinate(self, bvs_1_1, fermions):
        phi = element(bvs_1_1, bvs_1_1.ctx.gen("th"))
        for F in fermions:
            assert lagrangian_integral(phi, F) == Scalar.one()

    def test_theta_free_integrand_vanishes(self, bvs_1_1, fermions):
        phi = element(bvs_1_1, bvs_1_1.ctx.one())
        assert lagrangian_integral(phi, fermions[0]).is_zero

    def test_boundary_vanishes(self, bvs_1_1, fermions):
        ctx = bvs_1_1.ctx
        xi = element(bvs_1_1, ctx.gen("xp") * ctx.gen("th"))
        boundary = exp_delta(xi)
        for F in fermions:
            assert lagrangian_integral(boundary, F).is_zero

    def test_damping_must_be_standard(self, bvs_1_1, fermions):
        ctx = bvs_1_1.ctx
        bad = ExpElement(bvs_1_1, [(ctx.gen("th"), ctx.monomial(-1, {"x": 2}))])
        with pytest.raises(NonNormalizedDamping):
            lagrangian_integral(bad, fermions[0])

    def test_pairs_merged_by_restriction_cancel(self, bvs_1_1, fermions):
        # two exponents that differ by xp*th, which every gauge here sends
        # to 0: the restricted pairs merge and their prefactors cancel, but
        # every exponent is checked first, so the non-standard body -x^2 is
        # refused with the message of the gauge routes
        ctx = bvs_1_1.ctx
        body = ctx.monomial(-1, {"x": 2})
        phi = ExpElement(bvs_1_1, [(ctx.gen("th"), body),
                                   (-ctx.gen("th"), body + ctx.gen("xp") * ctx.gen("th"))])
        assert len(phi.pairs) == 2
        message = "exponent body -1*x^2 is not the standard damping"
        for F in fermions:
            assert restrict_to_lagrangian(phi, F).is_zero
            refusals = []
            for route in (lambda: lagrangian_integral(phi, F),
                          lambda: _gauge_integrals(bvs_1_1, phi.pairs, [F]),
                          lambda: exact_boundary_integrals(phi, [F])):
                with pytest.raises(NonNormalizedDamping) as err:
                    route()
                refusals.append(str(err.value))
            assert refusals == [message] * 3

    def test_fermion_from_another_context_refused(self, bvs_1_1):
        # a fermion over other generators has other antifield slots, so
        # restriction and every integral refuse it instead of reading them
        other = BVSpace.over_fields([("y", EVEN), ("et", ODD)])
        F = GaugeFermion(other, other.ctx.gen("et") * other.ctx.gen("y"))
        phi = element(bvs_1_1, bvs_1_1.ctx.gen("th"))
        for route in (lambda: restrict_to_lagrangian(phi, F),
                      lambda: lagrangian_integral(phi, F),
                      lambda: gauge_independence_experiment(phi, [F]),
                      lambda: exact_boundary_integrals(phi, [F])):
            with pytest.raises(ValueError, match="context mismatch"):
                route()

    def test_nilpotent_exponent_expansion(self, bvs_2_2):
        # exp(N) with N = t1 t2 g(x) truncates after the linear term
        ctx = bvs_2_2.ctx
        n = ctx.gen("t1") * ctx.gen("t2") * ctx.gen("x1")
        t = standard_damping(bvs_2_2) + n
        phi = ExpElement(bvs_2_2, [(ctx.gen("x1"), t)])
        F0 = GaugeFermion(bvs_2_2, ctx.zero())
        # integrand becomes x1 * (1 + t1 t2 x1): Berezin picks x1^2 -> 1
        assert lagrangian_integral(phi, F0) == Scalar.one()

    def test_koszul_sign_of_the_odd_fields_of_p(self):
        # t2 * exp(x^2 t1 t3) = t2 + x^2 t2 t1 t3, and t2 t1 t3 = -t1 t2 t3:
        # the exp(N) term must cross P's t2 to reach field order, so the
        # integral is -<x^2> = -1
        bvs = BVSpace.over_fields([("x", EVEN), ("t1", ODD), ("t2", ODD), ("t3", ODD)])
        ctx = bvs.ctx
        exponent = standard_damping(bvs) + parse_expression("x^2*t1*t3", ctx)
        phi = element(bvs, ctx.gen("t2"), exponent)
        F0 = GaugeFermion(bvs, ctx.zero())
        assert lagrangian_integral(phi, F0) == -Scalar.one()
        assert lagrangian_integral_full(phi, F0) == -Scalar.one()

    @pytest.mark.parametrize("names",[("t1", "u", "t2"), ("u", "t1", "t2"), ("t1", "t2", "u")])
    def test_products_with_a_plain_odd_generator_cancel(self, names):
        # u * t1*t2 = t1*u*t2 with the sign of u crossing t1, which is -1
        # when u is declared between t1 and t2: the two products of
        # (t1*u*t2 + u) * exp(t1*t2) cancel, so nothing is left to refuse;
        # with - u instead of + u they add up and the odd u is refused
        odd = {"t1": Generator("t1", ODD, FIELD), "t2": Generator("t2", ODD, FIELD),
               "u": Generator("u", ODD)}
        bvs = BVSpace(Context([Generator("x", EVEN, FIELD)] + [odd[n] for n in names] + [
            Generator("xp", ODD, ANTIFIELD, "x"), Generator("t1p", EVEN, ANTIFIELD, "t1"),
            Generator("t2p", EVEN, ANTIFIELD, "t2")]))
        ctx = bvs.ctx
        exponent = standard_damping(bvs) + parse_expression("t1*t2", ctx)
        F = GaugeFermion(bvs, ctx.zero())
        cancelling = element(bvs, parse_expression("t1*u*t2 + u", ctx), exponent)
        assert lagrangian_integral(cancelling, F).is_zero
        adding = element(bvs, parse_expression("t1*u*t2 - u", ctx), exponent)
        with pytest.raises(NonGaussianIntegrand, match="odd generator present"):
            lagrangian_integral(adding, F)

    @pytest.mark.parametrize("space", sorted(SPACES))
    def test_exp_nilpotent_equals_oracle(self, space, rng):
        # exp(N) on terms dicts against the Poly sum of N^k / k!, with N = 0
        # (the unit alone) and, on 2|2, an N = theta*eta whose square
        # cancels term pair against term pair
        bvs = SPACES[space]()
        ctx = bvs.ctx
        nils = [ctx.zero()]
        if space == "2|2":
            g = ctx.gen
            n = (g("t1") + g("t2")) * (g("x1p") + g("x2p")) * g("x1")
            assert (n * n).is_zero
            assert any(c.is_zero for c in _mul_into({}, n.terms, n.terms).values())
            nils.append(n)
        for _ in range(30):
            drawn = random_poly(rng, ctx, 5, 5, parity=EVEN, hbar_max=1)
            nils.append(Poly(ctx, {m: c for m, c in drawn.terms.items() if m[1]}))
        for nil in nils:
            assert Poly(ctx, _exp_nilpotent(ctx, nil.terms)) == exp_nilpotent(nil)
        assert Poly(ctx, _exp_nilpotent(ctx, {})) == ctx.one()

    @pytest.mark.parametrize("space", sorted(SPACES))
    def test_equals_full_product_oracle(self, space, rng):
        # the top-only integrand against the whole product P * exp(N): the
        # same value, or a refusal of the same type, on every gauge; every
        # restricted exponent is checked first, so one that is not the
        # damping plus a nilpotent part is refused whatever it merges with
        bvs = SPACES[space]()
        ctx = bvs.ctx
        damping = standard_damping(bvs)
        fermions = [GaugeFermion(bvs, ctx.zero())]
        if space == "plain-w":
            fermions.append(GaugeFermion(bvs, ctx.gen("w") * ctx.gen("th")))
        while len(fermions) < 4:
            drawn = random_poly(rng, bvs.field_ctx, 3, 3, parity=ODD)
            fermions.append(GaugeFermion(bvs, bvs.field_ctx.transport(drawn, ctx)))
        seen = set()
        for n in range(40):
            nil = random_poly(rng, ctx, 4, 4, parity=EVEN, hbar_max=1)
            if n % 5:   # keep only the monomials that hold an odd generator
                nil = Poly(ctx, {m: c for m, c in nil.terms.items() if m[1]})
            pairs = [(random_poly(rng, ctx, 5, 5, hbar_max=1), damping + nil),
                     (random_poly(rng, ctx, 4, 3), damping)]
            if n % 7 == 0:
                pairs.append((ctx.gen(ctx.odd_names[0]), 2 * damping))
            element = ExpElement(bvs, pairs)
            for fermion in fermions:
                got = integral_outcome(lagrangian_integral, element, fermion)
                if any(not mask for _, t in element.pairs
                       for _, mask in (restrict_to_lagrangian(t, fermion) - damping).terms):
                    assert got is NonNormalizedDamping
                else:
                    assert got == integral_outcome(lagrangian_integral_full, element, fermion)
                seen.add(got if isinstance(got, type) else got.is_zero)
        assert {NonNormalizedDamping, False, True} <= seen
        assert (NonGaussianIntegrand in seen) == (space == "plain-w")


    @pytest.mark.parametrize("space", sorted(SPACES) + ["plain-uw"])
    def test_fused_integral_equals_top_only_oracle(self, space, rng):
        # the products that reach a moment, summed by even exponent, against
        # the top Poly, its Berezin integral and its Gaussian moments on the
        # same restricted, merged pairs: the same value, or the same refusal
        # with the same message.  plain-uw adds an odd plain generator u to
        # plain-w, so that one integrand can hold both kinds of refusal
        if space == "plain-uw":
            bvs = BVSpace(Context([
                Generator("x", EVEN, FIELD), Generator("th", ODD, FIELD), Generator("w", EVEN),
                Generator("u", ODD), Generator("xp", ODD, ANTIFIELD, "x"),
                Generator("thp", EVEN, ANTIFIELD, "th")]))
        else:
            bvs = SPACES[space]()
        ctx = bvs.ctx
        damping = standard_damping(bvs)
        fermions = drawn_fermions(rng, bvs, 4)
        if space == "plain-w":
            fermions.append(GaugeFermion(bvs, ctx.gen("w") * ctx.gen("th")))
        seen = set()
        for _ in range(120):
            nil = random_poly(rng, ctx, 4, 4, parity=EVEN, hbar_max=1)
            nil = Poly(ctx, {m: c for m, c in nil.terms.items() if m[1]})
            element = ExpElement(bvs, [(random_poly(rng, ctx, 5, 6, hbar_max=1), damping + nil),
                                       (random_poly(rng, ctx, 4, 3), damping)])
            for fermion in fermions:
                pairs = restrict_to_lagrangian(element, fermion).pairs
                outcomes = []
                for route in (lambda: _integrate(bvs, [(p, _nilpotent_part(damping.terms, t))
                                                       for p, t in pairs]),
                              lambda: integrate_top(bvs, pairs)):
                    try:
                        outcomes.append(route())
                    except NonGaussianIntegrand as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1]
                seen.add(outcomes[0] if isinstance(outcomes[0], str) else outcomes[0].is_zero)
        refusals = {"2|2": set(), "plain-w": {"w is not an even field"},
                    "plain-uw": {"w is not an even field",
                                 "odd generator present in a Gaussian moment"}}[space]
        assert seen == {False, True} | refusals


class TestGaugeIndependence:
    def test_closed_with_antifields(self, bvs_1_1, fermions):
        ctx = bvs_1_1.ctx
        base = element(bvs_1_1, ctx.gen("th"))
        xi = element(bvs_1_1, ctx.gen("th") * ctx.gen("xp") * ctx.gen("thp"))
        phi = base + exp_delta(xi)
        assert any(bvs_1_1.antifield_degree(m) for pair in phi.pairs for q in pair
                   for m in q.terms)
        report = gauge_independence_experiment(phi, fermions)
        assert report.all_equal
        assert report.values[0][1] == Scalar.one()

    @pytest.mark.parametrize("count", [1, 3, 6])
    def test_each_poly_split_once_per_call(self, bvs_2_2, rng, count):
        # both routes split each P and T of their pairs once, on one gauge
        # or on six, and so do lagrangian_integral and the restriction of
        # an element on each gauge; the integrand's pairs have two
        # exponents, and delta of the seed keeps a pair for each of its own two
        ctx = bvs_2_2.ctx
        g = ctx.gen
        fermions = drawn_fermions(rng, bvs_2_2, count)[:count]
        damping = standard_damping(bvs_2_2)
        for _ in range(5):
            seed = ExpElement(bvs_2_2, [(random_poly(rng, ctx, 4, 3), damping),
                                        (random_poly(rng, ctx, 4, 3), damping + g("t1") * g("x1p"))])
            closed = ExpElement(bvs_2_2, [(g("t1") * g("t2"), damping)]) + exp_delta(seed)
            with splitting_each_poly_once() as split:
                gauge_independence_experiment(closed, fermions)
            assert len(split) == 2 * len(closed.pairs) == 4
            with splitting_each_poly_once() as split:
                exact_boundary_integrals(seed, fermions)
            assert len(split) == 2 * len(seed.pairs) == 4
            for fermion in fermions:
                with splitting_each_poly_once() as split:
                    lagrangian_integral(closed, fermion)
                assert len(split) == 4
                with splitting_each_poly_once() as split:
                    restrict_to_lagrangian(closed, fermion)
                assert len(split) == 4

    def test_refusal(self, bvs_1_1, fermions):
        bad = element(bvs_1_1, bvs_1_1.ctx.gen("xp"))
        with pytest.raises(NotDeltaClosed) as err:
            gauge_independence_experiment(bad, fermions)
        assert not err.value.residual.is_zero

    def test_boundary_mode(self, bvs_1_1, fermions, rng):
        for _ in range(10):
            p = random_poly(rng, bvs_1_1.ctx, 4, 3)
            xi = element(bvs_1_1, p)
            report = exact_boundary_integrals(xi, fermions)
            assert report.all_equal
            assert all(v.is_zero for _, v in report.values)

    def test_two_by_two_space_inhomogeneous_fermions(self, bvs_2_2, rng):
        # the Stokes property is not special to the 1|1 space or to gauge
        # fermions linear in the even fields
        ctx = bvs_2_2.ctx
        g = ctx.gen
        fermions = [
            GaugeFermion(bvs_2_2, ctx.zero()),
            GaugeFermion(bvs_2_2, g("t1") * g("x1")),
            GaugeFermion(bvs_2_2, 2 * g("t1") * g("x1") + g("t2") * g("x2") * g("x2")),
            GaugeFermion(bvs_2_2, g("t1") * g("x2") - 3 * g("t2") * g("x1") * g("x1")),
        ]
        T = standard_damping(bvs_2_2)
        for _ in range(15):
            xi = ExpElement(bvs_2_2, [(random_poly(rng, ctx, 4, 3), T)])
            for F in fermions:
                assert lagrangian_integral(exp_delta(xi), F).is_zero

        base = ExpElement(bvs_2_2, [(g("t1") * g("t2"), T)])
        correction = exp_delta(ExpElement(
            bvs_2_2, [(g("t1") * g("t2") * g("x1p") * g("t1p"), T)]))
        report = gauge_independence_experiment(base + correction, fermions)
        assert report.all_equal
        assert report.values[0][1] == Scalar.one()
