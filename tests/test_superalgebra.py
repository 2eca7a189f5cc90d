from fractions import Fraction

import pytest

from bvcalc import EVEN, ODD, BVSpace, Scalar
from bvcalc.randgen import random_homogeneous, random_poly
from bvcalc.superalgebra import (Context, Generator, Poly, _crossings, _derivs, _mul_into,
                                 _odd_product, _substitution, _sweep)

from oracles import (add_pairwise, brute_merge_sign, mul_pairwise, right_deriv_split,
                     substitute_sum)


CTX = Context.plain([("x", EVEN), ("t1", ODD)])

# refusals of Context, each with its whole message
REFUSALS = {
    "parity": (lambda: Context([Generator("x", 2)]), "bad parity for generator x"),
    "role": (lambda: Context([Generator("x", EVEN, "ghost")]), "bad role for generator x"),
    "role-of-unknown": (lambda: CTX.role_of("zz"), "unknown generator 'zz'"),
    "odd-as-even": (lambda: CTX.monomial(even={"t1": 1}),
                    "t1 is odd; pass it in the odd sequence"),
    "even-as-odd": (lambda: CTX.monomial(odd=("x",)), "x is even; pass it in the even mapping"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestProducts:
    def test_grassmann_basics(self, ctx_mixed):
        t1, t2 = ctx_mixed.gen("t1"), ctx_mixed.gen("t2")
        assert t1 * t2 == ctx_mixed.monomial(1, odd=["t1", "t2"])
        assert t2 * t1 == -(t1 * t2)
        assert (t1 * t1).is_zero

    def test_difference_of_squares(self, ctx_mixed):
        x = ctx_mixed.gen("x")
        tt = ctx_mixed.gen("t1") * ctx_mixed.gen("t2")
        assert (x + tt) * (x - tt) == x * x

    def test_sign_against_bubble_sort_oracle(self, rng):
        ctx = Context.plain([(f"t{i}", ODD) for i in range(6)])
        for _ in range(300):
            left = sorted(rng.sample(range(6), rng.randint(0, 3)))
            right = sorted(rng.sample(range(6), rng.randint(0, 3)))
            expected = brute_merge_sign(left, right)
            product = (ctx.monomial(1, odd=[f"t{i}" for i in left])
                       * ctx.monomial(1, odd=[f"t{i}" for i in right]))
            if expected is None:
                assert product.is_zero
            else:
                combined = [f"t{i}" for i in sorted(left + right)]
                assert product == ctx.monomial(expected, odd=combined)

    def test_crossings_against_bubble_sort_oracle(self, rng):
        # disjoint odd sets over 8 slots, either possibly empty: the parity
        # of a's crossing mask on b, with a on the left, and of b's on a,
        # with b on the right, are both the sign of the merge a, b
        seen = set()
        for _ in range(400):
            slots = rng.sample(range(8), rng.randint(0, 8))
            cut = rng.randint(0, len(slots))
            left, right = sorted(slots[:cut]), sorted(slots[cut:])
            a, b = sum(1 << s for s in left), sum(1 << s for s in right)
            expected = brute_merge_sign(left, right)
            assert (-1) ** ((_crossings(a) & b).bit_count() & 1) == expected
            assert (-1) ** ((_crossings(b, left=False) & a).bit_count() & 1) == expected
            seen.add((bool(a), bool(b), expected))
        # both signs and both empty sides were drawn
        assert {(True, True, 1), (True, True, -1), (False, True, 1), (True, False, 1)} <= seen

    def test_monomial_reorders_with_the_bubble_sort_sign(self, rng):
        ctx = Context.plain([(f"t{i}", ODD) for i in range(6)] + [("u", EVEN)])
        for _ in range(200):
            picks = [rng.randrange(6) for _ in range(rng.randint(0, 4))]
            expected = brute_merge_sign([], picks)
            mono = ctx.monomial(3, {"u": 1}, [f"t{i}" for i in picks])
            if expected is None:
                assert mono.is_zero
            else:
                assert mono == ctx.monomial(3 * expected, {"u": 1},
                                            [f"t{i}" for i in sorted(picks)])

    def test_odd_product_against_inversion_count(self, rng):
        for _ in range(300):
            slots = [rng.randrange(7) for _ in range(rng.randint(0, 6))]
            if len(set(slots)) < len(slots):
                assert _odd_product(slots) is None
                continue
            inversions = sum(a > b for i, a in enumerate(slots) for b in slots[i + 1:])
            assert _odd_product(slots) == (sum(1 << s for s in slots), inversions % 2)

    @pytest.mark.parametrize("space", ["ctx_mixed", "bvs_1_1", "bvs_2_2"])
    def test_gen_is_the_monomial_of_one_generator(self, space, request):
        fixture = request.getfixturevalue(space)
        ctx = fixture if isinstance(fixture, Context) else fixture.ctx
        for name in ctx.even_names:
            unit = tuple(int(n == name) for n in ctx.even_names)
            assert ctx.gen(name) == ctx.monomial(1, {name: 1}) == \
                Poly(ctx, {(unit, 0): Scalar.one()})
        for s, name in enumerate(ctx.odd_names):
            assert ctx.gen(name) == ctx.monomial(1, odd=[name]) == \
                Poly(ctx, {(ctx.zero_mono()[0], 1 << s): Scalar.one()})

    def test_graded_commutativity_random(self, ctx_mixed, rng):
        for _ in range(120):
            pa, a = random_homogeneous(rng, ctx_mixed, 4, 3)
            pb, b = random_homogeneous(rng, ctx_mixed, 4, 3)
            sign = -1 if pa and pb else 1
            assert a * b == sign * (b * a)

    def test_associativity_random(self, ctx_mixed, rng):
        for _ in range(100):
            a = random_poly(rng, ctx_mixed, 3, 3)
            b = random_poly(rng, ctx_mixed, 3, 3)
            c = random_poly(rng, ctx_mixed, 3, 3)
            assert (a * b) * c == a * (b * c)

    def test_monomial_refuses_a_fractional_exponent(self, ctx_mixed):
        # once truncated to x
        with pytest.raises(TypeError, match="exponent of x must be an int"):
            ctx_mixed.monomial(1, {"x": 1.5})

    def test_monomial_refuses_a_bool_exponent(self, ctx_mixed):
        # once printed as x
        with pytest.raises(TypeError, match="exponent of x must be an int"):
            ctx_mixed.monomial(1, {"x": True})

    def test_monomial_refuses_a_negative_exponent(self, ctx_mixed):
        # once printed as 1, unequal to 1, and equal to 1 times x^2
        with pytest.raises(ValueError, match="exponent of x must be non-negative"):
            ctx_mixed.monomial(1, {"x": -2})

    @pytest.mark.parametrize("n", [True, False, 1.0, -1])
    def test_power_refuses_a_bool_or_non_integer(self, ctx_mixed, n):
        # (x+1) ** True once returned x+1, as if True were 1
        with pytest.raises(ValueError, match="only non-negative integer powers"):
            (ctx_mixed.gen("x") + 1) ** n

    def test_context_mismatch_rejected(self, ctx_mixed):
        other = Context.plain([("x", EVEN)])
        with pytest.raises(ValueError, match="context"):
            ctx_mixed.gen("x") * other.gen("x")


class TestDerivatives:
    def test_left_deriv_examples(self, ctx_mixed):
        t1t2 = ctx_mixed.gen("t1") * ctx_mixed.gen("t2")
        assert t1t2.left_deriv("t1") == ctx_mixed.gen("t2")
        assert t1t2.left_deriv("t2") == -ctx_mixed.gen("t1")
        x2t = ctx_mixed.monomial(1, {"x": 2}, ["t1"])
        assert x2t.left_deriv("x") == ctx_mixed.monomial(2, {"x": 1}, ["t1"])

    def test_right_deriv_sign_convention(self, ctx_mixed):
        # The convention makes the right derivative of an odd generator by
        # itself equal -1 (not +1).
        t1 = ctx_mixed.gen("t1")
        assert t1.right_deriv("t1") == ctx_mixed.scalar(-1)
        t1t2 = t1 * ctx_mixed.gen("t2")
        assert t1t2.right_deriv("t1") == ctx_mixed.gen("t2")
        x = ctx_mixed.gen("x")
        assert (x * x).right_deriv("x") == 2 * x

    def test_one_sweep_gives_every_derivative(self, ctx_mixed, rng):
        ctx = ctx_mixed

        def sweep(p, names, right=False):
            derivs = _derivs(p.terms, _sweep([ctx.slot(v) for v in names]), right)
            assert all(derivs.values())  # only the nonzero derivatives
            assert set(derivs) <= set(range(len(names)))
            return [Poly(ctx, derivs.get(i, {})) for i in range(len(names))]

        # left: the expected values of test_left_deriv_examples, by x, y, t1, t2
        # and then in an order with an odd generator first
        x, t1, t2 = ctx.gen("x"), ctx.gen("t1"), ctx.gen("t2")
        zero = ctx.zero()
        assert sweep(t1 * t2, ["x", "y", "t1", "t2"]) == [zero, zero, t2, -t1]
        assert sweep(t1 * t2, ["t2", "x", "t1"]) == [-t1, zero, t2]
        x2t1 = ctx.monomial(1, {"x": 2}, ["t1"])
        assert sweep(x2t1, ["x", "y", "t1", "t2"]) == [
            ctx.monomial(2, {"x": 1}, ["t1"]), zero, x * x, zero]
        assert sweep(x2t1, ["t1", "y", "x"]) == [x * x, zero, ctx.monomial(2, {"x": 1}, ["t1"])]
        # every generator in shuffled orders (odd before even included), and
        # subsets of them, against one derivative at a time
        names = [g.name for g in ctx.generators]
        orders = [["t2", "x", "t1", "y"], ["t1", "t2", "y", "x"], ["y", "t2"], ["t1"]]
        for n in range(100):
            order = orders[n] if n < len(orders) else rng.sample(names, rng.randint(1, 4))
            p = random_poly(rng, ctx, 4, 5, hbar_max=1)
            assert sweep(p, order) == [p.left_deriv(v) for v in order]
            assert sweep(p, order, right=True) == [right_deriv_split(p, v) for v in order]

    def test_leibniz_random(self, ctx_mixed, rng):
        for _ in range(100):
            pa, a = random_homogeneous(rng, ctx_mixed, 3, 3)
            b = random_poly(rng, ctx_mixed, 3, 3)
            for v in ("x", "t1"):
                sign = -1 if ctx_mixed.parity_of(v) and pa else 1
                lhs = (a * b).left_deriv(v)
                rhs = a.left_deriv(v) * b + sign * a * b.left_deriv(v)
                assert lhs == rhs

    def test_odd_derivative_squares_to_zero(self, ctx_mixed, rng):
        for _ in range(60):
            p = random_poly(rng, ctx_mixed, 4, 4)
            assert p.left_deriv("t1").left_deriv("t1").is_zero

    def test_derivative_commutation(self, ctx_mixed, rng):
        for u, v in (("x", "y"), ("t1", "t2"), ("x", "t1")):
            sign = -1 if ctx_mixed.parity_of(u) and ctx_mixed.parity_of(v) else 1
            for _ in range(40):
                p = random_poly(rng, ctx_mixed, 4, 4)
                assert p.left_deriv(u).left_deriv(v) == sign * p.left_deriv(v).left_deriv(u)

    def test_unknown_generator(self, ctx_mixed):
        with pytest.raises(ValueError, match="unknown"):
            ctx_mixed.gen("x").left_deriv("zz")


class TestSubstitution:
    def test_simple(self, ctx_mixed):
        x, t1 = ctx_mixed.gen("x"), ctx_mixed.gen("t1")
        assert (x * t1).substitute({"x": x * x}) == x * x * t1
        assert (x * x).substitute({"x": ctx_mixed.scalar(0)}).is_zero

    def test_swap_recanonicalizes(self, ctx_mixed):
        t1, t2 = ctx_mixed.gen("t1"), ctx_mixed.gen("t2")
        swapped = (t1 * t2).substitute({"t1": t2, "t2": t1})
        assert swapped == -(t1 * t2)

    def test_middle_odd_generator_only(self):
        # t2 -> image with t1 and t3 unassigned on either side of it: the
        # split t1*t2*t3 = t1*t3 * t2 costs one transposition
        ctx = Context.plain([("x", EVEN), ("t1", ODD), ("t2", ODD), ("t3", ODD)])
        x, t1, t2, t3 = (ctx.gen(n) for n in ("x", "t1", "t2", "t3"))
        cases = [
            (t2 * t3, {"t2": t1}, t1 * t3),
            (t1 * t2 * t3, {"t2": x * t2}, x * t1 * t2 * t3),
            (t1 * t2 * t3, {"t2": t1 + t3}, ctx.zero()),
            (x * t1 * t2 * t3 + t2 * t3 + t1, {"t2": t3 * t1 * t2 + x * t2},
             x * x * t1 * t2 * t3 + x * t2 * t3 + t1),
        ]
        for p, images, expected in cases:
            assert p.substitute(images) == expected == substitute_sum(p, images)

    def test_parity_mismatch_rejected(self, ctx_mixed):
        with pytest.raises(ValueError, match="parity"):
            ctx_mixed.gen("x").substitute({"x": ctx_mixed.gen("t1")})

    def test_context_mismatch_rejected(self, ctx_mixed):
        other = Context.plain([("x", EVEN), ("y", EVEN), ("t1", ODD)])
        with pytest.raises(ValueError, match="context mismatch"):
            ctx_mixed.gen("x").substitute({"x": other.gen("y")})
        with pytest.raises(ValueError, match="context mismatch"):
            _substitution(ctx_mixed, {"x": ctx_mixed.gen("y")})(other.gen("x"))

    def test_one_map_for_many_polys(self, ctx_mixed, rng):
        # one map applied to several Polys, in two orders: the image powers
        # it caches for the first must not leak into the others' results
        for _ in range(10):
            images = {"x": random_poly(rng, ctx_mixed, 2, 3, EVEN, hbar_max=1),
                      "t1": random_poly(rng, ctx_mixed, 3, 3, ODD),
                      "y": ctx_mixed.gen("x") + ctx_mixed.gen("t1") * ctx_mixed.gen("t2")}
            polys = [random_poly(rng, ctx_mixed, 6, 5, hbar_max=1) for _ in range(5)]
            polys.append(ctx_mixed.monomial(2, {"x": 4, "y": 3}, ["t2", "t1"]))
            expected = [substitute_sum(p, images) for p in polys]
            for order in (range(len(polys)), reversed(range(len(polys)))):
                substitute = _substitution(ctx_mixed, images)
                for i in order:
                    assert substitute(polys[i]) == expected[i] == polys[i].substitute(images)
                assert substitute(polys[0]) == expected[0]

    def test_morphism_random(self, ctx_mixed, rng):
        images = {"x": ctx_mixed.gen("y") * ctx_mixed.gen("y"),
                  "t1": ctx_mixed.gen("t2"),
                  "t2": ctx_mixed.gen("t1") + ctx_mixed.gen("y") * ctx_mixed.gen("t2")}
        for _ in range(80):
            a = random_poly(rng, ctx_mixed, 3, 3)
            b = random_poly(rng, ctx_mixed, 3, 3)
            assert (a * b).substitute(images) == a.substitute(images) * b.substitute(images)
            assert (a + b).substitute(images) == a.substitute(images) + b.substitute(images)


class TestGrading:
    def test_hbar_split(self, bvs_1_1):
        ctx = bvs_1_1.ctx
        phi = ctx.gen("x") + Scalar.hbar() * (ctx.gen("xp") * ctx.gen("x"))
        parts = phi.hbar_decompose()
        assert parts == [(0, ctx.gen("x")), (1, ctx.gen("xp") * ctx.gen("x"))]

    def test_antifield_split(self, bvs_1_1):
        ctx = bvs_1_1.ctx
        phi = ctx.gen("x") + ctx.gen("xp") * ctx.gen("x")
        parts = bvs_1_1.antifield_decompose(phi)
        assert parts == [(0, ctx.gen("x")), (1, ctx.gen("xp") * ctx.gen("x"))]

    def test_zero_decomposes_empty(self, bvs_1_1):
        assert bvs_1_1.ctx.zero().hbar_decompose() == []
        assert bvs_1_1.antifield_decompose(bvs_1_1.ctx.zero()) == []

    def test_mixed_scalar_splits_across_components(self, bvs_1_1):
        ctx = bvs_1_1.ctx
        phi = (Scalar.of(1) + Scalar.hbar()) * ctx.gen("x")
        assert phi.hbar_decompose() == [(0, ctx.gen("x")), (1, ctx.gen("x"))]


class TestKernelOracles:
    """The multiply-accumulate kernel against the pairwise routes in
    tests/oracles.py, on mixed-parity inputs with i and hbar."""

    def polys(self, rng, ctx, count):
        for n in range(count):
            a = ctx.zero() if n % 10 == 3 else random_poly(rng, ctx, 4, 4, hbar_max=2)
            b = ctx.zero() if n % 10 == 7 else random_poly(rng, ctx, 4, 4, hbar_max=2)
            yield a, b

    def test_products(self, ctx_mixed, rng):
        for a, b in self.polys(rng, ctx_mixed, 300):
            assert a * b == mul_pairwise(a, b)
            assert 3 * a == mul_pairwise(ctx_mixed.scalar(3), a)

    def test_scalar_products(self, ctx_mixed, rng):
        # by a scalar each coefficient is scaled in one pass; times the
        # constant Poly of that scalar the product goes through the kernel
        i = Scalar.i()
        scalars = (0, 1, -1, Fraction(-3, 7), i, i * Scalar.hbar(-1))
        for a, _ in self.polys(rng, ctx_mixed, 100):
            for s in scalars:
                expected = a * ctx_mixed.scalar(s)
                assert a * s == expected and s * a == expected
                assert all(not c.is_zero for c in (a * s).terms.values())

    def test_products_that_cancel(self, ctx_mixed, rng):
        # an odd element squares to zero, term pair by term pair; with an
        # even part x added, only the cross terms 2*x*psi survive
        x = ctx_mixed.gen("x")
        cancelled = 0
        for _ in range(200):
            psi = random_poly(rng, ctx_mixed, 4, 6, ODD, hbar_max=2)
            # terms in t1 and in t2 meet with opposite signs
            cancelled += len({mask for _, mask in psi.terms}) > 1
            assert (psi * psi).terms == {}
            square = (x + psi) * (x + psi)
            assert square == mul_pairwise(x + psi, x + psi) == x * x + 2 * x * psi
            assert all(not c.is_zero for c in square.terms.values())
        assert cancelled > 50

    def test_accumulates_signed_products_into_a_sum(self, ctx_mixed, rng):
        for a, b in self.polys(rng, ctx_mixed, 150):
            c = random_poly(rng, ctx_mixed, 4, 4, hbar_max=1)
            for sign in (1, -1):
                # a with each coefficient times sign adds sign * a * b
                signed = {m: sign * v for m, v in a.terms.items()}
                out = Poly(ctx_mixed, _mul_into(dict(c.terms), signed, b.terms))
                assert out == add_pairwise(c, mul_pairwise(ctx_mixed.scalar(sign),
                                                           mul_pairwise(a, b)))
            # c - c*1 leaves every coefficient at zero until the filter
            negated = {m: -v for m, v in c.terms.items()}
            assert Poly(ctx_mixed, _mul_into(dict(c.terms), negated,
                                             ctx_mixed.one().terms)).is_zero

    def test_substitute(self, ctx_mixed, rng):
        for p, _ in self.polys(rng, ctx_mixed, 150):
            # a random subset of the generators is assigned; zero images too
            assignments = {}
            for g in ctx_mixed.generators:
                if rng.random() < 0.6:
                    img = random_poly(rng, ctx_mixed, 2, 3, g.parity, hbar_max=1)
                    assignments[g.name] = ctx_mixed.zero() if rng.random() < 0.1 else img
            assert p.substitute(assignments) == substitute_sum(p, assignments)


def test_transport_tracks_reordering_signs(rng):
    src = Context.plain([("a", ODD), ("b", ODD), ("u", EVEN)])
    dst = Context.plain([("u", EVEN), ("b", ODD), ("a", ODD)])
    ab = src.gen("a") * src.gen("b")
    assert src.transport(ab, dst) == -(dst.gen("b") * dst.gen("a"))
    for _ in range(40):
        p = random_poly(rng, src, 4, 4, hbar_max=1)
        assert dst.transport(src.transport(p, dst), src) == p


def test_transport_refuses_missing_and_parity_changing_generators():
    src = Context.plain([("a", ODD), ("u", EVEN), ("w", EVEN)])
    flipped = Context.plain([("a", EVEN), ("u", ODD)])
    small = Context.plain([("a", ODD), ("u", EVEN)])
    with pytest.raises(ValueError, match="a changes parity"):
        src.transport(src.gen("a"), flipped)
    with pytest.raises(ValueError, match="u changes parity"):
        src.transport(src.gen("u"), flipped)
    with pytest.raises(ValueError, match="unknown generator 'w'"):
        src.transport(src.gen("w"), small)
    # generators that do not occur need not exist in the target
    assert src.transport(src.gen("a") * src.gen("u"), small) == small.gen("a") * small.gen("u")


def test_canonical_form_idempotent(ctx_mixed, rng):
    from bvcalc.superalgebra import Poly
    for _ in range(60):
        p = random_poly(rng, ctx_mixed, 4, 4, hbar_max=2)
        assert Poly(ctx_mixed, dict(p.terms)) == p


def test_equality_with_a_bool_is_false_but_arithmetic_refuses_it(ctx_mixed):
    # as for Scalar: a bool is not a scalar, so == falls back to identity
    one = ctx_mixed.one()
    assert (one == True) is False and (True == one) is False
    assert one != True and True not in [one]
    assert one == 1 and one == Scalar.of(1) and (one == 1.5) is False
    with pytest.raises(TypeError, match="True"):
        one + True
    with pytest.raises(TypeError, match="True"):
        one * True
    with pytest.raises(TypeError, match="False"):
        False * one


def test_context_validation():
    from bvcalc.superalgebra import Generator
    with pytest.raises(ValueError) as err:
        Context.plain([("x", EVEN), ("y", ODD), ("y", EVEN), ("x", ODD)])
    assert str(err.value) == "generator names must be unique: y is repeated"
    # the pairing is checked by BVSpace, not by the Context under it
    same_parity = Context([Generator("x", EVEN, "field"),
                           Generator("xp", EVEN, "antifield", "x")])
    with pytest.raises(ValueError, match="opposite parity"):
        BVSpace(same_parity)
    with pytest.raises(ValueError, match="two antifields"):
        BVSpace(Context([Generator("x", EVEN, "field"),
                         Generator("a", ODD, "antifield", "x"),
                         Generator("b", ODD, "antifield", "x")]))
