import pytest

from bvcalc import EVEN, ODD, Scalar
from bvcalc.randgen import random_homogeneous, random_poly
from bvcalc.superalgebra import Context, Poly, _derivs, _mul_into

from oracles import add_pairwise, mul_pairwise, right_deriv_split, substitute_sum


def brute_merge_sign(left, right):
    """Independent Koszul-sign oracle: bubble-sort the concatenated index
    lists and count the swaps."""
    seq = list(left) + list(right)
    if len(set(seq)) != len(seq):
        return None
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return -1 if swaps % 2 else 1


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

    def test_monomial_refuses_a_negative_exponent(self, ctx_mixed):
        # once printed as 1, unequal to 1, and equal to 1 times x^2
        with pytest.raises(ValueError, match="exponent of x must be non-negative"):
            ctx_mixed.monomial(1, {"x": -2})

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
        names = ctx.even_names + ctx.odd_names
        even_slots = [ctx.slot(v)[1] for v in ctx.even_names]
        odd_bits = [1 << ctx.slot(v)[1] for v in ctx.odd_names]

        def sweep(p, right=False):
            derivs = _derivs(p.terms, even_slots, odd_bits, right)
            assert all(derivs.values())  # only the nonzero derivatives
            return [Poly(ctx, derivs.get(i, {})) for i in range(len(names))]

        # left: the expected values of test_left_deriv_examples, by x, y, t1, t2
        x, t1, t2 = ctx.gen("x"), ctx.gen("t1"), ctx.gen("t2")
        zero = ctx.zero()
        assert sweep(t1 * t2) == [zero, zero, t2, -t1]
        assert sweep(ctx.monomial(1, {"x": 2}, ["t1"])) == [
            ctx.monomial(2, {"x": 1}, ["t1"]), zero, x * x, zero]
        for _ in range(100):
            p = random_poly(rng, ctx, 4, 5, hbar_max=1)
            assert sweep(p) == [p.left_deriv(v) for v in names]
            assert sweep(p, right=True) == [right_deriv_split(p, v) for v in names]

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
        parts = phi.antifield_decompose()
        assert parts == [(0, ctx.gen("x")), (1, ctx.gen("xp") * ctx.gen("x"))]

    def test_zero_decomposes_empty(self, bvs_1_1):
        assert bvs_1_1.ctx.zero().hbar_decompose() == []
        assert bvs_1_1.ctx.zero().antifield_decompose() == []

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


def test_context_validation():
    from bvcalc.superalgebra import Generator
    with pytest.raises(ValueError, match="unique"):
        Context.plain([("x", EVEN), ("x", ODD)])
    with pytest.raises(ValueError, match="opposite parity"):
        Context([Generator("x", EVEN, "field"),
                 Generator("xp", EVEN, "antifield", "x")])
    with pytest.raises(ValueError, match="two antifields"):
        Context([Generator("x", EVEN, "field"),
                 Generator("a", ODD, "antifield", "x"),
                 Generator("b", ODD, "antifield", "x")])
