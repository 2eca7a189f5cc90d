import pytest

from bvcalc import Derivation, EVEN, ODD, brst_lie, parse_expression
from bvcalc.derivations import linf_rows
from bvcalc.randgen import random_poly
from bvcalc.superalgebra import Context

from conftest import sl2, solvable2
from oracles import apply_sum, leibniz_splice_apply, parity_split


def random_derivation(rng, ctx, parity=ODD, max_degree=3, hbar_max=0):
    images = {}
    for g in ctx.generators:
        img = random_poly(rng, ctx, max_degree, 3, parity=(g.parity + parity) % 2,
                          hbar_max=hbar_max)
        if not img.is_zero:
            images[g.name] = img
    return Derivation(ctx, parity, images)


@pytest.fixture
def homotopy_ctx():
    return Context.plain([("c1", ODD), ("c2", ODD), ("c3", ODD), ("b", EVEN)])


def homotopy_derivation(ctx, with_top=True):
    """Bracket [e1,e2] = e2, [e1,e3] = e1 on three odd coordinates, repaired
    by a linear piece into b and a compensating cubic piece.

    Hand-derived: the full derivation squares to zero; without the cubic
    piece exactly the degree-3 row of the square survives.
    """
    mk = lambda src: parse_expression(src, ctx)
    images = {"c1": mk("c1*c3"), "c2": mk("b + c1*c2"),
              "b": mk("c1*b + c1*c2*c3") if with_top else mk("c1*b")}
    return Derivation(ctx, ODD, images)


# two contexts that differ, for the context checks
CTX = Context.plain([("c1", ODD), ("b", EVEN)])
OTHER = Context.plain([("c1", ODD)])

# refusals of Derivation, each with its whole message
REFUSALS = {
    "parity": (lambda: Derivation(CTX, 2, {}), "derivation parity must be 0 or 1"),
    "image-context": (lambda: Derivation(CTX, ODD, {"b": OTHER.gen("c1")}),
                      "context mismatch in derivation image"),
    "apply-context": (lambda: Derivation(CTX, ODD, {}).apply(OTHER.gen("c1")),
                      "context mismatch"),
    "commutator-context": (lambda: Derivation(CTX, ODD, {}).commutator(
        Derivation(OTHER, ODD, {})), "context mismatch"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestApply:
    def test_sl2_image(self):
        D = brst_lie(sl2())
        ctx = D.ctx
        assert D.image("c1") == ctx.monomial(1, odd=["c2", "c3"])
        assert D.image("c2") == ctx.monomial(2, odd=["c1", "c2"])
        assert D.image("c3") == ctx.monomial(-2, odd=["c1", "c3"])

    def test_kills_constants(self):
        D = brst_lie(sl2())
        assert D.apply(D.ctx.one()).is_zero
        assert D.apply(D.ctx.scalar(7)).is_zero

    def test_leibniz_cancellation(self):
        # D(c1*c2) = (c2*c3)*c2 - c1*(2*c1*c2) = 0
        D = brst_lie(sl2())
        ctx = D.ctx
        assert D.apply(ctx.gen("c1") * ctx.gen("c2")).is_zero

    def test_leibniz_random(self, rng, homotopy_ctx):
        D = random_derivation(rng, homotopy_ctx)
        for _ in range(80):
            a = random_poly(rng, homotopy_ctx, 3, 3)
            ea, oa = parity_split(a)
            b = random_poly(rng, homotopy_ctx, 3, 3)
            lhs = D.apply(a * b)
            rhs = (D.apply(ea) * b + ea * D.apply(b)
                   + D.apply(oa) * b - oa * D.apply(b))
            assert lhs == rhs

    @pytest.mark.parametrize("parity", [EVEN, ODD])
    def test_matches_splice_oracle(self, rng, ctx_mixed, parity):
        # mixed-parity generators, coefficients with i and powers of hbar
        for _ in range(150):
            D = random_derivation(rng, ctx_mixed, parity, hbar_max=2)
            phi = random_poly(rng, ctx_mixed, 4, 4, hbar_max=2)
            assert D.apply(phi) == leibniz_splice_apply(D, phi)

    @pytest.mark.parametrize("parity", [EVEN, ODD])
    def test_matches_sum_loop_oracle(self, rng, ctx_mixed, parity):
        # images on a random subset of the generators, so inputs contain
        # generators without an image; coefficients with i and hbar
        missed = 0
        for _ in range(150):
            full = random_derivation(rng, ctx_mixed, parity, hbar_max=2)
            keep = rng.sample(sorted(full.images), rng.randint(0, len(full.images)))
            D = Derivation(ctx_mixed, parity, {v: full.images[v] for v in keep})
            phi = random_poly(rng, ctx_mixed, 4, 4, hbar_max=2)
            missed += any(phi.left_deriv(g.name).terms and g.name not in D.images
                          for g in ctx_mixed.generators)
            assert D.apply(phi) == apply_sum(D, phi)
        assert missed > 50

    def test_parity_validation(self, homotopy_ctx):
        with pytest.raises(ValueError, match="parity"):
            Derivation(homotopy_ctx, ODD, {"c1": homotopy_ctx.gen("c2")})


class TestSquare:
    def test_sl2_square_zero(self):
        residual = brst_lie(sl2()).square_residual()
        assert all(p.is_zero for p in residual.values())

    def test_abelian_zero(self):
        from conftest import abelian
        D = brst_lie(abelian(3))
        assert D.is_zero
        assert all(p.is_zero for p in D.square_residual().values())

    def test_perturbed_sl2_square_nonzero(self):
        # scaling a single bracket that feeds back ([h,e] = 3e) breaks Jacobi
        from bvcalc import LieModel
        broken = LieModel.build(3, {(1, 0, 1): 3, (2, 0, 2): -2, (0, 1, 2): 1})
        residual = brst_lie(broken).square_residual()
        assert any(not p.is_zero for p in residual.values())

    def test_generator_criterion_extends_to_all_polys(self, rng, homotopy_ctx):
        D = homotopy_derivation(homotopy_ctx)
        assert all(p.is_zero for p in D.square_residual().values())
        for _ in range(60):
            phi = random_poly(rng, homotopy_ctx, 4, 4)
            assert D.apply(D.apply(phi)).is_zero


class TestCommutator:
    def test_commutator_satisfies_leibniz(self, rng, homotopy_ctx):
        D = random_derivation(rng, homotopy_ctx)
        E = random_derivation(rng, homotopy_ctx)
        C = D.commutator(E)
        assert C.parity == EVEN
        for _ in range(40):
            a = random_poly(rng, homotopy_ctx, 3, 2)
            b = random_poly(rng, homotopy_ctx, 3, 2)
            assert C.apply(a * b) == C.apply(a) * b + a * C.apply(b)

    def test_commutator_matches_composition(self, rng, homotopy_ctx):
        D = random_derivation(rng, homotopy_ctx)
        E = random_derivation(rng, homotopy_ctx)
        C = D.commutator(E)
        for _ in range(40):
            phi = random_poly(rng, homotopy_ctx, 3, 3)
            assert C.apply(phi) == D.apply(E.apply(phi)) + E.apply(D.apply(phi))


class TestLinfRelations:
    def test_pure_differential(self, homotopy_ctx):
        mk = lambda src: parse_expression(src, homotopy_ctx)
        D = Derivation(homotopy_ctx, ODD, {"c1": mk("b")})
        rows = linf_rows(D.square_residual(), 3)
        assert all(p.is_zero for _, row in rows for p in row.values())

    def test_pure_lie_row_three(self):
        # only delta_2: the n = 3 row is the Jacobi obstruction
        good = brst_lie(sl2())
        rows = dict(linf_rows(good.square_residual(), 4))
        assert all(p.is_zero for row in rows.values() for p in row.values())

        from bvcalc import LieModel
        broken = brst_lie(LieModel.build(3, {(1, 0, 1): 3, (2, 0, 2): -2, (0, 1, 2): 1}))
        rows = dict(linf_rows(broken.square_residual(), 4))
        assert any(not p.is_zero for p in rows[3].values())
        for n in (0, 1, 2, 4):
            assert all(p.is_zero for p in rows[n].values())

    def test_homotopy_fixture(self, homotopy_ctx):
        full = homotopy_derivation(homotopy_ctx, with_top=True)
        rows = dict(linf_rows(full.square_residual(), 4))
        assert all(p.is_zero for row in rows.values() for p in row.values())

        dropped = homotopy_derivation(homotopy_ctx, with_top=False)
        rows = dict(linf_rows(dropped.square_residual(), 4))
        mk = lambda src: parse_expression(src, homotopy_ctx)
        # hand-derived residuals of the dropped cubic repair
        assert rows[3]["c2"] == -mk("c1*c2*c3")
        assert rows[3]["b"] == mk("c1*c3*b")
        for n in (0, 1, 2, 4):
            assert all(p.is_zero for p in rows[n].values())

    def test_rows_sum_to_square(self, rng, homotopy_ctx):
        for _ in range(10):
            D = random_derivation(rng, homotopy_ctx)
            square = D.square_residual()
            n_max = max((p.max_degree() for p in square.values()), default=1) or 1
            rows = linf_rows(square, n_max)
            for g in homotopy_ctx.generators:
                total = homotopy_ctx.zero()
                for _, row in rows:
                    total = total + row[g.name]
                assert total == square[g.name]

    def test_nmax_validation(self, homotopy_ctx):
        with pytest.raises(ValueError):
            linf_rows(Derivation(homotopy_ctx, ODD, {}).square_residual(), 0)


def test_square_residual_matches_solvable():
    D = brst_lie(solvable2())
    ctx = D.ctx
    assert D.image("c1").is_zero
    assert D.image("c2") == ctx.monomial(1, odd=["c1", "c2"])
    assert all(p.is_zero for p in D.square_residual().values())
