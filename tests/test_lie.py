import collections.abc
from fractions import Fraction
from math import comb

import pytest

from bvcalc import (EVEN, Generator, LieModel, NotACochainComplex, Scalar, brst_lie,
                    brst_rep, ce_cohomology_dims, ce_matrices, ghost_context,
                    jacobi_check, rep_check, rep_context, trace_condition)
from bvcalc import _eigenbasis, lie
from bvcalc._eigenbasis import rewrite
from bvcalc.lie import _ad_traces, _ce_basis, _exponents, _weight_zero_bases
from bvcalc.linalg import ExactMatrix, pivot_leads

from conftest import abelian, change_basis, gl, sl, sl2, sl2_rescaled, solvable2
from oracles import (action_matrix, adjoint_loop, bareiss_rank, brst_half_sum,
                     ce_basis_split, ce_cohomology_dims_full, ce_images, ce_images_scalar,
                     ce_weight_zero_keys, f_at, first_split_element, jacobi_triple_loop, matmul,
                     rep_commutator_check, violations_square)


def adjoint_oracle_jacobi(model):
    """Independent route: Jacobi holds iff ad is a representation, checked
    with plain matrix commutators."""
    m = model.dim
    ad = [action_matrix(model.adjoint(), k) for k in range(m)]
    for j in range(m):
        for k in range(m):
            bracket_action = [[sum((f_at(model, l, j, k) * ad[l].rows[a][b]
                                    for l in range(m)), Fraction(0))
                               for b in range(m)] for a in range(m)]
            comm = [[matmul(ad[j], ad[k]).rows[a][b] - matmul(ad[k], ad[j]).rows[a][b]
                     for b in range(m)] for a in range(m)]
            if bracket_action != comm:
                return False
    return True


def random_structure_constants(rng, m=3):
    brackets = {}
    for j in range(m):
        for k in range(j + 1, m):
            for i in range(m):
                if rng.random() < 0.5:
                    brackets[(i, j, k)] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    return LieModel.build(m, brackets)


def sl2_half_f() -> LieModel:
    """Basis (h, e, f/2): [h,e] = 2e, [h,f/2] = -f, [e,f/2] = h/2."""
    return LieModel.build(3, {(1, 0, 1): 2, (2, 0, 2): -2, (0, 1, 2): Fraction(1, 2)})


def matrices_of(pieces):
    """The ``ce_matrices`` layout of [(basis of C^q, images)] for q = 0..dim."""
    targets = [basis for basis, _ in pieces[1:]] + [[]]
    return [ExactMatrix([[image.get(key, 0) for image in images] for key in dst], len(basis))
            for (basis, images), dst in zip(pieces, targets)]


def random_shears(rng, n, count=9):
    """Elementary shears (a, b, +-1) with a != b, for ``change_basis``."""
    return [(*rng.sample(range(n), 2), rng.choice((-1, 1))) for _ in range(count)]


def ray(n: int) -> LieModel:
    """[g1, gk] = gk for k = 2..n: g1 acts on the abelian ideal as the identity."""
    return LieModel.build(n, {(k, 0, k): 1 for k in range(1, n)})


def weight_zero_ranked(model, p):
    """The images each elimination of the weight-zero route takes, by the
    oracle: the weight-zero keys of C^q less the rank of d_(q-1) on the
    weight-zero keys of C^(q-1), for q = 0..dim.  With no diagonal basis
    element every key has weight zero and these are the full-route counts."""
    images = {key: image for basis, imgs in ce_images(model, p)
              for key, image in zip(basis, imgs)}
    counts, prev = [], 0
    for q in range(model.dim + 1):
        keys = ce_weight_zero_keys(model, p, q)
        counts.append(len(keys) - prev)
        prev = len(pivot_leads(images[key] for key in keys))
    return counts


@pytest.fixture
def ranked(monkeypatch):
    """The number of images each elimination of a library call takes."""
    sizes = []
    real = lie.pivot_leads

    def spy(vectors):
        vectors = list(vectors)
        sizes.append(len(vectors))
        return real(vectors)
    monkeypatch.setattr(lie, "pivot_leads", spy)
    return sizes


class TestBuild:
    def test_antisymmetry_enforced(self):
        model = LieModel.build(2, {(1, 0, 1): 1})
        assert f_at(model, 1, 0, 1) == 1
        assert f_at(model, 1, 1, 0) == -1

    def test_inconsistent_orders_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            LieModel.build(2, {(1, 0, 1): 1, (1, 1, 0): 1})

    def test_consistent_redundant_orders_accepted(self):
        model = LieModel.build(2, {(1, 0, 1): 1, (1, 1, 0): -1})
        assert f_at(model, 1, 0, 1) == 1

    def test_self_bracket_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            LieModel.build(2, {(0, 1, 1): 1})

    def test_zero_self_bracket_is_dropped(self):
        model = LieModel.build(2, {(0, 1, 1): 0, (1, 0, 1): 1})
        assert model.f == solvable2().f

    def test_values_are_exact_rationals(self):
        # an int, a Fraction and a rational Scalar are all stored as Fractions
        model = LieModel.build(3, {(1, 0, 1): Fraction(1, 10), (2, 0, 2): 2}, 1,
                               {(0, 0, 1): Scalar.of(3)})
        assert model.f == {(1, 0, 1): Fraction(1, 10), (1, 1, 0): Fraction(-1, 10),
                           (2, 0, 2): 2, (2, 2, 0): -2}
        assert model.rho == {(0, 0, 1): 3}
        assert all(type(v) is Fraction for v in [*model.f.values(), *model.rho.values()])

    def test_declares_no_hash(self):
        # f and rho are dicts, so the record must not claim a hash of its fields
        model = LieModel.build(2, {(1, 0, 1): 1})
        assert not isinstance(model, collections.abc.Hashable)
        with pytest.raises(TypeError, match="'LieModel'"):
            hash(model)
        assert hash(Generator("x", EVEN)) == hash(Generator("x", EVEN))

    @pytest.mark.parametrize("build", [lambda: gl(3), lambda: sl(3),
                                       lambda: change_basis(gl(3), [(0, 4, 1), (3, 1, -1)]),
                                       solvable2, lambda: abelian(3)],
                             ids=["gl3", "sl3", "gl3-sheared", "solvable2", "abelian3"])
    def test_adjoint_matches_lookup_loop(self, build):
        model = build()
        adj = model.adjoint()
        assert adj.rho == adjoint_loop(model)
        assert (adj.dim, adj.module_dim, adj.f) == (model.dim, model.dim, model.f)


# refusals of LieModel.build and rep_context, each with its whole message;
# values go by Scalar.of, so a float, str or bool is not silently converted
REFUSALS = {
    "bracket-index": (lambda: LieModel.build(2, {(2, 0, 1): 1}),
                      ValueError, "bracket index 2 out of range"),
    "module-index": (lambda: LieModel.build(2, {}, 1, {(1, 0, 0): 1}),
                     ValueError, "module index out of range"),
    "algebra-index": (lambda: LieModel.build(2, {}, 1, {(0, 0, 2): 1}),
                      ValueError, "algebra index out of range"),
    "module-names": (lambda: rep_context(LieModel.build(1, {}, 1), ["a", "b"]),
                     ValueError, "module name count mismatch"),
    "float-bracket": (lambda: LieModel.build(2, {(1, 0, 1): 0.1}),
                      TypeError, "cannot make a Scalar out of 0.1"),
    "str-bracket": (lambda: LieModel.build(2, {(1, 0, 1): "1/2"}),
                    TypeError, "cannot make a Scalar out of '1/2'"),
    "bool-bracket": (lambda: LieModel.build(2, {(1, 0, 1): True}),
                     TypeError, "cannot make a Scalar out of True"),
    "i-bracket": (lambda: LieModel.build(2, {(1, 0, 1): Scalar.i()}),
                  ValueError, "scalar i has an imaginary part"),
    "float-rho": (lambda: LieModel.build(1, {}, 1, {(0, 0, 0): 0.5}),
                  TypeError, "cannot make a Scalar out of 0.5"),
    "str-rho": (lambda: LieModel.build(1, {}, 1, {(0, 0, 0): "1"}),
                TypeError, "cannot make a Scalar out of '1'"),
    "bool-rho": (lambda: LieModel.build(1, {}, 1, {(0, 0, 0): False}),
                 TypeError, "cannot make a Scalar out of False"),
    "hbar-rho": (lambda: LieModel.build(1, {}, 1, {(0, 0, 0): Scalar.hbar()}),
                 ValueError, "scalar hbar carries hbar, not a plain rational"),
    "float-dim": (lambda: LieModel.build(2.0, {(1, 0, 1): 1}),
                  ValueError, "dim must be a non-negative int, not 2.0"),
    "bool-dim": (lambda: LieModel.build(True),
                 ValueError, "dim must be a non-negative int, not True"),
    "negative-dim": (lambda: LieModel.build(-1),
                     ValueError, "dim must be a non-negative int, not -1"),
    "str-module-dim": (lambda: LieModel.build(2, {}, "1"),
                       ValueError, "module_dim must be a non-negative int, not '1'"),
    "bool-module-dim": (lambda: LieModel.build(2, {}, False),
                        ValueError, "module_dim must be a non-negative int, not False"),
    "negative-module-dim": (lambda: LieModel.build(2, {}, -1),
                            ValueError, "module_dim must be a non-negative int, not -1"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


class TestJacobi:
    def test_sl2_passes(self):
        assert jacobi_check(sl2()) == []

    def test_dim2_automatic(self):
        assert jacobi_check(solvable2()) == []

    def test_nonjacobi_detected(self):
        # so(3)-like with an extra feedback entry [e1,e2] = e3 + e1
        broken = LieModel.build(3, {(2, 0, 1): 1, (0, 0, 1): 1,
                                    (0, 1, 2): 1, (1, 2, 0): 1})
        assert jacobi_check(broken)

    def test_matches_matrix_oracle(self, rng):
        for n in range(40):
            model = random_structure_constants(rng, 3 + n % 2)
            violations = jacobi_check(model)
            assert (violations == []) == adjoint_oracle_jacobi(model)
            assert violations == jacobi_triple_loop(model)


class TestRep:
    def test_zero_rep_passes(self):
        model = LieModel.build(3, dict(sl2().f), module_dim=2)
        assert rep_check(model) == []

    def test_adjoint_passes(self):
        assert rep_check(sl2().adjoint()) == []
        assert rep_check(sl2_rescaled().adjoint()) == []

    def test_perturbed_adjoint_fails(self):
        adj = sl2().adjoint()
        rho = dict(adj.rho)
        rho[(0, 0, 0)] = Fraction(1)
        broken = LieModel(adj.dim, adj.module_dim, adj.f, rho)
        assert rep_check(broken)

    def test_matches_commutator_oracle(self, rng):
        for n in range(30):
            base = sl2() if n % 3 == 0 else random_structure_constants(rng, 3)
            module_dim = 1 + n % 3
            rho = {(i, j, k): Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                   for i in range(module_dim) for j in range(module_dim)
                   for k in range(3) if rng.random() < 0.4}
            model = LieModel.build(3, dict(base.f), module_dim, rho)
            assert rep_check(model) == rep_commutator_check(model)
        adj = sl2().adjoint()
        assert rep_check(adj) == rep_commutator_check(adj) == []


class TestBrst:
    def test_brst_lie_images(self):
        D = brst_lie(sl2())
        ctx = D.ctx
        assert D.image("c1") == ctx.monomial(1, odd=["c2", "c3"])
        assert D.image("c2") == ctx.monomial(2, odd=["c1", "c2"])
        assert D.image("c3") == ctx.monomial(-2, odd=["c1", "c3"])

    def test_abelian_zero(self):
        assert brst_lie(abelian(3)).is_zero

    def test_solvable_images(self):
        D = brst_lie(solvable2())
        assert D.image("c1").is_zero
        assert D.image("c2") == D.ctx.monomial(1, odd=["c1", "c2"])

    def test_rep_zero_reduces_to_ghosts(self):
        model = LieModel.build(3, dict(sl2().f), module_dim=2)
        D = brst_rep(model)
        for v in ("v1", "v2"):
            assert D.image(v).is_zero
        lie_only = brst_lie(sl2())
        for c in ("c1", "c2", "c3"):
            assert str(D.image(c)) == str(lie_only.image(c))
        for model in (sl2(), solvable2()):
            assert rep_context(model) == ghost_context(model.dim)
            D, lie_only = brst_rep(model), brst_lie(model)
            assert D.ctx == lie_only.ctx and D.images == lie_only.images

    def test_module_name_clashing_with_a_ghost_is_named(self):
        model = LieModel.build(2, {(1, 0, 1): 1}, 1, {(0, 0, 0): 1})
        with pytest.raises(ValueError) as err:
            rep_context(model, ["c1"])
        assert str(err.value) == "generator names must be unique: c1 is repeated"

    def test_square_iff_checks(self, rng):
        # nilpotence of the full differential = Jacobi plus representation
        adj = sl2().adjoint()
        assert all(p.is_zero for p in brst_rep(adj).square_residual().values())
        for _ in range(20):
            base = random_structure_constants(rng, 3)
            rho = {(rng.randrange(3), rng.randrange(3), rng.randrange(3)):
                   Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(0, 4))}
            model = LieModel(3, 3, base.f, {k: v for k, v in rho.items() if v})
            good = jacobi_check(model) == [] and rep_check(model) == []
            square_zero = all(p.is_zero
                              for p in brst_rep(model).square_residual().values())
            assert good == square_zero


class TestOneTablePerCall:
    """Each public Lie check and each cohomology call builds the BRST table
    once, and the d^2 = 0 guard reads it with the images."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        real = lie._brst_table

        def spy(model):
            calls.append(model)
            return real(model)
        monkeypatch.setattr(lie, "_brst_table", spy)
        return calls

    def test_cohomology_builds_one_table(self, builds):
        adj = sl2().adjoint()
        for model, p, dims in ((sl2(), 0, [1, 0, 0, 1]), (adj, 1, [0, 0, 0, 0])):
            builds.clear()
            assert ce_cohomology_dims(model, p) == dims
            assert builds == [model]

    def test_checks_build_one_table(self, builds):
        adj = sl2().adjoint()
        assert jacobi_check(adj) == []
        assert builds == [adj]
        assert rep_check(adj) == []
        assert builds == [adj, adj]


class TestSharedImages:
    """``ce_cohomology_dims`` ranks the images its d^2 = 0 guard built
    instead of building them again.  On the eigenbasis route (sheared gl(3)
    here) it ranks the images of the rewritten table, each built once."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The table and monomial of every image a library call builds."""
        keys = []
        real = lie._apply_into

        def spy(out, slots, terms):
            keys.extend((id(slots), key) for key in terms)
            return real(out, slots, terms)
        monkeypatch.setattr(lie, "_apply_into", spy)
        return keys

    @pytest.mark.parametrize("build, p, dims", [
        (lambda: gl(3), 0, [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]),
        (lambda: change_basis(gl(3), [(0, 4, 1), (3, 1, -1), (8, 2, 1)]), 0,
         [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]),
        (lambda: sl2().adjoint(), 1, [0, 0, 0, 0]),
        (lambda: gl(2).adjoint(), 1, [1, 1, 0, 1, 1])],
        ids=["gl3", "gl3-sheared", "sl2-adjoint", "gl2-adjoint"])
    def test_cohomology_builds_no_image_twice(self, built, build, p, dims):
        model = build()
        assert ce_cohomology_dims(model, p) == dims
        assert built and len(built) == len(set(built))


class TestRationalTable:
    """The rational BRST table against the Scalar routes in oracles.py."""

    CASES = [("gl3", lambda: gl(3), 0), ("sl3", lambda: sl(3), 0),
             ("sl2-adjoint", sl2, 1), ("gl2-adjoint", lambda: gl(2), 1),
             ("sl2-half-f", sl2_half_f, 0), ("sl2-half-f-adjoint", sl2_half_f, 1)]

    @pytest.mark.parametrize("sheared", [False, True], ids=["canonical", "sheared"])
    @pytest.mark.parametrize("build, p", [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_matches_scalar_oracles(self, rng, build, p, sheared):
        model = build()
        if sheared:
            model = change_basis(model, random_shears(rng, model.dim))
        if p:
            model = model.adjoint()
        assert ce_images(model, p) == ce_images_scalar(model, p)
        assert ce_matrices(model, p) == matrices_of(ce_images_scalar(model, p))
        assert jacobi_check(model) == jacobi_triple_loop(model) == []
        assert rep_check(model) == rep_commutator_check(model) == []
        assert brst_lie(model).images == brst_half_sum(model, ghost_context(model.dim)).images
        assert brst_rep(model).images == brst_half_sum(model, rep_context(model)).images

    def test_int_and_fraction_coefficients_mix(self):
        for model, p in ((sl2_half_f(), 0), (sl2_half_f().adjoint(), 1)):
            kinds = {type(c) for _, images in ce_images(model, p)
                     for image in images for c in image.values()}
            assert kinds == {int, Fraction}
        assert ce_cohomology_dims(sl2_half_f(), 0) == [1, 0, 0, 1]
        assert ce_cohomology_dims(sl2_half_f().adjoint(), 1) == [0, 0, 0, 0]


class TestChevalleyEilenberg:
    def test_sl2_trivial_coefficients(self):
        assert ce_cohomology_dims(sl2(), 0) == [1, 0, 0, 1]

    def test_solvable(self):
        assert ce_cohomology_dims(solvable2(), 0) == [1, 1, 0]

    def test_abelian_binomials(self):
        for m in range(1, 5):
            assert ce_cohomology_dims(abelian(m), 0) == [comb(m, q) for q in range(m + 1)]

    def test_abelian_matrices_zero(self):
        assert all(mat.is_zero for mat in ce_matrices(abelian(3), 0))

    def test_solvable_first_matrix(self):
        mats = ce_matrices(solvable2(), 0)
        assert mats[0].rows == ((Fraction(0),), (Fraction(0),))
        assert mats[1].rows == ((Fraction(0), Fraction(1)),)

    def test_sl2_constants_are_closed(self):
        mats = ce_matrices(sl2(), 0)
        assert mats[0].ncols == 1 and mats[0].is_zero

    def test_consecutive_compose_to_zero(self):
        for model, p in ((sl2(), 0), (solvable2(), 0),
                         (sl2().adjoint(), 0), (sl2().adjoint(), 1),
                         (sl2_rescaled().adjoint(), 1)):
            mats = ce_matrices(model, p)
            for low, high in zip(mats, mats[1:]):
                assert matmul(high, low).is_zero

    def test_euler_characteristic_vanishes(self):
        for model in (sl2(), solvable2(), abelian(4), sl2_rescaled()):
            dims = ce_cohomology_dims(model, 0)
            assert sum((-1) ** q * d for q, d in enumerate(dims)) == 0

    def test_rank_matches_bareiss_oracle(self):
        for model, p in ((gl(2).adjoint(), 1), (sl2().adjoint(), 1),
                         (sl(3), 0), (gl(3), 0)):
            for mat in ce_matrices(model, p):
                assert mat.rank() == bareiss_rank(mat.rows)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            ce_matrices(sl2(), 2)
        with pytest.raises(ValueError):
            ce_matrices(sl2(), 1)  # no module


class TestDualityRoute:
    """With every tr ad(e_k) zero, ce_cohomology_dims at p = 0 ranks
    d_0..d_((n-1)//2) only; otherwise it ranks d_0..d_(n-1).  Each d_q is
    ranked on the basis monomials that are not pivot leads of d_(q-1), and
    only on those of weight zero when a basis element acts diagonally.  A
    sheared copy, where none does, is rewritten in an eigenbasis when its
    complex is large enough (gl(3) and sl(3) at p = 0) and then filtered
    the same way; a small one ranks every other basis monomial.  Every
    route agrees with the full-complex oracle."""

    def test_solvable2_takes_full_route(self, ranked):
        assert _ad_traces(solvable2()) == [-1, 0]
        assert ce_cohomology_dims(solvable2(), 0) == ce_cohomology_dims_full(solvable2(), 0) \
            == [1, 1, 0]
        # e1 acts diagonally with weights (0, 1): C^1 is cut to c1
        assert ranked == weight_zero_ranked(solvable2(), 0)[:2] == [1, 1]
        ranked.clear()
        sheared = change_basis(solvable2(), [(0, 1, 1)])    # basis e1, e1 + e2
        assert _ad_traces(sheared) == [-1, -1] and _weight_zero_bases(sheared, 0) is None
        assert ce_cohomology_dims(sheared, 0) == [1, 1, 0]
        assert ranked == [1, 2]

    def test_dimensions_zero_and_one(self, ranked):
        assert ce_cohomology_dims(LieModel.build(0, {}), 0) == [1]
        assert ce_cohomology_dims(abelian(1), 0) == [1, 1]
        assert ranked == [1]

    def test_p0_with_a_module(self, ranked):
        adj = sl2().adjoint()
        assert ce_cohomology_dims(adj, 0) == ce_cohomology_dims_full(adj, 0) == [1, 0, 0, 1]
        assert ranked == weight_zero_ranked(adj, 0)[:2] == [1, 1]
        # p = 1 is another complex, ranked up to d_(n-1) with no duality; its
        # weight-zero part under h is v_h in C^0 and v_h c^h, v_e c^f, v_f c^e
        # in C^1 ...
        assert ce_cohomology_dims(adj, 1) == ce_cohomology_dims_full(adj, 1) == [0, 0, 0, 0]
        assert ranked == [1, 1] + weight_zero_ranked(adj, 1)[:3] == [1, 1, 1, 2, 1]
        # ... while a sheared copy has no diagonal element.  There d_0 and d_1
        # have ranks 3 and 6, so d_1 and d_2 see 9 - 3 and 9 - 6 images
        ranked.clear()
        sheared = change_basis(sl2(), [(0, 1, 1)]).adjoint()
        assert _weight_zero_bases(sheared, 0) is _weight_zero_bases(sheared, 1) is None
        assert ce_cohomology_dims(sheared, 0) == [1, 0, 0, 1]
        assert ce_cohomology_dims(sheared, 1) == [0, 0, 0, 0]
        assert ranked == [1, 3, 3, 6, 3]

    def test_traceless_table_that_fails_jacobi(self, ranked):
        # so(3) with [e3, e4] = e1 added: every trace is zero, Jacobi fails
        model = LieModel.build(4, {(2, 0, 1): 1, (0, 1, 2): 1, (0, 2, 3): 1})
        assert not any(_ad_traces(model)) and jacobi_check(model)
        with pytest.raises(NotACochainComplex):
            ce_cohomology_dims(model, 0)
        assert ranked == []

    @pytest.mark.parametrize("build, p, sheared", [
        (build, p, sheared) for build, p in ((lambda: gl(3), 0), (lambda: sl(3), 0),
                                             (lambda: gl(2), 1), (sl2_half_f, 1))
        for sheared in (False, True)],
        ids=[name + suffix for name in ("gl3", "sl3", "gl2-adjoint", "sl2-half-f-adjoint")
             for suffix in ("", "-sheared")])
    def test_ranks_only_a_complement(self, ranked, rng, build, p, sheared):
        model = build()
        if sheared:
            model = change_basis(model, random_shears(rng, model.dim))
        if p:
            model = model.adjoint()
        pieces = ce_images(model, p)
        full = [len(pivot_leads(images)) for _, images in pieces]
        assert ce_cohomology_dims(model, p) == ce_cohomology_dims_full(model, p)
        if sheared:
            assert _weight_zero_bases(model, p) is None
        if sheared and p == 0:
            # 512 and 256 cochains pass the gate: the weight-zero cochains of
            # the table rewritten in an eigenbasis
            assert ranked == weight_zero_ranked(rewrite(model, p), p)[:len(ranked)]
        elif sheared:
            # 64 and 24 cochains do not: every basis monomial but the leads
            assert ranked == [len(basis) - prev for (basis, _), prev
                              in zip(pieces, [0] + full)][:len(ranked)]
        else:
            assert ranked == weight_zero_ranked(model, p)[:len(ranked)]
        assert sum(ranked) < sum(len(basis) for basis, _ in pieces[:len(ranked)])

    def test_ray_model_ranks_two_images(self, ranked):
        # tr ad(g1) = 19, so d_0..d_19 are ranked, but only 1 and c1 have
        # weight zero under g1: 2 of the 2^20 cochains
        assert ce_cohomology_dims(ray(20), 0) == [1, 1] + [0] * 19
        assert ranked == [1, 1] + [0] * 18


class TestWeightZeroRoute:
    """The monomials ``ce_cohomology_dims`` ranks when a basis element acts
    diagonally: those of joint weight zero, as the brute-force oracle
    ``ce_weight_zero_keys`` names them, each once."""

    @pytest.mark.parametrize("build, p", [
        (lambda: gl(3), 0), (lambda: sl(3), 0), (solvable2, 0),
        (lambda: sl2().adjoint(), 0), (lambda: sl2().adjoint(), 1),
        (lambda: gl(2).adjoint(), 1), (lambda: sl2_half_f().adjoint(), 1),
        (lambda: LieModel.build(3, {(1, 0, 1): Fraction(2, 3), (2, 0, 2): Fraction(-1, 2),
                                    (0, 1, 2): 1}), 0),
        (lambda: ray(9), 0), (lambda: gl(2).adjoint(), 2),
        # v1^3 v2 weighs 3 under e1 and -1 under e2, so no cochain has weight zero
        (lambda: LieModel.build(2, {}, 2, {(0, 0, 0): 1, (1, 1, 1): -1}), 4)],
        ids=["gl3", "sl3", "solvable2", "sl2-adjoint-p0", "sl2-adjoint",
             "gl2-adjoint", "sl2-half-f-adjoint", "fraction-weights", "ray9",
             "gl2-adjoint-p2", "abelian2-diagonal-p4"])
    def test_bases_equal_brute_force_oracle(self, build, p):
        model = build()
        bases = _weight_zero_bases(model, p)
        assert len(bases) == model.dim + 1
        for q, basis in enumerate(bases):
            assert len(set(basis)) == len(basis)
            assert sorted(basis) == sorted(ce_weight_zero_keys(model, p, q))
        assert sum(map(len, bases)) < sum(len(_ce_basis(model.module_dim, model.dim, p, q))
                                          for q in range(model.dim + 1))

    def test_gl4_and_sl4_sizes(self):
        # the weight-zero cochains per degree, 2,432 of 65,536 and 1,216 of 32,768
        gl4 = [len(basis) for basis in _weight_zero_bases(gl(4), 0)]
        assert gl4[:9] == [1, 4, 12, 36, 90, 180, 292, 388, 426] and gl4 == gl4[::-1]
        assert sum(gl4) == 2432
        assert sum(map(len, _weight_zero_bases(sl(4), 0))) == 1216

    def test_no_diagonal_element_keeps_every_key(self):
        for model, p in ((abelian(3), 0), (LieModel.build(0, {}), 0),
                         (change_basis(gl(2), [(0, 3, 1), (2, 1, -1)]), 0),
                         (change_basis(sl2(), [(0, 1, 1)]).adjoint(), 1)):
            assert _weight_zero_bases(model, p) is None
            for q in range(model.dim + 1):
                assert ce_weight_zero_keys(model, p, q) == _ce_basis(model.module_dim,
                                                                     model.dim, p, q)

    def test_diagonal_on_the_algebra_but_not_the_module(self):
        # e1 acts on the module by [[0, 1], [0, 0]]: at p = 1 nothing is cut
        model = LieModel.build(2, {(1, 0, 1): 1}, 2, {(0, 1, 0): 1})
        assert rep_check(model) == []
        assert _weight_zero_bases(model, 0) is not None
        assert _weight_zero_bases(model, 1) is None
        assert ce_cohomology_dims(model, 1) == ce_cohomology_dims_full(model, 1)

    @pytest.mark.parametrize("a", [1, -1, 2, Fraction(1, 2)])
    def test_one_dimensional_modules_of_solvable2(self, a):
        # e1 v = a v, e2 v = 0: v c^mask has weight a + [c2 in mask], so only
        # a = -1 leaves the cochains v c2 and v c1 c2, both closed
        model = LieModel.build(2, {(1, 0, 1): 1}, 1, {(0, 0, 0): a})
        assert rep_check(model) == []
        dims = ce_cohomology_dims(model, 1)
        assert dims == ce_cohomology_dims_full(model, 1)
        assert dims == ([0, 1, 1] if a == -1 else [0, 0, 0])


class TestNotACochainComplex:
    """ce_cohomology_dims refuses a table whose differential does not square
    to zero and names the first violation of the check that failed."""

    def test_non_jacobi(self):
        broken = LieModel.build(3, {(2, 0, 1): 1, (0, 0, 1): 1,
                                    (0, 1, 2): 1, (1, 2, 0): 1})
        for model, p in ((broken, 0), (broken.adjoint(), 0), (broken.adjoint(), 1)):
            with pytest.raises(NotACochainComplex) as info:
                ce_cohomology_dims(model, p)
            assert info.value.check == "jacobi"
            assert info.value.what == "Jacobi fails"
            assert info.value.violation == jacobi_check(model)[0]
            assert str(info.value) == "Jacobi fails at (0, 1, 2), so d^2 != 0"

    def test_non_representation(self):
        adj = sl2().adjoint()
        rho = dict(adj.rho)
        rho[(0, 0, 0)] = Fraction(1)
        broken = LieModel(adj.dim, adj.module_dim, adj.f, rho)
        with pytest.raises(NotACochainComplex) as info:
            ce_cohomology_dims(broken, 1)
        assert info.value.check == "rep"
        assert info.value.what == "not a representation"
        assert info.value.violation == rep_check(broken)[0]
        assert str(info.value).startswith("not a representation at (")
        # at p = 0 the module does not enter the complex
        assert ce_cohomology_dims(broken, 0) == [1, 0, 0, 1]

    def test_p_is_validated_first(self):
        broken = LieModel.build(3, {(2, 0, 1): 1, (0, 0, 1): 1,
                                    (0, 1, 2): 1, (1, 2, 0): 1})
        with pytest.raises(ValueError, match="p = 1 needs a module"):
            ce_cohomology_dims(broken, 1)
        with pytest.raises(ValueError, match="only p = 0 and p = 1"):
            ce_cohomology_dims(sl2(), 2)


class TestOneModuleMonomialList:
    """Every module-degree choice reads ``lie._exponents``; the earlier
    two-branch basis and squaring reader in oracles.py must agree with it."""

    def test_exponents(self):
        assert _exponents(3, 0) == [(0, 0, 0)]
        assert _exponents(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert _exponents(0, 0) == [()] and _exponents(0, 1) == []
        for m, p in ((2, 2), (3, 2), (3, 3), (4, 2)):
            exps = _exponents(m, p)
            assert len(set(exps)) == len(exps) == comb(m + p - 1, p)
            assert all(len(e) == m and sum(e) == p for e in exps)

    @pytest.mark.parametrize("adjoint", [False, True], ids=["plain", "adjoint"])
    @pytest.mark.parametrize("sheared", [False, True], ids=["canonical", "sheared"])
    @pytest.mark.parametrize("build", [lambda: gl(2), lambda: sl(3)], ids=["gl2", "sl3"])
    def test_equals_the_split_oracles(self, rng, build, sheared, adjoint):
        model = build()
        if sheared:
            model = change_basis(model, random_shears(rng, model.dim))
        if adjoint:
            model = model.adjoint()
        perturbed = LieModel(model.dim, model.module_dim, {**model.f, (0, 0, 1): 1},
                             {**model.rho, (0, 0, 0): 1} if adjoint else {})
        for p in (0, 1):
            for q in range(model.dim + 1):
                assert (_ce_basis(model.module_dim, model.dim, p, q)
                        == ce_basis_split(model.module_dim, model.dim, p, q))
        for table_of in (model, perturbed):
            table = lie._brst_table(table_of)
            for k in (0, 1):
                expected = violations_square(table, ("jacobi", "rep")[k])
                assert lie._violations(table, k, {}) == expected
        assert lie._violations(lie._brst_table(perturbed), 0, {})
        assert bool(lie._violations(lie._brst_table(perturbed), 1, {})) == adjoint


def poincare(*degrees):
    """Coefficients of prod (1 + t^d) over the given degrees."""
    coeffs = [1]
    for d in degrees:
        coeffs = [a + (coeffs[q - d] if 0 <= q - d < len(coeffs) else 0)
                  for q, a in enumerate(coeffs + [0] * d)]
    return coeffs


class TestClosedFormCohomology:
    """Poincare polynomials from the literature: H*(gl(n)) is an exterior
    algebra on generators of degrees 1, 3, ..., 2n-1 and H*(sl(n)) drops the
    degree-1 generator; a simple algebra has no cohomology with coefficients
    in a nontrivial irreducible module (Whitehead)."""

    def test_gl3(self):
        assert ce_cohomology_dims(gl(3), 0) == poincare(1, 3, 5) \
            == [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]

    def test_sl3(self):
        assert ce_cohomology_dims(sl(3), 0) == poincare(3, 5)

    def test_sl4(self):
        assert ce_cohomology_dims(sl(4), 0) == poincare(3, 5, 7)

    def test_gl4(self):
        assert ce_cohomology_dims(gl(4), 0) == poincare(1, 3, 5, 7)

    def test_ray_model(self):
        # g1 acts on the abelian ideal with weight k on Lambda^k, and
        # H*(g) = H*(<g1>) (x) (weight-zero part of H*(ideal)) (Hochschild-Serre)
        assert ce_cohomology_dims(ray(20), 0) == [1, 1] + [0] * 19

    def test_gl3_after_unimodular_change_of_basis(self):
        shears = [(0, 4, 1), (3, 1, -1), (8, 2, 1), (5, 0, -1), (2, 7, 1),
                  (6, 3, 1), (1, 8, -1), (4, 6, 1), (7, 5, -1)]
        sheared = change_basis(gl(3), shears)
        assert sheared.f != gl(3).f
        assert not jacobi_check(sheared)
        assert ce_cohomology_dims(sheared, 0) == poincare(1, 3, 5)

    def test_sl2_adjoint_whitehead_vanishing(self):
        assert ce_cohomology_dims(sl2().adjoint(), 1) == [0, 0, 0, 0]

    def test_gl2_adjoint(self):
        assert ce_cohomology_dims(gl(2).adjoint(), 1) == [1, 1, 0, 1, 1]


def huge_ray() -> LieModel:
    """[g1, gk] = W gk for k = 2..8 with W = 10^30, in the basis g1, g1 + g2,
    g3, ..., g8: no basis vector acts diagonally, g1 is diagonalizable with
    eigenvalues 0 and W (seven times), and tr (ad g1)^2 = 7 W^2."""
    w = 10 ** 30
    brackets = {(1, 0, 1): w, (0, 0, 1): -w}
    brackets.update({(k, j, k): w for j in (0, 1) for k in range(2, 8)})
    return LieModel.build(8, brackets)


def diagonal_spectra(model, p):
    """[(weights of c^k, weights of v^a)] under each basis vector whose ad
    and, at p = 1, whose module action are diagonal, as sorted lists."""
    n, m = model.dim, model.module_dim if p else 0
    return [(sorted(f_at(model, k, h, k) for k in range(n)),
             sorted(model.rho.get((a, a, h), 0) for a in range(m)))
            for h in range(n)
            if not any(f_at(model, i, h, k) for i in range(n) for k in range(n) if i != k)
            and not any(model.rho.get((a, b, h), 0) for a in range(m) for b in range(m) if a != b)]


class TestEigenbasisRoute:
    """With no basis vector acting diagonally and a complex of at least
    ``lie._EIGENBASIS_MIN_SIZE`` cochains, ``ce_cohomology_dims`` rewrites
    the table in an eigenbasis of the first basis vector h whose ad (and, at
    p = 1, module action) is diagonalizable over Q with a nonzero eigenvalue,
    after the d^2 = 0 guard, and filters by weight there.  ``gate_open``
    lets every complex take the route."""

    @pytest.fixture
    def gate_open(self, monkeypatch):
        monkeypatch.setattr(lie, "_EIGENBASIS_MIN_SIZE", 0)

    @pytest.fixture
    def rewrites(self, monkeypatch):
        """The (dim, p) of every table ``ce_cohomology_dims`` rewrites."""
        calls = []
        real = _eigenbasis.rewrite

        def spy(model, p):
            calls.append((model.dim, p))
            return real(model, p)
        monkeypatch.setattr(_eigenbasis, "rewrite", spy)
        return calls

    @pytest.mark.parametrize("build, p, dims", [
        (lambda: gl(3), 0, poincare(1, 3, 5)), (lambda: sl(3), 0, poincare(3, 5)),
        (lambda: gl(2), 1, poincare(1, 3))], ids=["gl3", "sl3", "gl2-adjoint"])
    def test_closed_forms_of_sheared_tables(self, gate_open, rewrites, rng, build, p, dims):
        # Chevalley-Eilenberg for gl(3) and sl(3), (1 + t)(1 + t^3) for the
        # gl(2) adjoint
        for _ in range(3):
            model = change_basis(build(), random_shears(rng, build().dim))
            model = model.adjoint() if p else model
            assert _weight_zero_bases(model, p) is None
            rewritten = rewrite(model, p)
            assert first_split_element(model, p) is not None and rewritten is not None
            assert jacobi_check(rewritten) == rep_check(rewritten) == []
            rewrites.clear()
            assert ce_cohomology_dims(model, p) == ce_cohomology_dims(rewritten, p) == dims
            assert rewrites == [(model.dim, p)]

    def test_the_gate_sizes(self, rewrites, rng):
        # 512 and 256 cochains take the route, 64 and 24 do not; a canonical
        # table is filtered without it
        cases = [(lambda: gl(3), 0, True), (lambda: sl(3), 0, True),
                 (lambda: gl(2), 1, False), (sl2, 1, False), (sl2, 0, False)]
        for build, p, routed in cases:
            model = change_basis(build(), random_shears(rng, build().dim))
            model = model.adjoint() if p else model
            rewrites.clear()
            ce_cohomology_dims(model, p)
            assert rewrites == ([(model.dim, p)] if routed else [])
        rewrites.clear()
        assert ce_cohomology_dims(gl(3), 0) == poincare(1, 3, 5) and rewrites == []

    def test_rewritten_table_is_diagonal_in_h(self, rng):
        model = change_basis(gl(3), random_shears(rng, 9)).adjoint()
        for p in (0, 1):
            _, ad, action = first_split_element(model, p)
            rewritten = rewrite(model, p)
            assert jacobi_check(rewritten) == rep_check(rewritten) == []
            spectrum = (sorted(v for v, k in ad.items() for _ in range(k)),
                        sorted(v for v, k in action.items() for _ in range(k)))
            assert spectrum in diagonal_spectra(rewritten, p)
            assert ce_cohomology_dims(model, p) == poincare(1, 3, 5)

    def test_sheared_table_that_fails_jacobi(self, gate_open, rewrites, ranked, rng):
        sheared = change_basis(gl(3), random_shears(rng, 9))
        broken = LieModel(9, 0, {**sheared.f, (0, 1, 2): sheared.f.get((0, 1, 2), 0) + 1,
                                 (0, 2, 1): sheared.f.get((0, 2, 1), 0) - 1}, {})
        assert _weight_zero_bases(broken, 0) is None and rewrite(broken, 0) is not None
        with pytest.raises(NotACochainComplex) as info:
            ce_cohomology_dims(broken, 0)
        assert info.value.check == "jacobi" and info.value.violation == jacobi_check(broken)[0]
        assert rewrites == ranked == []

    def test_sheared_module_that_is_not_a_representation(self, gate_open, rewrites, ranked,
                                                          rng):
        adj = change_basis(gl(2), random_shears(rng, 4)).adjoint()
        broken = LieModel(4, 4, adj.f, {**adj.rho, (0, 0, 0): adj.rho.get((0, 0, 0), 0) + 1})
        assert _weight_zero_bases(broken, 1) is None and rewrite(broken, 1) is not None
        with pytest.raises(NotACochainComplex) as info:
            ce_cohomology_dims(broken, 1)
        assert info.value.check == "rep" and info.value.violation == rep_check(broken)[0]
        assert rewrites == ranked == []

    def test_the_module_action_must_be_diagonalizable_too(self, gate_open, rewrites):
        # sl(2) + <z> in the basis h + z, e, f, z, with sl(2) acting on C^2
        # by 0 and z by a Jordan block: ad(h + z) is diagonal, but the action
        # of h + z is not diagonalizable, so at p = 1 no basis vector serves
        model = LieModel.build(4, {(1, 0, 1): 2, (2, 0, 2): -2, (0, 1, 2): 1, (3, 1, 2): -1},
                               2, {(0, 1, 0): 1, (0, 1, 3): 1})
        assert jacobi_check(model) == rep_check(model) == []
        assert _weight_zero_bases(model, 1) is None
        assert first_split_element(model, 1) is None and rewrite(model, 1) is None
        assert first_split_element(model, 0)[0] == 0 and rewrite(model, 0) is not None
        assert ce_cohomology_dims(model, 1) == ce_cohomology_dims_full(model, 1)
        assert rewrites == [(4, 1)]

    def test_huge_eigenvalues(self, rewrites):
        model = huge_ray()
        assert jacobi_check(model) == [] and _weight_zero_bases(model, 0) is None
        assert diagonal_spectra(rewrite(model, 0), 0) == [([0] + [10 ** 30] * 7, [])]
        assert ce_cohomology_dims(model, 0) == [1, 1] + [0] * 7
        assert rewrites == [(8, 0)]


class TestTraceCondition:
    def test_sl2_traceless(self):
        assert trace_condition(sl2()).is_zero

    def test_solvable_trace(self):
        trace = trace_condition(solvable2())
        assert trace == trace.ctx.monomial(-1, odd=["c1"])

    def test_scalar_action_trace(self):
        # rho(g_k) = t_k * identity on a module of dimension n
        n = 3
        ts = [Fraction(2), Fraction(-1, 2)]
        rho = {(i, i, k): ts[k] for i in range(n) for k in range(2)}
        model = LieModel.build(2, {}, module_dim=n, rho=rho)
        trace = trace_condition(model)
        ctx = trace.ctx
        expected = (ctx.monomial(n * ts[0], odd=["c1"])
                    + ctx.monomial(n * ts[1], odd=["c2"]))
        assert trace == expected
