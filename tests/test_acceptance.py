"""Acceptance suite: one test per criterion, at the stated sample sizes.

All arithmetic is exact, so every comparison is equality; there are no
tolerances anywhere.  Each test prints a single PASS line once its
assertions have gone through (visible with pytest -s or -rA).
"""

import random
from fractions import Fraction
from math import comb

import pytest

from bvcalc import (BVSpace, Derivation, EVEN, LieModel, ODD, Scalar, brst_lie,
                    brst_rep, ce_cohomology_dims, cli, jacobi_check,
                    parse_expression, rep_check, trace_condition)
from bvcalc.derivations import linf_rows
from bvcalc.gauge import (ExpElement, GaugeFermion, NotDeltaClosed, exp_delta,
                          gauge_independence_experiment, lagrangian_integral,
                          standard_damping)
from bvcalc.identities import IDENTITY_NAMES, bv_identity_suite
from bvcalc.randgen import random_poly

from conftest import MODELS, abelian, sl2, sl2_rescaled, solvable2
from oracles import hbar_equations_loop


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_bv_identity_suite(bvs_2_2):
    # 350 triples = 1050 random homogeneous polynomials of degree <= 4
    fails = bv_identity_suite(bvs_2_2, seed=101, triples=350)
    assert set(fails) == set(IDENTITY_NAMES)
    assert all(v == 0 for v in fails.values()), fails
    report(1, "seven bracket/Laplacian identities, 1050 random polys, zero failures")


def test_criterion_02_jacobi_iff_nilpotent():
    rng = random.Random(202)
    checked = 0
    for _ in range(50):
        brackets = {}
        for j in range(3):
            for k in range(j + 1, 3):
                for i in range(3):
                    if rng.random() < 0.6:
                        brackets[(i, j, k)] = Fraction(rng.randint(-2, 2))
        model = LieModel.build(3, brackets)
        jacobi_ok = jacobi_check(model) == []
        square_zero = all(p.is_zero
                          for p in brst_lie(model).square_residual().values())
        assert jacobi_ok == square_zero
        checked += 1
    assert checked == 50

    assert jacobi_check(sl2()) == []
    assert all(p.is_zero for p in brst_lie(sl2()).square_residual().values())

    # one-entry perturbations that genuinely break the Jacobi identity
    # (pure rescalings of a single bracket are isomorphic and do not)
    perturbations = [
        {(1, 0, 1): 3, (2, 0, 2): -2, (0, 1, 2): 1},   # [h,e] = 3e
        {(1, 0, 1): 2, (2, 0, 2): -1, (0, 1, 2): 1},   # [h,f] = -f
        {(1, 0, 1): 2, (2, 0, 2): -2, (0, 1, 2): 1, (0, 0, 1): 1},  # [h,e] += h
        {(1, 0, 1): 2, (2, 0, 2): -2, (0, 1, 2): 1, (1, 1, 2): 1},  # [e,f] += e
    ]
    for brackets in perturbations:
        model = LieModel.build(3, brackets)
        assert jacobi_check(model) != []
        assert any(not p.is_zero
                   for p in brst_lie(model).square_residual().values())
    report(2, "Jacobi <=> ghost differential squares to zero, 50 random + sl2 family")


def test_criterion_03_representation_iff_nilpotent():
    adj = sl2().adjoint()
    assert jacobi_check(adj) == [] and rep_check(adj) == []
    assert all(p.is_zero for p in brst_rep(adj).square_residual().values())

    rng = random.Random(303)
    for _ in range(20):
        f = dict(adj.f)
        rho = dict(adj.rho)
        if rng.random() < 0.5:
            i, j, k = rng.randrange(3), rng.randrange(3), rng.randrange(3)
            rho[(i, j, k)] = rho.get((i, j, k), Fraction(0)) + rng.choice((1, -1))
            rho = {key: v for key, v in rho.items() if v}
        else:
            i, j = rng.randrange(3), rng.randrange(2)
            k = rng.randrange(j + 1, 3)
            f = dict(f)
            old = f.get((i, j, k), Fraction(0))
            f[(i, j, k)] = old + rng.choice((1, -1))
            f[(i, k, j)] = -f[(i, j, k)]
            f = {key: v for key, v in f.items() if v}
        model = LieModel(3, 3, f, rho)
        good = jacobi_check(model) == [] and rep_check(model) == []
        square_zero = all(p.is_zero
                          for p in brst_rep(model).square_residual().values())
        assert good == square_zero
    report(3, "rep + Jacobi <=> full differential squares to zero, 20 perturbations")


def test_criterion_04_chevalley_eilenberg_dimensions():
    assert ce_cohomology_dims(sl2(), 0) == [1, 0, 0, 1]
    assert ce_cohomology_dims(solvable2(), 0) == [1, 1, 0]
    for m in range(1, 5):
        assert ce_cohomology_dims(abelian(m), 0) == [comb(m, q) for q in range(m + 1)]
    report(4, "cohomology dims (1,0,0,1), (1,1,0) and binomial(m,q) exact")


def test_criterion_05_lift_and_master_equation():
    # basis (t, e, f) with [t,e] = e, [t,f] = -f, [e,f] = 2t; in these
    # coordinates the adjoint-invariant quadratic is exactly vh^2 + 4 ve vf
    adj = sl2_rescaled().adjoint()
    D = brst_rep(adj, ["vh", "ve", "vf"])
    bvs = BVSpace.over_fields([("vh", EVEN), ("ve", EVEN), ("vf", EVEN),
                               ("c1", ODD), ("c2", ODD), ("c3", ODD)])
    s0 = parse_expression("vh^2 + 4*ve*vf", bvs.ctx)
    assert bvs.lift(D).apply(s0).is_zero
    s1 = bvs.s1_of(D)
    assert bvs.classical_master_residual(s0 + Scalar.hbar() * s1).is_zero

    ve = bvs.ctx.gen("ve")
    residual = bvs.classical_master_residual(ve + Scalar.hbar() * s1)
    assert residual == 2 * Scalar.hbar() * bvs.lift(D).apply(ve)
    assert not residual.is_zero
    report(5, "invariant action solves {S,S} = 0; non-invariant leaves 2*hbar*delta(S0)")


def test_criterion_06_trace_condition_and_qme():
    rng = random.Random(606)
    for _ in range(50):
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
        trace = trace_condition(model)
        assert trace.ctx.transport(trace, bvs.ctx) == bvs.delta(bvs.s1_of(D))

    adj = sl2().adjoint()
    bvs = BVSpace.over_fields([(f"v{i}", EVEN) for i in (1, 2, 3)]
                              + [(f"c{i}", ODD) for i in (1, 2, 3)])
    s = Scalar.hbar() * bvs.s1_of(brst_rep(adj))
    assert bvs.quantum_master_residual(s).is_zero

    solv = solvable2()
    bvs = BVSpace.over_fields([("c1", ODD), ("c2", ODD)])
    s = Scalar.hbar() * bvs.s1_of(brst_lie(solv))
    residual = bvs.quantum_master_residual(s)
    trace = trace_condition(solv)
    expected = -2 * Scalar.i() * Scalar.hbar(2) * trace.ctx.transport(trace, bvs.ctx)
    assert residual == expected
    assert not residual.is_zero
    report(6, "divergence = Delta(S1) on 50 random models; QME 0 / 2i*hbar^2*c1 split")


def test_criterion_07_quantum_brst_operator(bvs_2_2):
    rng = random.Random(707)
    half = Fraction(1, 2)
    nilpotent_seen = 0
    for _ in range(200):
        s = random_poly(rng, bvs_2_2.ctx, 3, 3, parity=EVEN, hbar_max=1)
        psi = random_poly(rng, bvs_2_2.ctx, 3, 3, hbar_max=1)
        residual = bvs_2_2.quantum_master_residual(s)
        omega2 = bvs_2_2.omega_apply(s, bvs_2_2.omega_apply(s, psi))
        assert omega2 == half * bvs_2_2.bracket(residual, psi)
        if residual.is_zero:
            nilpotent_seen += 1
            assert omega2.is_zero

    # a known master-equation solution gives a genuinely nilpotent operator
    adj = sl2().adjoint()
    bvs = BVSpace.over_fields([(f"v{i}", EVEN) for i in (1, 2, 3)]
                              + [(f"c{i}", ODD) for i in (1, 2, 3)])
    s = Scalar.hbar() * bvs.s1_of(brst_rep(adj))
    assert bvs.quantum_master_residual(s).is_zero
    for _ in range(10):
        psi = random_poly(rng, bvs.ctx, 3, 3)
        assert bvs.omega_apply(s, bvs.omega_apply(s, psi)).is_zero
    report(7, "Omega^2 = (1/2){QME residual, -} on 200 random pairs, exact")


def test_criterion_08_hbar_sequence(bvs_2_2):
    rng = random.Random(808)
    for _ in range(100):
        s = random_poly(rng, bvs_2_2.ctx, 3, 4, parity=EVEN, hbar_max=2)
        rows = hbar_equations_loop(bvs_2_2, s)
        assert bvs_2_2.hbar_equations(s) == rows
        total = bvs_2_2.ctx.zero()
        for k, r in rows:
            total = total + Scalar.hbar(k) * r
        assert total == bvs_2_2.quantum_master_residual(s)
    report(8, "hbar^k residuals match the order-by-order oracle and sum to the "
              "QME residual on 100 actions")


def test_criterion_09_homotopy_relations():
    from bvcalc.superalgebra import Context
    ctx = Context.plain([("c1", ODD), ("c2", ODD), ("c3", ODD), ("b", EVEN)])
    mk = lambda src: parse_expression(src, ctx)

    # rows of the square always sum back to the square itself
    rng = random.Random(909)
    for _ in range(10):
        images = {}
        for g in ctx.generators:
            img = random_poly(rng, ctx, 3, 3, parity=(g.parity + 1) % 2)
            if not img.is_zero:
                images[g.name] = img
        D = Derivation(ctx, ODD, images)
        square = D.square_residual()
        n_max = max((p.max_degree() for p in square.values()), default=1) or 1
        rows = linf_rows(square, n_max)
        for g in ctx.generators:
            total = ctx.zero()
            for _, row in rows:
                total = total + row[g.name]
            assert total == square[g.name]

    # bracket [e1,e2] = e2, [e1,e3] = e1 fails Jacobi; a linear piece into b
    # plus a compensating cubic piece repairs it up to homotopy (hand-derived,
    # verified by direct composition through apply)
    full = Derivation(ctx, ODD, {"c1": mk("c1*c3"), "c2": mk("b + c1*c2"),
                                 "b": mk("c1*b + c1*c2*c3")})
    rows = dict(linf_rows(full.square_residual(), 3))
    for n in (1, 2, 3):
        assert all(p.is_zero for p in rows[n].values()), n

    dropped = Derivation(ctx, ODD, {"c1": mk("c1*c3"), "c2": mk("b + c1*c2"),
                                    "b": mk("c1*b")})
    rows = dict(linf_rows(dropped.square_residual(), 3))
    assert all(p.is_zero for p in rows[1].values())
    assert all(p.is_zero for p in rows[2].values())
    assert any(not p.is_zero for p in rows[3].values())
    assert rows[3]["c2"] == -mk("c1*c2*c3")
    assert rows[3]["b"] == mk("c1*c3*b")
    report(9, "homotopy triple passes rows 1-3; dropping the cubic piece fails row 3 only")


def test_criterion_10_gauge_independence(bvs_1_1):
    ctx = bvs_1_1.ctx
    g = ctx.gen
    T = standard_damping(bvs_1_1)
    fermions = [GaugeFermion(bvs_1_1, ctx.monomial(a, {"x": 1}, ["th"]))
                for a in (0, 1, 2, -3)]

    def closed_with_correction(base_poly, xi_poly):
        phi = (ExpElement(bvs_1_1, [(base_poly, T)])
               + exp_delta(ExpElement(bvs_1_1, [(xi_poly, T)])))
        assert exp_delta(phi).is_zero
        return phi

    candidates = [
        closed_with_correction(g("th"), g("th") * g("xp") * g("thp")),
        closed_with_correction(g("x") * g("x") * g("th"),
                               g("x") * g("th") * g("xp") * g("thp")),
        closed_with_correction(g("th"),
                               g("x") * g("x") * g("th") * g("xp") * g("thp")),
        ExpElement(bvs_1_1, [(g("th") + g("thp"), T)]),
        closed_with_correction(g("x") * g("x") * g("x") * g("x") * g("th"),
                               g("x") * g("x") * g("x") * g("th") * g("xp") * g("thp")),
        closed_with_correction(g("th"), g("xp") * g("thp")),
    ]
    assert len(candidates) >= 5
    for phi in candidates:
        assert any(bvs_1_1.antifield_degree(m) for pair in phi.pairs for q in pair
                   for m in q.terms)
        rep = gauge_independence_experiment(phi, fermions)
        assert rep.all_equal, [str(v) for _, v in rep.values]

    rng = random.Random(1010)
    for _ in range(10):
        xi = ExpElement(bvs_1_1, [(random_poly(rng, ctx, 4, 4), T)])
        boundary = exp_delta(xi)
        for F in fermions:
            assert lagrangian_integral(boundary, F).is_zero

    with pytest.raises(NotDeltaClosed):
        gauge_independence_experiment(ExpElement(bvs_1_1, [(g("xp"), T)]),
                                      fermions)
    report(10, "6 closed antifield-bearing integrands agree over 4 gauges; "
               "10 boundaries vanish; non-closed refused")


def test_criterion_11_cli_determinism(capsys):
    fixture_runs = [
        (["check-lie", str(MODELS / "sl2.model")], 0),
        (["check-lie", str(MODELS / "abelian.model")], 0),
        (["check-rep", str(MODELS / "sl2_adjoint.model")], 0),
        (["qme", str(MODELS / "sl2_adjoint.model")], 0),
        (["qme", str(MODELS / "solvable2.model")], 1),
        (["trace-cond", str(MODELS / "solvable2.model")], 1),
        (["master", str(MODELS / "sl2_adjoint.model")], 0),
        (["ce-cohomology", str(MODELS / "sl2.model")], 0),
        (["bv-identities", str(MODELS / "sl2.model"), "--seed", "9",
          "--count", "5"], 0),
        (["gauge-exp", str(MODELS / "gauge11.model"), "--p", "BAD",
          "--gauge", "F0"], 2),
        (["qme", str(MODELS / "missing.model")], 2),
    ]
    for argv, expected in fixture_runs:
        code = cli.main(argv)
        first = capsys.readouterr().out
        assert code == expected, (argv, code)
        assert cli.main(argv) == expected
        second = capsys.readouterr().out
        assert first == second and first
    report(11, "byte-identical reports and 0/1/2 exit contract across fixtures")
