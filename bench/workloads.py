"""The four benchmark workloads: seeded inputs, one op each, and its oracle.

Every workload turns a seed into a fixed-length list of ops, runs one op at a
time (a closed loop with one client) and checks each result against a closed
form that does not come from the code under test:

* ``ce-cohomology``   Chevalley-Eilenberg dimensions of small Lie algebras,
                      canonical and under a seeded unimodular integer shear;
* ``bv-identities``   the seven Laplacian/bracket identities on random input;
* ``gauge-lagrangian`` gauge independence of a closed integrand whose value is
                      a Gaussian/Berezin moment known in closed form;
* ``cli-models``      one ``python -m bvcalc.cli`` child per op, checked against
                      recorded exit codes and stdout digests.

The library is reached through module attributes (``lie.jacobi_check``, not a
bare imported name) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from bvcalc import bv, cli, gauge, identities, lie, superalgebra
from bvcalc.scalars import Scalar
from bvcalc.superalgebra import EVEN, ODD

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "work"
GOLDEN = BENCH / "golden_cli.json"


def _cycle(cases, n_ops, rng):
    """n_ops items: whole passes over cases, each pass in a fresh seeded order."""
    out = []
    while len(out) < n_ops:
        batch = list(cases)
        rng.shuffle(batch)
        out.extend(batch)
    return out[:n_ops]


def passes(workload, seconds):
    """Whole passes over the workload's cases sized to about `seconds` of
    work at its nominal rate.  The count depends only on the arguments, never
    on a clock, so the same percentile lands on the same op in every run."""
    return max(1, round(seconds * workload.ops_per_s / workload.pass_len))


# -- ce-cohomology --------------------------------------------------------

def _matrix_lie(n, basis, coords):
    """LieModel of the matrix algebra spanned by `basis` (n x n integer
    matrices as dicts {(row, col): value}); coords(matrix) gives the
    coordinates of a matrix in that basis."""
    brackets = {}
    for j, x in enumerate(basis):
        for k in range(j + 1, len(basis)):
            y = basis[k]
            comm = {}
            for (a, b), u in x.items():
                for (c, d), v in y.items():
                    if b == c:
                        comm[(a, d)] = comm.get((a, d), 0) + u * v
                    if d == a:
                        comm[(c, b)] = comm.get((c, b), 0) - u * v
            for i, val in enumerate(coords(comm)):
                if val:
                    brackets[(i, j, k)] = val
    return lie.LieModel.build(len(basis), brackets)


def gl(n):
    """gl(n) in the basis E_ab, row-major."""
    cells = [(a, b) for a in range(n) for b in range(n)]
    basis = [{cell: 1} for cell in cells]
    return _matrix_lie(n, basis, lambda m: [m.get(cell, 0) for cell in cells])


def sl(n):
    """sl(n) in the basis H_1..H_(n-1) (H_k = E_kk - E_(k+1)(k+1)), then the
    off-diagonal E_ab; the H_k coordinate of a traceless diagonal is the
    partial sum of its first k entries."""
    off = [(a, b) for a in range(n) for b in range(n) if a != b]
    basis = [{(k, k): 1, (k + 1, k + 1): -1} for k in range(n - 1)]
    basis += [{cell: 1} for cell in off]

    def coords(m):
        diag = [sum(m.get((r, r), 0) for r in range(k + 1)) for k in range(n - 1)]
        return diag + [m.get(cell, 0) for cell in off]
    return _matrix_lie(n, basis, coords)


def solvable2():
    """[e1, e2] = e2."""
    return lie.LieModel.build(2, {(1, 0, 1): 1})


# Accepted range, by dimension, of the count of nonzero constants f^i_jk
# (j < k) after shearing: fixing the sparsity keeps the work per op, and so
# the percentiles, from varying with the seed.  Each band holds the most
# common counts of a `dim`-step shear; canonical solvable2, sl(2), gl(2),
# sl(3) and gl(3) have 1, 3, 6, 22 and 24.
SHEAR_BAND = {2: (2, 2), 3: (6, 6), 4: (11, 14), 8: (95, 105), 9: (115, 125)}


def shear(model, rng, count):
    """The same algebra in the basis e'_j = sum_b A[b][j] e_b, where A is a
    product of `count` elementary integer shears (so det A = 1 and A^-1 is
    integral).  Cohomology dimensions do not change.  The shear is redrawn
    until the constant count lies in SHEAR_BAND."""
    lo, hi = SHEAR_BAND[model.dim]
    while True:
        brackets = _sheared_brackets(model, rng, count)
        if lo <= len(brackets) <= hi:
            return lie.LieModel.build(model.dim, brackets)


def _sheared_brackets(model, rng, count):
    """{(a, j, k): f'^a_jk} for j < k in a freshly drawn sheared basis."""
    n = model.dim
    a_mat = [[int(r == c) for c in range(n)] for r in range(n)]
    a_inv = [row[:] for row in a_mat]
    for _ in range(count):
        a, b = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        for r in range(n):          # A <- A (I + s E_ab)
            a_mat[r][b] += s * a_mat[r][a]
        for c in range(n):          # A^-1 <- (I - s E_ab) A^-1
            a_inv[a][c] -= s * a_inv[b][c]
    # integer constants stay ints: Fraction arithmetic here dominated set-up
    f = [(i, b, c, int(val) if val.denominator == 1 else val)
         for (i, b, c), val in model.f.items()]
    brackets = {}
    for j in range(n):
        for k in range(j + 1, n):
            v = [0] * n
            for i, b, c, val in f:
                v[i] += val * a_mat[b][j] * a_mat[c][k]
            for a in range(n):
                val = sum(a_inv[a][i] * v[i] for i in range(n))
                if val:
                    brackets[(a, j, k)] = val
    return brackets


def _poincare(*odd_degrees):
    """Coefficients of prod (1 + t^d)."""
    coeffs = [1]
    for d in odd_degrees:
        coeffs = [x + (coeffs[i - d] if i >= d else 0)
                  for i, x in enumerate(coeffs + [0] * d)]
    return tuple(coeffs)


# (label, builder, p, expected dims): Chevalley-Eilenberg 1948 for gl(n),
# sl(2), sl(3); Whitehead's vanishing for sl(2) on its adjoint module;
# H*(gl(2), ad) = H*(sl(2)) (x) H*(gl(1)) (x) ad-invariants = (1+t)(1+t^3);
# the 2-dim solvable algebra has H* = 1 + t.
CE_ALGEBRAS = (
    ("sl2", lambda: sl(2), 0, _poincare(3)),
    ("solvable2", solvable2, 0, (1, 1, 0)),
    ("gl2", lambda: gl(2), 0, _poincare(1, 3)),
    ("sl3", lambda: sl(3), 0, _poincare(3, 5)),
    ("gl3", lambda: gl(3), 0, _poincare(1, 3, 5)),
    ("sl2-adjoint", lambda: sl(2), 1, (0, 0, 0, 0)),
    ("gl2-adjoint", lambda: gl(2), 1, _poincare(1, 3)),
)


@dataclass(frozen=True)
class CeOp:
    label: str
    sheared: bool
    p: int
    model: lie.LieModel
    expected: tuple

    def describe(self):
        return (self.label, self.sheared, self.p, sorted(self.model.f.items()),
                sorted(self.model.rho.items()))


class CeCohomology:
    """jacobi_check plus ce_cohomology_dims on canonical and sheared bases."""

    name = "ce-cohomology"
    ops_per_s = 5.6
    pass_len = 2 * len(CE_ALGEBRAS)

    def generate(self, seed, n_ops):
        rng = random.Random(seed)
        canonical = {label: build() for label, build, _, _ in CE_ALGEBRAS}
        cases = [(entry, sheared) for entry in CE_ALGEBRAS for sheared in (False, True)]
        ops = []
        for (label, _, p, expected), sheared in _cycle(cases, n_ops, rng):
            model = canonical[label]
            if sheared:
                model = shear(model, rng, model.dim)
            if p:
                model = model.adjoint()
            ops.append(CeOp(label, sheared, p, model, expected))
        return ops

    def warmup(self, seed):
        return [CeOp("sl2", False, 0, sl(2), _poincare(3))]

    def execute(self, op):
        violations = lie.jacobi_check(op.model)
        dims = lie.ce_cohomology_dims(op.model, op.p)
        return len(violations), tuple(dims)

    def verify(self, op, outcome):
        violations, dims = outcome
        euler = sum(-d if q % 2 else d for q, d in enumerate(dims))
        return violations == 0 and dims == op.expected and euler == 0


# -- bv-identities --------------------------------------------------------

BV_FIELDS = (("x1", EVEN), ("x2", EVEN), ("t1", ODD), ("t2", ODD))
BV_TRIPLES = 5


@dataclass(frozen=True)
class BvOp:
    seed: int

    def describe(self):
        return self.seed


class BvIdentities:
    """bv_identity_suite with a per-op seed; every failure count must be 0."""

    name = "bv-identities"
    ops_per_s = 85.0
    pass_len = 1

    def __init__(self):
        self.bvs = bv.BVSpace.over_fields(BV_FIELDS)

    def generate(self, seed, n_ops):
        rng = random.Random(seed)
        return [BvOp(rng.randrange(2 ** 31)) for _ in range(n_ops)]

    def warmup(self, seed):
        return self.generate(seed ^ 0x5A5A, 2)

    def execute(self, op):
        fails = identities.bv_identity_suite(self.bvs, op.seed, BV_TRIPLES)
        return tuple(sorted(fails.items()))

    def verify(self, op, outcome):
        return len(outcome) == len(identities.IDENTITY_NAMES) \
            and all(n == 0 for _, n in outcome)


# -- gauge-lagrangian -----------------------------------------------------

GAUGE_FIELDS = (("x1", EVEN), ("x2", EVEN), ("x3", EVEN),
                ("t1", ODD), ("t2", ODD), ("t3", ODD))
GAUGE_COUNT = 6


@dataclass(frozen=True)
class GaugeOp:
    psi: superalgebra.Poly       # seed element psi * exp(T), not closed
    nil: superalgebra.Poly       # antifield-linear, every monomial has an odd field
    p0: superalgebra.Poly        # field-only prefactor of exp(damping)
    fermions: tuple              # odd, field-only gauge fermions
    expected: Scalar             # closed-form moment of p0

    def describe(self):
        return (str(self.psi), str(self.nil), str(self.p0),
                tuple(str(f) for f in self.fermions), str(self.expected))


def _rational(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def _double_factorial(n):
    out = 1
    while n > 1:
        out, n = out * n, n - 2
    return out


class GaugeLagrangian:
    """Integrand exp_delta(psi * exp(T)) + P0 * exp(damping) with
    T = damping + (i/hbar) N.  It is delta-closed because delta squares to
    zero and P0, damping carry no antifields; by Stokes the first part
    integrates to 0 on every gauge, so each gauge gives the Berezin top
    coefficient of P0 times Gaussian moments (2k-1)!!."""

    name = "gauge-lagrangian"
    ops_per_s = 40.0
    pass_len = 1

    def __init__(self):
        self.bvs = bv.BVSpace.over_fields(GAUGE_FIELDS)
        self.damping = gauge.standard_damping(self.bvs)
        self.i_over_hbar = Scalar.i() * Scalar.hbar(-1)

    def _mono(self, rng, coeff, evens, odds, max_even):
        even = {}
        for _ in range(rng.randint(0, max_even)):
            name = rng.choice(evens)
            even[name] = even.get(name, 0) + 1
        return self.bvs.ctx.monomial(coeff, even, odds)

    def _op(self, rng):
        ctx = self.bvs.ctx
        xs, ts = ["x1", "x2", "x3"], ["t1", "t2", "t3"]
        odd_all = ts + ["x1p", "x2p", "x3p"]
        even_all = xs + ["t1p", "t2p", "t3p"]
        psi = ctx.zero()
        for _ in range(3):
            odds = rng.sample(odd_all, rng.randint(0, 3))
            psi = psi + self._mono(rng, _rational(rng), even_all, odds, 2)
        nil = ctx.zero()
        for _ in range(2):
            k = rng.randrange(3)
            if rng.random() < 0.5:   # odd antifield times an odd field monomial
                anti, fields = xs[k] + "p", rng.sample(ts, rng.choice((1, 3)))
            else:                    # even antifield times two odd fields
                anti, fields = ts[k] + "p", rng.sample(ts, 2)
            nil = nil + ctx.gen(anti) * self._mono(rng, _rational(rng), xs, fields, 1)
        c = _rational(rng)
        powers = {x: 2 * rng.randint(0, 1) for x in xs}
        p0 = ctx.monomial(c, powers, ts)
        expected = c
        for k in powers.values():
            expected *= _double_factorial(k - 1)
        # terms with zero moment: an odd Gaussian power, or a missing odd field
        p0 = p0 + ctx.monomial(_rational(rng), {rng.choice(xs): 3}, ts)
        p0 = p0 + ctx.monomial(_rational(rng), {rng.choice(xs): 2}, rng.sample(ts, 2))
        fermions = [gauge.GaugeFermion(self.bvs, ctx.zero())]
        while len(fermions) < GAUGE_COUNT:
            poly = ctx.zero()
            for _ in range(rng.randint(1, 2)):
                odds = rng.sample(ts, rng.choice((1, 1, 3)))
                poly = poly + self._mono(rng, _rational(rng), xs, odds, 2)
            if not poly.is_zero:
                fermions.append(gauge.GaugeFermion(self.bvs, poly))
        return GaugeOp(psi, nil, p0, tuple(fermions), Scalar.of(expected))

    def generate(self, seed, n_ops):
        rng = random.Random(seed)
        return [self._op(rng) for _ in range(n_ops)]

    def warmup(self, seed):
        return self.generate(seed ^ 0x5A5A, 1)

    def seed_element(self, op):
        exponent = self.damping + self.i_over_hbar * op.nil
        return gauge.ExpElement(self.bvs, [(op.psi, exponent)])

    def integrand(self, op):
        closed = gauge.ExpElement(self.bvs, [(op.p0, self.damping)])
        return gauge.exp_delta(self.seed_element(op)) + closed

    def execute(self, op):
        report = gauge.gauge_independence_experiment(self.integrand(op), op.fermions)
        boundary = gauge.exact_boundary_integrals(self.seed_element(op), op.fermions)
        return (tuple(v.key() for _, v in report.values),
                tuple(v.key() for _, v in boundary.values))

    def verify(self, op, outcome):
        values, boundary = outcome
        return (len(values) == len(boundary) == len(op.fermions)
                and all(v == op.expected.key() for v in values)
                and all(v == () for v in boundary))


# -- cli-models -----------------------------------------------------------

FIXTURES = ("abelian", "gauge11", "sl2", "sl2_adjoint", "solvable2")
PLAIN_COMMANDS = ("check-lie", "check-rep", "brst", "linf", "ce-cohomology",
                  "bv-identities", "master", "qme", "hbar-seq", "onshell",
                  "omega-square", "trace-cond")
GAUGES = ("--gauge", "F0", "--gauge", "F1", "--gauge", "F2", "--gauge", "F3")


def fixture_runs():
    """Every (command, fixture) pair with default flags, plus the flagged
    runs that have a fixture to act on; pass, fail and refusal all count."""
    runs = [[cmd, f"models/{m}.model"] for cmd in PLAIN_COMMANDS for m in FIXTURES]
    g11, adj = "models/gauge11.model", "models/sl2_adjoint.model"
    runs += [
        ["gauge-exp", g11, "--p", "P0", *GAUGES],
        ["gauge-exp", g11, "--p", "XI", "--boundary", *GAUGES],
        ["gauge-exp", g11, "--p", "BAD", "--gauge", "F0"],
        ["gauge-exp", g11, "--p", "P0", "--gauge", "BAD"],
        ["ce-cohomology", adj, "--p", "1"],
        ["ce-cohomology", "models/sl2.model", "--p", "1"],
        ["linf", adj, "--nmax", "2"],
        ["onshell", adj, "--point", "vh=0,ve=0,vf=0"],
        ["onshell", g11, "--point", "x=0", "--point", "x=1"],
        ["master", adj, "--action", "S0bad"],
        ["qme", "models/sl2.model", "--json"],
        ["bv-identities", g11, "--seed", "7", "--count", "20"],
    ]
    return runs


@dataclass(frozen=True)
class CliOp:
    argv: tuple
    exit: int
    sha256: str

    def describe(self):
        return (self.argv, self.exit, self.sha256)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _report(command, path, status, details):
    lines = [f"command: {command}", f"model: {path}", f"status: {status}"]
    return "\n".join(lines + [f"{k}: {v}" for k, v in details]) + "\n"


def _sheared_gl3_model(rng):
    model = shear(gl(3), rng, 9)
    names = [f"g{a}{b}" for a in range(1, 4) for b in range(1, 4)]
    lines = ["[lie]", "basis = " + " ".join(names), "", "[brackets]"]
    for j in range(9):
        for k in range(j + 1, 9):
            terms = [f"{model.f[(i, j, k)]}*{names[i]}" for i in range(9)
                     if (i, j, k) in model.f]
            if terms:
                lines.append(f"[{names[j]},{names[k]}] = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def _power_model(rng):
    k, m = rng.randint(8, 16), rng.randint(4, 10)
    return ("[generators]\nx even field\ny even field\nth odd field\n"
            "xp odd antifield x\nyp odd antifield y\nthp even antifield th\n\n"
            f"[exprs]\nS = (x+y+1)^{k} + 2/3*(x-y)^{m}*x\n"
            f"T = (1/2*x - y + 3)^{m}\n")


def generated_runs(rng, tag):
    """(path, text, [(argv, exit, expected stdout)]) for two fresh models
    whose reports follow from closed forms: sheared gl(3) is unimodular with
    H* = (1+t)(1+t^3)(1+t^5), and a field-only action has zero bracket and
    zero Laplacian."""
    gl3 = f"bench/work/gl3-{tag}.model"
    dims = _poincare(1, 3, 5)
    gl3_runs = [
        (["check-lie", gl3], 0, _report("check-lie", gl3, "pass", [("violations", 0)])),
        (["ce-cohomology", gl3], 0, _report(
            "ce-cohomology", gl3, "pass",
            [("dims", "(" + ", ".join(map(str, dims)) + ")")]
            + [(f"H^{q}", d) for q, d in enumerate(dims)])),
        (["trace-cond", gl3], 0, _report("trace-cond", gl3, "pass", [("trace", 0)])),
        (["qme", gl3], 0, _report("qme", gl3, "pass", [("residual", 0)])),
        (["master", gl3], 0, _report("master", gl3, "pass", [("residual", 0)])),
    ]
    power = f"bench/work/power-{tag}.model"
    power_runs = [
        (["master", power, "--action", "S"], 0,
         _report("master", power, "pass", [("residual", 0)])),
        (["qme", power, "--action", "T"], 0,
         _report("qme", power, "pass", [("residual", 0)])),
        (["hbar-seq", power, "--action", "S"], 0,
         _report("hbar-seq", power, "pass", [("residuals", "all zero")])),
        (["onshell", power, "--action", "T"], 0,
         _report("onshell", power, "pass", [("bracket(S0,S1)", 0),
                                            ("offshell {S1,S1}+2{S0,S2}", 0)])),
    ]
    return [(gl3, _sheared_gl3_model(rng), gl3_runs),
            (power, _power_model(rng), power_runs)]


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return {tuple(entry["argv"]): (entry["exit"], entry["sha256"])
                for entry in json.load(fh)}


class CliModels:
    """One CLI child process per op; the oracle is the exit code plus the
    sha256 of stdout (recorded digests for fixtures, closed forms for the
    generated models)."""

    name = "cli-models"
    ops_per_s = 10.8
    pass_len = len(fixture_runs()) + 9      # fixtures plus the generated runs
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def generate(self, seed, n_ops):
        rng = random.Random(seed)
        golden = load_golden()
        cases = [CliOp(tuple(argv), *golden[tuple(argv)]) for argv in fixture_runs()]
        WORK.mkdir(exist_ok=True)
        ops, n_pass = [], 0
        while len(ops) < n_ops:
            batch = list(cases)
            for path, text, runs in generated_runs(rng, f"{seed}-{n_pass}"):
                (ROOT / path).write_text(text, encoding="utf-8")
                batch += [CliOp(tuple(argv), code, _sha(out)) for argv, code, out in runs]
            rng.shuffle(batch)
            ops.extend(batch)
            n_pass += 1
        return ops[:n_ops]

    def warmup(self, seed):
        return [CliOp(("check-lie", "models/sl2.model"),
                      *load_golden()[("check-lie", "models/sl2.model")])]

    def execute(self, op):
        proc = subprocess.run([sys.executable, "-m", "bvcalc.cli", *op.argv],
                              cwd=ROOT, env=self.env, capture_output=True,
                              timeout=120)
        return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()

    def execute_in_process(self, op):
        """The same op through cli.main in this process (for the traced run,
        whose wrappers cannot reach into a child)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(op.argv))
        return code, _sha(out.getvalue())

    def verify(self, op, outcome):
        return outcome == (op.exit, op.sha256)


WORKLOADS = {w.name: w for w in (CeCohomology(), BvIdentities(),
                                 GaugeLagrangian(), CliModels())}
