"""Re-measure the baseline timing table of ROADMAP.md, row by row.

    python3 bench/baseline.py

Each row is timed twice: as the per-call mean of its span under the tracer
(which adds the cost of every wrapped call beneath it) and as the median
untraced wall time of the same call.  Prints a markdown table; NOTES.md keeps
the figures of the last recorded run.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from bvcalc import bv, identities, lie, parser  # noqa: E402
from bvcalc.scalars import Scalar  # noqa: E402
from bvcalc.superalgebra import Context, EVEN  # noqa: E402

POWER = 200          # ROADMAP times (x+1)^400; this row uses a smaller power
REPEATS = 3


def untraced(fn):
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def traced(fn):
    tr = tracing.Tracer()
    with tr.installed():
        fn()
    return tr.summary()


def mean_ms(summary, name):
    calls, inclusive, _ = summary[name]
    return 1e3 * inclusive / calls


def main():
    gl3 = workloads.gl(3)
    gauge_wl = workloads.WORKLOADS["gauge-lagrangian"]
    gauge_op = gauge_wl.generate(1, 1)[0]
    bvs22 = bv.BVSpace.over_fields(workloads.BV_FIELDS)
    ctx_x = Context.plain([("x", EVEN)])
    rows = []

    real = [Scalar.of(Fraction(k, k + 2)) for k in range(1, 41)]
    cplx = [Scalar({0: (Fraction(k, 3), 1), 1: (1, Fraction(-k, 5))})
            for k in range(1, 41)]
    for label, roadmap, xs in (("real", "~15 µs", real),
                               ("(a+bi) + (c+di)·hbar", "~83 µs", cplx)):
        def products(xs=xs):
            return [a * b for a in xs for b in xs]
        mul = traced(products)
        rows.append((f"`Scalar*Scalar`, {label} (1600 products)", roadmap,
                     f"{1e3 * mean_ms(mul, 'scalars.mul'):.1f} µs traced",
                     f"{1e6 * untraced(products) / len(xs) ** 2:.1f} µs"))
    inside = traced(lambda: gauge_wl.execute(gauge_op))
    rows.append(("`Scalar*Scalar` inside one gauge-lagrangian op (mixed)", "—",
                 f"{1e3 * mean_ms(inside, 'scalars.mul'):.1f} µs traced", "—"))

    ce = traced(lambda: lie.ce_cohomology_dims(gl3, 0))
    mats = lie.ce_matrices(gl3, 0)
    total = untraced(lambda: lie.ce_cohomology_dims(gl3, 0))
    rank = untraced(lambda: [m.rank() for m in mats])
    rows.append(("gl(3) `ce_cohomology_dims(p=0)`", "~640 ms, ~half in rank",
                 f"{mean_ms(ce, 'lie.ce_cohomology_dims'):.0f} ms traced",
                 f"{1e3 * total:.0f} ms, {1e3 * rank:.0f} ms of it in `bareiss_rank`"))

    jac = traced(lambda: lie.jacobi_check(gl3))
    rows.append(("gl(3) `jacobi_check`", "~120 ms",
                 f"{mean_ms(jac, 'lie.jacobi_check'):.0f} ms traced",
                 f"{1e3 * untraced(lambda: lie.jacobi_check(gl3)):.0f} ms"))

    src = f"(x+1)^{POWER}"
    par = traced(lambda: parser.parse_expression(src, ctx_x))
    rows.append((f"parsing `(x+1)^{POWER}` (ROADMAP: ^400)", "~4 s at ^400",
                 f"{mean_ms(par, 'parser.parse_expression'):.0f} ms traced",
                 f"{1e3 * untraced(lambda: parser.parse_expression(src, ctx_x)):.0f} ms"))

    suite = traced(lambda: identities.bv_identity_suite(bvs22, 0, 60))
    rows.append(("`bv_identity_suite`, 2 even + 2 odd fields, 60 triples", "~250 ms",
                 f"{mean_ms(suite, 'identities.bv_identity_suite'):.0f} ms traced",
                 f"{1e3 * untraced(lambda: identities.bv_identity_suite(bvs22, 0, 60)):.0f} ms"))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bare, imported, brst = run.child_medians(
        env, ["-c", "pass"], ["-c", "import bvcalc.cli"],
        ["-m", "bvcalc.cli", "brst", "models/sl2.model"])
    rows.append(("CLI cold start (`brst sl2`), of which import", "~0.2 s, ~65 ms import",
                 "—", f"{1e3 * brst:.0f} ms, {1e3 * (imported - bare):.0f} ms import "
                 f"(bare interpreter {1e3 * bare:.0f} ms)"))

    print(f"Python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
          f"commit {run.git_commit()[:12]}")
    print("| row | ROADMAP | traced per-call mean | untraced median |")
    print("|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")


if __name__ == "__main__":
    main()
