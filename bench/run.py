"""Run one bvcalc benchmark workload and print its metrics.

    python3 bench/run.py --workload ce-cohomology --seed 1 --seconds 15 --trace 0

One process, no threads, one op at a time (a closed loop with one client);
cli-models runs one child process per op.  The op count of a run is fixed by
the workload and --seconds alone (whole passes sized to about --seconds on
a 2-core x86 VM), so percentiles land on the same op in every run.  Every op
is checked by its workload's oracle; an op that raises counts as failed and
the run carries on.  Times are scaled to the full speed of the machine by a
reference loop timed between ops (see REFERENCE_S); the raw figures are in
the stamp line.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed prefix of
the ops twice, untraced and then with every public bvcalc function wrapped
(see tracer.py), prints the per-layer metrics and writes the spans to
bench/out/.  The last stdout line is the JSON result; the line before it
stamps the run (Python, nproc, commit, seed, op counts, tail percentile).
Exits 2 without a result when the bvcalc sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
TRACE_SHARE = 4          # the traced run measures 1/TRACE_SHARE of the ops
IMPORT_REPEATS = 7

# Time of reference_loop() at full speed on the 2-vCPU VM the benchmark was
# tuned on.  That machine runs the same code up to half again slower for
# seconds at a time (other tenants); the slowdown hits the loop and the ops
# alike, so each time is scaled by REFERENCE_S / (loop time around it).
REFERENCE_S = 1.1e-3
SPEED_WINDOW = 2         # loop timings pooled on each side of an op


def reference_loop():
    """Fixed Fraction and dict work, the same kind the library does."""
    x, seen = Fraction(1, 3), {}
    for i in range(300):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, 7)
        seen[(i, i % 5)] = x
    return x


def reference_s():
    t = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t


def measure(execute, verify, ops, tracer=None):
    """Run ops one after another, timing the reference loop before each.

    Returns (scaled latencies, raw latencies, failed); an op's scaled
    latency is its raw latency times REFERENCE_S over the median loop time
    of the SPEED_WINDOW ops on each side.
    """
    latencies, refs, failed = [], [], 0
    clock = time.perf_counter
    for i, op in enumerate(ops):
        refs.append(reference_s())
        if tracer is not None:
            tracer.op_id = i
        t = clock()
        try:
            outcome = execute(op)
        except Exception:       # a crashing op is a failed op, not a crashed run
            traceback.print_exc(file=sys.stderr)
            outcome = None
        latencies.append(clock() - t)
        if outcome is None or not verify(op, outcome):
            failed += 1
    refs.append(reference_s())
    scaled = [lat * REFERENCE_S / statistics.median(
                  refs[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1])
              for i, lat in enumerate(latencies)]
    return scaled, latencies, failed


def tail(latencies):
    """(value, percentile): the highest order statistic with 10 samples
    beyond it (the maximum when there are fewer than 11 samples)."""
    ordered = sorted(latencies)
    rank = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def git_commit():
    """HEAD of the checkout read from .git, or 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_medians(env, *argvs):
    """Median wall time of a fresh interpreter per argument list, the lists
    taking turns so that a slow stretch of the machine hits them alike."""
    times = [[] for _ in argvs]
    for _ in range(IMPORT_REPEATS):
        for argv, row in zip(argvs, times):
            t = time.perf_counter()
            subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                           stdout=subprocess.DEVNULL, check=True, timeout=60)
            row.append(time.perf_counter() - t)
    return [statistics.median(row) for row in times]


def cold_import_s(env):
    """`import bvcalc.cli` in a fresh interpreter minus a bare interpreter."""
    bare, imported = child_medians(env, ["-c", "pass"], ["-c", "import bvcalc.cli"])
    return imported - bare


def layer_metrics(summary, counts, overhead_ratio, import_s):
    """Per-layer metrics (name -> (value, unit)) from a traced phase."""
    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return summary.get(name, (0, 0.0, 0.0))[2]

    def layer_self(layer):
        return sum(row[2] for name, row in summary.items()
                   if name.split(".", 1)[0] == layer)

    def ratio(num, den):
        return num / den if den else 0.0

    mul = summary.get("scalars.mul", (0, 0.0, 0.0))
    pairs = counts["superalgebra.mul.term_pairs"]
    return {
        "scalars.mul.calls": (calls("scalars.mul"), "count"),
        "scalars.add.calls": (calls("scalars.add"), "count"),
        "scalars.self_s": (layer_self("scalars"), "s"),
        "scalars.mul.mean_us": (ratio(mul[1], mul[0]) * 1e6, "us"),
        "superalgebra.mul.calls": (calls("superalgebra.mul"), "count"),
        "superalgebra.mul.term_pairs": (pairs, "count"),
        "superalgebra.mul.yield_ratio": (
            ratio(counts["superalgebra.mul.terms_out"], pairs), "ratio"),
        "superalgebra.left_deriv.calls": (calls("superalgebra.left_deriv"), "count"),
        "superalgebra.substitute.calls": (calls("superalgebra.substitute"), "count"),
        "superalgebra.pow.calls": (calls("superalgebra.pow"), "count"),
        "superalgebra.coefficient.calls": (calls("superalgebra.coefficient"), "count"),
        "superalgebra.coefficient.hit_ratio": (
            ratio(counts["superalgebra.coefficient.hits"],
                  calls("superalgebra.coefficient")), "ratio"),
        "superalgebra.self_s": (layer_self("superalgebra"), "s"),
        "derivations.apply.calls": (calls("derivations.apply"), "count"),
        "derivations.apply.terms_in": (counts["derivations.apply.terms_in"], "count"),
        "derivations.self_s": (layer_self("derivations"), "s"),
        "lie.ce_matrices.self_s": (self_s("lie.ce_matrices"), "s"),
        "lie.ce_matrices.cells": (counts["lie.ce_matrices.cells"], "count"),
        "lie.jacobi_check.self_s": (self_s("lie.jacobi_check"), "s"),
        "linalg.bareiss_rank.calls": (calls("linalg.bareiss_rank"), "count"),
        "linalg.bareiss_rank.cells": (counts["linalg.bareiss_rank.cells"], "count"),
        "linalg.bareiss_rank.self_s": (self_s("linalg.bareiss_rank"), "s"),
        "bv.delta.calls": (calls("bv.delta"), "count"),
        "bv.bracket.calls": (calls("bv.bracket"), "count"),
        "bv.bracket_via_defect.calls": (calls("bv.bracket_via_defect"), "count"),
        "bv.self_s": (layer_self("bv"), "s"),
        "gauge.exp_delta.self_s": (self_s("gauge.exp_delta"), "s"),
        "gauge.restrict_to_lagrangian.self_s": (self_s("gauge.restrict_to_lagrangian"), "s"),
        "gauge.lagrangian_integral.self_s": (self_s("gauge.lagrangian_integral"), "s"),
        "gauge.berezin_integrate.self_s": (self_s("gauge.berezin_integrate"), "s"),
        "gauge.gaussian_expectation.self_s": (self_s("gauge.gaussian_expectation"), "s"),
        "parser.parse_expression.calls": (calls("parser.parse_expression"), "count"),
        "parser.self_s": (layer_self("parser"), "s"),
        "modelfile.parse_model.self_s": (self_s("modelfile.parse_model"), "s"),
        "cli.import_s": (import_s, "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "identities.self_s": (layer_self("identities"), "s"),
        "randgen.self_s": (layer_self("randgen"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bvcalc" / "__init__.py").is_file() \
            or not (ROOT / "models").is_dir():
        print(f"bench: no bvcalc sources (src/bvcalc, models/) under {ROOT}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)

    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads
    import_s = time.perf_counter() - t0
    import_s *= REFERENCE_S / statistics.median(reference_s() for _ in range(3))

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    n_passes = workloads.passes(wl, args.seconds)
    n_ops = n_passes * wl.pass_len

    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = reference_s()
        t = time.perf_counter()
        ops = wl.generate(args.seed, n_ops)
        measure(wl.execute, wl.verify, wl.warmup(args.seed))
        elapsed = time.perf_counter() - t
        setup_times.append(elapsed * 2 * REFERENCE_S / (before + reference_s()))
    setup_s = import_s + statistics.median(setup_times)

    stamp = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "python": platform.python_version(),
             "nproc": os.cpu_count(), "commit": git_commit(),
             "ops_per_run": n_ops, "setup_s_samples": setup_times}

    if args.trace == 0:
        latencies, raw, failed = measure(wl.execute, wl.verify, ops)
        tail_s, tail_pct = tail(latencies)
        who = resource.RUSAGE_CHILDREN if wl.name == "cli-models" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024
        attempted = len(ops)
        metrics = {
            "ops_per_s": (attempted / sum(latencies), "op/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": (tail_s * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "pass_ratio": (1 - failed / attempted, "ratio"),
        }
        stamp.update(tail_percentile=round(tail_pct, 2), tail_samples=attempted,
                     failed_ratio=failed / attempted,
                     raw_ops_per_s=attempted / sum(raw),
                     raw_latency_p50_ms=statistics.median(raw) * 1e3,
                     raw_latency_tail_ms=tail(raw)[0] * 1e3)
    else:
        import tracer as tracing
        execute = getattr(wl, "execute_in_process", wl.execute)
        traced_ops = ops[:wl.pass_len * max(1, n_passes // TRACE_SHARE)]
        plain, _, plain_failed = measure(execute, wl.verify, traced_ops)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced, _, traced_failed = measure(execute, wl.verify, traced_ops, tracer)
        failed = plain_failed + traced_failed
        attempted = 2 * len(traced_ops)
        import_cli_s = cold_import_s(wl.env) if wl.name == "cli-models" else 0.0
        metrics = layer_metrics(tracer.summary(), tracer.counts,
                                sum(plain) / sum(traced), import_cli_s)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{wl.name}.tsv.gz"
        tracer.write(spans_path)
        stamp.update(traced_ops=len(traced_ops), spans=len(tracer),
                     spans_file=str(spans_path.relative_to(ROOT)),
                     failed_ratio=failed / attempted)

    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
