"""Record the exit code and stdout sha256 of every fixture CLI run.

The cli-models workload fails any op whose exit code or stdout bytes differ
from these, so a change that alters a report shows up as failed ops.  Re-run
only when a report is meant to change:

    python3 bench/record_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from workloads import GOLDEN, fixture_runs  # noqa: E402


def main():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    entries = []
    for argv in fixture_runs():
        proc = subprocess.run([sys.executable, "-m", "bvcalc.cli", *argv],
                              cwd=ROOT, env=env, capture_output=True, timeout=120)
        entries.append({"argv": argv, "exit": proc.returncode,
                        "sha256": hashlib.sha256(proc.stdout).hexdigest()})
        print(proc.returncode, " ".join(argv))
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
