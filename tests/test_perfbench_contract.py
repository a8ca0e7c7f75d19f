"""The benchmark's contract with the library.

perfbench/run.py calls ``solve``, ``ProblemSpec``, ``run_trials`` and
``assemble_1d(...).entries`` directly and checks every output it gets;
its ``cli-readme`` workload runs the command line at the README config,
the only workload that parses and samples config expressions, and its
``wide-grid`` workload solves at n = 2048 and checks the residual against
``assemble_1d(...).entries``, the only workload where assembly shows.  A
library change that breaks one of those calls turns a benchmark run into
a failed one; these short runs show it in the suite instead.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["long-history", "trial-sweep", "cli-readme", "wide-grid"])
def test_workload_runs_and_checks_clean(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stderr[-2000:]
