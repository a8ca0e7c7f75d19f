"""Child processes started by run.py.

    python3 perfbench/child.py setup WORKLOAD SEED WORKDIR
        Time `import tsfrac` plus the workload's input generation in a fresh
        interpreter; print one JSON line with the time and the BLAS threads.

    python3 perfbench/child.py cli TRACEFILE ARGS...
        Run `tsfrac ARGS...` with tracing on; write the spans, the counters and
        the end time of `cli.main` to TRACEFILE; exit with the CLI's code.
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup(workload: str, seed: int, workdir: str) -> int:
    import tsfrac  # noqa: F401

    import workloads

    workloads.make(workload, seed, Path(workdir))
    elapsed = perf_counter() - T0
    import sysinfo

    print(json.dumps({"setup_s": elapsed, "openblas": sysinfo.openblas()}))
    return 0


def cli(trace_file: str, argv: list) -> int:
    import tsfrac.cli

    import checks
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    rc = tsfrac.cli.main(argv)
    end = perf_counter()
    checker = checks.ResidualChecker()
    tracer.counts["solver.step_residual_max"] = max(
        (checker.solution(sol, A) for sol, A in tracer.captured), default=0.0
    )
    tracing.write(trace_file, {**tracer.dump(), "main_end": end})
    return rc


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    if sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2], int(sys.argv[3]), sys.argv[4]))
    sys.exit(cli(sys.argv[2], sys.argv[3:]))
