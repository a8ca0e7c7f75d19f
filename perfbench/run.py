#!/usr/bin/env python3
"""tsfrac benchmark: run one workload for a fixed time, check its outputs, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ./src and
nothing is installed.  Workloads, metrics and their expected interactions
are described in perfbench/README.md.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
spends half the time untraced and half with every public tsfrac function
wrapped, reports the per-layer metrics of the traced half plus the tracing
overhead, and writes the spans to .perfbench/spans-WORKLOAD-SEED.json.

Human-readable lines (header, every metric with its unit, failures) come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import sysinfo  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-readme", "long-history", "trial-sweep", "wide-grid")
SETUP_PROBES = 2  # fresh interpreters; with this process's own set-up, setup_s is a median of 3


def say(*parts) -> None:
    print("perfbench", *parts, flush=True)


def run_loop(wl, seconds: float, start_index: int, min_ops: int, after_op=None) -> dict:
    """Closed loop: operations back to back for `seconds`.

    After `min_ops` operations, the next one starts only if, at the median
    time so far, it would end within `seconds`, so a run never overshoots
    by a whole operation.
    """
    res = {"op_s": [], "parts": collections.defaultdict(list), "attempted": 0, "failed": 0, "errors": []}
    t_start = perf_counter()
    i = start_index
    while True:
        t0 = perf_counter()
        try:
            dt, parts, out = wl.op(i)
            n, errors = wl.check(i, out)
            if after_op is not None:
                errors = errors + after_op(i, out)
        except Exception as exc:  # a crashing operation is a failed one; keep measuring
            dt, parts, n, errors = perf_counter() - t0, {}, 1, [("op", f"raised {exc!r}")]
        res["op_s"].append(dt)
        for key, val in parts.items():
            res["parts"][key].append(val)
        res["attempted"] += n
        res["failed"] += len({key for key, _ in errors})
        res["errors"] += [f"op {i} {key}: {msg}" for key, msg in errors]
        i += 1
        if i - start_index >= min_ops and perf_counter() - t_start + statistics.median(res["op_s"]) > seconds:
            return res


def op_time(res: dict) -> float:
    """Median operation time, or the sum of the parts' medians where operations have parts."""
    if res["parts"]:
        return sum(statistics.median(v) for v in res["parts"].values())
    return statistics.median(res["op_s"])


def child_run(cmd: list) -> subprocess.CompletedProcess:
    import workloads

    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, env=workloads.child_env())


def setup_probes(workload: str, seed: int, workdir: Path) -> list:
    out = []
    for k in range(SETUP_PROBES):
        proc = child_run([sys.executable, str(HERE / "child.py"), "setup", workload, str(seed),
                          str(workdir / f"probe{k}")])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def import_times() -> dict:
    """Cumulative import times (s) of tsfrac and scipy.signal in a fresh interpreter.

    scipy loads scipy.signal lazily, so -X importtime may print no line for
    the package itself; its time is the sum over the outermost scipy.signal.*
    lines.  Children are printed before their parent, with deeper indent.
    """
    proc = child_run([sys.executable, "-X", "importtime", "-c", "import tsfrac"])
    times = {"tsfrac": 0.0, "scipy.signal": 0.0}
    stack = []  # (indent, inside scipy.signal) of the enclosing imports
    for line in reversed(proc.stderr.splitlines()):
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        indent = len(parts[2]) - len(parts[2].lstrip())
        while stack and stack[-1][0] >= indent:
            stack.pop()
        signal = name == "scipy.signal" or name.startswith("scipy.signal.")
        if name == "tsfrac":
            times["tsfrac"] = int(parts[1]) * 1e-6
        elif signal and not any(inside for _, inside in stack):
            times["scipy.signal"] += int(parts[1]) * 1e-6
        stack.append((indent, signal))
    return times


class LayerTotals:
    """Spans and counters of every traced operation, in this process and its children."""

    def __init__(self):
        self.by_name: dict = {}
        self.counts: collections.Counter = collections.Counter()
        self.processes: list = []  # every span list, as written to the spans file
        self.proc_wall = 0.0
        self.out_bytes = 0

    def add(self, label: str, records: list, counts: dict) -> None:
        self.processes.append({"process": label, "records": records, "counts": dict(counts)})
        for name, s in tracing.summarize(records).items():
            t = self.by_name.setdefault(name, {"calls": 0, "dur": 0.0, "self": 0.0})
            for key in t:
                t[key] += s[key]
        for key, val in counts.items():
            if key.endswith("_max"):
                self.counts[key] = max(self.counts[key], val)
            else:
                self.counts[key] += val

    def calls(self, *names) -> int:
        return sum(self.by_name.get(n, {}).get("calls", 0) for n in names)

    def dur(self, *names) -> float:
        return sum(self.by_name.get(n, {}).get("dur", 0.0) for n in names)

    def self_s(self, *names) -> float:
        return sum(self.by_name.get(n, {}).get("self", 0.0) for n in names)

    def metrics(self, ops: int, imports: dict, overhead: float) -> dict:
        c = self.counts
        other_layers = [n for n in self.by_name if n.split(".")[0] != "cli"]
        step_self = self.self_s("solver.solve")
        tri_s = self.dur("scipy.cho_solve")
        per_op = {
            "cli.other_s": (self.proc_wall - self.self_s(*other_layers) if self.proc_wall else 0.0, "s"),
            "cli.out_bytes": (self.out_bytes, "bytes"),
            "exprparse.evaluate_calls": (self.calls("exprparse.evaluate"), "count"),
            "exprparse.sample_s": (self.dur("exprparse.evaluate"), "s"),
            "solver.forcing_samples_s": (self.dur("solver.forcing_samples"), "s"),
            "solver.serialize_s": (self.dur("solver.solution_to_csv", "solver.solution_metadata"), "s"),
            "solver.csv_bytes": (c["solver.csv_bytes"], "bytes"),
            "solver.solve_calls": (self.calls("solver.solve"), "count"),
            "solver.steps": (c["solver.steps"], "count"),
            "solver.step_self_s": (step_self, "s"),
            "solver.history_gb_computed": (c["solver.history_bytes"] / 1e9, "GB"),
            "solver.factorizations": (self.calls("scipy.cho_factor"), "count"),
            "solver.factor_s": (self.dur("scipy.cho_factor"), "s"),
            "solver.tri_solves": (self.calls("scipy.cho_solve"), "count"),
            "solver.tri_solve_s": (tri_s, "s"),
            "fraclap.assemble_calls": (self.calls("fraclap.assemble_1d"), "count"),
            "fraclap.assemble_s": (self.dur("fraclap.assemble_1d"), "s"),
            "principles.run_trials_s": (self.self_s("principles.run_trials"), "s"),
            "principles.check_s": (self.dur("principles.check_nonnegativity",
                                            "principles.check_parabolic_boundary"), "s"),
            "principles.trials": (c["principles.trials"], "count"),
            "kernels.mittag_leffler_calls": (self.calls("kernels.mittag_leffler"), "count"),
            "kernels.mittag_leffler_s": (self.dur("kernels.mittag_leffler"), "s"),
            "kernels.monotone_kernel_s": (self.dur("kernels.monotone_regularized_kernel"), "s"),
            "kernels.regularized_kernel_s": (self.dur("kernels.regularized_kernel"), "s"),
            "timefrac.convex_check_s": (self.dur("timefrac.convex_inequality_check"), "s"),
            "timefrac.extremum_sign_s": (self.dur("timefrac.rl_extremum_sign"), "s"),
        }
        out = {name: (val / ops, unit) for name, (val, unit) in per_op.items()}
        out.update({
            "cli.import_s": (imports["tsfrac"], "s"),
            "cli.import_scipy_signal_s": (imports["scipy.signal"], "s"),
            "solver.history_gbps_computed": (c["solver.history_bytes"] / 1e9 / step_self if step_self else 0.0,
                                             "GB/s"),
            "solver.tri_solve_gbps_computed": (c["solver.tri_solve_bytes"] / 1e9 / tri_s if tri_s else 0.0, "GB/s"),
            "solver.step_residual_max": (float(c["solver.step_residual_max"]), "ratio"),
            "principles.violation_max": (float(c["principles.violation_max"]), "1"),
            "trace_overhead_ratio": (overhead, "ratio"),
        })
        return out


def traced_run(workload: str, wl, seconds: float, spans_file: Path) -> tuple:
    """Untraced half, then traced half; returns (metrics, attempted, failed, errors)."""
    import checks

    half = seconds / 2.0
    min_ops = max(1, wl.MIN_OPS // 2)
    plain = run_loop(wl, half, 0, min_ops)
    totals = LayerTotals()

    if workload == "cli-readme":
        wl.traced = True

        def after_op(i, outputs):
            errors = []
            for key, out in outputs.items():
                totals.out_bytes += sum(len(data) for data in out["files"].values())
                try:
                    data = json.loads(out["trace"].read_text())
                except (OSError, ValueError) as exc:
                    errors.append((key, f"no trace ({exc!r})"))
                    continue
                totals.add(f"op {i}: tsfrac {key}", data["records"], data["counts"])
                totals.proc_wall += data["main_end"] - out["start"]
                r = data["counts"].get("solver.step_residual_max", 0.0)
                if not r <= checks.RESIDUAL_TOL:
                    errors.append((key, f"L1 step residual {r:.3e}"))
            return errors
    else:
        tracer = tracing.Tracer()
        tracer.install()
        checker = checks.ResidualChecker()

        def after_op(i, out):
            worst = max((checker.solution(sol, A) for sol, A in tracer.captured), default=0.0)
            tracer.captured.clear()
            tracer.counts["solver.step_residual_max"] = max(tracer.counts["solver.step_residual_max"], worst)
            return [] if worst <= checks.RESIDUAL_TOL else [("output", f"L1 step residual {worst:.3e}")]

    traced = run_loop(wl, half, len(plain["op_s"]), min_ops, after_op)
    if workload != "cli-readme":
        totals.add("benchmark process", tracer.records, tracer.counts)
    tracing.write(spans_file, {"workload": workload, "traced_ops": len(traced["op_s"]),
                               "processes": totals.processes})
    say("spans", str(spans_file.relative_to(ROOT)))
    overhead = op_time(traced) / op_time(plain) - 1.0
    metrics = totals.metrics(len(traced["op_s"]), import_times(), overhead)
    return (metrics, plain["attempted"] + traced["attempted"], plain["failed"] + traced["failed"],
            plain["errors"] + traced["errors"])


def untraced_run(workload: str, seed: int, wl, seconds: float, setup_main: float, workdir: Path) -> tuple:
    probes = setup_probes(workload, seed, workdir)
    setup = [setup_main] + [p["setup_s"] for p in probes]
    errors = [f"child BLAS threads {lib['threads']} > nproc {sysinfo.nproc()}"
              for p in probes for lib in p["openblas"] if lib.get("threads", 0) > sysinfo.nproc()]
    say("setup_samples_s", json.dumps(setup))
    res = run_loop(wl, seconds, 0, wl.MIN_OPS)
    op = op_time(res)
    say("op_samples_s", json.dumps(res["op_s"]))
    for key, vals in res["parts"].items():
        say(f"{key}_s", f"{statistics.median(vals):.4f}", "s", f"(median of {json.dumps(vals)})")
    if workload == "cli-readme":
        rss_kib = wl.peak_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "trial-sweep":
        trials = wl.TRIALS * len(wl.configs)
        say("trials_per_s", f"{trials / op:.3f}", "1/s", f"({trials} trials: one call of each kind)")
    elif workload != "cli-readme":
        say("solve_s", f"{op:.4f}", "s", f"(median of {len(res['op_s'])} solves)")
    metrics = {
        "op_s": (op, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }
    return metrics, res["attempted"], res["failed"], res["errors"] + errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tsfrac" / "__init__.py").is_file():
        print(f"perfbench: no tsfrac sources under {SRC}", file=sys.stderr)
        return 2

    os.environ["OPENBLAS_NUM_THREADS"] = sysinfo.blas_thread_cap()
    sys.path.insert(0, str(SRC))
    import tsfrac

    if Path(tsfrac.__file__).resolve().parent != SRC / "tsfrac":
        print(f"perfbench: imported tsfrac from {tsfrac.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    scratch = ROOT / ".perfbench"
    workdir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.make(args.workload, args.seed, workdir / "main")
        setup_main = perf_counter() - T0
        header = sysinfo.header(ROOT, args.workload, args.seed)
        say("header", json.dumps(header, sort_keys=True))
        errors = [f"BLAS threads {lib['threads']} > nproc {header['nproc']}"
                  for lib in header["openblas"] if lib.get("threads", 0) > header["nproc"]]
        if args.trace:
            spans_file = scratch / f"spans-{args.workload}-{args.seed}.json"
            metrics, attempted, failed, errs = traced_run(args.workload, wl, args.seconds, spans_file)
        else:
            metrics, attempted, failed, errs = untraced_run(args.workload, args.seed, wl, args.seconds,
                                                            setup_main, workdir)
        errors += errs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in errors[:20]:
        print(f"perfbench: FAILED {err}", file=sys.stderr)
    say("fail_ratio", f"{failed}/{attempted}", "=", f"{failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        say(name, f"{value:.6g}", unit)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
