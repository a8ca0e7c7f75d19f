"""The exit-code contract of the command line, property-tested.

Every run of ``tsfrac`` ends with 0 (success), 1 (a verification suite
found a violation; only ``verify`` may say so), 2 (usage or config error)
or 3 (internal numeric error).  On 2 and 3 stderr holds one error line;
an invalid config prints its header line and then one line per offending
key.  Nothing ever ends in a traceback.  Hypothesis draws configs (missing
and unknown keys, wrong JSON types, interval endpoints, values at the
edges of float64, sizes past the memory budget) and grammar-built
expressions, and each one runs in process through one subcommand.  A
few runs go through the process entry point, ``python -m tsfrac`` and
``cli.run()``, one per exit code, and with a stdout whose reader has gone.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tsfrac.cli import main

# The README config at n = M = 16.
README = {
    "alpha": 0.5, "beta": 0.5, "a": -1.0, "b": 1.0, "n": 16, "T": 1.0, "M": 16,
    "u0": "max(0, 1 - x^2)", "f": "0.1*(1 + cos(3.14159265358979*x))",
    "m": 16, "trials": 20, "seed": 0, "out": "out", "m_ladder": "4,16,64,256",
}
COMMANDS = (
    ("solve",), ("verify", "--suite", "all"), ("verify", "--suite", "nonneg"),
    ("verify", "--suite", "boundary"), ("verify", "--suite", "weak"),
    ("verify", "--suite", "identities"), ("convergence",), ("kernel-table",),
)
SOLVE, VERIFY, CONVERGENCE, KERNEL_TABLE = COMMANDS[0], COMMANDS[1], COMMANDS[6], COMMANDS[7]

# Configs that once ended in a traceback, exit 1 or exit 3 where a config
# error is exit 2: (changes to README, command, exit code, the key line).
PROBES = [
    ({"seed": -1}, VERIFY, 2, "key 'seed': must be a non-negative integer, got -1"),
    ({"trials": 10**30}, VERIFY, 2, "key 'trials': 1000000000000000000000000000000 trials need"),
    ({"m": 10**400}, VERIFY, 2, "key 'm': must be a positive integer of at most 1.8e308"),
    ({"m_ladder": str(10**400)}, KERNEL_TABLE, 2, "key 'm_ladder': expected comma-separated"),
    ({"a": 0, "b": 5e-324}, SOLVE, 2, "keys 'a','b': with n=16 the spacing h"),
    ({"a": 0, "b": 5e-324}, VERIFY, 2, "keys 'a','b': with n=16 the spacing h"),
    ({"a": 0, "b": 5e-324}, CONVERGENCE, 2, "keys 'a','b': with n=16 the spacing h"),
    ({"a": 0, "b": 1e-300}, SOLVE, 2, "keys 'a','b': with n=16 the spacing h"),
    ({"a": -1e308, "b": 1e308}, SOLVE, 2, "keys 'a','b': the width b - a of [-1e+308, 1e+308] overflows"),
    ({"a": -1e308, "b": 1e308}, CONVERGENCE, 2, "keys 'a','b': the width b - a"),
    ({"f": "x*²"}, SOLVE, 2, "key 'f': unexpected character"),
    ({"f": "٣*x"}, SOLVE, 2, "key 'f': unexpected character"),
    ({"m_ladder": "٤, 1_6"}, KERNEL_TABLE, 2, "key 'm_ladder': expected comma-separated"),
]


def run(text: str, command: tuple) -> tuple:
    """Run one subcommand on a config text in a fresh directory: (code, stderr lines)."""
    err, out = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="tsfrac-contract-") as tmp:
        os.chdir(tmp)
        try:
            with open("config.json", "w") as fh:
                fh.write(text)
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                code = main([command[0], "--config", "config.json", *command[1:]])
        finally:
            os.chdir(cwd)
    return code, err.getvalue().splitlines()


def _expressions():
    """Strings of the expression grammar, its limits, and text that is not in it."""
    atoms = st.sampled_from(["x", "t", "0", "1", "2.5", ".5", "1e308", "1e-320", "3.14159265358979"])

    def extend(sub):
        return st.one_of(
            st.tuples(sub, st.sampled_from("+-*/^"), sub).map(" ".join),
            sub.map("-{}".format),
            sub.map("({})".format),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "abs", "sqrt"]), sub).map("{0[0]}({0[1]})".format),
            st.tuples(st.sampled_from(["max", "min"]), sub, sub).map("{0[0]}({0[1]}, {0[2]})".format),
        )

    limits = st.sampled_from([
        "(" * 100 + "x" + ")" * 100, "(" * 101 + "x" + ")" * 101, "+".join(["x"] * 5000),
        "-" * 900 + "x", "2^" * 60 + "2", "exp(1000)", "x^0.5", "1/(x - x)", "sqrt(-1)", "max(x)",
        "x*²", "1²", "٣*x",
    ])
    return st.one_of(st.recursive(atoms, extend, max_leaves=8), limits, st.text(max_size=10))


EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 1e154, -1e154, 1e300, 1e308, -1e308]
WRONG_TYPES = st.sampled_from([None, True, "1", [1], {"v": 1}, 2.5])

# Small valid values keep each run short; the rest are the edges of each
# key's range and of float64.  Huge valid sizes would only make runs slow.
VALUES = {
    "alpha": st.floats(0.0, 1.0) | st.sampled_from([-0.5, 1e-300, 0.9999999999, 2.0, 1e308]),
    "beta": st.floats(0.0, 1.0) | st.sampled_from([-0.5, 1e-300, 0.9999999999, 2.0, 1e308]),
    "a": st.sampled_from(EDGES) | st.floats(-2.0, 0.0) | st.floats(),
    "b": st.sampled_from(EDGES) | st.floats(0.0, 2.0) | st.floats(),
    "n": st.integers(1, 8) | st.sampled_from([0, -1, 200000, 10**400]),
    "T": st.sampled_from(EDGES + [1e-310, 4e307]) | st.floats(0.0, 2.0) | st.floats(),
    "M": st.integers(1, 8) | st.sampled_from([0, -3, 2**27, 10**30]),
    "u0": _expressions(),
    "f": _expressions(),
    "m": st.integers(1, 64) | st.sampled_from([0, -1, 10**300, int(1.7976931348623157e308), 10**400]),
    "trials": st.integers(1, 3) | st.sampled_from([0, -1, 2**21 + 1, 10**30]),
    "seed": st.integers(0, 2**70) | st.sampled_from([-1, 10**400]),
    "out": st.sampled_from(["out", "deep/er", "", "config.json/x", "a\x00b"]),
    "m_ladder": st.sampled_from(["4,16", "2", "", "0", "a,b", "1,,2", str(10**400), "3,1e3",
                                   "٤", "1_6", "٤, 1_6", " 4 , 16 "]),
}


RAW_TEXTS = ["", "{", "[]", "3", '"x"', "[" * 100000 + "]" * 100000, '{"n": ' + "9" * 5000 + "}"]


@st.composite
def configs(draw):
    """A small valid config with up to three keys redrawn, then at most one mistake."""
    cfg = {"alpha": 0.5, "beta": 0.5, "a": -1.0, "b": 1.0, "n": 4, "T": 1.0, "M": 4,
           "u0": "max(0, 1 - x^2)", "f": "1 + x^2", "trials": 2, "m_ladder": "4,16"}
    for key in draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=3, unique=True)):
        cfg[key] = draw(VALUES[key])
    mistake = draw(st.sampled_from([None] * 6 + ["missing", "unknown", "type", "raw"]))
    if mistake == "missing":
        del cfg[draw(st.sampled_from(sorted(cfg)))]
    elif mistake == "unknown":
        cfg["gamma"] = 1.0
    elif mistake == "type":
        cfg[draw(st.sampled_from(sorted(VALUES)))] = draw(WRONG_TYPES)
    elif mistake == "raw":
        return draw(st.sampled_from(RAW_TEXTS))
    return json.dumps(cfg)


def _with_probes(test):
    for updates, command, _, _ in PROBES:
        test = example(text=json.dumps({**README, **updates}), command=command)(test)
    return test


@settings(derandomize=True, max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@_with_probes
@given(text=configs(), command=st.sampled_from(COMMANDS))
def test_exit_code_contract(text, command):
    code, err = run(text, command)
    assert code in (0, 2, 3) or (code == 1 and command[0] == "verify"), (code, err)
    assert not any("Traceback" in line for line in err)
    if code in (0, 1):
        assert err == []
    elif err[0] == "error: invalid config:":
        assert len(err) >= 2
        assert all(line.startswith(("  key", "  unknown key", "  missing key")) for line in err[1:]), err
    else:
        assert len(err) == 1, err


@pytest.mark.parametrize("updates, command, code, line", PROBES)
def test_probe_configs(updates, command, code, line):
    got, err = run(json.dumps({**README, **updates}), command)
    assert got == code
    assert err[0] == "error: invalid config:" and len(err) == 2
    assert err[1].startswith("  " + line), err


# Configs that break several range rules: the header, then one line per rule in key order.
COMBINED = [
    ({"a": 1, "b": -1, "n": 0, "T": 0, "M": 0}, [
        "keys 'a','b': need a < b, got [1.0, -1.0]",
        "key 'n': need at least one interior node, got 0",
        "key 'T': must be positive, got 0.0",
        "key 'M': need at least one time step, got 0",
    ]),
    ({"a": 0, "b": 1e-300, "T": 1e-310}, [
        "keys 'a','b': with n=16 the spacing h = (b - a)/(n + 1) = 5.882352941176471e-302 squares to 0.0",
        "key 'T': with M=16 the time step T/M = 6.25e-312 is below the smallest normal float",
    ]),
]


@pytest.mark.parametrize("command", [SOLVE, CONVERGENCE], ids=["solve", "convergence"])
@pytest.mark.parametrize("updates, lines", COMBINED)
def test_combined_config_errors(updates, lines, command):
    code, err = run(json.dumps({**README, **updates}), command)
    assert code == 2
    assert err == ["error: invalid config:", *("  " + line for line in lines)]


def test_tiny_alpha_convergence_ends_quickly():
    # The kernels take the order 1 - alpha, which rounds to 1.0 at
    # alpha = 1e-300: a config error before any study runs.
    t0 = time.perf_counter()
    code, err = run(json.dumps({**README, "alpha": 1e-300}), CONVERGENCE)
    assert time.perf_counter() - t0 < 10.0
    assert code == 2
    assert err == ["error: convergence: key 'alpha': 1 - alpha rounds to 1.0 at alpha=1e-300"]


# Configs whose own grid and mesh are sound but whose weak-residual
# study, at n = 24 nodes and M = 32 steps, is not: (changes, error line).
WEAK_GRID_REFUSALS = [
    ({"a": 0, "b": 1e156, "n": 100},
     "error: convergence: keys 'a','b': with n=24 the spacing h = (b - a)/(n + 1) = 4e+154 squares to inf"),
    ({"T": 1e-307, "M": 1},
     "error: convergence: key 'T': with M=32 the time step T/M = 3.125e-309 is below the smallest normal float"),
]


@pytest.mark.parametrize("updates, line", WEAK_GRID_REFUSALS)
def test_convergence_refuses_weak_study_grid(updates, line):
    text = json.dumps({**README, **updates})
    assert run(text, CONVERGENCE) == (2, [line])
    assert run(text, SOLVE) == (0, [])


def test_tiny_alpha_and_beta_convergence_ends_quickly():
    # At beta = 1e-300, lam = 1 - 2^-53 <= 1 takes the series, which would
    # need about 1.8e11 terms at alpha = 1e-10.
    t0 = time.perf_counter()
    code, err = run(json.dumps({**README, "alpha": 1e-10, "beta": 1e-300}), CONVERGENCE)
    assert time.perf_counter() - t0 < 10.0
    assert code == 3
    assert err == ["internal numeric error: Mittag-Leffler series did not converge within "
                   "100000 terms (alpha=1e-10, z=-0.9999999999999999)"]


# Through the process entry point: run() ends the process with os._exit
# after flushing, so the exit code and the streams are checked from outside.
SRC = str(Path(__file__).resolve().parent.parent / "src")
LAUNCHERS = {"module": ["-m", "tsfrac"], "run": ["-c", "from tsfrac.cli import run; run()"]}
# caputo_l1 negated in the child before run(): the identities suite must fail.
NEGATED = ("from tsfrac import cli, timefrac\n"
           "l1 = timefrac.caputo_l1\n"
           "timefrac.caputo_l1 = lambda *args: -l1(*args)\n"
           "cli.run()\n")


def launch(launcher: list, argv: list, cwd: Path, stdout=subprocess.PIPE, unbuffered=False):
    """Run `python <launcher> <argv>` in cwd on this checkout's sources.

    stdout is block-buffered, as in a pipe of a shell, unless unbuffered.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, *launcher, *argv], cwd=cwd, env=env,
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def config_args(tmp_path: Path, updates: dict) -> list:
    """The README config at n = 128, M = 256 with updates, as --config and --out arguments."""
    (tmp_path / "config.json").write_text(json.dumps({**README, "n": 128, "M": 256, **updates}))
    return ["--config", "config.json", "--out", "out"]


@pytest.mark.parametrize("launcher", LAUNCHERS.values(), ids=LAUNCHERS)
def test_process_solve_exits_zero(launcher, tmp_path):
    args = config_args(tmp_path, {})
    proc = launch(launcher, ["solve", *args], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "solve: wrote out/solution.csv and out/metadata.json\n", "")
    inproc = tmp_path / "inproc"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["solve", "--config", str(tmp_path / "config.json"), "--out", str(inproc)]) == 0
    for name in ("solution.csv", "metadata.json"):
        assert (tmp_path / "out" / name).read_bytes() == (inproc / name).read_bytes(), name


# (changes to the config, exit code, stderr lines) of a run that is refused.
PROCESS_REFUSALS = [
    ({"bogus": 1}, 2, ["error: invalid config:", "  unknown key 'bogus'"]),
    ({"alpha": 1e-12, "M": 4096}, 3, [
        "internal numeric error: L1 weights at alpha=1e-12, M=4096 break "
        "b_0 > 0, b_(j-1) >= b_j, b_M >= 0 first at j=2775"]),
]


@pytest.mark.parametrize("launcher", LAUNCHERS.values(), ids=LAUNCHERS)
@pytest.mark.parametrize("updates, code, lines", PROCESS_REFUSALS, ids=["config", "weights"])
def test_process_refusal_exit_code(launcher, updates, code, lines, tmp_path):
    proc = launch(launcher, ["solve", *config_args(tmp_path, updates)], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr.splitlines()) == (code, "", lines)


def test_process_verify_failure_exits_one(tmp_path):
    args = config_args(tmp_path, {})
    proc = launch(["-c", NEGATED], ["verify", "--suite", "identities", *args], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "verify[identities]: FAIL; report at out/verify_report.json\n", "")
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["identities"]["trials"]["status"] == "fail"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_two(unbuffered, tmp_path):
    # kernel-table prints one line to a pipe whose reader has gone: with a
    # block-buffered stdout the write fails in run()'s flush, unbuffered
    # it fails inside main; either way one error line and exit 2
    args = config_args(tmp_path, {"n": 16, "M": 16})
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = launch(LAUNCHERS["module"], ["kernel-table", *args], tmp_path, stdout=write_end,
                      unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.splitlines()) == (2, ["error: [Errno 32] Broken pipe"])
