"""CLI tests: config validation, subcommand outputs, exit-code contract."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tsfrac.cli import ConfigError, _study, load_config, main
from tsfrac.fraclap import assemble_1d

GOLDEN = {
    "alpha": 0.5,
    "beta": 0.5,
    "a": -1.0,
    "b": 1.0,
    "n": 16,
    "T": 1.0,
    "M": 12,
    "u0": "max(0, 1 - x^2)",
    "f": "0.1 * (1 + cos(3.14159265358979 * x))",
    "m": 8,
    "trials": 3,
    "seed": 42,
}


def write_config(tmp_path, updates=None, name="config.json", drop=()):
    cfg = dict(GOLDEN)
    cfg.update(updates or {})
    for key in drop:
        cfg.pop(key, None)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestLoadConfig:
    def test_minimal_valid(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.alpha == 0.5 and cfg.grid.n == 16
        assert cfg.m_ladder == (4, 16, 64, 256)
        assert cfg.problem().u0.values[0] >= 0.0

    def test_alpha_out_of_range_names_key_and_interval(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, {"alpha": 1.2}))
        msg = str(info.value)
        assert "alpha" in msg and "(0,1)" in msg

    def test_unknown_identifier_surfaced_with_key(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, {"u0": "1 - y"}))
        msg = str(info.value)
        assert "'u0'" in msg and "y" in msg

    def test_all_errors_reported_together(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, {"alpha": -1, "n": 0, "f": "2 *"}))
        msg = str(info.value)
        assert "alpha" in msg and "'n'" in msg and "'f'" in msg

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, {"gamma": 2.0}))
        assert "gamma" in str(info.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_type_checks(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, {"n": 2.5}))
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, {"u0": 7}))


class TestSolveCommand:
    def test_writes_outputs_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "solution.csv").exists()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["alpha"] == 0.5 and len(meta["config_hash"]) == 64

    def test_single_interior_node(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 1})
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "solution.csv").exists()

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(
                ((out / "solution.csv").read_bytes(), (out / "metadata.json").read_bytes())
            )
        assert outs[0] == outs[1]


class TestVerifyCommand:
    def test_all_suites_pass_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        for suite in ("nonneg", "boundary", "weak", "identities"):
            assert report[suite]["trials"]["status"] == "pass"

    def test_deterministic_report(self, tmp_path):
        cfg = write_config(tmp_path)
        blobs = []
        for name in ("v1", "v2"):
            out = tmp_path / name
            main(["verify", "--config", str(cfg), "--suite", "nonneg", "--out", str(out)])
            blobs.append((out / "verify_report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_each_suite_writes_its_entry_of_all(self, tmp_path):
        # n = M = 16: --suite s writes what --suite all writes for s, its
        # trials are of its own kind, and only nonneg and boundary check
        # the configured profile, each with its own check
        cfg = write_config(tmp_path, {"M": 16})
        kinds = {"nonneg": "nonneg", "boundary": "boundary-min", "weak": "weak-nonneg",
                 "identities": "identities"}
        reports = {}
        for suite in ("all", *kinds):
            out = tmp_path / suite
            assert main(["verify", "--config", str(cfg), "--suite", suite, "--out", str(out)]) == 0
            reports[suite] = json.loads((out / "verify_report.json").read_text())
        every = reports.pop("all")
        assert set(every) == {*kinds, "config_hash"}
        for suite, report in reports.items():
            assert report == {suite: every[suite], "config_hash": every["config_hash"]}
            assert every[suite]["trials"]["kind"] == kinds[suite]
            profile = every[suite].get("configured_profile")
            if suite in ("nonneg", "boundary"):
                assert profile["kind"] == kinds[suite] and profile["status"] == "pass"
            else:
                assert profile is None

    def test_sign_violating_profile_is_usage_error(self, tmp_path, capsys):
        # nonneg demands u0 >= 0 and f >= 0, boundary (min) demands f >= 0;
        # each configured profile below dips negative where its suite looks
        cases = (
            ("nonneg", {"u0": "x"}, "demands u0 >= 0 and f >= 0"),
            ("nonneg", {"f": "x"}, "demands u0 >= 0 and f >= 0"),
            ("boundary", {"f": "x"}, "(min) check demands f >= 0"),
        )
        for i, (suite, updates, message) in enumerate(cases):
            cfg = write_config(tmp_path, updates, name=f"c{i}.json")
            argv = ["verify", "--config", str(cfg), "--suite", suite, "--out", str(tmp_path)]
            assert main(argv) == 2
            assert message in capsys.readouterr().err


    def test_identities_at_huge_m_exit_zero_quietly(self, tmp_path, capsys):
        # m E_alpha(-m t^alpha) with m = 10^300 puts z near -1e300: the
        # Mittag-Leffler rule must return a finite value without a warning
        cfg = write_config(tmp_path, {"n": 128, "M": 256, "trials": 20, "seed": 0, "m": 10**300})
        argv = ["verify", "--config", str(cfg), "--suite", "identities", "--out", str(tmp_path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert caught == []
        assert capsys.readouterr().err == ""


class TestKernelTableCommand:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, {"M": 16, "m_ladder": "2,8"})
        blobs = []
        for name in ("k1", "k2"):
            out = tmp_path / name
            assert main(["kernel-table", "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append(
                ((out / "kernel_table.csv").read_bytes(), (out / "kernel_distances.csv").read_bytes())
            )
        assert blobs[0] == blobs[1]
        header = blobs[0][0].decode().splitlines()[0]
        assert header.split(",") == ["t", "g", "h_m2", "greg_m2", "h_m8", "greg_m8"]
        dist_lines = blobs[0][1].decode().strip().splitlines()
        d2 = float(dist_lines[1].split(",")[1])
        d8 = float(dist_lines[2].split(",")[1])
        assert d2 > d8 > 0.0

    def test_alpha_whose_complement_rounds_to_one_exit_two(self, tmp_path, capsys):
        # the kernels take the order 1 - alpha, which is 1.0 below alpha ~ 1.1e-16
        cfg = write_config(tmp_path, {"M": 16, "alpha": 1e-300})
        for command in ("kernel-table", "convergence"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "k")]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {command}: ") and "'alpha'" in err[0], err
            assert not (tmp_path / "k").exists()  # checked before any work
        cfg = write_config(tmp_path, {"M": 16, "alpha": 1.2e-16}, name="just_above.json")
        assert main(["kernel-table", "--config", str(cfg), "--out", str(tmp_path / "k")]) == 0


class TestConvergenceCommand:
    def test_order_after_a_zero_error_is_nan(self):
        with np.errstate(divide="raise"):
            rows = _study("s", (1, 2, 3), {1: 1.0, 2: 0.0, 3: 0.5}.get)
        assert [r[2] for r in rows] == [1.0, 0.0, 0.5]
        assert all(math.isnan(r[3]) for r in rows), rows

    def test_tiny_alpha_exit_zero(self, tmp_path):
        # E_alpha(-lam), lam = 1.396 > 1, by the spectral rule at alpha = 0.001
        cfg = write_config(tmp_path, {"alpha": 0.001})
        out = tmp_path / "c"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "convergence.csv").exists()

    def test_narrow_domain_exit_zero(self, tmp_path, capsys):
        # weak-residual grids with h <= 1e-155 / 25: the energy form must not overflow
        cfg = write_config(tmp_path, {"a": 0.0, "b": 1e-155})
        out = tmp_path / "c"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "convergence.csv").exists()

    def test_mittag_leffler_rows_are_first_order(self, tmp_path):
        # The L1 stepper on the one-node grid against E_alpha(-lam) at
        # alpha = beta = 0.5: errors 7.5e-4 down to 9.2e-5, orders 1.006-1.012.
        cfg = write_config(tmp_path)
        out = tmp_path / "c"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "convergence.csv").read_text().splitlines()]
        ml = [(int(r[1]), float(r[2]), float(r[3])) for r in rows if r[0] == "mittag-leffler"]
        assert [M for M, _, _ in ml] == [256, 512, 1024, 2048]
        errs = [e for _, e, _ in ml]
        assert all(e0 > e1 for e0, e1 in zip(errs, errs[1:])), errs
        assert errs[-1] < 1e-3
        assert all(0.9 <= o <= 1.1 for _, _, o in ml[1:]), ml


class TestExitCodes:
    def test_config_errors_exit_two(self, tmp_path):
        bad_alpha = write_config(tmp_path, {"alpha": 1.2}, name="bad_alpha.json")
        bad_expr = write_config(tmp_path, {"f": "2 *"}, name="bad_expr.json")
        missing_key = write_config(tmp_path, drop=("T",), name="missing.json")
        for cfg in (bad_alpha, bad_expr, missing_key):
            assert main(["solve", "--config", str(cfg)]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 2

    def test_non_finite_numbers_exit_two(self, tmp_path, capsys):
        # json.loads accepts Infinity, NaN and integers beyond float range;
        # none of them may reach the solver
        cases = (("T", math.inf), ("a", -math.inf), ("beta", math.nan), ("T", 10**400))
        for i, (key, value) in enumerate(cases):
            cfg = write_config(tmp_path, {key: value}, name=f"c{i}.json")
            assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / f"o{i}")]) == 2
            assert f"'{key}'" in capsys.readouterr().err

    def test_os_errors_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["solve", "--config", str(cfg), "--out", str(blocker / "out")]) == 2
        assert main(["solve", "--config", str(tmp_path)]) == 2  # a directory, not a file
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: ") for line in err)

    def test_memory_error_exit_three(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("tsfrac.solver.solve", exhausted)
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "internal numeric error: out of memory\n"

    def test_overflow_exit_three(self, tmp_path, capsys):
        # finite forcing whose states overflow: a numeric error, not a config one
        cfg = write_config(tmp_path, {"f": "1.7e308"})
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("internal numeric error: states overflow")

    def test_overflow_reports_one_line(self, tmp_path, capsys):
        # numpy's overflow warnings stay inside solve: stderr is the error line
        cfg = write_config(tmp_path, {"f": "1.7e308"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert caught == []
        assert capsys.readouterr().err == "internal numeric error: states overflow: u^2 is not finite\n"

    def test_weights_losing_their_sign_exit_three(self, tmp_path, capsys):
        # At alpha = 1e-12 and M = 4096 the rounded differences b_{j-1} - b_j
        # turn negative from j = 2775 on, so exact positivity has lost its
        # premise: a numeric error, not a theorem failure.
        cfg = write_config(tmp_path, {"n": 32, "M": 4096, "alpha": 1e-12, "u0": "0", "f": "max(0, 2 - 4096*t)"})
        assert main(["verify", "--config", str(cfg), "--suite", "nonneg", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["internal numeric error: L1 weights at alpha=1e-12, M=4096 break b_0 > 0, "
                       "b_(j-1) >= b_j, b_M >= 0 first at j=2775"], err

    def test_weights_at_alpha_1e_9_keep_their_sign(self, tmp_path):
        # Each weight is one power increment, so alpha = 1e-9 keeps every
        # difference b_{j-1} - b_j >= 0 at M = 4096, and the positivity
        # trials hold exactly.
        cfg = write_config(tmp_path, {"n": 32, "M": 4096, "alpha": 1e-9, "u0": "0", "f": "max(0, 2 - 4096*t)"})
        assert main(["verify", "--config", str(cfg), "--suite", "nonneg", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())["nonneg"]
        assert report["configured_profile"]["violation"] == 0.0
        assert report["trials"]["violation"] == 0.0

    def test_positive_off_diagonal_exit_three(self, tmp_path, monkeypatch, capsys):
        # An operator with positive off-diagonal entries (built in here) has
        # lost the premise of exact positivity: a numeric error.
        def assemble_with_positive_entries(grid, beta):
            A = assemble_1d(grid, beta)
            i, j = np.indices(A.entries.shape)
            A.entries[abs(i - j) == 3] = 1e-3
            return A

        monkeypatch.setattr("tsfrac.solver.assemble_1d", assemble_with_positive_entries)
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["internal numeric error: operator at beta=0.5, n=16 has a positive off-diagonal entry, "
                       "first at distance d=3"], err

    def test_beta_next_to_half_solves(self, tmp_path):
        # At beta = 0.5 + 5e-13 every off-diagonal of A is formed from power
        # increments and stays <= 0, so the nonnegative data give exactly
        # nonnegative states.
        cfg = write_config(tmp_path, {"n": 256, "beta": 0.5 + 5e-13})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        u = np.loadtxt(tmp_path / "solution.csv", delimiter=",", skiprows=1)[:, 2]
        assert max(0.0, -u.min()) == 0.0

    def test_memory_preflight_exit_two(self, tmp_path, monkeypatch, capsys):
        # Decided from the estimate alone: nothing of the size is allocated.
        def unreachable(*args, **kwargs):
            raise AssertionError("solve called past the memory preflight")

        monkeypatch.setattr("tsfrac.solver.solve", unreachable)
        cfg = write_config(tmp_path, {"n": 200000})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[1].strip().startswith("key 'n': n=200000 and M=12")
        assert "GiB budget" in err[1]
        cfg = write_config(tmp_path, {"M": 2**24})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines()[1].strip().startswith("key 'M': ")
        # the README config is far inside the budget
        assert load_config(write_config(tmp_path, {"n": 128, "M": 256})).grid.n == 128

    def test_bad_usage_exit_two(self, tmp_path):
        assert main(["verify", "--config", "x", "--suite", "bogus"]) == 2
        assert main(["frobnicate"]) == 2

    def test_deeply_nested_expression_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"f": "(" * 400 + "x" + ")" * 400})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        named = [line.strip() for line in err.splitlines() if "offset" in line]
        assert named == ["key 'f': expression nested too deeply at offset 100"]

    def test_five_thousand_term_forcing_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path, {"f": "+".join(["x"] * 5000), "n": 4, "M": 2})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_infinite_exponent_exit_two(self, tmp_path, capsys):
        # 2^(1/0) overflows to inf like any other sample: a config error
        cfg = write_config(tmp_path, {"f": "2^(1/(x - x))"})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "evaluates to inf" in capsys.readouterr().err


class TestSampling:
    def test_first_non_finite_node_is_named(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"u0": "sqrt(-x)"}))
        with pytest.raises(ConfigError) as info:
            cfg.problem()
        msg = "expression 'u0' evaluates to nan at (x=0.05882352941176472, t=0.0)"
        assert str(info.value) == msg

    def test_time_is_named_as_a_python_float(self, tmp_path):
        problem = load_config(write_config(tmp_path, {"f": "1/(t - 0.5)"})).problem()
        with pytest.raises(ConfigError) as info:
            problem.forcing(problem.grid.nodes(), np.float64(0.5))
        msg = "expression 'f' evaluates to inf at (x=-0.8823529411764706, t=0.5)"
        assert str(info.value) == msg

    def test_constant_fills_the_node_array(self, tmp_path):
        problem = load_config(write_config(tmp_path, {"u0": "0.5", "f": "-0"})).problem()
        assert np.array_equal(problem.u0.values, np.full(16, 0.5))
        f = problem.forcing_samples()
        assert f.shape == (13, 16) and np.all(np.signbit(f))


def test_commands_import_no_scipy(tmp_path):
    # a cold process pays for every scipy module it loads; the library and
    # all four subcommands need numpy alone
    cfg = write_config(tmp_path, {"n": 128, "M": 256, "m": 16, "trials": 20, "seed": 0})
    code = (
        "import sys, tsfrac\n"
        "from tsfrac import cli\n"
        f"cfg, out = {str(cfg)!r}, {str(tmp_path / 'out')!r}\n"
        "for argv in (['solve'], ['verify', '--suite', 'all'], ['convergence'], ['kernel-table']):\n"
        "    assert cli.main(argv + ['--config', cfg, '--out', out]) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip().splitlines()[-1] == "[]"


# The config block of the README, verbatim.
README_CONFIG = {
    "alpha": 0.5, "beta": 0.5, "a": -1.0, "b": 1.0, "n": 128, "T": 1.0, "M": 256,
    "u0": "max(0, 1 - x^2)", "f": "0.1*(1 + cos(3.14159265358979*x))", "m": 16,
    "trials": 20, "seed": 0, "out": "out", "m_ladder": "4,16,64,256",
}


def test_thread_count_changes_no_byte(tmp_path):
    # The README scopes byte-for-byte reproducibility to one numpy/BLAS
    # build on one CPU kernel; within that scope the BLAS thread count
    # must not move a byte of the states or of the verdicts.
    cfg = tmp_path / "readme.json"
    cfg.write_text(json.dumps(README_CONFIG))
    src = str(Path(__file__).resolve().parent.parent / "src")
    files = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        for argv in (["solve"], ["verify", "--suite", "all"]):
            proc = subprocess.run(
                [sys.executable, "-m", "tsfrac", *argv, "--config", str(cfg), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
        files.append([(out / name).read_bytes() for name in ("solution.csv", "verify_report.json")])
    assert files[0] == files[1]
