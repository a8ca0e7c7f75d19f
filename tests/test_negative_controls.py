"""Negative controls: each verify suite must fail on a deliberately broken library.

A suite that passes on broken code shows nothing.  Each control replaces
one module attribute with monkeypatch, in the test process only, runs one
suite through ``cli.main`` at the README config, and requires ``fail``
and exit 1; the same call passes on the intact library.
"""

import contextlib
import io
import json

import pytest

from tsfrac import timefrac
from tsfrac.cli import main

# The config block of the README.
README_CONFIG = {
    "alpha": 0.5, "beta": 0.5, "a": -1.0, "b": 1.0, "n": 128, "T": 1.0, "M": 256,
    "u0": "max(0, 1 - x^2)", "f": "0.1*(1 + cos(3.14159265358979*x))", "m": 16,
    "trials": 20, "seed": 0, "out": "out", "m_ladder": "4,16,64,256",
}


def verify(tmp_path, suite: str, seed: int) -> tuple:
    """Run one suite at the README config with this seed: (exit code, the suite's trial report)."""
    cfg = tmp_path / f"seed-{seed}.json"
    cfg.write_text(json.dumps({**README_CONFIG, "seed": seed}))
    out = tmp_path / f"{suite}-{seed}"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", "--suite", suite, "--config", str(cfg), "--out", str(out)])
    return code, json.loads((out / "verify_report.json").read_text())[suite]["trials"]


@pytest.mark.parametrize("seed", [0, 1])
def test_identities_catch_negated_caputo_l1(seed, tmp_path, monkeypatch):
    # The L1 derivative with its sign flipped is negative at a maximum:
    # the extremum-sign check must report it
    code, trials = verify(tmp_path, "identities", seed)
    assert (code, trials["status"], trials["failures"]) == (0, "pass", 0)
    caputo_l1 = timefrac.caputo_l1
    monkeypatch.setattr(timefrac, "caputo_l1", lambda *args: -caputo_l1(*args))
    code, trials = verify(tmp_path, "identities", seed)
    assert (code, trials["status"]) == (1, "fail")
    assert trials["failures"] > 0 and trials["worst"] > 0
