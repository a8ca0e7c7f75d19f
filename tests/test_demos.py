"""Smoke test: every script in demos/ runs to completion against src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # run from a scratch directory: some demos write their outputs to the cwd or TMPDIR;
    # -W error makes a warning fail the demo, as filterwarnings does for the suite
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not list(tmp_path.glob("tsfrac-demo-*")), "demo left a temp dir behind"
