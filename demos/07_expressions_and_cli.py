"""The config surface: expressions for data, one JSON file for the CLI.

Initial states and forcings enter through a tiny expression language over
x and t (precedence ^ > unary - > * / > + -, functions sin cos exp abs
sqrt max min).  The same config drives every CLI subcommand; this demo
builds one, runs `solve` and `verify` in-process, and peeks at the
outputs.
"""

import json
import pathlib
import tempfile

import numpy as np

from tsfrac.cli import load_config, main
from tsfrac.exprparse import evaluate, parse

source = "max(0, 1 - x^2) * exp(-t)"
expr = parse(source)
print(f"parsed:        {source}")
print(f"value (0, 0):  {evaluate(expr, 0.0, 0.0)}")
print(f"value (.5, 1): {evaluate(expr, 0.5, 1.0):.6f}")
print(f"on 5 nodes:    {evaluate(expr, np.linspace(-1.0, 1.0, 5), 0.0)}")  # x and t broadcast

# syntax errors carry byte offsets and expectations
try:
    parse("2 *")
except Exception as e:
    print(f"error example: {e}")

with tempfile.TemporaryDirectory(prefix="tsfrac-demo-") as tmp:
    workdir = pathlib.Path(tmp)
    config = {
        "alpha": 0.5,
        "beta": 0.5,
        "a": -1.0,
        "b": 1.0,
        "n": 32,
        "T": 1.0,
        "M": 24,
        "u0": "max(0, 1 - 4*x^2)",
        "f": "0.1*(1 + cos(3.14159265358979*x))",
        "trials": 5,
        "seed": 1,
    }
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2))
    print(f"\nconfig at {cfg_path}")

    loaded = load_config(cfg_path)
    print(f"loaded: alpha={loaded.alpha}, grid n={loaded.grid.n}, u0 sampled min={loaded.problem().u0.values.min()}")

    code = main(["solve", "--config", str(cfg_path), "--out", str(workdir / "out")])
    print(f"solve exit code: {code}")
    code = main(["verify", "--config", str(cfg_path), "--suite", "nonneg", "--out", str(workdir / "out")])
    print(f"verify exit code: {code}")
    report = json.loads((workdir / "out" / "verify_report.json").read_text())
    print(f"verify status: {report['nonneg']['trials']['status']}")
