"""The header printed with every result: commit, seed, machine and library versions.

Everything here is read-only: /proc, the checkout's .git directory, lscpu,
and the OpenBLAS libraries already loaded into this process.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re
import subprocess
from pathlib import Path

BANDWIDTH_NOTE = (
    "*_gb_computed and *_gbps_computed count the bytes the algorithm must touch "
    "(history: 8*n*sum(k-1) per solve; triangular solve: 8*n^2 per call), divided by "
    "the layer's time. They are computed, not measured traffic, and the arrays are "
    "cache-resident: the largest (a 32 MB factor, a 4 MB history) fit the L3, and a "
    "DRAM-bandwidth run with arrays of 4x the LLC is infeasible at these sizes."
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_thread_cap() -> str:
    """OPENBLAS_NUM_THREADS for this process and its children: at most nproc."""
    want = os.environ.get("OPENBLAS_NUM_THREADS", "")
    cap = nproc()
    return str(min(int(want), cap)) if want.isdigit() and int(want) > 0 else str(cap)


def openblas() -> list:
    """Version string and thread count of every OpenBLAS loaded in this process."""
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in Path(path).name and ".so" in path:
                paths.add(path)
    out = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"lib": Path(path).name}
        for key, names, restype in (
            ("config", ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                        "openblas_get_config64_", "openblas_get_config"), ctypes.c_char_p),
            ("threads", ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"), ctypes.c_int),
        ):
            for name in names:
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = restype
                    val = fn()
                    entry[key] = val.decode() if isinstance(val, bytes) else val
                    break
        out.append(entry)
    return out


def _git_commit(root: Path) -> str:
    git = root / ".git"
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
    return "unknown (not a git checkout)"


def _cpu() -> dict:
    info = {"model": platform.processor() or "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            m = re.search(r"^model name\s*:\s*(.+)$", fh.read(), re.M)
        if m:
            info["model"] = m.group(1).strip()
    except OSError:
        pass
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=20).stdout
    except (OSError, subprocess.SubprocessError):
        text = ""
    for key in ("L2", "L3"):
        m = re.search(rf"^{key} cache:\s*(.+)$", text, re.M)
        info[key] = m.group(1).strip() if m else "unknown"
    return info


def header(root: Path, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "commit": _git_commit(root),
        "workload": workload,
        "seed": seed,
        "cpu": _cpu(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "bandwidth_note": BANDWIDTH_NOTE,
    }
