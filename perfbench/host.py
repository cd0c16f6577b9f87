"""Provenance of a run and computed array sizes."""

from __future__ import annotations

import os
import platform
import re
import subprocess
import sys
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIB = 1024 * 1024


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None                     # e.g. an exported source tree
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _caches() -> dict[str, str | None]:
    """L2/L3 sizes as lscpu prints them ("4 MiB (2 instances)")."""
    found: dict[str, str | None] = {"L2": None, "L3": None}
    try:
        out = subprocess.run(["lscpu"], text=True, capture_output=True,
                             timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return found
    for level in found:
        m = re.search(rf"^{level} cache:\s*(.+)$", out, re.MULTILINE)
        if m:
            found[level] = m.group(1).strip()
    return found


def _mib(text: str | None) -> float | None:
    m = re.match(r"([\d.]+)\s*([KMG])i?B", text or "")
    if not m:
        return None
    return float(m.group(1)) * {"K": 1 / 1024, "M": 1.0, "G": 1024.0}[m.group(2)]


def provenance(root: Path, seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "git_sha": _git_sha(root),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": blas_name,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "caches": _caches(),
        "platform": platform.platform(),
        "executable": sys.executable,
    }


def computed_sizes(caches: dict) -> dict:
    """Bytes of the largest arrays, computed from their shapes and dtypes
    (not measured), against the last-level cache."""
    t = 10 ** 7
    pi_t = 664579                       # primes below 10^7
    sizes = {
        "table_spf_int32_bytes": (t + 1) * 4,
        "table_squarefree_bool_bytes": (t + 1) * 1,
        "table_primes_int64_bytes": pi_t * 8,
        "float64_array_at_t_1e7_bytes": (t + 1) * 8,
    }
    l3 = _mib(caches.get("L3"))
    largest = max(sizes.values()) / MIB
    note = "computed from shapes and dtypes, not measured; "
    if l3 is not None and largest < 4 * l3:
        note += (f"the largest array ({largest:.0f} MiB) is smaller than 4x L3 "
                 f"({4 * l3:.0f} MiB), so part of it can stay in cache and no "
                 "memory-bandwidth figure is claimed")
    else:
        note += "no memory-bandwidth figure is claimed"
    return {"label": "computed", **sizes, "note": note}
