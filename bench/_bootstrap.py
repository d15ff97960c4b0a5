"""Process set-up shared by the benchmark's scripts.

Must be imported before NumPy: it caps the BLAS thread pools at the
machine's core count and puts the checkout's ``src/`` first on the import
path, so the package under test is the one built from this checkout and
never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
MODEL_DIR = BENCH_DIR / "model"
OUT_DIR = BENCH_DIR / "out"

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def core_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads() -> int:
    """Set every BLAS thread variable to min(requested, cores); returns it."""
    cores = core_count()
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(requested), cores) if requested.isdigit() and int(requested) > 0 else cores
    for var in _BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def import_package():
    """Import ``mfvc`` from this checkout's ``src/``; exits with status 2
    when the checkout has no package source."""
    if not (SRC_DIR / "mfvc" / "__init__.py").is_file():
        print(f"error: no package source under {SRC_DIR}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC_DIR))
    import mfvc

    if Path(mfvc.__file__).resolve().parent != SRC_DIR / "mfvc":
        print(f"error: imported mfvc from {mfvc.__file__}, not from {SRC_DIR}", file=sys.stderr)
        raise SystemExit(2)
    return mfvc
