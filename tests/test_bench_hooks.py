"""The traced benchmark patches package functions by name; a refactor that
renames or moves one must update ``bench/layers.py`` in the same change.
These tests only read ``bench/``; the traced run writes its spans to the
git-ignored ``bench/out/``."""

import json
import subprocess
import sys
from pathlib import Path

import mfvc

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_function_exists():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import layers
        from spans import Tracer

        tracer = Tracer()
        try:
            layers.install(tracer, mfvc)
        finally:
            tracer.unpatch()
    finally:
        sys.path.remove(str(BENCH_DIR))


def test_traced_benchmark_runs_clean():
    # The traced run checks that the per-layer self times add up to the
    # wall time and that the counted symbols match the header geometry, so
    # a refactor that routes work around a patched function fails here.
    cmd = [sys.executable, "bench/run.py", "--workload", "gop64", "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
