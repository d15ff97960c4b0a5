"""The traced benchmark patches package functions by name; a refactor that
renames or moves one must update ``bench/layers.py`` in the same change.
This test only reads ``bench/``."""

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
