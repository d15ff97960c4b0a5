"""The benchmark recorder's aggregation, on canned run output; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("record", ROOT / "tools" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

SPEC = {
    "workloads": [{"name": "gop64"}, {"name": "train"}],
    "end_to_end": [{"name": "encode_fps", "unit": "frames/s"}, {"name": "bpp", "unit": "bits/pixel"}],
}


def run_output(fps, bpp=0.5, threads=2, correct=True, failed=0):
    result = {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {"encode_fps": {"value": fps, "unit": "frames/s"}, "bpp": {"value": bpp, "unit": "bits/pixel"}},
    }
    return (f"workload x  seed 1  blas threads {threads}  rounds 3  trace 0\n"
            f"encode_fps {fps}\noperations attempted 10  failed {failed}\n{json.dumps(result)}\n")


def outputs(**overrides):
    runs = {(w, seed): run_output(100.0 + seed * (1 if w == "gop64" else 10)) for w in ("gop64", "train")
            for seed in (1, 2, 3)}
    runs.update(overrides.get("runs", {}))
    return runs


def test_medians_units_and_per_seed_values():
    runs = outputs(runs={("gop64", 2): run_output(90.0, bpp=0.7)})
    summary = record.aggregate(SPEC, runs)
    assert summary["blas_threads"] == 2
    gop = summary["workloads"]["gop64"]
    assert gop["encode_fps"] == {"median": 101.0, "unit": "frames/s", "per_seed": [101.0, 90.0, 103.0]}
    assert gop["bpp"] == {"median": 0.5, "unit": "bits/pixel", "per_seed": [0.5, 0.7, 0.5]}
    assert summary["workloads"]["train"]["encode_fps"]["median"] == 120.0
    assert list(summary["workloads"]) == ["gop64", "train"]


@pytest.mark.parametrize(
    "bad, match",
    [
        (run_output(100.0, correct=False), "train seed 3: correct False"),
        (run_output(100.0, failed=1), "train seed 3: correct True, failed 1"),
        (run_output(100.0).replace("blas threads 2", "threads"), "no 'blas threads' line"),
        (run_output(100.0) + "done\n", "last line is not JSON"),
        ("", "no 'blas threads' line"),
        (run_output(100.0, threads=1), r"different BLAS thread counts: \[1, 2\]"),
    ],
    ids=["incorrect", "failed-op", "no-threads", "no-json", "empty", "threads-differ"],
)
def test_a_bad_run_is_refused(bad, match):
    with pytest.raises(record.RecordError, match=match):
        record.aggregate(SPEC, outputs(runs={("train", 3): bad}))


def test_missing_metric_is_refused():
    runs = outputs()
    runs["gop64", 1] = runs["gop64", 1].replace('"bpp"', '"bits"')
    with pytest.raises(record.RecordError, match="gop64: no bpp"):
        record.aggregate(SPEC, runs)
