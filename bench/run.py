"""Benchmark of the mfvc codec and trainer.

    python3 bench/run.py --workload gop64 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Runs one workload (``gop64``, ``intra256`` or ``train``; ``all`` runs each
in its own process in turn) for ``--seconds`` of whole rounds, checks every
output, and prints one line per metric followed, as the last line, by a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a traced run and writes its spans under
``bench/out/``. See ``bench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import _bootstrap

E2E_UNITS = {
    "setup_s": "s",
    "encode_fps": "frames/s",
    "decode_fps": "frames/s",
    "bpp": "bits/pixel",
    "psnr_db": "dB",
    "ms_ssim": "1",
    "peak_rss_mb": "MB",
    "train_ae_it_s": "iterations/s",
    "train_stem_it_s": "iterations/s",
}
WORKLOAD_NAMES = ("gop64", "intra256", "train")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    blas_threads = _bootstrap.cap_blas_threads()
    t0 = time.perf_counter()
    mfvc = _bootstrap.import_package()
    import_s = time.perf_counter() - t0

    import layers
    import workloads
    from spans import Tracer

    for name in ("ae.mfvcw", "stem.mfvcw"):
        if not (_bootstrap.MODEL_DIR / name).is_file():
            print(f"error: missing {_bootstrap.MODEL_DIR / name}; run bench/train_model.py", file=sys.stderr)
            return 2

    workload = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    bench = workloads.Bench(mfvc, workload, args.seed, _bootstrap.MODEL_DIR, tracer)
    if tracer is not None:
        layers.install(tracer, mfvc)

    setup_times = bench.setup()
    setup_factor = bench.host.factor()
    setup_raw_s = import_s + statistics.median(setup_times)
    setup_s = setup_factor * setup_raw_s
    load_ms = 0.0
    if tracer is not None:
        load_ms = 1e3 * tracer.self_s.get("serialize.load", 0.0) / len(setup_times)
        tracer.reset_totals()

    run = workloads.measure(bench, args.seconds, traced=bool(args.trace))

    if tracer is None:
        values = workloads.end_to_end(run, setup_s)
        units = E2E_UNITS
    else:
        values, units = traced_metrics(run, tracer, load_ms)
        _bootstrap.OUT_DIR.mkdir(exist_ok=True)
        trace_path = _bootstrap.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(trace_path)
        tracer.unpatch()
        print(f"spans written to {trace_path.relative_to(_bootstrap.REPO_ROOT)}")

    print(f"workload {args.workload}  seed {args.seed}  blas threads {blas_threads}  "
          f"rounds {len(run.encode_s)}  trace {args.trace}")
    print(f"import {import_s:.3f} s  set-ups {' '.join(f'{t:.3f}' for t in setup_times)} s  "
          f"reference s per s: set-up {setup_factor:.3f}, rounds {run.host_factor:.3f}")
    for i in range(len(run.encode_s)):
        print(f"round {i}: encode {run.encode_s[i]:.3f} s  decode {run.decode_s[i]:.3f} s  "
              f"train_ae {run.ae_s[i]:.3f} s  train_stem {run.stem_s[i]:.3f} s")
    if tracer is None:
        raw = workloads.end_to_end(run, setup_raw_s, scaled=False)
        print("unscaled: " + "  ".join(f"{k} {v:.4f}" for k, v in raw.items() if k.endswith(("_s", "_fps"))))
    for digest in run.stream_hashes:
        print(f"stream sha256 {digest}")
    for note in run.notes:
        print(f"note: {note}")
    print(f"worst P-chunk rate-estimate gap: {run.rate_gap_of_bound:.3f} of criterion 3's bound")
    for name, value in values.items():
        print(f"{name:28s} {value:14.6f} {units[name]}")
    print(f"operations attempted {run.attempted}  failed {run.failed}")

    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    _bootstrap.OUT_DIR.mkdir(exist_ok=True)
    out_path = _bootstrap.OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def traced_metrics(run, tracer, load_ms: float):
    """Per-layer metrics per frame (codec workloads) or per training
    iteration (``train``), from the traced rounds of ``run``."""
    import layers

    traced = [i for i in range(len(run.encode_s)) if i % 2 == 1]
    untraced = [i for i in range(len(run.encode_s)) if i % 2 == 0]
    units = run.units * len(traced)
    values = layers.per_unit(tracer, units)
    wall_s = sum(tracer.root_s.get(r, 0.0) for r in layers.ROOTS)
    self_s = sum(tracer.self_s.values())
    if abs(self_s - wall_s) > 1e-6 * wall_s:
        run.correct = False
        run.notes.append(f"layer self times sum to {self_s:.6f} s, traced wall {wall_s:.6f} s")
    traced_unit = statistics.median(run.primary_s(i) / run.units for i in traced)
    untraced_unit = statistics.median(run.primary_s(i) / run.units for i in untraced)
    values["stem.rate_gap_of_bound"] = run.rate_gap_of_bound
    values["serialize.load_ms"] = load_ms
    values["trace.wall_ms"] = 1e3 * wall_s / units
    values["trace.overhead_ms"] = 1e3 * (traced_unit - untraced_unit)
    values["trace.overhead_pct"] = 100.0 * (traced_unit - untraced_unit) / untraced_unit
    return values, layers.UNITS


if __name__ == "__main__":
    sys.exit(main())
