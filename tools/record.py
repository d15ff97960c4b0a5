"""Record this tree's end-to-end benchmark figures as ``BENCH_<n>.json``.

    python3 tools/record.py <n>

For each workload named in ``BENCHMARK.json``, runs this tree's
``bench/run.py --trace 0`` on seeds 1, 2 and 3 for the file's
``run_seconds``, one run at a time, and reads each run's last line, its
JSON result. Writes ``BENCH_<n>.json`` at the repository root: the commit
(and whether ``src/`` or ``bench/`` differ from it), the seeds, the run
length, the BLAS thread count, the ``src/`` line count and, per workload,
the median, unit and per-seed values of each end-to-end metric. Exits with
status 1, writing nothing, if any run exits non-zero, is incorrect, fails
an operation or reports no BLAS thread count, or if the runs' thread
counts differ.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


class RecordError(Exception):
    """A run that cannot go into a record."""


def parse_run(stdout: str) -> tuple[int, dict]:
    """The BLAS thread count and the JSON result of one run's output."""
    threads = re.search(r"\bblas threads (\d+)\b", stdout)
    lines = stdout.strip().splitlines()
    if threads is None or not lines:
        raise RecordError("no 'blas threads' line or no result line")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise RecordError(f"last line is not JSON: {exc}") from exc
    if not result.get("correct") or result.get("failed", 1) != 0:
        raise RecordError(f"correct {result.get('correct')}, failed {result.get('failed')}")
    return int(threads.group(1)), result


def aggregate(spec: dict, outputs: dict[tuple[str, int], str]) -> dict:
    """The record's ``blas_threads`` and ``workloads`` from the output of
    every (workload, seed) run of ``spec``, a ``BENCHMARK.json`` object.
    Raises :class:`RecordError` naming every run that cannot be recorded."""
    errors, threads, results = [], set(), {}
    for (workload, seed), stdout in sorted(outputs.items()):
        try:
            count, results[workload, seed] = parse_run(stdout)
            threads.add(count)
        except RecordError as exc:
            errors.append(f"{workload} seed {seed}: {exc}")
    if len(threads) > 1:
        errors.append(f"runs used different BLAS thread counts: {sorted(threads)}")
    if errors:
        raise RecordError("; ".join(errors))
    seeds = sorted({seed for _, seed in outputs})
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            try:
                values = [results[workload, seed]["metrics"][name]["value"] for seed in seeds]
            except KeyError as exc:
                raise RecordError(f"{workload}: no {name} for every seed") from exc
            metrics[name] = {"median": statistics.median(values), "unit": metric["unit"], "per_seed": values}
        workloads[workload] = metrics
    return {"blas_threads": threads.pop(), "workloads": workloads}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def src_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py")))


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    outputs, crashed = {}, []
    for seed in SEEDS:
        for workload in (w["name"] for w in spec["workloads"]):
            print(f"running {workload} seed {seed} for {seconds} s", file=sys.stderr, flush=True)
            cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            outputs[workload, seed] = proc.stdout
            if proc.returncode:
                crashed.append(f"{workload} seed {seed}: exit status {proc.returncode}")
    try:
        if crashed:
            raise RecordError("; ".join(crashed))
        summary = aggregate(spec, outputs)
    except RecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--", "src", "bench")),
        "seeds": list(SEEDS),
        "run_seconds": seconds,
        "blas_threads": summary["blas_threads"],
        "src_lines": src_lines(),
        "workloads": summary["workloads"],
    }
    out = ROOT / f"BENCH_{argv[0]}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
