"""matorth benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload verify-2x2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every round of a workload starts fresh processes (``worker.py``), so each
cache starts cold, as it does for a user of the ``matorth`` CLI; BLAS runs
single-threaded and one item runs at a time. Untraced (``--trace 0``), it
repeats whole rounds while the next one still fits in ``--seconds`` and
prints the end-to-end metrics named in BENCHMARK.json: ``wall_s`` sums each
item's median time over the rounds, ``setup_s`` is the median over every
process started, ``peak_rss_mb`` the median over rounds and
``accuracy_digits`` the minimum. Traced (``--trace 1``), it
runs the layer-by-layer calls once untraced and once inside spans, writes
the spans to ``perfbench/_out/`` and prints the per-layer metrics. The last
line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import self_times

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
OUT = ROOT / "perfbench" / "_out"
# processes per round: verify-2x2 gives each configuration its own process,
# as separate `matorth verify` invocations would
PROCESSES = {"verify-2x2": 6, "build-deep": 1, "sweep-wide": 1}
SETUP_PROBES = 3
# every run has to end within 180 s
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.perf_counter()
        self.env = dict(os.environ, **{v: "1" for v in THREAD_VARS})

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def worker(self, mode: str, item: int | None = None) -> dict:
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        if item is not None:
            cmd += ["--item", str(item)]
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  env=self.env, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"{self.workload}: worker ({mode}) passed the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0:
            raise SystemExit(f"{self.workload}: worker ({mode}) exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def round(self, mode: str) -> list[dict]:
        count = PROCESSES[self.workload]
        if count == 1:
            return [self.worker(mode)]
        return [self.worker(mode, i) for i in range(count)]


def _item_times(results: list[dict], key: str = "item_s") -> list[float]:
    return [t for r in results for t in r[key]]


def _wall(rounds: list[list[dict]], key: str) -> float:
    """One round's timed phase: each item's median over the rounds, summed."""
    return sum(statistics.median(t) for t in zip(*(_item_times(rnd, key) for rnd in rounds)))


def _tally(results: list[dict]) -> dict:
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results)}


def _report_problems(name: str, results: list[dict]):
    lines = [f"failed operation: {line}" for r in results for line in r["failures"]]
    lines += [f"wrong output: {line}" for r in results for line in r["problems"]]
    for line in dict.fromkeys(lines):
        print(f"{name}: {line}")


def end_to_end(runner: Runner, seconds: float, metrics: list[dict]) -> dict:
    setups = [runner.worker("setup") for _ in range(SETUP_PROBES)]
    rounds = []
    while True:
        began = runner.elapsed()
        rounds.append(runner.round("e2e"))
        last = runner.elapsed() - began
        if runner.elapsed() + last > min(seconds, DEADLINE_S - 10.0):
            break
    flat = [r for rnd in rounds for r in rnd]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in setups + flat),
        "wall_s": _wall(rounds, "item_s"),
        "peak_rss_mb": statistics.median(max(r["peak_rss_mb"] for r in rnd) for rnd in rounds),
        "accuracy_digits": min(r["digits"] for r in flat),
    }
    _report_problems(runner.workload, flat)
    print(f"{runner.workload} seed {runner.seed}: {len(rounds)} round(s) in "
          f"{runner.elapsed():.1f} s; as measured wall {_wall(rounds, 'item_raw_s'):.3f} s, "
          f"set-up {statistics.median(r['setup_raw_s'] for r in setups + flat):.3f} s; "
          f"snippet {1e6 * statistics.median(r['snippet_s'] for r in flat):.0f} us")
    return dict(_tally(flat), metrics=_named(values, metrics))


def per_layer(runner: Runner, metrics: list[dict]) -> dict:
    baseline = runner.round("layered")
    traced = runner.round("traced")
    spans = [s for r in traced for s in r["spans"]]
    selfs: Counter = Counter()
    counts: Counter = Counter()
    for r in traced:
        selfs.update(self_times(r["spans"]))
        counts.update(r["counts"])
    traced_wall = sum(_item_times(traced))
    baseline_wall = sum(_item_times(baseline))
    counts.update({
        "weights.rss_per_param_kb": max(r["rss_per_param_kb"] for r in traced),
        "trace.overhead_s": traced_wall - baseline_wall,
        "trace.spans": len(spans),
        "calibration.snippet_us": 1e6 * statistics.median(r["snippet_s"] for r in traced),
    })
    # a counter of the metric's name, else the self time of the span it
    # names; a layer the workload never reached reads 0
    values = {m["name"]: counts[m["name"]] if m["name"] in counts
              else selfs[m["name"].removesuffix("_s")] for m in metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{runner.workload}-seed{runner.seed}.json"
    path.write_text(json.dumps({
        "workload": runner.workload, "seed": runner.seed,
        "traced_wall_s": traced_wall, "untraced_wall_s": baseline_wall,
        "processes": [r["spans"] for r in traced]}) + "\n")
    _report_problems(runner.workload, traced)
    print(f"{runner.workload} seed {runner.seed}: traced {traced_wall:.2f} s, "
          f"untraced {baseline_wall:.2f} s, {len(spans)} spans in {path.relative_to(ROOT)}")
    return dict(_tally(traced), metrics=_named(values, metrics))


def _named(values: dict, metrics: list[dict]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "matorth" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a checkout of matorth (src/matorth and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for name in names if args.workload == "all" else [args.workload]:
        runner = Runner(name, args.seed)
        if args.trace:
            result = per_layer(runner, spec["per_layer"])
        else:
            result = end_to_end(runner, args.seconds, spec["end_to_end"])
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
