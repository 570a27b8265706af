"""One fresh benchmark process: import the library, run one workload's items
and check them. Prints one JSON object as its last line of output.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--item I]

MODE is ``setup`` (import only), ``e2e`` (the user-facing calls, untraced),
``layered`` (the layer-by-layer calls, untraced, outputs not checked) or
``traced`` (the layer-by-layer calls inside spans). ``--item`` runs one
item of the workload instead of all of them. Only the standard library is
imported before the library, so ``setup_s`` covers numpy, scipy and mpmath.
Times are reported as measured (``*_raw_s``) and rescaled to the reference
machine speed by ``calibration.Sampler``; spans carry their rescale factor.
"""
import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "e2e", "layered", "traced"),
                        required=True)
    parser.add_argument("--item", type=int, default=None)
    args = parser.parse_args()

    sampler = calibration.Sampler()
    sampler.start()
    try:
        return run(args, sampler)
    finally:
        sampler.stop()


def run(args, sampler: calibration.Sampler) -> int:
    start = time.perf_counter()
    import matorth  # noqa: F401  the set-up being measured
    setup = (start, time.perf_counter())
    if args.mode == "setup":
        time.sleep(calibration.PAD)  # samples after the import, as before it
        print(json.dumps({"setup_s": sampler.scaled(*setup),
                          "setup_raw_s": setup[1] - setup[0]}))
        return 0

    import resource

    import workloads as wl
    from tracing import Recorder

    items = wl.INPUTS[args.workload](args.seed)
    if args.item is not None:
        items = [items[args.item]]
    rec = Recorder(enabled=args.mode == "traced")
    workdir = ROOT / "perfbench" / "_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = wl.Context(rec, layered=args.mode != "e2e", workdir=workdir, seed=args.seed)
    tally = wl.Tally()
    try:
        rss_before = wl.current_rss_kb()
        results = []
        windows = []
        for item in items:
            began = time.perf_counter()
            with rec.span("item"):
                try:
                    results.append(wl.ITEMS[args.workload](ctx, item))
                except Exception as exc:  # a failing operation must not stop the run
                    results.append(exc)
            windows.append((began, time.perf_counter()))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rss_growth_kb = wl.current_rss_kb() - rss_before

        for item, result in zip(items, results):
            if isinstance(result, Exception):
                tally.fail(f"{type(result).__name__}: {result}")
            elif args.mode != "layered":
                wl.CHECKS[args.workload](tally, ctx, item, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for s in rec.spans:
        s["scale"] = calibration.REFERENCE_S / sampler.snippet_s(
            rec.origin + s["start"], rec.origin + s["end"])
    for name, seconds, began, ended in rec.times:
        rec.count(name, seconds * calibration.REFERENCE_S / sampler.snippet_s(began, ended))
    # sweep-wide items carry their parameter set second
    params = sum(1 for i in items if isinstance(i[1], matorth.WeightParams))
    print(json.dumps({
        "setup_s": sampler.scaled(*setup),
        "setup_raw_s": setup[1] - setup[0],
        "item_s": [sampler.scaled(*w) for w in windows],
        "item_raw_s": [end - began for began, end in windows],
        "snippet_s": sampler.snippet_s(windows[0][0], windows[-1][1]),
        "peak_rss_mb": peak_rss_mb,
        "rss_per_param_kb": rss_growth_kb / params if params else 0.0,
        "attempted": len(items),
        "failed": len(tally.failures),
        "correct": not tally.problems,
        "failures": tally.failures[:10],
        "problems": tally.problems[:10],
        "digits": tally.digits,
        "spans": rec.spans,
        "counts": dict(rec.counts),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
