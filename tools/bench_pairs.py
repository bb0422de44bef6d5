"""Alternating parent/change runs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \
        --workloads sl3-campaign tree-campaign --pairs 10 --first-seed 4001 \
        --output BENCH_10.json

PARENT_DIR and CHANGE_DIR are checkouts of the two commits.  For each
workload, pair i runs `python3 perfbench/run.py --workload W --seed S
--seconds N --trace 0` once in each checkout with seed S = first seed + i,
one run at a time; the parent runs first in even pairs and the change in
odd ones.  The output holds every run's metrics and wall time (`wall_s`,
the whole process: set-up, input drawing, trials and checks) and, per
workload and metric, each side's median and quartiles, the pairs the
change won (ties count for neither side) and whether the median gain
exceeds the distance between the parent's quartiles; `wall_s` per
workload gives each side's median run wall time, which shows whether a
change lengthens the benchmark, and the top-level `wall_s`, also
printed, sums those medians over the workloads run.  Which way is
better for a metric comes from `BENCHMARK.json` in the change checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `checkout`: its last output line and
    the run's wall time."""
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    wall_s = perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} printed nothing: {done.stderr}")
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "wall_s": wall_s,
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles; with one value all three are that value."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's spread, the change's wins and losses, and
    whether the median gain exceeds the parent's interquartile range."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        sign = -1 if better.get(name) == "lower" else 1
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        before, after = spread(parent), spread(change)
        gain = sign * (after["median"] - before["median"])
        out[name] = {
            "better": better.get(name, "higher"),
            "parent": before,
            "change": after,
            "change_wins": wins,
            "change_losses": losses,
            "median_ratio": after["median"] / before["median"] if before["median"] else None,
            "gain_exceeds_parent_iqr": gain > before["iqr"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    report = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed, args.seconds)
                metrics = pair[side]["metrics"]
                print(f"{workload} seed {seed} {side}: "
                      + ", ".join(f"{k} {v:.4g}" for k, v in metrics.items())
                      + f", wall_s {pair[side]['wall_s']:.1f}", file=sys.stderr)
            pairs.append(pair)
        report["workloads"][workload] = {
            "pairs": pairs,
            "all_correct": all(p[s]["correct"] and not p[s]["failed"] for p in pairs for s in checkouts),
            "summary": summarize(pairs, better),
            "wall_s": {side: statistics.median(p[side]["wall_s"] for p in pairs) for side in checkouts},
        }
    report["wall_s"] = {
        side: sum(w["wall_s"][side] for w in report["workloads"].values()) for side in checkouts
    }
    print("summed median wall_s: "
          + ", ".join(f"{side} {value:.1f}" for side, value in report["wall_s"].items()))
    with open(args.output, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
