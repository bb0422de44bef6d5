"""Top functions by self time under cProfile, for one workload's trials.

    python3 perfbench/profile_split.py --workload sl3-campaign --seed 1 --rounds 1

Runs the given number of rounds of the workload (the same inputs the
benchmark draws for that seed) under cProfile and prints the 15 functions
with the most self time, each with its share of the profiled total.
cProfile charges every Python call, so the shares lean towards code that
makes many small calls; timings for claims come from `run.py`.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import random
import sys

from run import SRC

TOP = 15


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    pkg = workloads.load_package()
    workload.setup(pkg)
    rng = random.Random(args.seed)
    trials = [t for _ in range(args.rounds) for t in workload.make_round(rng)]

    profiler = cProfile.Profile()
    profiler.enable()
    for trial in trials:
        workload.run_trial(pkg, trial)
    profiler.disable()

    stats = pstats.Stats(profiler)
    total = stats.total_tt
    rows = sorted(stats.stats.items(), key=lambda item: item[1][2], reverse=True)
    print(f"{args.workload}, seed {args.seed}: {len(trials)} trials, {total:.2f} s profiled")
    print(f"{'self s':>8} {'share':>6} {'cum s':>8} {'calls':>10}  function")
    for (filename, line, name), (_, calls, tottime, cumtime, _) in rows[:TOP]:
        root = os.path.dirname(SRC)
        where = os.path.relpath(filename, root) if filename.startswith(root) else os.path.basename(filename)
        print(f"{tottime:8.2f} {100 * tottime / total:5.1f}% {cumtime:8.2f} {calls:10d}  {where}:{line}({name})")


if __name__ == "__main__":
    main()
