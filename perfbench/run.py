"""Benchmark of the masures package: one workload per process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

With `--trace 0` the run measures whole rounds of trials until `--seconds`
of trial time have passed and reports the end-to-end metrics:
`trials_per_s`, `trial_p50_ms`, `setup_s` (median of several fresh
set-ups, each the import of the package plus model and root-data
construction in a child process of its own) and `peak_rss_mib`.  The
times are adjusted to the host's usual speed with `hostspeed.py`.
Inputs are drawn between rounds, outside the timed span, and every
output is checked against `oracles.py` after its round.

With `--trace 1` the run takes a fixed number of rounds, so its counts
repeat exactly for a seed: it runs each trial once untraced and once with
`tracer.Tracer` enabled, checks that both passes gave the same outputs,
prints the tracing overhead, writes the spans to
`perfbench/out/<workload>-<seed>.trace.jsonl` and reports the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
BLOCK_S = 0.25


def _setup_seconds(workload):
    """One fresh set-up, timed in a child process of its own."""
    child = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_time.py"), workload.name],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(child.stdout.split()[-1])


def _run_trial(workload, pkg, trial):
    """The trial's output, or the exception it raised, and its start and
    end times."""
    start = perf_counter()
    try:
        output = workload.run_trial(pkg, trial)
    except Exception as exc:  # counted as a failed trial and reported
        output = exc
    return output, start, perf_counter()


def _check_all(workload, pkg, trials, outputs):
    """Failed trials and the first problem of each wrong output."""
    failed = 0
    problems = []
    for trial, output in zip(trials, outputs):
        if isinstance(output, Exception):
            failed += 1
            problems.append(f"failed trial: {output!r}")
            continue
        found = workload.check(pkg, trial, output)
        if found:
            problems.append(f"wrong output: {found[0]}")
    return failed, problems


class HostSampler:
    """Host-speed samples every `BLOCK_S` of wall time, taken from a timer
    signal so that they fall inside long trials too; `busy` gives the
    sampling time inside an interval, which the trial's time leaves out."""

    def __init__(self):
        self.samples, self.spans = [], []

    def _take(self, signum=None, frame=None):
        start = perf_counter()
        self.samples.append(hostspeed.sample())
        self.spans.append((start, perf_counter()))

    def __enter__(self):
        self._take()
        signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, BLOCK_S, BLOCK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy(self, start, end):
        total = 0.0
        for a, b in reversed(self.spans):
            if b <= start:
                break
            total += max(0.0, min(end, b) - max(start, a))
        return total


def measure(workload, pkg, seed, seconds):
    """Whole rounds until `seconds` of trial time; each round is checked
    after its last trial, outside the timed span, and then dropped.
    `hostspeed.adjust` applies the host-speed samples of the run."""
    rng = random.Random(seed)
    times, failed, wrong = [], 0, 0
    with HostSampler() as host:
        while sum(times) < seconds:
            trials = workload.make_round(rng)
            outputs = []
            for trial in trials:
                output, start, end = _run_trial(workload, pkg, trial)
                outputs.append(output)
                times.append(end - start - host.busy(start, end))
            round_failed, problems = _check_all(workload, pkg, trials, outputs)
            failed += round_failed
            wrong += len(problems) - round_failed
            for problem in problems[:3]:
                print(problem, file=sys.stderr)
    samples = host.samples
    print(f"as measured: {len(times) / sum(times):.4g} trials/s, p50 {1000 * statistics.median(times):.4g} ms; "
          f"host speed {hostspeed.speed(samples):.4g} of usual, from {len(samples)} samples")
    metrics = {
        "trials_per_s": (len(times) / hostspeed.adjust(sum(times), samples), "1/s"),
        "trial_p50_ms": (1000 * hostspeed.adjust(statistics.median(times), samples), "ms"),
    }
    return len(times), failed, wrong == 0, metrics


def trace(workload, pkg, seed):
    import tracer

    rng = random.Random(seed)
    trials = [t for _ in range(workload.trace_rounds) for t in workload.make_round(rng)]
    spans = tracer.Tracer()
    spans.prepare()
    # each trial runs untraced and then traced, so both passes see the
    # same warm state and the difference is the tracing alone
    plain, plain_times, traced, traced_times = [], [], [], []
    for index, trial in enumerate(trials):
        output, start, end = _run_trial(workload, pkg, trial)
        plain.append(output)
        plain_times.append(end - start)
        spans.trial = index
        spans.enable()
        try:
            output, start, end = _run_trial(workload, pkg, trial)
        finally:
            spans.disable()
        traced.append(output)
        traced_times.append(end - start)

    failed, problems = _check_all(workload, pkg, trials, traced)
    wrong = len(problems) - failed
    if [str(o) for o in plain] != [str(o) for o in traced]:
        wrong += 1
        problems.append("traced and untraced passes gave different outputs")
    for problem in problems[:5]:
        print(problem, file=sys.stderr)

    overhead = sum(traced_times) / sum(plain_times) - 1
    print(f"tracing overhead: {100 * overhead:+.1f}% ({sum(traced_times):.3f} s traced, "
          f"{sum(plain_times):.3f} s untraced, {len(trials)} trials)")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload.name}-{seed}.trace.jsonl")
    spans.write(path, {"workload": workload.name, "seed": seed, "trials": len(trials),
                       "traced_s": sum(traced_times), "untraced_s": sum(plain_times)})
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    return len(trials), failed, wrong == 0, spans.metrics()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "masures", "__init__.py")):
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import oracles
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    oracles.self_test()

    pkg = workloads.load_package()
    workload.setup(pkg)

    if args.trace:
        attempted, failed, correct, metrics = trace(workload, pkg, args.seed)
    else:
        attempted, failed, correct, metrics = measure(workload, pkg, args.seed, args.seconds)
        # RUSAGE_SELF counts this process alone, not the set-up children
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mib"] = (peak_kib / 1024, "MiB")
        setups = [_setup_seconds(workload) for _ in range(SETUP_REPEATS)]
        metrics["setup_s"] = (statistics.median(setups), "s")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
