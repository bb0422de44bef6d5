"""Seconds of one fresh set-up of a workload, printed on one line.

    python3 perfbench/setup_time.py WORKLOAD

`run.py` starts this in a child process for every set-up it times, so
each set-up imports the package into a new interpreter and the measuring
process holds a single copy of the package.  The timed span is the
import of the package plus the workload's model and root data, adjusted
to the host's usual speed by `hostspeed` samples on either side of it.
"""

from __future__ import annotations

import sys
from time import perf_counter

import hostspeed
from run import SRC

SAMPLES = 3  # host-speed samples on either side of the set-up


def main():
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS[sys.argv[1]]
    samples = [hostspeed.sample() for _ in range(SAMPLES)]
    start = perf_counter()
    workload.setup(workloads.load_package())
    seconds = perf_counter() - start
    samples += [hostspeed.sample() for _ in range(SAMPLES)]
    print(hostspeed.adjust(seconds, samples))


if __name__ == "__main__":
    main()
