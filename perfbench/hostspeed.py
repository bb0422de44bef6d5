"""The host's speed during a run, read from a fixed pure-Python loop.

On a shared host the same code runs up to 40% faster or slower from one
stretch of seconds or minutes to the next, as neighbours load the machine
(README.md, "Host noise").  The benchmark times a fixed reference loop
between its trials, and `adjust` turns the seconds a run measured into
seconds at the host's usual speed.  The reference uses only the standard
library, so the program under test cannot change it.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# about the median seconds of one `sample()` on a 2-core host with
# Python 3.11.7
NOMINAL_S = 0.01

# How strongly the workloads follow the reference loop's speed: fits of
# log throughput against log speed over runs gave slopes from 0.5 to 1.06
# (README.md, "Host speed"); this is the middle of that range.
RESPONSE = 0.75

STEPS = 1600


def _reference():
    # rational arithmetic like the package's own: 1 - 1/STEPS, term by term
    total = Fraction(0)
    for i in range(1, STEPS):
        total += Fraction(1, i) - Fraction(1, i + 1)
    return total


def sample():
    """Seconds of one reference pass.  The collector is off during the
    pass, so the heap of the program under test does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        result = _reference()
        seconds = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if result != 1 - Fraction(1, STEPS):
        raise AssertionError(f"reference loop gave {result}")
    return seconds


def speed(samples):
    """The host's speed over `samples`, as a share of its usual speed."""
    return NOMINAL_S / statistics.median(samples)


def adjust(seconds, samples):
    """`seconds` measured among `samples`, as they would read at the
    host's usual speed."""
    return seconds * speed(samples) ** RESPONSE
