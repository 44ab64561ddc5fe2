"""Machine-speed calibration for timings on a shared host.

On the 2-core virtual machine this benchmark was built on, other tenants
change the speed of the CPU by up to 1.8x, for spans from under a second
to over a minute: a fixed pure-Python loop took 15.6-17 ms per call for
40 s, then 25-26.7 ms for the next 70 s.  Raw medians of 20 s windows of
uavcov calls moved by 55% with it, more than any useful regression bound,
while their ratio to a fixed calibration kernel timed next to each call
moved by about 5%.

So every timing the benchmark reports is scaled to a reference speed:
sample seconds x REFERENCE_S / (kernel seconds), with the kernel timed
just before and just after the sample and the two factors averaged,
since the speed can change during a sample.  The result reads as seconds
on a machine where the kernel takes REFERENCE_S, about its time in the
fast phases of that host.  The kernel mixes interpreted loops with small
numpy transforms, as uavcov's hot paths do, and does not use uavcov, so a
change to the program cannot change it.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

REFERENCE_S = 0.0092
REPEATS = 3

_FREQS = 2.0 * math.pi * np.arange(1024) / 1024
_VALUES = np.random.default_rng(0).random((64, 3))
_PROBS = np.full(3, 1.0 / 3.0, dtype=complex)


def _kernel() -> float:
    total = 0
    table = {}
    for i in range(60_000):
        total += i * i
        table[i & 255] = total
    cf = np.ones(_FREQS.size, dtype=complex)
    for row in _VALUES:
        cf *= np.exp(1j * np.outer(_FREQS, row)) @ _PROBS
    return float(np.fft.fft(cf).real[0]) + total


def _best_time() -> float:
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(cpus=None) -> float:
    """REFERENCE_S over the kernel's current time (best of REPEATS);
    multiply a timing taken next to this call by it.

    With `cpus`, the kernel runs pinned to each of them in turn and the
    factors are averaged, for work that a process pool spreads over them.
    """
    if cpus is None:
        return REFERENCE_S / _best_time()
    allowed = os.sched_getaffinity(0)
    factors = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            factors.append(REFERENCE_S / _best_time())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(factors) / len(factors)
