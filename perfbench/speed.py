"""Timings at a reference machine speed.

The benchmark runs on shared hosts whose speed for one Python thread drifts
by a factor of up to two within seconds, as other tenants load the caches
and cores.  Wall-clock statement times then measure the neighbours as much
as the program.  So the benchmark times a fixed pure-Python ``kernel``
between statements, outside their timing, and rescales each statement time
by ``REFERENCE_S / kernel time`` (the slower of the kernel runs on either
side of it): the time the statement would have taken on a machine that runs
the kernel in exactly ``REFERENCE_S``.  The program's own speed is untouched
by this (the kernel never calls it), so a faster program still reads
faster; the host's drift cancels, because it slows the kernel and the
statement alike.

The kernel mixes three kinds of work a statement does: small-integer and
dict churn (interpreter dispatch); lookups, calls and small allocations; and
reads scattered over megabytes of strings (memory traffic).  Each kind alone
tracks some workloads and some kinds of drift; their sum tracks all of them
best.  On the host the benchmark was defined on, it cut the run-to-run
spread (interquartile range over the median, ten seeds) of throughput and
latency from 10-30% (wall clock) to 1-8%.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: Kernel time of the machine the figures are scaled to: a round figure
#: near the kernel's median time (80-130 us as the load varies) on the
#: 2-vCPU Xeon (family 6, model 207) KVM guest with CPython 3.11 the
#: benchmark was defined on.  Changing it rescales every reported timing.
REFERENCE_S = 100e-6


#: The kernel's data: strings and small integers, in containers holding
#: nothing else, which the collector does not track.  The kernel adds nothing
#: to the program's collections, whose cost grows with the tracked heap.
_LABELS = tuple(f"cell-{number}" for number in range(100000))
_NUMBERS = {label: number for number, label in enumerate(_LABELS[:20000])}
_LOOKUPS = tuple(random.Random(20000).sample(range(len(_NUMBERS)), 120))
_SPREAD = tuple(random.Random(100000).sample(range(len(_LABELS)), 400))


def _pair(number: int, label: str):
    return number, label


def kernel() -> float:
    """Run the fixed reference work twice; returns the second run's time in
    seconds.

    The first run refills the caches the statement before it evicted: timed
    alone, it reads up to three times slower after a heavy statement than
    after a light one, which would make the program's own cache footprint
    look like machine speed.  The collector is off meanwhile: the kernel's
    allocations would otherwise start collections over the program's heap,
    whose cost grows with that heap and is not the machine's speed.  Its
    objects are freed by reference counting before it returns, so it leaves
    the collector's counts as it found them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _timed_work()
        return _timed_work()
    finally:
        if enabled:
            gc.enable()


def _timed_work() -> float:
    started = time.perf_counter()
    # Interpreter dispatch: small-integer arithmetic and dict stores.
    table = {}
    x = 0
    for i in range(300):
        x = (x * 31 + i) & 1023
        table[x & 63] = i
    # Lookups, calls and small allocations.
    rows = []
    for index in _LOOKUPS:
        label = _LABELS[index]
        number = _NUMBERS[label]
        rows.append(_pair(number, label))
        rows.append({"number": number, "label": label})
    # Memory traffic: reads scattered over megabytes, then list allocations.
    for index in _SPREAD:
        label = _LABELS[index]
        rows.append((label, len(label)))
    for j in range(300):
        rows.append([j, j + 1, j + 2])
    return time.perf_counter() - started


def scale(kernel_time: float) -> float:
    """The factor that brings a time measured beside *kernel_time* to the
    reference speed."""
    return REFERENCE_S / kernel_time


def bracket(repeats: int = 40) -> float:
    """The median of *repeats* kernel times in a row, for work that cannot be
    interleaved with the kernel."""
    return statistics.median(kernel() for _ in range(repeats))
