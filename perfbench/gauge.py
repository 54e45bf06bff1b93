"""Machine-speed gauge for the end-to-end timings.

The reference machine is a VM that shares its host with other tenants. There
the same germlin job runs 0.45 s in one minute and 0.85 s in the next. The
CPU time equals the wall time and the kernel reports no steal, so the cause
is contention inside the CPU. There, ten runs of raw wall time
spread by 15-25% (quartile distance over median), whatever the run length
the time budget allows.

The gauge times a fixed reference kernel owned by the benchmark and
interleaved with the jobs: a dictionary-accumulated product of two fixed
lists of large Fractions. It stresses the interpreter the way germlin's
exact arithmetic does, and on the reference machine its speed tracks the
speed of germlin's jobs (correlation 0.98 over 5 s blocks). Scaling each
job's wall time by ``REFERENCE_S / local reference time`` turns it into
seconds at the reference kernel's nominal speed. That cut the spread of
5 s block means from 13% to 2.5%. A change to germlin leaves the reference
kernel alone, so a real gain or loss in germlin still shows in full.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

# Median time of one ``sample()`` on the reference machine (2-vCPU Intel
# Xeon VM, Python 3.11.7).  It only sets the scale of the corrected times.
REFERENCE_S = 0.0059
# Take a new sample after this much job time.
SAMPLE_EVERY_S = 0.5

_rng = random.Random(8253)
_A = [Fraction(_rng.randint(-10**6, 10**6), _rng.randint(1, 10**6)) for _ in range(20)]
_B = [Fraction(_rng.randint(-10**6, 10**6), _rng.randint(1, 10**6)) for _ in range(20)]


def _kernel() -> dict:
    out: dict = {}
    for i, a in enumerate(_A):
        for j, b in enumerate(_B):
            k = (i + j) % 23
            out[k] = out.get(k, 0) + a * b
    return out


def sample() -> float:
    """Wall time of two runs of the reference kernel."""
    t0 = perf_counter()
    _kernel()
    _kernel()
    return perf_counter() - t0


class Gauge:
    """Scales job times by the machine speed measured around them.

    ``add`` records a job's wall time; every ``SAMPLE_EVERY_S`` of job time,
    and at ``flush``, a new gauge sample is taken, and the jobs since the
    previous sample are scaled by ``REFERENCE_S`` over the mean of the two
    samples around them.
    """

    def __init__(self):
        for _ in range(3):  # warm the kernel's allocations
            sample()
        self.last = sample()
        self.pending: list[float] = []
        self.pending_s = 0.0
        self.corrected: list[float] = []
        self.factors: list[float] = []

    def add(self, seconds: float) -> None:
        self.pending.append(seconds)
        self.pending_s += seconds
        if self.pending_s >= SAMPLE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        now = sample()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.corrected += [s * factor for s in self.pending]
        self.factors += [factor] * len(self.pending)
        self.last = now
        self.pending, self.pending_s = [], 0.0
