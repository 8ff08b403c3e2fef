"""Host-speed reference for the timing metrics.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent over seconds to minutes, and CPU time drifts with wall time
(the contention is on the physical core, not the scheduler). While a
workload runs, ``Sampler`` times a fixed kernel that does not touch
qlayout every ``INTERVAL_S`` of wall time, from a SIGALRM handler, so the
samples fall inside operations of any length. Each operation's time is
scaled by ``REF_MS`` over the mean kernel time sampled during it. The
reported times are therefore "milliseconds on a machine where the kernel
takes ``REF_MS``": a change to the program moves them as it moves wall
time, while a slow stretch of the host moves the kernel and the operation
alike and cancels out.

The kernel mixes what qlayout spends its time on: interpreted Python
(loops, dict and list work) and many small numpy calls on arrays of the
size of a policy's embeddings.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# The kernel's median time on the machine the bounds were set on (2-vCPU
# Intel Xeon virtual machine, Python 3.11, numpy 2.4, one BLAS thread).
REF_MS = 3.0
INTERVAL_S = 0.1  # sampling period: about 3 % of the run goes to the kernel
# Samples this far outside an operation still count for it, so that a
# 50-ms operation rests on a few samples rather than on one or none.
WINDOW_S = 0.2

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((40, 16))
_B = _rng.standard_normal((16, 16))
_sampling_s = 0.0  # wall time spent in the sampler so far


def _kernel():
    total = 0
    for i in range(3000):
        total += (i * 7) % 13
    seen = {}
    for k in range(300):
        x = np.tanh(_A @ _B).sum(axis=1)
        seen[k % 17] = float(x.max())
    return total, seen


def reference_s(reps=1):
    """Seconds one run of the kernel takes now: the mean of ``reps``.

    The mean, not the median: the host's speed flips within fractions of
    a second, and the work being scaled saw the average speed."""
    total = 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        _kernel()
        total += time.perf_counter() - t0
    return total / reps


def warm_up():
    """Run the kernel once untimed: numpy's first calls set up caches."""
    _kernel()


def clock():
    """``time.perf_counter()`` without the time spent in the sampler: the
    clock every operation and traced span is timed with."""
    return time.perf_counter() - _sampling_s


def to_reference(seconds, ref_s):
    """``seconds`` of wall time at reference speed, for a host on which the
    kernel took ``ref_s``."""
    return seconds * REF_MS / (1000.0 * ref_s)


class Sampler:
    """Times the kernel every ``INTERVAL_S`` while active; ``samples`` holds
    (``clock()`` at the sample, kernel seconds) in time order."""

    def __init__(self):
        self.samples = []
        self._times = []
        self._previous = None

    def __enter__(self):
        warm_up()
        self._sample(None, None)  # so that no run is without a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        global _sampling_s
        t0 = time.perf_counter()
        at = t0 - _sampling_s
        kernel_s = reference_s()
        self.samples.append((at, kernel_s))
        self._times.append(at)
        _sampling_s += time.perf_counter() - t0

    def scale(self, start, end):
        """The interval [start, end] of ``clock()`` in seconds at reference
        speed, by the kernel samples within ``WINDOW_S`` of it."""
        lo = bisect.bisect_left(self._times, start - WINDOW_S)
        hi = bisect.bisect_right(self._times, end + WINDOW_S)
        near = [k for _, k in self.samples[lo:hi]]
        if not near:  # only if the handler was held off for long
            near = [self.median_s()]
        return to_reference(end - start, statistics.mean(near))

    def median_s(self):
        return statistics.median(k for _, k in self.samples)
