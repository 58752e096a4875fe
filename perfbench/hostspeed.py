"""Correction of timings for the speed of a shared host.

On a machine shared with other tenants the speed available to one process
swings by up to 2x over spans of seconds, and the process cannot see it:
its CPU time grows with its wall time either way.  Timings taken across
such swings vary far more from run to run than any change worth detecting.

A :class:`HostSpeed` sampler therefore runs fixed kernels from a wall-clock
timer signal every ``INTERVAL_S`` while the measured process runs, and
records how long each run of a kernel took.  Contention does not slow all
code alike: a Python loop of small numpy calls (the ``interpreter`` kernel,
the shape of convbeam's adaptive filters) slowed about twice as much, in
log terms, as FFTs and einsums over a few thousand elements (the ``vector``
kernel, the shape of the fixed-beamformer path).  The sampler alternates
the two, and each workload is corrected by the kernel that matches its
work.

A sample's speed is ``REFERENCE_S`` over its duration.  A timed interval,
net of the kernels' own time, is multiplied by the mean speed of the
samples taken inside it (the nearest sample when none fall inside): the
result is the time the interval would have taken on a host where the
kernel takes ``REFERENCE_S``.  Because the kernels are the benchmark's own
code, a change to convbeam cannot move them, and a change that makes
convbeam slower raises the corrected time by the same factor as the real
one.  The correction stays right only while a workload's work keeps the
shape of its kernel; the uncorrected wall-clock figures are kept beside it.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.025
# Each kernel is sized to take about this long on an uncontended 2-vCPU
# x86-64 host with Python 3.11 and numpy 2.4.  A fixed constant, so the
# corrected times of different runs are in the same units.
REFERENCE_S = 110e-6

_X = np.linspace(-1.0, 1.0, 16) + 0.5j
_FRAMES = np.sin(np.arange(16 * 512, dtype=np.float64)).reshape(16, 512)
_WEIGHTS = np.cos(np.arange(8 * 257, dtype=np.float64)).reshape(8, 257) + 0.5j


def _interpreter_kernel() -> complex:
    acc = 0j
    for _ in range(150):
        acc += np.vdot(_X, _X)
    return acc


def _vector_kernel() -> np.ndarray:
    spec = np.fft.rfft(_FRAMES, axis=1)
    return np.einsum("mk,nk->mn", _WEIGHTS, spec.conj())


KERNELS = {"interpreter": _interpreter_kernel, "vector": _vector_kernel}


class HostSpeed:
    """Samples the host's speed from a timer signal while started, one kernel per tick."""

    def __init__(self) -> None:
        self.samples: dict = {name: [] for name in KERNELS}  # [start, duration] per run
        self.spent = 0.0
        self._ticks = 0

    def _handler(self, signum, frame) -> None:
        name = list(KERNELS)[self._ticks % len(KERNELS)]
        self._ticks += 1
        t0 = time.perf_counter()
        KERNELS[name]()
        t1 = time.perf_counter()
        self.samples[name].append([t0, t1 - t0])
        self.spent += t1 - t0

    def start(self) -> None:
        # numpy loads parts of what the kernels call (numpy.fft) on first use;
        # an import started from the handler can break the import it interrupted
        for kernel in KERNELS.values():
            kernel()
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        # ignore, not default: a signal already pending would end the process
        signal.signal(signal.SIGALRM, signal.SIG_IGN)


class Correction:
    """Speed of the host over an interval, from one process's samples."""

    def __init__(self, samples: list) -> None:
        samples = sorted(samples)
        self._times = [s[0] for s in samples]
        self._speed = [REFERENCE_S / s[1] for s in samples]

    def mean_speed(self) -> float:
        return sum(self._speed) / len(self._speed) if self._speed else 1.0

    def __call__(self, t0: float, t1: float) -> float:
        """Mean speed over [t0, t1], relative to a host where the kernel takes ``REFERENCE_S``."""
        lo = bisect.bisect_left(self._times, t0)
        hi = bisect.bisect_right(self._times, t1)
        if hi > lo:
            return sum(self._speed[lo:hi]) / (hi - lo)
        if not self._times:
            return 1.0
        mid = 0.5 * (t0 + t1)
        near = min(
            (j for j in (lo - 1, lo) if 0 <= j < len(self._times)),
            key=lambda j: abs(self._times[j] - mid),
        )
        return self._speed[near]
