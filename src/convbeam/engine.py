"""The engine behind both adaptive filters: one compiled kernel and one run that owns its filters.

The kernel, ``_kernel.c`` (built by :func:`load_kernel`), runs the per-bin
recursion of either filter over every bin, one bin at a time through every
frame, with the arithmetic of the scalar oracle of :mod:`convbeam.apa` and
:mod:`convbeam.sdmvdr`.  A :class:`Run` is the one way to the kernel: it builds
and owns every bin's filter and frame history, each bin at its own order in the
layout of the scalar states, and its steering and outputs, reads the data (in
the Spectrogram's (M, bins, frames) layout), gains and params where the caller
holds them, and runs its spans of bins in threads at once
(:func:`~convbeam.stft.fan_out`).  Each utterance driver builds a run on the rows its kernel
reads, the steering or the canceller's fixed heads, and calls it once; ``apa.process_frame``
binds its states to a run over one frame and calls it on each, so a stream equals the offline run.
The library is built, once per source, when this module is imported; a host
without ``cc`` imports it all the same and gets the build's ``ImportError``
from the first run of an adaptive filter.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .fixedbf import delay_and_sum
from .geometry import SteeringVector
from .stft import check_order, fan_out, spans

__all__ = ["APA", "RC", "Kernel", "Run", "load_kernel"]

SOURCE = Path(__file__).with_name("_kernel.c")
# no -march and no FMA target (the source's one clone is AVX2, without FMA), so a cached
# library runs on any host of its architecture and every product rounds as the oracle's; the
# source writes its lanes as explicit 4-double vectors, which each clone runs at its own width
CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")
# the kernel's five double params, in its order
PARAMS = attrgetter("phi_b", "phi_r", "phi_a", "eta", "alpha_r")


def load_kernel(source: Path = SOURCE, cache: Path = SOURCE.parent / "__pycache__"):
    """The library built from ``source`` with ``cc``, as ``cache/<stem>-<crc>-<size>.so``.

    The name holds the CRC-32 of the source and flags, and the source's
    length, so only a changed source is built.  A build is renamed into
    place, so processes that build at once never load a partial library.
    A failed build, a missing ``cc`` or a cache that cannot be written
    raises ``ImportError`` with the command and the compiler's or the file
    system's message.  Its one entry point, ``run``, takes its arrays as bare
    pointers, so only :class:`Run` may build its arguments.
    """
    text = source.read_bytes()
    lib = cache / f"{source.stem}-{zlib.crc32(text + ' '.join(CFLAGS).encode()):08x}-{len(text)}.so"
    if not lib.exists():
        import subprocess  # only on a miss: importing it costs about 3 ms

        tmp = lib.with_suffix(f".{os.getpid()}.tmp")
        cmd = ["cc", *CFLAGS, str(source), "-o", str(tmp), "-lm"]
        try:
            cache.mkdir(parents=True, exist_ok=True)
            done = subprocess.run(cmd, capture_output=True, text=True)
            if done.returncode:
                raise OSError(done.stderr)
            os.replace(tmp, lib)
        except OSError as exc:  # a failed build, no compiler, or a cache it cannot write
            if tmp.is_file():
                tmp.unlink()
            raise ImportError(f"building the kernel failed: {' '.join(cmd)}\n{exc}") from None
    kernel = ctypes.CDLL(str(lib))
    kernel.run.argtypes = [ctypes.c_long] * 10 + [ctypes.c_double] * 5 + [ctypes.c_void_p] * 7
    kernel.run.restype = ctypes.c_long
    return kernel


class Kernel(NamedTuple):
    """A filter of the kernel: ``_kernel.c``'s one entry point, ``run``, takes its ``head``."""

    outputs: int  # output rows per bin and frame
    head: int  # 1 when the filter has a beamforming head of M taps before its M*(L-D+1)

    def taps(self, num_mics: int, order: int, delay: int) -> int:
        """Q of a bin: the head, then M taps per frame y(n-D)..y(n-L) (none at order 0);
        the pair must pass :func:`~convbeam.stft.check_order`."""
        check_order(order, delay, bool(self.head))
        return num_mics * (self.head + (order - delay + 1 if order else 0))

    def bin_taps(self, num_mics: int, orders: np.ndarray, delay: int) -> np.ndarray:
        """Each bin's Q_k at ``orders``, each distinct order checked once by :meth:`taps`."""
        unique, index = np.unique(orders, return_inverse=True)
        return np.array([self.taps(num_mics, order, delay) for order in unique.tolist()])[index]


try:  # built at import, so a first build falls in set-up rather than in a run
    LIBRARY = load_kernel()
except ImportError as exc:  # raised by a Run instead, so other paths need no cc
    LIBRARY = exc
APA = Kernel(outputs=3, head=1)
RC = Kernel(outputs=1, head=0)


class Run:
    """``kernel`` over data of ``frames`` frames on filters it owns for the (bins, M) ``steering``
    rows it reads (the canceller's fixed heads): one span of bins when ``frames`` is 1, else one
    per CPU of near-equal cost, Q_k + M a bin (:func:`~convbeam.stft.spans`).  Bin k, of order
    L_k = ``orders[k]``, holds its Q_k taps (:meth:`Kernel.taps`) in ``w[k, :Q_k]``, starting at
    the head of ``delay_and_sum`` if ``kernel`` has one and at zero otherwise, and y(n-l) in
    ``history[k, l-1]``, l <= L_k; both end each call holding the final taps and histories.  With
    ``prior`` each bin first runs the frames with no outputs and keeps its filter but not its
    history.  ``steering`` becomes the run's C-ordered copy, of bytes :attr:`bits`; a steering
    ``SteeringVector`` refuses, ``orders`` not (bins,) and an order :meth:`Kernel.bin_taps` refuses
    raise ``ValueError``."""

    def __init__(self, kernel: Kernel, steering: np.ndarray, orders, delay: int, frames: int,
                 prior: bool = False):
        if isinstance(LIBRARY, ImportError):  # the build at import failed
            raise ImportError(*LIBRARY.args)
        self.steering = np.array(SteeringVector(steering, 0).vectors, order="C")
        (bins, m), orders = self.steering.shape, np.array(orders, dtype=ctypes.c_long)
        if orders.shape != (bins,):
            raise ValueError(f"orders has shape {orders.shape}, expected {(bins,)}")
        taps = kernel.bin_taps(m, orders, delay)
        self.orders, self.delay, self.shape = orders, delay, (m, bins, frames)
        self.bits, self.w = self.steering.tobytes(), np.zeros((bins, taps.max()), complex)
        if kernel.head:
            self.w[:, :m] = delay_and_sum(self.steering).weights
        self.history = np.zeros((bins, orders.max(), m), complex)
        self.spans = [(0, bins)] if frames == 1 else spans(taps + m)
        self.out = np.empty((kernel.outputs, bins, frames), complex)
        entry, c_long = LIBRARY.run, ctypes.c_long  # all but the params, gains and data made C once
        longs = [c_long(x) for x in (frames, m, delay, self.w.shape[1], self.history.shape[1] * m,
                                     int(prior), kernel.head)]
        o, w, h, a, out = (ctypes.c_void_p(x.ctypes.data)
                           for x in (orders, self.w, self.history, self.steering, self.out))
        self._spans = [(c_long(bins), c_long(k0), c_long(k1)) for k0, k1 in self.spans]
        self._call = lambda span, params, gains, data: entry(  # 0, or 1 + k*frames + n
            *span, *longs, *params, o, gains, w, h, data, a, out)  # in the kernel's order

    def __call__(self, data: np.ndarray, steering: np.ndarray, gains, params) -> np.ndarray:
        """The outputs, (``kernel.outputs``, bins, frames), in the run's own array, which its next
        call overwrites, on ``data`` (M, bins, frames), the (bins, M) ``steering`` the kernel reads
        (the fixed heads, for the canceller), ``gains`` None or (bins, frames) from
        ``apa.check_inputs``, and ``params``.  A steering of bytes other than :attr:`bits` is
        checked as at construction and copied into the run's own.  An array of another shape, or a
        bad steering, raises ``ValueError`` naming it before the kernel runs.  The kernel reads
        ``data`` and ``gains`` where they lie if they are C-contiguous, aligned complex128 and
        float64, else one copy of each that is not.  Each span makes one kernel call, on
        :func:`~convbeam.stft.fan_out`, to the bits of one span.  A singular 2x2 solve raises
        ``LinAlgError`` naming the lowest failing bin, and its frame (in either pass) if the run
        has more than one; the bins before it, and those of other spans, may have moved."""
        (m, bins, frames), call = self.shape, self._call
        for name, array, shape in (("data", data, self.shape), ("steering", steering, (bins, m)),
                                   ("gains", gains, (bins, frames))):
            if array is not None and array.shape != shape:
                raise ValueError(f"{name} has shape {array.shape}, expected {shape} "
                                 f"for data of shape {self.shape}")
        if steering.tobytes() != self.bits:  # new bits, as after an edit in place
            self.steering[:] = SteeringVector(steering, 0).vectors
            self.bits = self.steering.tobytes()
        data = np.require(data, np.complex128, "CA")
        gains = None if gains is None else np.require(gains, np.float64, "CA")
        args = PARAMS(params), None if gains is None else gains.ctypes.data, data.ctypes.data
        if any(statuses := fan_out(lambda *span: call(span, *args), self._spans)):
            k, n = divmod(min(filter(None, statuses)) - 1, frames)
            raise np.linalg.LinAlgError(f"singular 2x2 innovation covariance at bin {k}"
                                        + (f", frame {n}" if frames > 1 else ""))
        return self.out
