"""The engine behind both adaptive filters: per-bin filter arrays, one compiled kernel, one driver.

:class:`Filters` holds the filter and frame history of every bin as arrays,
each bin at its own order, in the layout of the scalar states.  The kernel,
``_kernel.c`` (built by :func:`load_kernel`), runs the per-bin recursion of
either filter over every bin, one bin at a time through every frame, with the
arithmetic of the scalar oracle of :mod:`convbeam.apa` and
:mod:`convbeam.sdmvdr`.  :func:`bind` checks the arrays and returns a call that
holds them; :func:`drive` calls it on each span of an utterance's bins in
threads at once (:func:`~convbeam.stft.fan_out`), and a :class:`Stream`
(``apa.process_frame``) on each frame, as an utterance of one frame, so it
equals the offline run.
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
from .gains import clamp_gain
from .geometry import SteeringVector
from .stft import Spectrogram, check_order, fan_out, spans

__all__ = ["APA", "RC", "Filters", "Kernel", "Stream", "bind", "check_inputs", "drive",
           "load_kernel"]

SOURCE = Path(__file__).with_name("_kernel.c")
# no -march and no FMA target (the source's one clone is AVX2, without FMA), so a cached
# library runs on any host of its architecture and every product rounds as the oracle's
CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")
# the kernel's params array, and its array arguments in order by name and dtype
PARAMS = attrgetter("phi_b", "phi_r", "phi_a", "eta", "alpha_r")
ARRAYS = tuple(zip(("orders", "params", "gains", "w", "history", "ys", "steering", "out"),
                   map(np.dtype, (ctypes.c_long, np.float64, np.float64) + (np.complex128,) * 5)))
WRITTEN = ("w", "history", "out")  # the arrays the kernel writes through its pointers


def load_kernel(source: Path = SOURCE, cache: Path = SOURCE.parent / "__pycache__"):
    """The library built from ``source`` with ``cc``, as ``cache/<stem>-<crc>-<size>.so``.

    The name holds the CRC-32 of the source and flags, and the source's
    length, so only a changed source is built.  A build is renamed into
    place, so processes that build at once never load a partial library.
    A failed build, a missing ``cc`` or a cache that cannot be written
    raises ``ImportError`` with the command and the compiler's or the file
    system's message.  The entry points take their arrays as bare pointers,
    so only :func:`bind` may build their arguments.
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
    for fn in (kernel.apa_run, kernel.rc_run):
        fn.argtypes = [ctypes.c_long] * 9 + [ctypes.c_void_p] * len(ARRAYS)
        fn.restype = ctypes.c_long
    return kernel


class Kernel(NamedTuple):
    """An entry point of ``_kernel.c`` and the filter it runs."""

    entry: str  # the function's name in the library
    outputs: int  # output rows per bin and frame
    head: int  # 1 when the filter has a beamforming head of M taps before its M*(L-D+1)

    def taps(self, num_mics: int, order: int, delay: int) -> int:
        """Q of a bin: the head, then M taps per frame y(n-D)..y(n-L) (none at order 0);
        the pair must pass :func:`~convbeam.stft.check_order`."""
        check_order(order, delay, bool(self.head))
        return num_mics * (self.head + (order - delay + 1 if order else 0))

    def widest(self, num_mics: int, orders: np.ndarray, delay: int) -> int:
        """Q_max over ``orders``, each checked by :meth:`taps`."""
        return max(self.taps(num_mics, order, delay) for order in np.unique(orders).tolist())


try:  # built at import, so a first build falls in set-up rather than in a run
    LIBRARY = load_kernel()
except ImportError as exc:  # raised by drive instead, so other paths need no cc
    LIBRARY = exc
APA = Kernel("apa_run", 3, 1)
RC = Kernel("rc_run", 1, 0)


class Filters(NamedTuple):
    """Every bin's filter and frame history: bin k, of order L_k = ``orders[k]``, holds its Q_k
    taps (:meth:`Kernel.taps`) in ``w[k, :Q_k]`` and y(n-l) in ``history[k, l-1]``, l <= L_k."""

    orders: np.ndarray  # (bins,) of C long
    delay: int
    w: np.ndarray  # (bins, Q_max)
    history: np.ndarray  # (bins, L_max, M)

    @classmethod
    def start(cls, kernel: Kernel, steering: np.ndarray, orders, delay: int) -> "Filters":
        """Fresh filters for the (bins, M) ``steering`` rows: the head of ``delay_and_sum``,
        if ``kernel`` has one, and zero taps and history."""
        orders, (bins, m) = np.asarray(orders, dtype=ctypes.c_long), steering.shape
        w = np.zeros((bins, kernel.widest(m, orders, delay)), dtype=np.complex128)
        if kernel.head:
            w[:, :m] = delay_and_sum(SteeringVector(steering, 0)).weights
        return cls(orders, delay, w, np.zeros((bins, orders.max(), m), np.complex128))


def check_inputs(steering, gains, num_mics: int | None, gain_shape: tuple, frame=None) -> tuple:
    """(frame, steering, gains) as arrays, checked before any state changes.

    ``frame`` (when given) must be finite and ``steering`` a valid
    :class:`~convbeam.geometry.SteeringVector`, both (bins, M), with bins =
    ``gain_shape[0]`` and M = ``num_mics`` (None: the steering's width); ``gains``
    must be of ``gain_shape`` and is clamped into [0, 1].  An utterance driver
    passes its Spectrogram as ``frame``; that must be finite.  Anything else
    raises ``ValueError`` naming the argument, and for a bad value where it is.
    """
    steering = np.ascontiguousarray(getattr(steering, "vectors", steering), np.complex128)
    spec, frame = (frame.data, None) if isinstance(frame, Spectrogram) else (None, frame)
    frame = None if frame is None else np.ascontiguousarray(frame, dtype=np.complex128)
    gains = None if gains is None else np.asarray(gains, dtype=np.float64)
    shape = (gain_shape[0], steering.shape[-1] if num_mics is None else num_mics)
    named = (("frame", frame, shape), ("steering", steering, shape), ("gains", gains, gain_shape))
    for name, value, expected in named:
        if value is not None and value.shape != expected:
            raise ValueError(f"{name} has shape {value.shape}, expected {expected}")
    if frame is not None and not np.isfinite(frame).all():
        k, ch = np.argwhere(~np.isfinite(frame))[0]
        raise ValueError(f"frame has a non-finite value at bin {k}, channel {ch}")
    SteeringVector(steering, 0)  # checked on every call: a caller may edit it in place
    if spec is not None and not np.isfinite(spec).all():
        ch, k, n = np.argwhere(~np.isfinite(spec))[0]
        raise ValueError(f"spectrogram has a non-finite value at channel {ch}, bin {k}, frame {n}")
    return frame, steering, None if gains is None else clamp_gain(gains)


def bind(kernel: Kernel, filters: Filters, ys: np.ndarray, steering: np.ndarray,
         gains_sq: np.ndarray, params: np.ndarray, out: np.ndarray, prior: bool = False):
    """``kernel`` on the frames ``ys`` (bins, frames, M), with the prior pass if ``prior``, as
    ``call(k0, k1)`` on bins k0 <= k < k1: 0, or 1 + k*frames + n at the first singular solve.
    It holds the arrays of :data:`ARRAYS`, taken once all have the dtype, C order and shape
    that ``ys`` and ``filters`` give (orders by :meth:`Kernel.widest`) and those of
    :data:`WRITTEN` are writable; the first that is not raises ``ValueError`` naming it."""
    if isinstance(LIBRARY, ImportError):  # the build at import failed
        raise ImportError(*LIBRARY.args)
    (bins, frames, m), (orders, delay, w, history) = ys.shape, filters
    arrays = (orders, params, gains_sq, w, history, ys, steering, out)
    shapes = ((bins,), (5,), (bins, frames), (bins, kernel.widest(m, orders, delay)),
              (bins, int(orders.max()), m), ys.shape, (bins, m), (kernel.outputs, bins, frames))
    for (name, dtype), shape, array in zip(ARRAYS, shapes, arrays):
        fault = (f"has dtype {array.dtype}, expected {dtype}" if array.dtype != dtype
                 else "is not C-contiguous" if not array.flags.c_contiguous
                 else f"has shape {array.shape}, expected {shape}" if array.shape != shape
                 else "is read-only" if name in WRITTEN and not array.flags.writeable
                 else None)
        if fault:
            raise ValueError(f"{name} {fault} for data of shape {(m, bins, frames)}")
    entry = getattr(LIBRARY, kernel.entry)
    args = (frames, m, delay, w.shape[1], history.shape[1] * m, int(prior),
            *(a.ctypes.data for a in arrays))

    def call(k0: int, k1: int) -> int:
        return entry(bins, k0, k1, *args)
    call.arrays = arrays  # so the memory its pointers address lives as long as it
    return call


def _spans(kernel: Kernel, filters: Filters, num_mics: int, count: int | None = None) -> list:
    """The bins' :func:`~convbeam.stft.spans`, bin k costing its Q_k (:meth:`Kernel.taps`) + M."""
    orders, index = np.unique(filters.orders, return_inverse=True)
    taps = np.array([kernel.taps(num_mics, order, filters.delay) for order in orders.tolist()])
    return spans(taps[index] + num_mics, count)


def drive(kernel: Kernel, data: np.ndarray, filters: Filters, steering: np.ndarray, params,
          gains=None, prior_pass: bool = False) -> np.ndarray:
    """Advance ``filters`` through ``data`` (M, bins, frames) on ``kernel``;
    returns the outputs, (``kernel.outputs``, bins, frames).

    The filters end holding the final taps and histories.  ``steering`` is the C-contiguous
    (bins, M) matrix the kernel reads (the fixed heads, for the canceller), and ``gains`` None
    or (bins, frames) from :func:`check_inputs`; an array that does not fit the data and orders
    raises the ``ValueError`` of :func:`bind` before the kernel runs.  With ``prior_pass`` each
    bin first runs the frames with no outputs and keeps its filter but not its history.  The
    spans of bins (:func:`_spans`), one per CPU in the affinity set, run on
    :func:`~convbeam.stft.fan_out`, each copying its bins' frames to the kernel's layout and
    making one call of :func:`bind`'s, to the bits of one span.  A singular 2x2 solve raises
    ``LinAlgError`` naming the bin and frame (in either pass) of the lowest failing bin; the
    bins before it, and those of other spans, may have moved.
    """
    m, num_bins, num_frames = data.shape
    ys = np.empty((num_bins, num_frames, m), np.complex128)
    gains_sq = np.ones((num_bins, num_frames)) if gains is None else np.square(gains, order="C")
    out = np.empty((kernel.outputs, num_bins, num_frames), dtype=np.complex128)
    call = bind(kernel, filters, ys, steering, gains_sq, np.array(PARAMS(params)), out, prior_pass)

    def span(k0: int, k1: int) -> int:
        ys[k0:k1] = data[:, k0:k1].transpose(1, 2, 0)
        return call(k0, k1)
    statuses = fan_out(span, _spans(kernel, filters, m))
    if any(statuses):
        k, n = divmod(min(filter(None, statuses)) - 1, num_frames)
        raise np.linalg.LinAlgError(f"singular 2x2 innovation covariance at bin {k}, frame {n}")
    return out


class Stream:
    """A stream: the call of :func:`bind` that :func:`drive` makes, bound once per list of
    ``states`` to its own :class:`Filters` (whose rows their ``w_hat`` and ``history`` become)
    and buffers, on every bin for one frame.  A state listed at an earlier bin too, or one that
    does not fit its order, ``len(history)``, and the steering's width M, raises ``ValueError``
    naming its bin before any state changes."""

    def __init__(self, kernel: Kernel, states: list, steering: np.ndarray) -> None:
        (bins, m), delay = steering.shape, states[0].delay
        orders, first = [len(s.history) for s in states], {}
        for k, (s, order) in enumerate(zip(states, orders)):
            try:
                if first.setdefault(id(s), k) != k:
                    raise ValueError(f"its state is bin {first[id(s)]}'s too")
                q = kernel.taps(m, order, delay)
                if s.delay != delay or s.w_hat.shape != (q,) or s.history.shape != (order, m):
                    raise ValueError(f"at order {order} it needs delay {delay}, {q} taps and "
                                     f"history ({order}, {m}); it has {s.delay}, "
                                     f"{s.w_hat.shape} and {s.history.shape}")
            except ValueError as exc:
                raise ValueError(f"bin {k}: {exc}") from None
        self.filters = Filters.start(kernel, steering, orders, delay)
        self.ys, self.steering = np.empty((bins, 1, m), complex), np.empty((bins, m), complex)
        self.gains_sq, self.params = np.empty((bins, 1)), np.empty(5)
        self.out = np.empty((kernel.outputs, bins, 1), complex)
        self.call = bind(kernel, self.filters, self.ys, self.steering, self.gains_sq,
                         self.params, self.out)
        for s, order, w, history in zip(states, orders, self.filters.w, self.filters.history):
            w[: s.w_hat.size], history[:order] = s.w_hat, s.history
            s.w_hat, s.history, s._filters = w[: s.w_hat.size], history[:order], self
        self.states = tuple(states)  # emptied when a state reassigns a field

    def __call__(self, frame: np.ndarray, steering: np.ndarray, gains, params) -> np.ndarray:
        """One frame, as :func:`check_inputs` returns it; a copy of output row 0."""
        self.ys[:, 0], self.steering[:], self.params[:] = frame, steering, PARAMS(params)
        np.square(1.0 if gains is None else gains, out=self.gains_sq[:, 0])
        if status := self.call(0, len(self.ys)):
            raise np.linalg.LinAlgError(f"singular 2x2 innovation covariance at bin {status - 1}")
        return self.out[0, :, 0].copy()
