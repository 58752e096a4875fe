"""The engine behind both adaptive filters: bands, one compiled kernel, one driver.

A band is a contiguous run of bins that share one order and delay; it holds
their filters and frame history as arrays and adopts their states.  The
kernel, ``_kernel.c`` (built by :func:`load_kernel`), runs the per-bin
recursion of either filter over a band, one bin at a time through every
frame, with the arithmetic of the scalar oracle of :mod:`convbeam.apa` and
:mod:`convbeam.sdmvdr`.  One driver, :func:`drive`, runs every call: an
utterance, and a stream (``apa.process_frame``) as an utterance of one
frame, so a stream equals the offline run by construction.  The library is
built, once per source, when this module is imported; a host without ``cc``
imports it all the same and gets the build's ``ImportError`` from the first
run of an adaptive filter.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .gains import clamp_gain
from .stft import Spectrogram

__all__ = ["APA", "RC", "Band", "Kernel", "bands", "check_inputs", "drive", "load_kernel"]

SOURCE = Path(__file__).with_name("_kernel.c")
# no -march and no FMA target (the source's one clone is AVX2, without FMA), so a cached
# library runs on any host of its architecture and every product rounds as the oracle's
CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")


def load_kernel(source: Path = SOURCE, cache: Path = SOURCE.parent / "__pycache__"):
    """The library built from ``source`` with ``cc``, as ``cache/<stem>-<crc>-<size>.so``.

    The name holds the CRC-32 of the source and flags, and the source's
    length, so only a changed source is built.  A build is renamed into
    place, so processes that build at once never load a partial library.
    A failed build, a missing ``cc`` or a cache that cannot be written
    raises ``ImportError`` with the command and the compiler's or the file
    system's message.  ctypes refuses a call with an array that is not
    C-contiguous or not of its dtype before it runs.
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
    arrays = [np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS") for t in (np.float64,) * 2
              + (np.complex128,) * 5]
    for fn in (kernel.apa_band, kernel.rc_band):
        fn.argtypes = [ctypes.c_long] * 8 + arrays
        fn.restype = ctypes.c_long
    return kernel


class Kernel(NamedTuple):
    """An entry point of ``_kernel.c`` and the filter it runs."""

    entry: str  # the function's name in the library
    weights: str  # the state attribute that holds a bin's filter
    outputs: int  # output rows per bin and frame
    head: int  # 1 when the filter has a beamforming head of M taps before its M*(L-D+1)

    def taps(self, num_mics: int, order: int, delay: int) -> int:
        """Q of a bin: the head, then M taps per frame y(n-D)..y(n-L) (none at order 0)."""
        return num_mics * (self.head + (order - delay + 1 if order else 0))


try:  # built at import, so a first build falls in set-up rather than in a run
    LIBRARY = load_kernel()
except ImportError as exc:  # raised by drive instead, so other paths need no cc
    LIBRARY = exc
APA = Kernel("apa_band", "w_hat", 3, 1)
RC = Kernel("rc_band", "w_rc", 1, 0)


class Band:
    """A band of K bins of order L, run by ``kernel``: filters and frame history.

    ``w`` is (K, Q) and ``frames`` (K, L+1, M), with ``frames[:, l]`` the
    frame y(n-l).  The band adopts its states: the attribute named by
    ``kernel.weights`` becomes a view of the state's row of ``w``, and
    ``history`` one of ``frames[:, 1:]``, so the kernel moves the states in
    place.  Steering and params reach every call of the kernel instead.
    """

    def __init__(self, states: list, kernel: Kernel) -> None:
        first = states[0]
        self.kernel, self.order, self.delay = kernel, first.order, first.delay
        self.w = np.array([getattr(s, kernel.weights) for s in states], dtype=np.complex128)
        self.frames = np.zeros((len(states), first.order + 1, first.num_mics), np.complex128)
        self.frames[:, 1:] = [s.history for s in states]
        for state, w, frames in zip(states, self.w, self.frames):
            setattr(state, kernel.weights, w)
            state.history = frames[1:]


def bands(states: list, kernel: Kernel) -> list:
    """(lo, hi, Band(states[lo:hi], kernel)) for every run of bins with equal order and delay."""
    keys = [(s.order, s.delay) for s in states]
    edges = [0] + [k for k in range(1, len(keys)) if keys[k] != keys[k - 1]] + [len(keys)]
    return [(lo, hi, Band(states[lo:hi], kernel)) for lo, hi in zip(edges[:-1], edges[1:])]


def check_inputs(steering, gains, num_mics: int, gain_shape: tuple, frame=None) -> tuple:
    """(frame, steering, gains) as arrays, checked before any state changes.

    ``frame`` (when given) and ``steering`` must be finite and (bins, M),
    with bins = ``gain_shape[0]`` and M = ``num_mics``, and no steering row
    may have zero norm; ``gains`` must be of ``gain_shape`` and is clamped
    into [0, 1].  An utterance driver passes its Spectrogram as ``frame``;
    that must be finite.  Anything else raises ``ValueError`` naming the
    argument, and for a bad value where it is.
    """
    steering = np.ascontiguousarray(getattr(steering, "vectors", steering), np.complex128)
    spec, frame = (frame.data, None) if isinstance(frame, Spectrogram) else (None, frame)
    if frame is not None:
        frame = np.ascontiguousarray(frame, dtype=np.complex128)
    if gains is not None:
        gains = np.asarray(gains, dtype=np.float64)
    shape = (gain_shape[0], num_mics)
    named = (("frame", frame, shape), ("steering", steering, shape), ("gains", gains, gain_shape))
    for name, value, expected in named:
        if value is not None and value.shape != expected:
            raise ValueError(f"{name} has shape {value.shape}, expected {expected}")
    for name, value, _ in named[:2]:
        finite = np.isfinite(value) if value is not None else True
        if not np.all(finite):
            k, ch = np.argwhere(~finite)[0]
            raise ValueError(f"{name} has a non-finite value at bin {k}, channel {ch}")
    zero = np.vecdot(steering, steering).real == 0.0
    if zero.any():
        raise ValueError(f"steering vector of bin {np.argmax(zero)} has zero norm")
    if spec is not None and not np.isfinite(spec).all():
        ch, k, n = np.argwhere(~np.isfinite(spec))[0]
        raise ValueError(f"spectrogram has a non-finite value at channel {ch}, bin {k}, frame {n}")
    return frame, steering, None if gains is None else clamp_gain(gains)


def drive(data: np.ndarray, held: list, steering: np.ndarray, params, gains=None,
          prior_pass: bool = False) -> np.ndarray:
    """Advance the bands ``held`` (from :func:`bands`) through ``data``
    (M, bins, frames); returns the outputs, (``outputs``, bins, frames).

    The bands end holding the final filters and histories.  ``steering`` is
    the C-contiguous (bins, M) matrix the kernel reads (the fixed heads, for
    the canceller), and ``gains`` None or (bins, frames) from
    :func:`check_inputs`; any that do not fit the data or the bands raise
    ``ValueError``.  The input is copied once into (bins, frames, M), and
    each band runs in one kernel call per pass.  With ``prior_pass`` every
    bin first runs the whole input once, forming no outputs, and keeps its
    filter but not its history.  A singular 2x2 solve raises
    ``LinAlgError`` naming its bin and frame; by then the bins before it, in
    its band and in the bands run before, have moved.
    """
    if isinstance(LIBRARY, ImportError):  # the build at import failed
        raise ImportError(*LIBRARY.args)
    kernel, (m, num_bins, num_frames) = held[0][2].kernel, data.shape
    run = getattr(LIBRARY, kernel.entry)
    want, got = ((num_bins, m), data.shape[1:]), (steering.shape, getattr(gains, "shape", None))
    if held[-1][1] != num_bins or got[0] != want[0] or got[1] not in (None, want[1]):
        raise ValueError(f"bands over {held[-1][1]} bins, steering {got[0]} and gains {got[1]} "
                         f"do not fit data {data.shape}: it needs {num_bins} bins, steering "
                         f"{want[0]} and gains None or {want[1]}")
    for lo, hi, band in held:
        taps = kernel.taps(m, band.order, band.delay)
        if 0 < band.order <= band.delay or band.w.shape != (hi - lo, taps) \
                or band.frames.shape != (hi - lo, band.order + 1, m):
            raise ValueError(f"bins {lo}-{hi - 1} hold {band.w.shape[1]} taps for "
                             f"{band.frames.shape[2]} mics at order {band.order}, delay "
                             f"{band.delay}; {m} mics need order 0 or > delay and {taps} taps")
    ys = np.ascontiguousarray(data.transpose(1, 2, 0), np.complex128)
    gains_sq = np.ones((num_bins, num_frames)) if gains is None else np.square(gains, order="C")
    p = np.array([params.phi_b, params.phi_r, params.phi_a, params.eta, params.alpha_r])
    out = np.empty((kernel.outputs, num_bins, num_frames), dtype=np.complex128)
    for keep in ((0, 1) if prior_pass else (1,)):
        for lo, hi, band in held:
            status = run(lo, hi, num_bins, num_frames, m, band.order, band.delay, keep, p,
                         gains_sq, band.w, band.frames, ys, steering, out)
            if status:
                k, n = divmod(status - 1, num_frames)
                raise np.linalg.LinAlgError(f"singular 2x2 innovation covariance at bin {k}, frame {n}")
        if not keep:
            for _, _, band in held:
                band.frames[:] = 0.0
    return out
