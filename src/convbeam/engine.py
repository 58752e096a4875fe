"""The batched engine behind both adaptive filters.

A band is a contiguous run of bins that share one order and delay, held as
arrays.  A frame step has two parts.  The bands (:class:`Band`, with the
kernels ``apa._ApaBand`` and ``sdmvdr._RcBand``) do only the Q-length work,
the products with their (K, Q) filters and history, the filter corrections
and the history push, writing per-bin results into slices of frame-wide
arrays.  The per-bin scalar algebra (PSD floor, gain or step, masks,
limiter) runs once per frame over all bins, in the kernel's ``frame``.
Terms of the input alone are computed once per block of frames: the
utterance drivers pass blocks of :data:`BLOCK` frames, ``apa.process_frame``
a block of one.  A band adopts the states gathered into it.

The kernels repeat the scalar oracle functions of :mod:`convbeam.apa` and
:mod:`convbeam.sdmvdr` operation for operation, so they give the same bits:
every np.vdot becomes np.vecdot on rows (the same BLAS call), abs(z) becomes
np.hypot, a scalar x ** 2 becomes np.float_power, and products of two
complex scalars are written out in real and imaginary parts as numpy's
scalar code evaluates them.  A complex scalar divided by a real one is, in
numpy, a multiplication by the reciprocal of the divisor.
"""

from __future__ import annotations

import numpy as np

from .gains import clamp_gain
from .stft import Spectrogram

__all__ = ["BLOCK", "Band", "bands", "check_inputs", "complex_of", "drive_utterance",
           "floored_psd", "limited", "run_block", "square"]

# frames per input block of the utterance drivers; bounds the block's copy of the input
BLOCK = 8


def square(x: np.ndarray) -> np.ndarray:
    """``x ** 2`` as numpy evaluates it on one float64 scalar."""
    return np.float_power(x, 2)


def _abs(z: np.ndarray) -> np.ndarray:
    return np.hypot(z.real, z.imag)


def complex_of(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    z = np.empty(re.shape, dtype=np.complex128)
    z.real = re
    z.imag = im
    return z


def floored_psd(x: np.ndarray, gains_sq: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """|x|^2, scaled by the squared gains, floored as ``apa.psd_floor``."""
    return np.maximum(gains_sq * square(_abs(x)), floor)


def limited(x_b: np.ndarray, x_r: np.ndarray, alpha_r: float) -> np.ndarray:
    """``apa.limited_output`` of every bin."""
    mag_r = _abs(x_r)
    silent = mag_r == 0.0
    inv = 1.0 / np.where(silent, 1.0, mag_r)
    step = alpha_r * np.minimum(mag_r, _abs(x_b))
    x_hat = complex_of(x_b.real - step * (x_r.real * inv), x_b.imag - step * (x_r.imag * inv))
    return np.where(silent, x_b, x_hat)


class Band:
    """A band of K bins of order L: adapted filters ``w`` and frame history.

    ``frames[:, 0]`` holds the current frame y(n), ``frames[:, l]`` y(n-l).  The
    band adopts its states: the attribute named by ``weights`` becomes a view
    of the state's row of ``w``, and ``history`` one of ``frames[:, 1:]``.  A
    kernel subclass does the band's Q-length work and sets ``outputs``; its
    static ``inputs(ys, steering, params)`` gives the input-only terms of a
    block, one row per frame, and ``frame(held, params, y, terms, out)``
    runs the all-bin scalar step of one frame on that frame's rows.
    """

    weights = "w_hat"

    def __init__(self, states: list, steering: np.ndarray, params) -> None:
        first = states[0]
        self.order, self.delay = first.order, first.delay
        self.w = np.stack([getattr(s, self.weights) for s in states])
        self.work = np.empty_like(self.w)  # a (K, Q) product, formed in place
        self.frames = np.zeros((len(states), first.order + 1, first.num_mics), np.complex128)
        self.frames[:, 1:] = [s.history for s in states]
        for state, w, frames in zip(states, self.w, self.frames):
            setattr(state, self.weights, w)
            state.history = frames[1:]
        self.bind(steering, params)

    def bind(self, steering: np.ndarray, params) -> None:
        """Run the next frames with this steering (K, M) and these params."""

    def load(self, y: np.ndarray) -> np.ndarray:
        """Put the current frame in slot 0; returns it as (K, M)."""
        self.frames[:, 0] = y
        return self.frames[:, 0]

    def tail(self) -> np.ndarray:
        """The delayed frames y(n-D)..y(n-L) of every bin, as (K, M*(L-D+1))."""
        return self.frames[:, self.delay :].reshape(len(self.frames), -1)

    def push(self) -> None:
        self.frames[:, 1:] = self.frames[:, :-1]


def bands(states: list, steering: np.ndarray, params, band) -> list:
    """(lo, hi, band(states[lo:hi], steering[lo:hi], params)) for every run of
    bins with equal order and delay."""
    keys = [(s.order, s.delay) for s in states]
    edges = [0] + [k for k in range(1, len(keys)) if keys[k] != keys[k - 1]] + [len(keys)]
    return [
        (lo, hi, band(states[lo:hi], steering[lo:hi], params))
        for lo, hi in zip(edges[:-1], edges[1:])
    ]


def run_block(held: list, band, ys: np.ndarray, steering: np.ndarray, params, gains,
              out: np.ndarray) -> None:
    """Advance the bands ``held`` through the frames ``ys`` (B, bins, M).

    ``gains`` is None or (B, bins); the outputs fill ``out`` (outputs, bins, B).
    The input-only terms of the whole block come first: the PSD floor
    eta * ||y||^2 / M, the squared gains and the kernel's ``inputs``.
    """
    floor = params.eta * (np.sum(np.abs(ys) ** 2, axis=2) / ys.shape[2])
    gains_sq = np.ones(floor.shape) if gains is None else gains * gains
    terms = (floor, gains_sq) + band.inputs(ys, steering, params)
    for n, y in enumerate(ys):
        band.frame(held, params, y, [t[n] for t in terms], out[:, :, n])


def check_inputs(steering, gains, num_mics: int, gain_shape: tuple, frame=None) -> tuple:
    """(frame, steering, gains) as arrays, checked before any state changes.

    ``frame`` (when given) and ``steering`` must be finite and (bins, M),
    with bins = ``gain_shape[0]`` and M = ``num_mics``, and no steering row
    may have zero norm; ``gains`` must be of ``gain_shape`` and is clamped
    into [0, 1].  An utterance driver passes its Spectrogram as ``frame``;
    that must be finite.  Anything else raises ``ValueError`` naming the
    argument, and for a bad value where it is.
    """
    steering = np.asarray(getattr(steering, "vectors", steering), dtype=np.complex128)
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
    zero = np.sum(np.abs(steering) ** 2, axis=1) == 0.0
    if zero.any():
        raise ValueError(f"steering vector of bin {np.argmax(zero)} has zero norm")
    if spec is not None and not np.isfinite(spec).all():
        ch, k, n = np.argwhere(~np.isfinite(spec))[0]
        raise ValueError(f"spectrogram has a non-finite value at channel {ch}, bin {k}, frame {n}")
    return frame, steering, None if gains is None else clamp_gain(gains)


def drive_utterance(
    spec: Spectrogram,
    states: list,
    steering: np.ndarray,
    params,
    band,
    gains: np.ndarray | None = None,
    prior_pass: bool = False,
) -> np.ndarray:
    """Advance one state per bin through the utterance, a block of frames at a time.

    ``band`` is the variant's kernel class; its bands adopt the states,
    which end holding their final filters and histories.  ``steering`` is
    the (bins, M) matrix the kernel's ``inputs`` read, and ``gains`` comes
    from :func:`check_inputs`.  Each block of :data:`BLOCK` frames is copied
    once into (frames, bins, M) rows and run by :func:`run_block`.  Returns
    the band outputs, shaped (``band.outputs``, bins, frames).  With
    ``prior_pass`` every bin first runs the utterance once and keeps its
    filter but not its history.
    """
    data = spec.data
    held = bands(states, steering, params, band)
    out = np.empty((band.outputs,) + data.shape[1:], dtype=np.complex128)

    def sweep():
        for n in range(0, data.shape[2], BLOCK):
            block = slice(n, n + BLOCK)
            ys = np.ascontiguousarray(data[:, :, block].transpose(2, 1, 0))
            column = None if gains is None else gains[:, block].T
            run_block(held, band, ys, steering, params, column, out[:, :, block])

    if prior_pass:
        sweep()
        for _, _, b in held:
            b.frames[:] = 0.0
    sweep()
    return out
