"""The batched engine behind both adaptive filters.

A band is a contiguous run of bins that share one order and delay, held as
arrays so that one frame of every bin in it costs a fixed number of numpy
calls.  Each variant has one band kernel (``apa._ApaBand``,
``sdmvdr._RcBand``) that advances its band by one frame; this module holds
what they share: the band's filters and frame history (:class:`Band`), the
grouping of bins into bands, the frame and utterance drivers, and the one
input check.  A band adopts the states gathered into it, so nothing is
written back.

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

__all__ = ["Band", "bands", "check_inputs", "complex_of", "drive_utterance", "floored_psd",
           "limited", "run_frame", "square"]


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


def floored_psd(x: np.ndarray, y: np.ndarray, gains, params) -> np.ndarray:
    """|x|^2, scaled by the gains squared, floored as ``apa.psd_floor``; y is (K, M)."""
    phi = square(_abs(x))
    if gains is not None:
        phi = (gains * gains) * phi
    power = np.sum(np.abs(y) ** 2, axis=1) / y.shape[1]
    return np.maximum(phi, params.eta * power)


def limited(x_b: np.ndarray, x_r: np.ndarray, alpha_r: float) -> np.ndarray:
    """``apa.limited_output`` of every bin."""
    mag_r = _abs(x_r)
    silent = mag_r == 0.0
    any_silent = silent.any()
    if any_silent:
        mag_r = np.where(silent, 1.0, mag_r)
    step = alpha_r * np.minimum(mag_r, _abs(x_b))
    inv = 1.0 / mag_r
    x_hat = complex_of(x_b.real - step * (x_r.real * inv), x_b.imag - step * (x_r.imag * inv))
    if any_silent:
        x_hat[silent] = x_b[silent]
    return x_hat


class Band:
    """A band of K bins of order L: adapted filters ``w`` and frame history.

    ``frames[:, 0]`` holds the current frame y(n), ``frames[:, l]`` y(n-l).  The
    band adopts its states: the attribute named by ``weights`` becomes a view
    of the state's row of ``w``, and ``history`` one of ``frames[:, 1:]``.  A
    kernel subclass sets ``outputs``, the number of arrays ``advance`` returns.
    """

    weights = "w_hat"

    def __init__(self, states: list, steering: np.ndarray, params) -> None:
        first = states[0]
        self.order, self.delay = first.order, first.delay
        self.w = np.stack([getattr(s, self.weights) for s in states])
        self.frames = np.zeros((len(states), first.order + 1, first.num_mics), np.complex128)
        self.frames[:, 1:] = [s.history for s in states]
        for state, w, frames in zip(states, self.w, self.frames):
            setattr(state, self.weights, w)
            state.history = frames[1:]
        self.bind(steering, params)

    def bind(self, steering: np.ndarray, params) -> None:
        """Run the next frames with this steering (K, M) and these params."""
        self.params = params

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


def run_frame(bands: list, frame: np.ndarray, gains, out: np.ndarray) -> None:
    """Advance every band by one (bins, M) frame; the outputs fill ``out`` (outputs, bins)."""
    for lo, hi, band in bands:
        column = None if gains is None else gains[lo:hi]
        out[:, lo:hi] = band.advance(frame[lo:hi], column)


def check_inputs(steering, gains, num_mics: int, gain_shape: tuple, frame=None) -> tuple:
    """(frame, steering, gains) as arrays, checked before any state changes.

    ``frame`` (when given) and ``steering`` must be finite and (bins, M),
    with bins = ``gain_shape[0]`` and M = ``num_mics``; ``gains`` must be of
    ``gain_shape`` and is clamped into [0, 1].  An utterance driver passes its
    Spectrogram as ``frame``; that must be finite.  Anything else raises
    ``ValueError`` naming the argument, and for a non-finite value where it is.
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
    """Advance one state per bin through the utterance, frame by frame.

    ``band`` is the variant's kernel class; its bands adopt the states,
    which end holding their final filters and histories.  ``steering`` and
    ``gains`` come from :func:`check_inputs`.  Returns the band outputs,
    shaped (``band.outputs``, bins, frames).  With ``prior_pass`` every bin
    first runs the utterance once and keeps its filter but not its history.
    """
    data = spec.data
    held = bands(states, steering, params, band)
    out = np.empty((band.outputs,) + data.shape[1:], dtype=np.complex128)

    def sweep():
        for n in range(data.shape[2]):
            frame = np.ascontiguousarray(data[:, :, n].T)
            run_frame(held, frame, None if gains is None else gains[:, n], out[:, :, n])

    if prior_pass:
        sweep()
        for _, _, b in held:
            b.frames[:] = 0.0
    sweep()
    return out
