"""The batched engine behind both adaptive filters.

A band is a contiguous run of bins that share one order and delay; it holds
their filters, frame history and delay as arrays, and adopts their states.
Steering and params reach every frame step as arguments.  A frame step has
two parts.  The bands (:class:`Band`, with the kernels ``apa._ApaBand`` and
``sdmvdr._RcBand``) do only the Q-length work, the products with their
(K, Q) filters and history, the filter corrections and the history push,
writing per-bin results into slices of frame-wide arrays.  The per-bin
scalar algebra (PSD floor, gain or step, masks) runs once per frame over all
bins, in the kernel's ``frame``.  The output stage (the x_r subtraction and
the limiter) runs once per block, in the kernel's ``finish``, and not at all
where no output is kept.

One driver, :func:`drive`, runs every call: an utterance in blocks of
:data:`BLOCK` frames, and a stream (``apa.process_frame``) as an utterance
of one frame, so a stream equals the offline run by construction.  Terms of
the input alone are formed once per block; the prior pass forms no outputs,
and the filter pass reuses the terms it formed.

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

__all__ = ["BLOCK", "Band", "bands", "check_inputs", "complex_of", "drive", "floored_psd",
           "limited", "square"]

# frames per input block of the driver; bounds the block's copy of the input
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

    A band holds these, its delay and a scratch array, and nothing of the
    steering or params, which reach every frame step.  ``frames[:, 0]``
    holds the current frame y(n), ``frames[:, l]`` y(n-l).  The band adopts
    its states: the attribute named by ``weights`` becomes a view of the
    state's row of ``w``, and ``history`` one of ``frames[:, 1:]``.  A
    kernel subclass does the band's Q-length work and sets ``outputs``.  Its
    three static methods are what :func:`drive` calls: ``inputs(ys,
    steering, params)`` gives the kernel's input-only terms of a block, one
    row per frame; ``frame(held, steering, params, y, terms, out)`` runs the
    all-bin scalar step of one frame on that frame's rows and leaves its
    output rows in ``out`` unless that is None; and ``finish(terms, params,
    out)`` turns a block's rows into its outputs.
    """

    weights = "w_hat"

    def __init__(self, states: list) -> None:
        first = states[0]
        self.delay = first.delay
        self.w = np.stack([getattr(s, self.weights) for s in states])
        self.work = np.empty_like(self.w)  # a (K, Q) product, formed in place
        self.frames = np.zeros((len(states), first.order + 1, first.num_mics), np.complex128)
        self.frames[:, 1:] = [s.history for s in states]
        for state, w, frames in zip(states, self.w, self.frames):
            setattr(state, self.weights, w)
            state.history = frames[1:]

    def load(self, y: np.ndarray) -> np.ndarray:
        """Put the current frame in slot 0; returns it as (K, M)."""
        self.frames[:, 0] = y
        return self.frames[:, 0]

    def tail(self) -> np.ndarray:
        """The delayed frames y(n-D)..y(n-L) of every bin, as (K, M*(L-D+1))."""
        return self.frames[:, self.delay :].reshape(len(self.frames), -1)

    def push(self) -> None:
        self.frames[:, 1:] = self.frames[:, :-1]


def bands(states: list, band) -> list:
    """(lo, hi, band(states[lo:hi])) for every run of bins with equal order and delay."""
    keys = [(s.order, s.delay) for s in states]
    edges = [0] + [k for k in range(1, len(keys)) if keys[k] != keys[k - 1]] + [len(keys)]
    return [(lo, hi, band(states[lo:hi])) for lo, hi in zip(edges[:-1], edges[1:])]


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

    The bands' class is the kernel; they end holding the final filters and
    histories.  ``steering`` is the (bins, M) matrix the kernel reads, and
    ``gains`` None or (bins, frames) from :func:`check_inputs`.  Each block
    of :data:`BLOCK` frames is copied once into (frames, bins, M) rows, and
    its terms (the PSD floor eta * ||y||^2 / M, the squared gains and the
    kernel's ``inputs``) are formed once.  With ``prior_pass`` every bin
    first runs the whole input once and keeps its filter but not its
    history; that pass forms no outputs and keeps each block's terms, which
    the filter pass reuses.
    """
    kernel = type(held[0][2])
    out = np.empty((kernel.outputs,) + data.shape[1:], dtype=np.complex128)
    blocks = [slice(n, n + BLOCK) for n in range(0, data.shape[2], BLOCK)]
    kept = []  # each block's terms, from the prior pass
    for sweep in ([None, out] if prior_pass else [out]):
        for k, block in enumerate(blocks):
            ys = np.ascontiguousarray(data[:, :, block].transpose(2, 1, 0))
            rows = None if sweep is None else sweep[:, :, block]
            if rows is not None and kept:
                terms = kept[k]
            else:
                floor = params.eta * (np.sum(np.abs(ys) ** 2, axis=2) / ys.shape[2])
                gains_sq = np.ones(floor.shape) if gains is None else np.square(gains[:, block].T)
                terms = (floor, gains_sq) + kernel.inputs(ys, steering, params)
                if rows is None:
                    kept.append(terms)
            for n, y in enumerate(ys):
                kernel.frame(held, steering, params, y, [t[n] for t in terms],
                             None if rows is None else rows[:, :, n])
            if rows is not None:
                kernel.finish(terms, params, rows)
        if sweep is None:
            for _, _, band in held:
                band.frames[:] = 0.0
    return out
