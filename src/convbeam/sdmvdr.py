"""Convolutional superdirective MVDR: fixed beamformer, adaptive canceller.

The beamforming head is frozen at the superdirective MVDR solution, so the
distortionless constraint never moves and the adaptive part shrinks to the
prediction taps alone.  Dropping the constraint row turns the two-row affine
projection step of :mod:`convbeam.apa` into a scalar-gain update (an NLMS
recursion on the stacked delayed frames), which is why this variant runs
cheaper than the fully adaptive filter.

The scalar state and update (:func:`init_rc_state`, :func:`rc_speech_psd`,
:func:`rc_update`) are the oracle.  ``_RcBand`` runs the same update on a
band of bins as arrays, bit for bit, on the engine of
:mod:`convbeam.engine`, whose bands adopt the states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .apa import ApaParams, limited_output, psd_floor
from .engine import Band, check_inputs, complex_of, drive_utterance, floored_psd, limited
from .fixedbf import superdirective_mvdr
from .gains import apply_gain
from .geometry import CoherenceMatrix, SteeringVector
from .stft import Spectrogram

__all__ = [
    "RcState",
    "init_rc_state",
    "rc_speech_psd",
    "rc_update",
    "process_utterance_sdmvdr",
]


@dataclass
class RcState:
    """Reverb-canceller state of one bin: fixed head w_sd, adaptive taps w_rc.

    ``history[l-1]`` holds y(n-l); the stacked regressor is
    f = [y(n-D); ...; y(n-L)] of length M*(L-D+1).  After a run, ``w_rc``
    and ``history`` are views of a band: hold the state, not them.
    """

    w_sd: np.ndarray
    w_rc: np.ndarray
    history: np.ndarray
    order: int
    delay: int
    num_mics: int

    def stack(self) -> np.ndarray:
        return self.history[self.delay - 1 :].ravel()

    def push(self, y_now: np.ndarray) -> None:
        self.history[1:] = self.history[:-1]
        self.history[0] = y_now

    def reset_history(self) -> None:
        self.history[:] = 0.0


def init_rc_state(w_sd: np.ndarray, order: int, delay: int = 1) -> RcState:
    """Zero-initialized canceller behind the given fixed beamformer weights."""
    w_sd = np.asarray(w_sd, dtype=np.complex128)
    if w_sd.ndim != 1:
        raise ValueError(f"w_sd must be 1-d, got shape {w_sd.shape}")
    if delay < 1:
        raise ValueError(f"delay must be >= 1, got {delay}")
    if order <= delay:
        raise ValueError(f"order must exceed delay ({delay}), got {order}")
    num_mics = w_sd.shape[0]
    taps = num_mics * (order - delay + 1)
    return RcState(
        w_sd=w_sd,
        w_rc=np.zeros(taps, dtype=np.complex128),
        history=np.zeros((order, num_mics), dtype=np.complex128),
        order=order,
        delay=delay,
        num_mics=num_mics,
    )


def rc_speech_psd(
    state: RcState,
    y_now: np.ndarray,
    eta: float,
    mean_over_mics: bool = True,
    gain: float | None = None,
) -> float:
    """Floored PSD estimate |w_sd^H y(n) - w_rc(n-1)^H f(n)|^2.

    The prior-filter prediction is subtracted from the fixed beamformer
    output before squaring; an optional external gain scales the estimate
    (squared) ahead of the floor.
    """
    d = np.vdot(state.w_sd, y_now)
    phi = float(abs(d - np.vdot(state.w_rc, state.stack())) ** 2)
    if gain is not None:
        phi = float(apply_gain(phi, gain))
    return psd_floor(phi, y_now, eta, mean_over_mics)


def rc_update(
    state: RcState,
    y_now: np.ndarray,
    phi_x: float,
    phi_r: float,
    alpha_r: float = 1.0,
) -> complex:
    """One scalar-gain canceller step; returns the limited output.

    With e(n) the innovation between the fixed beamformer output and the
    prior prediction, the taps move along phi_r * f * conj(e) normalized by
    phi_r ||f||^2 + phi_x.  The output subtracts the updated prediction and
    passes through the over-subtraction limiter; the history then advances.
    """
    m = state.num_mics
    if y_now.shape != (m,):
        raise ValueError(f"expected frame of shape ({m},), got {y_now.shape}")
    f = state.stack()
    d = np.vdot(state.w_sd, y_now)
    e = d - np.vdot(state.w_rc, f)
    denom = phi_r * np.vdot(f, f).real + phi_x
    # a zero denominator means a zero regressor with a zero PSD floor, where
    # the gain phi_r * f / denom vanishes in the limit: no update
    if denom > 0.0:
        state.w_rc += (phi_r / denom * np.conj(e)) * f
    x_r = np.vdot(state.w_rc, f)
    x_hat = limited_output(d, x_r, alpha_r)
    state.push(y_now)
    return x_hat


class _RcBand(Band):
    """Canceller update of a band of :class:`RcState`; ``w`` is (K, M*(L-D+1))."""

    weights = "w_rc"
    outputs = 1

    def dots(self, y_in: np.ndarray, rows: np.ndarray) -> None:
        """Load the frame; rows = (w_rc^H f, f^H f)."""
        self.load(y_in)
        self.f = self.tail()
        np.vecdot(self.w, self.f, out=rows[0])
        np.vecdot(self.f, self.f, out=rows[1])

    def correct(self, step: np.ndarray, x_r: np.ndarray) -> None:
        """w_rc += step f; x_r = w_rc^H f, then push."""
        self.w += np.multiply(step[:, None], self.f, out=self.work)
        np.vecdot(self.w, self.f, out=x_r)
        self.push()

    @staticmethod
    def inputs(ys: np.ndarray, w_sd: np.ndarray, params: ApaParams) -> tuple:
        """(d,) = (w_sd^H y,) of every frame and bin; the heads stand in for the steering."""
        return (np.vecdot(w_sd, ys),)

    @staticmethod
    def frame(held, p, y, terms, out) -> None:
        """rc_speech_psd, then rc_update, of every bin; out = (x_hat,)."""
        floor, gains_sq, d = terms
        dots = np.empty((2, len(y)), dtype=np.complex128)
        for lo, hi, band in held:
            band.dots(y[lo:hi], dots[:, lo:hi])
        e = d - dots[0]
        denom = p.phi_r * dots[1].real + floored_psd(e, gains_sq, floor)
        # a zero denominator (zero regressor, zero floor) means no update,
        # which an infinite one gives: phi_r / inf is a zero step
        scale = p.phi_r / np.where(denom > 0.0, denom, np.inf)
        step = complex_of(scale * e.real, scale * -e.imag)
        for lo, hi, band in held:
            band.correct(step[lo:hi], out[0, lo:hi])  # x_r
        out[0] = limited(d, out[0], p.alpha_r)


def process_utterance_sdmvdr(
    spec: Spectrogram,
    steering: SteeringVector,
    coherence: CoherenceMatrix,
    params: ApaParams,
    gains: np.ndarray | None = None,
    prior_pass: bool = False,
) -> Spectrogram:
    """Run the fixed-beamformer variant over a whole utterance.

    The head of every bin is the superdirective MVDR solution for
    ``coherence`` at its default diagonal loading; the steering, the gain
    mask and ``prior_pass`` behave as in :func:`convbeam.apa.process_utterance`.
    The band plan must give every bin a nonzero order since this variant
    has no beamformer-only degenerate case.
    """
    _, vectors, gains = check_inputs(steering, gains, spec.num_channels, spec.data.shape[1:], spec)
    orders = params.band_plan.bin_orders(spec.config)
    if np.any(orders == 0):
        raise ValueError("band plan assigns order 0; this variant needs order > delay")
    weights = superdirective_mvdr(steering, coherence).weights
    states = [init_rc_state(w, int(order), params.delay) for w, order in zip(weights, orders)]
    out = drive_utterance(spec, states, weights, params, _RcBand, gains, prior_pass)
    return Spectrogram(out, spec.config)
