"""Convolutional superdirective MVDR: fixed beamformer, adaptive canceller.

The beamforming head is frozen at the superdirective MVDR solution, so the
distortionless constraint never moves and the adaptive part shrinks to the
prediction taps alone.  Dropping the constraint row turns the two-row affine
projection step of :mod:`convbeam.apa` into a scalar-gain update (an NLMS
recursion on the stacked delayed frames), which is why this variant runs
cheaper than the fully adaptive filter.

Only the per-bin state and the per-frame step live here; the utterance is
driven by :func:`convbeam.apa.drive_utterance`, shared with the fully
adaptive filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .apa import ApaParams, drive_utterance, limited_output, psd_floor
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
    f = [y(n-D); ...; y(n-L)] of length M*(L-D+1).
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
    counter=None,
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
    if counter is not None:
        p = f.shape[0]
        counter.cmac(m)  # fixed beamformer output
        counter.cmac(p)  # prior prediction
        counter.cmac(p)  # ||f||^2
        counter.rmac(1)
        counter.div(1)
        counter.cmac(p + 1)  # tap correction
        counter.cmac(p)  # updated prediction
    x_hat = limited_output(d, x_r, alpha_r)
    state.push(y_now)
    return x_hat


def process_utterance_sdmvdr(
    spec: Spectrogram,
    steering: SteeringVector,
    coherence: CoherenceMatrix,
    params: ApaParams,
    loading: float = 0.01,
    gains: np.ndarray | None = None,
    prior_pass: bool = False,
    num_threads: int = 1,
) -> Spectrogram:
    """Run the fixed-beamformer variant over a whole utterance.

    The head of every bin is the superdirective MVDR solution for
    ``coherence`` and ``loading``; the gain mask, ``prior_pass`` and
    ``num_threads`` behave as in :func:`convbeam.apa.drive_utterance`.  The
    band plan must give every bin a nonzero order since this variant has no
    beamformer-only degenerate case.
    """

    def bind(vectors, orders):
        if np.any(orders == 0):
            raise ValueError("band plan assigns order 0; this variant needs order > delay")
        weights = superdirective_mvdr(steering, coherence, loading).weights

        def init_bin(k):
            return init_rc_state(weights[k], int(orders[k]), params.delay)

        def step(state, y_now, a_k, params, gain):
            phi = rc_speech_psd(state, y_now, params.eta, params.mean_floor, gain)
            return (rc_update(state, y_now, phi, params.phi_r, params.alpha_r),)

        return init_bin, step

    (out,) = drive_utterance(spec, steering, params, bind, gains, prior_pass, num_threads)
    return Spectrogram(out, spec.config)
