"""Convolutional superdirective MVDR: fixed beamformer, adaptive canceller.

The beamforming head is frozen at the superdirective MVDR solution, so the
distortionless constraint never moves and the adaptive part shrinks to the
prediction taps alone.  Dropping the constraint row turns the two-row affine
projection step of :mod:`convbeam.apa` into a scalar-gain update (an NLMS
recursion on the stacked delayed frames), which is why this variant runs
cheaper than the fully adaptive filter.

The scalar state and update (:func:`init_rc_state`, :func:`rc_speech_psd`,
:func:`rc_update`) are the oracle.  The utterance driver runs the same
update on the compiled kernel of :mod:`convbeam.engine`, which matches the
oracle to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .apa import ApaParams, FrameHistory, limited_output, psd_floor
from .engine import RC, Run, check_inputs
from .fixedbf import superdirective_mvdr
from .gains import apply_gain
from .geometry import CoherenceMatrix
from .stft import Spectrogram

__all__ = [
    "RcState",
    "init_rc_state",
    "rc_speech_psd",
    "rc_update",
    "process_utterance_sdmvdr",
]


@dataclass(eq=False)
class RcState(FrameHistory):
    """Reverb-canceller state of one bin: fixed head w_sd, adaptive taps w_rc.

    The stacked regressor is f = ``stack()`` = [y(n-D); ...; y(n-L)], of
    length M*(L-D+1).
    """

    w_sd: np.ndarray
    w_rc: np.ndarray
    history: np.ndarray
    delay: int


def init_rc_state(w_sd: np.ndarray, order: int, delay: int = 1) -> RcState:
    """Zero-initialized canceller behind the given fixed beamformer weights."""
    w_sd = np.asarray(w_sd, dtype=np.complex128)
    if w_sd.ndim != 1:
        raise ValueError(f"w_sd must be 1-d, got shape {w_sd.shape}")
    num_mics = w_sd.shape[0]
    return RcState(
        w_sd=w_sd,
        w_rc=np.zeros(RC.taps(num_mics, order, delay), dtype=np.complex128),
        history=np.zeros((order, num_mics), dtype=np.complex128),
        delay=delay,
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
    if y_now.shape != state.w_sd.shape:
        raise ValueError(f"expected frame of shape {state.w_sd.shape}, got {y_now.shape}")
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


def process_utterance_sdmvdr(
    spec: Spectrogram,
    steering,
    coherence: CoherenceMatrix,
    params: ApaParams,
    gains: np.ndarray | None = None,
    prior_pass: bool = False,
) -> Spectrogram:
    """Run the fixed-beamformer variant over a whole utterance.

    The head of every bin is the superdirective MVDR solution for
    ``coherence`` at its default diagonal loading; the steering, the gain
    mask and ``prior_pass`` behave as in :func:`convbeam.apa.process_utterance`.
    This variant has no beamformer-only case: :meth:`convbeam.engine.Kernel.taps`
    refuses, with ``ValueError``, any order not above the delay, order 0 included.
    """
    _, vectors, gains = check_inputs(steering, gains, spec.num_channels, spec.data.shape[1:], spec)
    orders = params.band_plan.bin_orders(spec.config)
    run = Run(RC, vectors, orders, params.delay, spec.num_frames, prior_pass)
    weights = superdirective_mvdr(vectors, coherence).weights
    out = run(spec.data, weights, gains, params)
    return Spectrogram(out, spec.config)
