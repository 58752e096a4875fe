"""Convolutional MPDR beamforming by a per-bin affine projection update.

Each frequency bin carries one stacked filter

    w = [w_b; -c_D; ...; -c_L]            (length Q = M*(L - D + 2))

whose head beamforms the current frame and whose tail predicts the
late-reverberation component at the beamformer output from L-D+1 delayed
frames.  The filter is applied Hermitian, x_hat = w^H ytilde, with

    ytilde = [y(n); y(n-D); ...; y(n-L)].

A Kalman recursion with fixed diagonal state covariance (phi_b on the head,
phi_r on the tail) and fixed observation covariance diag(phi_x, phi_a)
collapses to a two-row affine projection step: one row pushes the output
power toward zero, the other holds a^H w at one.  Only a 2x2 system is
inverted per update, so the cost per bin and frame stays linear in Q.

Filter updates, PSD flooring, and the over-subtraction limiter all follow
the frame order documented in :func:`process_frame`.

The scalar functions (:func:`init_state`, :func:`stack_observation`,
:func:`apa_update`, ...) transcribe the update for one bin and are the
oracle.  ``_ApaBand`` runs the same update bit for bit on the engine of
:mod:`convbeam.engine`: its bands do the products with their (K, Q)
filters, and its ``frame`` the 2x2 solves of all bins at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_

import numpy as np

from .engine import (
    Band, bands, check_inputs, complex_of, drive_utterance, floored_psd, limited, run_block, square,
)
from .stft import BandPlan, Spectrogram

__all__ = [
    "ApaParams",
    "ApaState",
    "Observation",
    "init_state",
    "stack_observation",
    "speech_psd_estimate",
    "psd_floor",
    "kalman_gain",
    "apa_update",
    "limited_output",
    "process_frame",
    "process_utterance",
]


# ---------------------------------------------------------------------------
# parameters and state
# ---------------------------------------------------------------------------


@dataclass
class ApaParams:
    """Tuning knobs for the adaptive update.

    Variances are linear powers relative to a unit-power full-scale signal;
    the command line takes them in dB and converts.  Defaults assume input
    normalized to -20 dBFS reference-mic RMS.
    """

    phi_b: float = 10.0 ** (-37.0 / 10.0)
    phi_r: float = 10.0 ** (-40.0 / 10.0)
    phi_a: float = 10.0 ** (-120.0 / 10.0)
    eta: float = 10.0 ** (-25.0 / 10.0)
    alpha_r: float = 1.0
    band_plan: BandPlan = field(default_factory=BandPlan)
    # the PSD floor is eta * ||y||^2 / M; perfbench's oracle reads this flag
    mean_floor = True

    def __post_init__(self) -> None:
        for name in ("phi_b", "phi_r", "phi_a", "eta"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if not 0.0 <= self.alpha_r <= 1.0:
            raise ValueError(f"alpha_r must be in [0, 1], got {self.alpha_r}")

    @property
    def delay(self) -> int:
        return self.band_plan.delay


@dataclass
class ApaState:
    """Adaptive filter state of one frequency bin.

    ``history[l-1]`` holds the input frame y(n-l); for order 0 the history is
    empty and the filter reduces to its beamforming head.  After a run or a
    frame, ``w_hat`` and ``history`` are views of a band: hold the state, not them.
    """

    w_hat: np.ndarray
    history: np.ndarray
    order: int
    delay: int
    num_mics: int

    @property
    def stacked_len(self) -> int:
        """Q = M*(L - D + 2), or M when the order is zero."""
        return self.w_hat.shape[0]

    def push(self, y_now: np.ndarray) -> None:
        """Advance the frame history by one step."""
        if self.order > 0:
            self.history[1:] = self.history[:-1]
            self.history[0] = y_now

    def reset_history(self) -> None:
        self.history[:] = 0.0

    def __getstate__(self) -> dict:  # copies and pickles leave process_frame's bands behind
        return {k: v for k, v in vars(self).items() if k != "_band"}


@dataclass
class Observation:
    """One frame of stacked input plus the zero-padded steering vector."""

    y_tilde: np.ndarray
    a_tilde: np.ndarray


def init_state(a: np.ndarray, order: int, delay: int = 1) -> ApaState:
    """Fresh state for one bin: beamforming head a/||a||^2, zero tail.

    That head satisfies the constraint a^H w = 1 exactly, so adaptation
    starts from a plain delay-and-sum beamformer with no prediction.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 1 or a.shape[0] < 1:
        raise ValueError(f"steering vector must be 1-d and non-empty, got shape {a.shape}")
    if delay < 1:
        raise ValueError(f"delay must be >= 1, got {delay}")
    if order != 0 and order <= delay:
        raise ValueError(f"order must be 0 or > delay ({delay}), got {order}")
    norm_sq = float(np.sum(np.abs(a) ** 2))
    if norm_sq == 0.0:
        raise ValueError("steering vector has zero norm")
    num_mics = a.shape[0]
    blocks = 0 if order == 0 else order - delay + 1
    w_hat = np.zeros(num_mics * (blocks + 1), dtype=np.complex128)
    w_hat[:num_mics] = a / norm_sq
    history = np.zeros((order, num_mics), dtype=np.complex128)
    return ApaState(w_hat, history, order, delay, num_mics)


# ---------------------------------------------------------------------------
# per-frame operations
# ---------------------------------------------------------------------------


def stack_observation(state: ApaState, y_now: np.ndarray, a: np.ndarray) -> Observation:
    """Stack the current frame with the delayed frames y(n-D)..y(n-L)."""
    m = state.num_mics
    if y_now.shape != (m,):
        raise ValueError(f"expected frame of shape ({m},), got {y_now.shape}")
    if a.shape != (m,):
        raise ValueError(f"expected steering of shape ({m},), got {a.shape}")
    q = state.stacked_len
    y_tilde = np.empty(q, dtype=np.complex128)
    y_tilde[:m] = y_now
    if state.order > 0:
        y_tilde[m:] = state.history[state.delay - 1 :].ravel()
    a_tilde = np.zeros(q, dtype=np.complex128)
    a_tilde[:m] = a
    return Observation(y_tilde, a_tilde)


def speech_psd_estimate(state: ApaState, obs: Observation) -> float:
    """Instantaneous PSD estimate |w(n-1)^H ytilde(n)|^2 from the prior filter."""
    return float(abs(np.vdot(state.w_hat, obs.y_tilde)) ** 2)


def psd_floor(phi_x: float, y_now: np.ndarray, eta: float, mean_over_mics: bool = True) -> float:
    """Lower-bound the PSD estimate by a fraction of the input frame power.

    The floor keeps the update gain bounded when the prior filter output
    momentarily vanishes.
    """
    power = float(np.sum(np.abs(y_now) ** 2))
    if mean_over_mics:
        power /= y_now.shape[0]
    return max(phi_x, eta * power)


def _gain_blocks(y_tilde, a_tilde, num_mics, phi_b, phi_r, phi_x, phi_a):
    """Shared pieces of the gain computation.

    Returns (py, s00, s01, s11) where py = Phi_w ytilde (element-wise) and
    [[s00, s01], [conj(s01), s11]] is the 2x2 innovation covariance.
    """
    m = num_mics
    py = np.empty_like(y_tilde)
    np.multiply(y_tilde[:m], phi_b, out=py[:m])
    if y_tilde.shape[0] > m:
        np.multiply(y_tilde[m:], phi_r, out=py[m:])
    s00 = np.vdot(y_tilde, py).real + phi_x
    s01 = phi_b * np.vdot(y_tilde[:m], a_tilde[:m])
    s11 = phi_b * np.vdot(a_tilde[:m], a_tilde[:m]).real + phi_a
    return py, s00, s01, s11


def _solve_two_rows(s00, s01, s11, e0, e1):
    """Cofactor solve of the 2x2 innovation system.

    A silent frame together with a zero PSD floor zeroes the observation row
    completely (s00 = 0 with e0 = 0); the constraint row then acts alone.  A
    genuinely singular system only arises when every variance is zero.
    """
    det = s00 * s11 - (s01.real**2 + s01.imag**2)
    if det > 0.0:
        g0 = (s11 * e0 - s01 * e1) / det
        g1 = (s00 * e1 - np.conj(s01) * e0) / det
        return g0, g1
    if s00 == 0.0 and s11 > 0.0:
        return 0.0j, e1 / s11
    raise np.linalg.LinAlgError("singular 2x2 innovation covariance; all variances are zero")


def kalman_gain(
    y_tilde: np.ndarray,
    a_tilde: np.ndarray,
    num_mics: int,
    phi_b: float,
    phi_r: float,
    phi_x: float,
    phi_a: float,
) -> np.ndarray:
    """Explicit (Q, 2) gain K = Phi_w F^H (F Phi_w F^H + Phi_eps)^-1.

    F stacks the observation row ytilde^H and the constraint row atilde^H.
    This form exists for verification; :func:`apa_update` fuses the same
    algebra without materializing K.
    """
    y_tilde = np.asarray(y_tilde, dtype=np.complex128)
    a_tilde = np.asarray(a_tilde, dtype=np.complex128)
    py, s00, s01, s11 = _gain_blocks(y_tilde, a_tilde, num_mics, phi_b, phi_r, phi_x, phi_a)
    pa = np.zeros_like(a_tilde)
    pa[:num_mics] = phi_b * a_tilde[:num_mics]
    det = s00 * s11 - (s01.real**2 + s01.imag**2)
    gain = np.empty((y_tilde.shape[0], 2), dtype=np.complex128)
    if det > 0.0:
        gain[:, 0] = (py * s11 - pa * np.conj(s01)) / det
        gain[:, 1] = (pa * s00 - py * s01) / det
    elif s00 == 0.0 and s11 > 0.0:
        gain[:, 0] = 0.0
        gain[:, 1] = pa / s11
    else:
        raise np.linalg.LinAlgError(
            "singular 2x2 innovation covariance; all variances are zero"
        )
    return gain


def apa_update(
    state: ApaState,
    obs: Observation,
    phi_x: float,
    params: ApaParams,
) -> ApaState:
    """One two-row affine projection step; mutates and returns the state.

    The innovation pairs the (conjugated) prior filter output against target
    0 with variance phi_x, and the constraint residual 1 - a^H w against
    target variance phi_a.  The correction never forms a QxQ matrix.
    """
    w = state.w_hat
    y_tilde, a_tilde = obs.y_tilde, obs.a_tilde
    m = state.num_mics
    py, s00, s01, s11 = _gain_blocks(
        y_tilde, a_tilde, m, params.phi_b, params.phi_r, phi_x, params.phi_a
    )
    e0 = -np.vdot(y_tilde, w)
    e1 = 1.0 - np.vdot(a_tilde[:m], w[:m])
    g0, g1 = _solve_two_rows(s00, s01, s11, e0, e1)
    w += py * g0
    w[:m] += (params.phi_b * g1) * a_tilde[:m]
    return state


def limited_output(x_b: complex, x_r: complex, alpha_r: float) -> complex:
    """Subtract the reverberation estimate, capped at the beamformer magnitude.

    The cap keeps a momentarily overestimated x_r from more than cancelling
    the beamformer branch; alpha_r = 0 disables subtraction entirely.
    """
    mag_r = abs(x_r)
    if mag_r == 0.0:
        return x_b
    step = alpha_r * min(mag_r, abs(x_b))
    return x_b - step * (x_r / mag_r)


# ---------------------------------------------------------------------------
# band kernel and drivers
# ---------------------------------------------------------------------------


class _ApaBand(Band):
    """Two-row update of a band of :class:`ApaState`; ``w`` is (K, Q)."""

    outputs = 3

    def bind(self, steering: np.ndarray, params: ApaParams) -> None:
        self.a = steering
        self.phi_w = np.full(self.w.shape[1], params.phi_r, dtype=np.complex128)
        self.phi_w[: steering.shape[1]] = params.phi_b

    def dots(self, y_in: np.ndarray, rows: np.ndarray) -> None:
        """Load the frame; rows = (w^H ytilde, ytilde^H Phi_w ytilde, a^H w_head)."""
        y = self.load(y_in)
        if self.delay == 1:
            self.y_tilde = self.frames.reshape(len(y), -1)
        else:
            self.y_tilde = np.concatenate((y, self.tail()), axis=1)
        py = np.multiply(self.y_tilde, self.phi_w, out=self.work)
        np.vecdot(self.w, self.y_tilde, out=rows[0])
        np.vecdot(self.y_tilde, py, out=rows[1])
        np.vecdot(self.a, self.w[:, : y.shape[1]], out=rows[2])

    def correct(self, g0: np.ndarray, g1: np.ndarray, rows: np.ndarray) -> None:
        """w += Phi_w ytilde g0 + a g1 (g1 scaled by phi_b); rows = (w_head^H y, w^H ytilde)."""
        w, m = self.w, self.a.shape[1]
        w += np.multiply(self.work, g0[:, None], out=self.work)
        w[:, :m] += g1[:, None] * self.a
        np.vecdot(w[:, :m], self.frames[:, 0], out=rows[0])
        np.vecdot(w, self.y_tilde, out=rows[1])
        self.push()

    @staticmethod
    def inputs(ys: np.ndarray, steering: np.ndarray, params: ApaParams) -> tuple:
        """(s01, |s01|^2, s11) of every frame and bin."""
        s01 = params.phi_b * np.vecdot(ys, steering)
        s11 = params.phi_b * np.vecdot(steering, steering).real + params.phi_a
        return s01, square(s01.real) + square(s01.imag), np.broadcast_to(s11, s01.shape)

    @staticmethod
    def frame(held, p, y, terms, out) -> None:
        """apa_update of every bin; out = (x_hat, x_b, x_r), each (bins,)."""
        floor, gains_sq, s01, s01_sq, s11 = terms
        dots = np.empty((3, len(y)), dtype=np.complex128)
        for lo, hi, band in held:
            band.dots(y[lo:hi], dots[:, lo:hi])
        s00 = dots[1].real + floored_psd(dots[0], gains_sq, floor)
        e1 = 1.0 - dots[2]
        s01r, s01i, e1r, e1i = s01.real, s01.imag, e1.real, e1.imag
        e0r, e0i = -dots[0].real, dots[0].imag  # e0 = -ytilde^H w = -conj(w^H ytilde)
        det = s00 * s11 - s01_sq
        solved = det > 0.0
        all_solved = solved.all()
        if not all_solved:
            alone = ~solved & (s00 == 0.0) & (s11 > 0.0)
            if not (solved | alone).all():
                raise np.linalg.LinAlgError(
                    "singular 2x2 innovation covariance; all variances are zero"
                )
            det = np.where(solved, det, 1.0)
        # g0 = (s11 e0 - s01 e1) / det, g1 = (s00 e1 - conj(s01) e0) / det
        inv = 1.0 / det
        g0 = complex_of(
            (s11 * e0r - (s01r * e1r - s01i * e1i)) * inv,
            (s11 * e0i - (s01r * e1i + s01i * e1r)) * inv,
        )
        g1 = complex_of(
            (s00 * e1r - (s01r * e0r + s01i * e0i)) * inv,
            (s00 * e1i - (s01r * e0i - s01i * e0r)) * inv,
        )
        if not all_solved:
            # constraint row alone: g0 = 0, g1 = e1 / s11
            inv11 = 1.0 / s11[alone]
            g0[alone] = 0.0
            g1[alone] = complex_of(e1r[alone] * inv11, e1i[alone] * inv11)
        g1 = p.phi_b * g1
        for lo, hi, band in held:
            band.correct(g0[lo:hi], g1[lo:hi], out[1:, lo:hi])
        np.subtract(out[1], out[2], out=out[2])  # x_r = x_b - w^H ytilde
        out[0] = limited(out[1], out[2], p.alpha_r)


def process_frame(
    states: list,
    frame: np.ndarray,
    steering: np.ndarray,
    params: ApaParams,
    gains: np.ndarray | None = None,
) -> np.ndarray:
    """Process one STFT frame (bins, M) through every bin's filter.

    Per bin: stack the observation, estimate and floor the PSD (optionally
    scaled by an external gain), run the affine projection update, emit the
    limited output from the updated filter, then push the frame into the
    history.  The frame runs on the engine as a block of one, so every
    bin's 2x2 solve, singular check included, runs before any filter moves.
    ``steering`` is the (bins, M) steering matrix and ``gains`` an optional
    per-bin gain column, clamped into [0, 1]; a bad shape, a non-finite
    frame or steering value, a zero-norm steering row or a NaN gain raises
    before any state changes.  The last call's bands, bound to this steering
    and params, are reused while ``states`` are the same objects in the same
    order, each holding the ``w_hat`` and ``history`` views its band gave
    it; else new bands adopt them.  A stream equals process_utterance bitwise.
    """
    frame, steering, gains = check_inputs(
        steering, gains, states[0].num_mics, (len(states),), frame
    )
    def views():
        return [x for s in states for x in (s, s.w_hat, s.history)]

    held = getattr(states[0], "_band", None)  # (bands, the views they gave)
    if held and len(held[1]) == 3 * len(states) and all(map(is_, views(), held[1])):
        for lo, hi, band in held[0]:
            band.bind(steering[lo:hi], params)
    else:
        made = bands(states, steering, params, _ApaBand)
        held = (made, views())
        for state in states:
            state._band = held
    out = np.empty((_ApaBand.outputs, len(states), 1), dtype=np.complex128)
    column = None if gains is None else gains[None]
    run_block(held[0], _ApaBand, frame[None], steering, params, column, out)
    return out[0, :, 0]


def process_utterance(
    spec: Spectrogram,
    steering,
    params: ApaParams,
    gains: np.ndarray | None = None,
    prior_pass: bool = False,
    return_components: bool = False,
):
    """Run the adaptive beamformer over a whole utterance.

    ``steering`` (bins, M) and the optional (bins, frames) ``gains`` are
    checked as in :func:`process_frame`; with ``prior_pass`` every bin first
    runs the utterance once and keeps its filter but not its history.  With
    ``return_components`` the beamformer branch and the reverberation
    estimate come back too, as ``(output, {"x_b": ..., "x_r": ...})``.
    """
    _, vectors, gains = check_inputs(steering, gains, spec.num_channels, spec.data.shape[1:], spec)
    orders = params.band_plan.bin_orders(spec.config)
    states = [init_state(a, int(order), params.delay) for a, order in zip(vectors, orders)]
    out = drive_utterance(spec, states, vectors, params, _ApaBand, gains, prior_pass)
    result = Spectrogram(out[0], spec.config)
    if return_components:
        return result, {"x_b": out[1], "x_r": out[2]}
    return result
