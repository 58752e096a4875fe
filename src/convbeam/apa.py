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
oracle.  The drivers run the same update on the compiled kernel of
:mod:`convbeam.engine`, which matches the oracle to rounding: the order of
the sums in a dot product differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import APA, Run, check_inputs
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
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0.0 <= self.alpha_r <= 1.0:
            raise ValueError(f"alpha_r must be in [0, 1], got {self.alpha_r}")

    @property
    def delay(self) -> int:
        return self.band_plan.delay


class FrameHistory:
    """The frame history of both filters' scalar states: ``history[l-1]`` holds the input
    frame y(n-l) for l up to L, its length, so ``history`` is (L, M)."""

    def push(self, y_now: np.ndarray) -> None:
        """Advance the frame history by one step (nothing to move at order 0)."""
        self.history[1:] = self.history[:-1]
        self.history[:1] = y_now

    def reset_history(self) -> None:
        self.history[:] = 0.0

    def stack(self) -> np.ndarray:
        """The stacked delayed frames [y(n-D); ...; y(n-L)], empty at order 0."""
        return self.history[self.delay - 1 :].ravel()


@dataclass(eq=False)
class ApaState(FrameHistory):
    """Adaptive filter state of one frequency bin, of order L = ``len(history)``.

    For order 0 the history is empty and the filter reduces to its beamforming
    head.  After a stream's frame, ``w_hat`` and ``history`` are views of the
    filters of the run :func:`process_frame` bound it to: hold the state, not them.
    """

    w_hat: np.ndarray
    history: np.ndarray
    delay: int

    @property
    def num_mics(self) -> int:
        return self.history.shape[-1]

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if "_filters" in self.__dict__:  # a reassigned field: its run holds the states no more
            self._filters.states = ()

    def __getstate__(self) -> dict:  # copies and pickles leave process_frame's filters behind
        return {k: v for k, v in vars(self).items() if k != "_filters"}


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
    num_mics = a.shape[0]
    w_hat = np.zeros(APA.taps(num_mics, order, delay), dtype=np.complex128)
    norm_sq = float(np.sum(np.abs(a) ** 2))
    if norm_sq == 0.0:
        raise ValueError("steering vector has zero norm")
    w_hat[:num_mics] = a / norm_sq
    history = np.zeros((order, num_mics), dtype=np.complex128)
    return ApaState(w_hat, history, delay)


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
    y_tilde = np.concatenate((y_now, state.stack()))  # complex128, as the history is
    a_tilde = np.zeros_like(y_tilde)
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
    Phi_w F^H has the columns Phi_w ytilde and Phi_w atilde, so column j of K
    is Phi_w F^H times the 2x2 solve of :func:`apa_update` on e = (1, 0) or
    (0, 1), its cases and its error included.  This form exists for
    verification; :func:`apa_update` fuses the same algebra without
    materializing K.
    """
    y_tilde = np.asarray(y_tilde, dtype=np.complex128)
    a_tilde = np.asarray(a_tilde, dtype=np.complex128)
    py, s00, s01, s11 = _gain_blocks(y_tilde, a_tilde, num_mics, phi_b, phi_r, phi_x, phi_a)
    pa = np.zeros_like(a_tilde)
    pa[:num_mics] = phi_b * a_tilde[:num_mics]
    gain = np.empty((y_tilde.shape[0], 2), dtype=np.complex128)
    for j, e in enumerate(((1.0, 0.0), (0.0, 1.0))):
        g0, g1 = _solve_two_rows(s00, s01, s11, *e)
        gain[:, j] = py * g0 + pa * g1
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
# drivers
# ---------------------------------------------------------------------------


def _bind(states: list, steering: np.ndarray) -> Run:
    """A new one-frame :class:`~convbeam.engine.Run` on ``steering``, each state's ``_filters``,
    whose rows the state's ``w_hat`` and ``history`` then view.  A state listed twice, or one that
    does not fit its order and M, raises ``ValueError`` naming its bin before any state changes."""
    m, delay = steering.shape[1], states[0].delay
    orders, first = [len(s.history) for s in states], {}
    for k, (s, order) in enumerate(zip(states, orders)):
        try:
            if first.setdefault(s, k) != k:
                raise ValueError(f"its state is bin {first[s]}'s too")
            q = APA.taps(m, order, delay)
            if s.delay != delay or s.w_hat.shape != (q,) or s.history.shape != (order, m):
                raise ValueError(f"at order {order} it needs delay {delay}, {q} taps and "
                                 f"history ({order}, {m}); it has {s.delay}, "
                                 f"{s.w_hat.shape} and {s.history.shape}")
        except ValueError as exc:
            raise ValueError(f"bin {k}: {exc}") from None
    run = Run(APA, steering, orders, delay, 1)
    for s, order, w, history in zip(states, orders, run.w, run.history):
        w[: s.w_hat.size], history[:order] = s.w_hat, s.history
        s.w_hat, s.history, s._filters = w[: s.w_hat.size], history[:order], run
    run.states = tuple(states)  # emptied on a rebind
    return run


def process_frame(
    states: list,
    frame: np.ndarray,
    steering: np.ndarray,
    params: ApaParams,
    gains: np.ndarray | None = None,
) -> np.ndarray:
    """Process one STFT frame (bins, M) through every bin's filter.

    Per bin: stack the observation, estimate and floor the PSD (optionally scaled by an external
    gain), run the affine projection update, emit the limited output from the updated filter, then
    push the frame into the history.  The frame runs on the kernel as an utterance of one frame; a
    singular 2x2 solve raises ``LinAlgError`` naming its bin, and the bins run before it have
    moved.  ``steering`` is the (bins, M) steering matrix and ``gains`` an optional per-bin gain
    column, clamped into [0, 1]; an empty state list, a bad shape, a non-finite frame or steering
    value, a zero-norm steering row, a NaN gain, a state listed at two bins, or one whose delay
    (one for all states) or arrays do not fit its order, ``len(history)``, and M, the steering's
    width, raises before any state changes.  Steering and params are taken from each call.  The
    states are bound once to a one-frame :class:`~convbeam.engine.Run` (again when the list holds
    other states, a state reassigns a field or M changes), which checks the steering when it is
    built and when its bits change.  A stream equals process_utterance bitwise; each call returns a
    new array.
    """
    if not states:
        raise ValueError("states is empty: process_frame needs one state per bin")
    frame, steering, gains = check_inputs(steering, gains, None, (len(states),), frame)
    run = getattr(states[0], "_filters", None)
    if not (run and run.states == tuple(states) and run.steering.shape == steering.shape):
        run = _bind(states, steering)
    gains = None if gains is None else gains[:, None]  # the frame and column as one-frame data
    return run(frame.T[..., None], steering, gains, params)[0, :, 0].copy()


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
    run = Run(APA, vectors, orders, params.delay, spec.num_frames, prior_pass)
    out = run(spec.data, vectors, gains, params)
    result = Spectrogram(out[0], spec.config)
    if return_components:
        return result, {"x_b": out[1], "x_r": out[2]}
    return result
