"""The batched engine of both adaptive filters against loops of the scalar functions.

``process_utterance``, ``process_frame`` and ``process_utterance_sdmvdr``
advance whole bands of bins per frame with array kernels.  These property
tests draw small scenes (1-4 mics, delay 1 or 2, band plans whose orders
repeat in non-adjacent bands, order 0 for the full filter, gain columns with
zeros, runs of all-zero frames, and a subset of bins silent over a run of
frames) and require the engine to equal a per-bin loop of the public scalar
functions bit for bit.  An all-zero frame after an all-zero history is
where the two-row solve falls back to the constraint row alone
(``s00 == 0``), where the limiter passes x_b through (``|x_r| == 0``) and
where the canceller skips its update (``denom == 0``); silent bins take
those branches in the same frames as live ones.  A stream reuses its bands
between frames; the stream tests also change the states, steering and
params between frames and copy the states mid-stream.
"""

import copy
import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convbeam.apa import (
    ApaParams,
    _ApaBand,
    apa_update,
    init_state,
    limited_output,
    process_frame,
    process_utterance,
    psd_floor,
    speech_psd_estimate,
    stack_observation,
)
from convbeam.engine import drive_utterance
from convbeam.fixedbf import superdirective_mvdr
from convbeam.gains import apply_gain
from convbeam.geometry import CoherenceMatrix, SteeringVector
from convbeam.sdmvdr import init_rc_state, process_utterance_sdmvdr, rc_speech_psd, rc_update
from convbeam.stft import BandPlan, Spectrogram, StftConfig

CONFIG = StftConfig(window_len=32, fft_len=32)  # 17 bins, 500 Hz apart
SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def cases(draw, allow_order_zero: bool):
    delay = draw(st.integers(1, 2))
    choices = ([0] if allow_order_zero else []) + [delay + 1, delay + 2, delay + 4]
    orders = draw(st.lists(st.sampled_from(choices), min_size=1, max_size=4))
    edges = draw(
        st.lists(st.integers(1, CONFIG.num_bins - 1), min_size=len(orders) - 1,
                 max_size=len(orders) - 1, unique=True)
    )
    num_frames = draw(st.integers(1, 16))
    zero_start = draw(st.integers(0, num_frames))
    quiet_start = draw(st.integers(0, num_frames))
    return {
        "num_mics": draw(st.integers(1, 4)),
        "plan": BandPlan(tuple(500.0 * e for e in sorted(edges)), tuple(orders), delay),
        "num_frames": num_frames,
        "zeros": (zero_start, draw(st.integers(zero_start, num_frames))),
        "quiet_bins": draw(st.lists(st.integers(0, CONFIG.num_bins - 1), unique=True)),
        "quiet": (quiet_start, draw(st.integers(quiet_start, num_frames))),
        "gains": draw(st.sampled_from(["none", "mixed", "zero"])),
        "alpha_r": draw(st.sampled_from([0.0, 0.5, 1.0])),
        "prior_pass": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


# Bins on both sides of both band edges (bins 4 and 10) fall silent for
# frames 1-12 while the others carry on: from frame 4 (frame 7 at order 6)
# those bins take the constraint-row-only solve, the limiter's |x_r| == 0
# branch and the canceller's denom == 0 branch in the same frames as live bins.
PARTLY_SILENT = {
    "num_mics": 3, "plan": BandPlan((2000.0, 5000.0), (3, 6, 3), 1), "num_frames": 16,
    "zeros": (0, 0), "quiet_bins": [2, 3, 4, 5, 9, 10, 11], "quiet": (1, 13),
    "gains": "mixed", "alpha_r": 0.5, "prior_pass": True, "seed": 5,
}


def _scene(case):
    """Spectrogram, steering and gain mask (or None) of one drawn case."""
    rng = np.random.default_rng(case["seed"])
    m, k, n = case["num_mics"], CONFIG.num_bins, case["num_frames"]
    data = rng.standard_normal((m, k, n)) + 1j * rng.standard_normal((m, k, n))
    data[:, :, slice(*case["zeros"])] = 0.0
    data[:, case["quiet_bins"], slice(*case["quiet"])] = 0.0
    a = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (k, m)))
    gains = None
    if case["gains"] != "none":
        gains = rng.uniform(0.0, 1.0, (k, n))
        gains[rng.random((k, n)) < 0.3] = 0.0
        gains[:, rng.integers(n)] = 0.0
        if case["gains"] == "zero":
            gains[:] = 0.0
    return Spectrogram(data, CONFIG), a, gains


def _params(case):
    return ApaParams(alpha_r=case["alpha_r"], band_plan=case["plan"])


def _apa_step(state, y_now, a, params, gain):
    obs = stack_observation(state, y_now, a)
    phi_x = speech_psd_estimate(state, obs)
    if gain is not None:
        phi_x = float(apply_gain(phi_x, gain))
    phi_x = psd_floor(phi_x, y_now, params.eta, params.mean_floor)
    apa_update(state, obs, phi_x, params)
    m = state.num_mics
    x_b = np.vdot(state.w_hat[:m], y_now)
    x_r = x_b - np.vdot(state.w_hat, obs.y_tilde)
    state.push(y_now)
    return limited_output(x_b, x_r, params.alpha_r), x_b, x_r


def _rc_step(state, y_now, params, gain):
    phi_x = rc_speech_psd(state, y_now, params.eta, params.mean_floor, gain)
    return rc_update(state, y_now, phi_x, params.phi_r, params.alpha_r)


def _oracle(spec, states, gains, prior_pass, step):
    """Run ``step(state, y_now, k, gain)`` bin by bin; returns (outputs, bins, frames)."""
    rows = []
    for k, state in enumerate(states):
        inputs = [
            (spec.data[:, k, n].copy(), None if gains is None else gains[k, n])
            for n in range(spec.num_frames)
        ]
        if prior_pass:
            for y_now, gain in inputs:
                step(state, y_now, k, gain)
            state.reset_history()
        rows.append([np.atleast_1d(step(state, y_now, k, gain)) for y_now, gain in inputs])
    return np.moveaxis(np.array(rows, dtype=np.complex128), 2, 0)


@SETTINGS
@given(case=cases(allow_order_zero=True))
@example(case=PARTLY_SILENT)
@example(
    case={
        "num_mics": 2, "plan": BandPlan((2000.0, 5000.0), (3, 6, 3), 1), "num_frames": 12,
        "zeros": (0, 4), "quiet_bins": [], "quiet": (0, 0), "gains": "mixed", "alpha_r": 1.0,
        "prior_pass": True, "seed": 1,
    }
)
def test_apa_engine_matches_scalar_loop(case):
    spec, a, gains = _scene(case)
    params = _params(case)
    orders = params.band_plan.bin_orders(CONFIG)
    got, extras = process_utterance(
        spec, a, params, gains=gains, prior_pass=case["prior_pass"], return_components=True
    )
    states = [init_state(a[k], int(orders[k]), params.delay) for k in range(CONFIG.num_bins)]
    want = _oracle(
        spec, states, gains, case["prior_pass"],
        lambda state, y_now, k, gain: _apa_step(state, y_now, a[k], params, gain),
    )
    np.testing.assert_array_equal(got.data[0], want[0])
    np.testing.assert_array_equal(extras["x_b"], want[1])
    np.testing.assert_array_equal(extras["x_r"], want[2])


@SETTINGS
@given(case=cases(allow_order_zero=True))
@example(case=PARTLY_SILENT)
def test_apa_stream_matches_scalar_loop(case):
    """A process_frame stream on one list of states: outputs, final filters
    and histories all equal the scalar loop."""
    spec, a, gains = _scene(case)
    params = _params(case)
    orders = params.band_plan.bin_orders(CONFIG)

    def fresh():
        return [init_state(a[k], int(orders[k]), params.delay) for k in range(CONFIG.num_bins)]

    streamed = fresh()
    got = np.stack(
        [
            process_frame(
                streamed, spec.data[:, :, n].T, a, params,
                None if gains is None else gains[:, n],
            )
            for n in range(spec.num_frames)
        ],
        axis=1,
    )
    looped = fresh()
    want = _oracle(
        spec, looped, gains, False,
        lambda state, y_now, k, gain: _apa_step(state, y_now, a[k], params, gain),
    )
    np.testing.assert_array_equal(got, want[0])
    for s, t in zip(streamed, looped):
        np.testing.assert_array_equal(s.w_hat, t.w_hat)
        np.testing.assert_array_equal(s.history, t.history)


def test_stream_keeps_its_bands():
    """States left as the last call left them run on the same bands, with
    no regrouping; a state given a new ``w_hat`` regroups them."""
    spec, a, _ = _scene(PARTLY_SILENT)
    params = _params(PARTLY_SILENT)
    orders = params.band_plan.bin_orders(CONFIG)
    states = [init_state(a[k], int(orders[k]), params.delay) for k in range(CONFIG.num_bins)]
    process_frame(states, spec.data[:, :, 0].T, a, params)
    held = states[0]._band
    for n in range(1, 4):
        process_frame(list(states), spec.data[:, :, n].T, a, params)
    assert all(s._band is held for s in states)
    states[3].w_hat = states[3].w_hat.copy()
    process_frame(states, spec.data[:, :, 4].T, a, params)
    assert states[0]._band is not held


CHANGES = (
    "none", "new_list", "fresh_state", "copy_w_hat", "copy_history",
    "reset_history", "steering", "alpha_r",
)


@SETTINGS
@given(case=cases(allow_order_zero=True), data=st.data())
def test_apa_stream_survives_caller_changes(case, data):
    """Between frames the caller may pass a new list of the same states,
    swap in a fresh state, reassign a state's ``w_hat`` or ``history`` to a
    copy, reset a history, switch the steering or change ``alpha_r``.  The
    stream reuses its bands only while that stays exact: outputs, final
    filters and histories equal the scalar loop given the same changes."""
    spec, first, gains = _scene(case)
    params = _params(case)
    orders = params.band_plan.bin_orders(CONFIG)
    second = np.exp(1j * np.random.default_rng(case["seed"] + 1).uniform(0.0, 6.0, first.shape))
    changes = data.draw(
        st.lists(
            st.tuples(st.sampled_from(CHANGES), st.integers(0, CONFIG.num_bins - 1),
                      st.sampled_from([0.0, 0.5, 1.0])),
            min_size=spec.num_frames, max_size=spec.num_frames,
        )
    )

    def fresh(k):
        return init_state(a[k], int(orders[k]), params.delay)

    a = first
    streamed = [fresh(k) for k in range(CONFIG.num_bins)]
    looped = [fresh(k) for k in range(CONFIG.num_bins)]
    got, want = [], []
    for n, (change, k, alpha_r) in enumerate(changes):
        if change == "new_list":
            streamed = list(streamed)
        elif change == "fresh_state":
            streamed[k], looped[k] = fresh(k), fresh(k)
        elif change == "copy_w_hat":
            streamed[k].w_hat = streamed[k].w_hat.copy()
        elif change == "copy_history":
            streamed[k].history = streamed[k].history.copy()
        elif change == "reset_history":
            streamed[k].reset_history()
            looped[k].reset_history()
        elif change == "steering":
            a = second if a is first else first
        elif change == "alpha_r":
            params = dataclasses.replace(params, alpha_r=alpha_r)
        column = None if gains is None else gains[:, n]
        y = spec.data[:, :, n].T
        got.append(process_frame(streamed, y, a, params, column))
        want.append([
            _apa_step(s, y[k].copy(), a[k], params, None if column is None else column[k])[0]
            for k, s in enumerate(looped)
        ])
    np.testing.assert_array_equal(np.array(got), np.array(want))
    for s, t in zip(streamed, looped):
        np.testing.assert_array_equal(s.w_hat, t.w_hat)
        np.testing.assert_array_equal(s.history, t.history)


def test_stream_continues_an_utterance_run_and_its_copies():
    """States that ``drive_utterance`` ran (with the prior pass) stream on
    through ``process_frame`` from where the run left them; a deep copy
    taken mid-stream owns its arrays and streams on by itself."""
    case = {
        "num_mics": 2, "plan": BandPlan((2000.0, 5000.0), (3, 0, 4), 1), "num_frames": 12,
        "zeros": (3, 5), "quiet_bins": [], "quiet": (0, 0), "gains": "mixed", "alpha_r": 1.0,
        "prior_pass": True, "seed": 3,
    }
    spec, a, gains = _scene(case)
    params = _params(case)
    orders = params.band_plan.bin_orders(CONFIG)

    def fresh():
        return [init_state(a[k], int(orders[k]), params.delay) for k in range(CONFIG.num_bins)]

    def step(state, y_now, k, gain):
        return _apa_step(state, y_now, a[k], params, gain)

    def stream(states, frames):
        return [process_frame(states, spec.data[:, :, n].T, a, params, gains[:, n]) for n in frames]

    streamed, looped = fresh(), fresh()
    out = drive_utterance(spec, streamed, a, params, _ApaBand, gains, prior_pass=True)
    want = _oracle(spec, looped, gains, True, step)
    np.testing.assert_array_equal(out, want)

    half = spec.num_frames // 2
    got = stream(streamed, range(half))
    copied = copy.deepcopy(streamed)
    got += stream(streamed, range(half, spec.num_frames))
    got_copy = stream(copied, range(half, spec.num_frames))
    rows = _oracle(spec, looped, gains, False, step)[0]
    np.testing.assert_array_equal(np.array(got).T, rows)
    np.testing.assert_array_equal(np.array(got_copy).T, rows[:, half:])
    for s, c, t in zip(streamed, copied, looped):
        for state in (s, c):
            np.testing.assert_array_equal(state.w_hat, t.w_hat)
            np.testing.assert_array_equal(state.history, t.history)


@SETTINGS
@given(case=cases(allow_order_zero=False))
@example(case=PARTLY_SILENT)
@example(
    case={
        "num_mics": 3, "plan": BandPlan((2000.0, 5000.0), (3, 6, 3), 2), "num_frames": 12,
        "zeros": (0, 5), "quiet_bins": [], "quiet": (0, 0), "gains": "mixed", "alpha_r": 1.0,
        "prior_pass": True, "seed": 2,
    }
)
def test_sdmvdr_engine_matches_scalar_loop(case):
    spec, a, gains = _scene(case)
    params = _params(case)
    m = case["num_mics"]
    rng = np.random.default_rng(case["seed"] + 1)
    # any symmetric positive semi-definite coherence will do
    b = rng.standard_normal((CONFIG.num_bins, m, m))
    coherence = CoherenceMatrix(b @ b.transpose(0, 2, 1) / m)
    steering = SteeringVector(a, 0)
    got = process_utterance_sdmvdr(
        spec, steering, coherence, params, gains=gains, prior_pass=case["prior_pass"]
    ).data[0]
    heads = superdirective_mvdr(steering, coherence, 0.01).weights
    orders = params.band_plan.bin_orders(CONFIG)
    states = [init_rc_state(heads[k], int(orders[k]), params.delay) for k in range(CONFIG.num_bins)]
    want = _oracle(
        spec, states, gains, case["prior_pass"],
        lambda state, y_now, k, gain: _rc_step(state, y_now, params, gain),
    )
    np.testing.assert_array_equal(got, want[0])
