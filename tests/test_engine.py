"""The engine of both adaptive filters against loops of the scalar functions.

``process_utterance``, ``process_frame`` and ``process_utterance_sdmvdr``
run every bin on the compiled kernel: an utterance one call on each span of
bins (each bin runs both passes of a prior pass in it), a frame one call.
These property tests draw small scenes (1-4 mics, with examples at 6 and 8,
delay 1 or 2, band plans whose orders repeat in non-adjacent bands, order 0
for the full filter, gain columns with zeros, runs of all-zero frames, and a
subset of bins silent over a run of frames) and require the engine to equal
a per-bin loop of the public scalar functions to ``conftest.REL_TOL`` of the
largest reference value (the kernel sums its dot products in another order),
with x_r measured against the scale of x_b and the histories, which copy the
input, equal bit for bit.  An all-zero frame after an all-zero history is
where the two-row solve falls back to the constraint row alone
(``s00 == 0``), where the limiter passes x_b through (``|x_r| == 0``) and
where the canceller skips its update (``denom == 0``); silent bins take
those branches in the same frames as live ones.  One driver runs every call,
so a run split in two must equal one run bit for bit.  A stream reuses its
filters and buffers between frames; the stream tests also change the states,
steering, params and gains between frames, rebind a state's fields and copy
the states mid-stream, and check that an output stays as it was returned;
they count the steering checks (the first frame's, and one after each change
of bits) and the streams built (one per order of the same states), and
states compare and hash by identity.  A canceller's run is built on the heads
it is called with, so its call checks no steering.
The last tests cover a new run's filters against the scalar states, a prior
pass against a run whose outputs are dropped and whose histories are then
zeroed, a run that outlives the caller's references to its steering and
orders, the kernel's library cache and its argument types and the arrays a
run passes it, the same bits from builds of every vector width, its build
failures, a singular solve, the orders a run copies, the caller's arrays
of any dtype, layout, alignment or writability it reads as their values,
and the arrays and orders an ``engine.Run`` refuses.  The last cover the split of an
utterance's bins into spans run in threads at once, which must give the
bits of one span whatever the CPU count, name the lowest failing bin in
either pass and refuse a bad order before any thread starts, and a
one-frame run and a stream, which run as one span on the calling thread
whatever the count.
Last, a run reads data and gains of any layout or dtype as their
contiguous complex128 and float64 values, bit for bit, and an utterance
allocates less than its spectrogram's size: the kernel reads it in place.
"""

import _thread
import copy
import ctypes
import dataclasses
import gc
import itertools
import os
import platform
import re
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_close
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convbeam import apa, engine, sdmvdr
from convbeam.apa import (
    ApaParams,
    ApaState,
    apa_update,
    init_state,
    limited_output,
    process_frame,
    process_utterance,
    psd_floor,
    speech_psd_estimate,
    stack_observation,
)
from convbeam.engine import APA, RC, Run, load_kernel
from convbeam.fixedbf import superdirective_mvdr
from convbeam.gains import apply_gain
from convbeam.geometry import CoherenceMatrix, SteeringVector
from convbeam.sdmvdr import init_rc_state, process_utterance_sdmvdr, rc_speech_psd, rc_update
from convbeam.stft import BandPlan, Spectrogram, StftConfig

CONFIG = StftConfig(window_len=32)  # 17 bins, 500 Hz apart
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
# 6 mics: the kernel's sums over the head and the tails run steps of 4
# complex entries and a remainder; 8 mics: whole steps only
@example(
    case={
        "num_mics": 6, "plan": BandPlan((2000.0, 5000.0), (0, 3, 6), 1), "num_frames": 10,
        "zeros": (0, 2), "quiet_bins": [3, 4, 5], "quiet": (3, 7), "gains": "mixed",
        "alpha_r": 0.5, "prior_pass": True, "seed": 6,
    }
)
@example(
    case={
        "num_mics": 8, "plan": BandPlan((3000.0,), (4, 0), 2), "num_frames": 10, "zeros": (8, 10),
        "quiet_bins": [], "quiet": (0, 0), "gains": "none", "alpha_r": 1.0, "prior_pass": True,
        "seed": 8,
    }
)
# one mic and a band of one bin at order 0: a (1, 1) filter update
@example(
    case={
        "num_mics": 1, "plan": BandPlan((500.0, 1000.0, 8000.0), (0, 0, 2, 0), 1),
        "num_frames": 12, "zeros": (0, 0), "quiet_bins": [], "quiet": (0, 0), "gains": "mixed",
        "alpha_r": 0.0, "prior_pass": False, "seed": 0,
    }
)
def test_apa_engine_matches_scalar_loop(case):
    spec, a, gains = _scene(case)
    params = _params(case)
    orders = params.band_plan.bin_orders(CONFIG)
    got = process_utterance(spec, a, params, gains=gains, prior_pass=case["prior_pass"])
    run = Run(APA, a, orders, params.delay, spec.num_frames, case["prior_pass"])
    out = run(spec.data, a, gains, params)  # the driver's run, with x_b and x_r in rows 1 and 2
    assert np.array_equal(got.data[0], out[0])
    states = [init_state(a[k], int(orders[k]), params.delay) for k in range(CONFIG.num_bins)]
    want = _oracle(
        spec, states, gains, case["prior_pass"],
        lambda state, y_now, k, gain: _apa_step(state, y_now, a[k], params, gain),
    )
    assert_close(got.data[0], want[0])
    assert_close(out[1], want[1])
    assert_close(out[2], want[2], scale=want[1])


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
    assert_close(got, want[0])
    for s, t in zip(streamed, looped):
        assert_close(s.w_hat, t.w_hat)
        np.testing.assert_array_equal(s.history, t.history)


def test_stream_keeps_its_filters():
    """States left as the last call left them run on the same filters, with
    no restacking; a state given a new ``w_hat`` restacks them."""
    spec, a, _ = _scene(PARTLY_SILENT)
    params = _params(PARTLY_SILENT)
    orders = params.band_plan.bin_orders(CONFIG)
    states = [init_state(a[k], int(orders[k]), params.delay) for k in range(CONFIG.num_bins)]
    process_frame(states, spec.data[:, :, 0].T, a, params)
    held = states[0]._filters
    for n in range(1, 4):
        process_frame(list(states), spec.data[:, :, n].T, a, params)
    assert all(s._filters is held for s in states)
    states[3].w_hat = states[3].w_hat.copy()
    process_frame(states, spec.data[:, :, 4].T, a, params)
    assert states[0]._filters is not held


def _stream_states(num_bins=4):
    return [init_state(np.exp(0.3j * np.arange(2) * k), 3) for k in range(num_bins)]


@pytest.mark.parametrize("make", [
    lambda: init_state(np.ones(1), 0), lambda: init_state(np.exp(0.3j * np.arange(2)), 3),
    lambda: init_rc_state(np.ones(1), 2), lambda: init_rc_state(np.ones(3), 3, 2),
], ids=["apa-order0-1mic", "apa-order3-2mics", "rc-order2-1mic", "rc-order3-3mics"])
def test_a_state_equals_itself_alone_and_hashes(make):
    """A state is equal only to itself and can key a dict or sit in a set,
    also a single-mic state at order 0, whose history is empty: comparing
    its arrays would raise on their truth value."""
    state = make()
    twin = copy.deepcopy(state)
    assert state == state and state != twin
    assert len({state, state, twin}) == 2 and {state: 0}[state] == 0


def test_a_stream_checks_its_steering_when_its_bits_change(monkeypatch):
    """A stream checks its steering's values once on its first frame, when
    its run is built (the fresh filters' heads do not check it again), and
    afterwards only in a run's call on a frame whose steering differs in bits
    from the last one's: not for the same array or a bitwise-equal copy, but
    after a valid edit in place by one ulp, whose frame then runs, bit for
    bit, as in a stream restacked every frame.  Only such a frame copies the
    steering into the run's buffer and takes its bytes anew."""
    frames = np.random.default_rng(3).standard_normal((5, 4, 2)) + 0j
    a = np.exp(0.3j * np.arange(2) * np.arange(4)[:, None])
    states, restacked, callers = _stream_states(), _stream_states(), []

    def counting(vectors, reference_mic):
        callers.append(sys._getframe(1).f_code.co_qualname)
        return SteeringVector(vectors, reference_mic)
    monkeypatch.setattr(engine, "SteeringVector", counting)
    for n, want in enumerate([["Run.__init__"], [], [], ["Run.__call__"], []]):
        steering = a.copy() if n == 2 else a
        if n == 3:
            before = a.copy()
            a[2, 1] = np.nextafter(a[2, 1].real, 2.0) + 1j * a[2, 1].imag
            assert np.count_nonzero(a != before) == 1
        del callers[:]
        held = getattr(states[0], "_filters", None)
        bits = held and held.bits
        got = process_frame(states, frames[n], steering, ApaParams())
        assert callers == want, n
        assert (states[0]._filters.bits is bits) == (n in (1, 2, 4)), n
        assert states[0]._filters.bits == a.tobytes()
        for s in restacked:
            vars(s).pop("_filters", None)
        assert got.tobytes() == process_frame(restacked, frames[n], steering, ApaParams()).tobytes()
        for s, r in zip(states, restacked):
            assert s.w_hat.tobytes() == r.w_hat.tobytes()
            assert s.history.tobytes() == r.history.tobytes()


def test_a_canceller_run_is_built_on_its_heads(monkeypatch):
    """process_utterance_sdmvdr checks its steering once, builds its run on the
    heads that superdirective_mvdr returned and calls it with those heads: the
    run checks them when it is built, and its call, on the same bits, checks no
    steering.  The output is the bits of the unrecorded driver's."""
    rng = np.random.default_rng(5)
    spec = Spectrogram(rng.standard_normal((2, CONFIG.num_bins, 6)) + 0j, CONFIG)
    a = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (CONFIG.num_bins, 2)))
    b = rng.standard_normal((CONFIG.num_bins, 2, 2))
    coherence, params = CoherenceMatrix(b @ b.transpose(0, 2, 1) / 2), ApaParams()
    want = process_utterance_sdmvdr(spec, a, coherence, params).data.tobytes()
    callers, heads, built, called = [], [], [], []

    def counting(vectors, reference_mic):
        callers.append(sys._getframe(1).f_code.co_qualname)
        return SteeringVector(vectors, reference_mic)

    def forming(*args, **kwargs):
        weights = superdirective_mvdr(*args, **kwargs)
        heads.append(weights.weights)
        return weights

    class Recorded(Run):
        def __init__(self, kernel, steering, *args):
            built.append((kernel, steering))
            super().__init__(kernel, steering, *args)

        def __call__(self, data, steering, gains, params):
            called.append(steering)
            return super().__call__(data, steering, gains, params)

    monkeypatch.setattr(engine, "SteeringVector", counting)
    monkeypatch.setattr(sdmvdr, "SteeringVector", counting, raising=False)
    monkeypatch.setattr(sdmvdr, "superdirective_mvdr", forming)
    monkeypatch.setattr(sdmvdr, "Run", Recorded)
    got = process_utterance_sdmvdr(spec, a, coherence, params)
    assert callers == ["process_utterance_sdmvdr", "Run.__init__"]
    assert len(heads) == 1 and len(built) == 1 and len(called) == 1
    assert built[0][0] is RC and built[0][1] is heads[0] and called[0] is heads[0]
    assert got.data.tobytes() == want


def test_a_stream_is_built_once_for_its_states(monkeypatch):
    """One run, bound to the states once, serves a list, a new list of the same
    states and a tuple of them; a reordered list, or a list with one state
    replaced, binds another."""
    frames = np.random.default_rng(4).standard_normal((8, 4, 2)) + 0j
    states, built = _stream_states(), []
    bind = apa._bind
    monkeypatch.setattr(apa, "_bind", lambda *args: built.append(args) or bind(*args))
    for n, (pick, builds) in enumerate([
        (lambda: states, 1), (lambda: states, 0), (lambda: list(states), 0),
        (lambda: tuple(states), 0), (lambda: states[::-1], 1), (lambda: states, 1),
        (lambda: states, 0), (lambda: states, 1),
    ]):
        if n == 7:
            states[2] = _stream_states()[2]
        del built[:]
        process_frame(pick(), frames[n], np.ones((4, 2)), ApaParams())
        assert len(built) == builds, n


@pytest.mark.parametrize("field, value, message", [
    ("delay", 2, "at order 3 it needs delay 1, 8 taps and history \\(3, 2\\); "
                 "it has 2, \\(8,\\) and \\(3, 2\\)"),
    ("w_hat", np.zeros(6, complex), "at order 3 it needs delay 1, 8 taps and history "
                                    "\\(3, 2\\); it has 1, \\(6,\\) and \\(3, 2\\)"),
    ("history", np.zeros((2, 2), complex), "at order 2 it needs delay 1, 6 taps and history "
                                           "\\(2, 2\\); it has 1, \\(8,\\) and \\(2, 2\\)"),
])
def test_a_field_rebound_mid_stream_is_checked_again(field, value, message):
    """A held stream notices a state field reassigned between frames: a
    value that does not fit is refused naming its bin, before any state
    changes, and with the old value back the stream runs on as one that
    was never touched."""
    frames = np.random.default_rng(1).standard_normal((3, 4, 2)) + 0j
    states, untouched = _stream_states(), _stream_states()
    for n in range(2):
        process_frame(states, frames[n], np.ones((4, 2)), ApaParams())
        process_frame(untouched, frames[n], np.ones((4, 2)), ApaParams())
    before, kept = copy.deepcopy(states), getattr(states[1], field)
    setattr(states[1], field, value)
    with pytest.raises(ValueError, match=f"^bin 1: {message}$"):
        process_frame(states, frames[2], np.ones((4, 2)), ApaParams())
    setattr(states[1], field, kept)
    for state, old in zip(states, before):
        np.testing.assert_array_equal(state.w_hat, old.w_hat)
        np.testing.assert_array_equal(state.history, old.history)
    got = process_frame(states, frames[2], np.ones((4, 2)), ApaParams())
    np.testing.assert_array_equal(got, process_frame(untouched, frames[2], np.ones((4, 2)),
                                                     ApaParams()))
    for state, other in zip(states, untouched):
        np.testing.assert_array_equal(state.w_hat, other.w_hat)
        np.testing.assert_array_equal(state.history, other.history)


@pytest.mark.parametrize("m", [1, 3])
def test_a_held_stream_refuses_another_width(m):
    """A held stream given a frame and steering one channel narrower or
    wider than its states refuses them naming bin 0, before any state
    changes, and with the old width back runs on as one never refused."""
    frames = np.random.default_rng(2).standard_normal((3, 4, 2)) + 0j
    states, untouched = _stream_states(), _stream_states()
    for n in range(2):
        process_frame(states, frames[n], np.ones((4, 2)), ApaParams())
        process_frame(untouched, frames[n], np.ones((4, 2)), ApaParams())
    before = copy.deepcopy(states)
    with pytest.raises(ValueError, match=f"^bin 0: .* history \\(3, {m}\\); it has 1, "
                                         "\\(8,\\) and \\(3, 2\\)$"):
        process_frame(states, np.ones((4, m)), np.ones((4, m)), ApaParams())
    for state, old in zip(states, before):
        np.testing.assert_array_equal(state.w_hat, old.w_hat)
        np.testing.assert_array_equal(state.history, old.history)
    got = process_frame(states, frames[2], np.ones((4, 2)), ApaParams())
    np.testing.assert_array_equal(got, process_frame(untouched, frames[2], np.ones((4, 2)),
                                                     ApaParams()))


def test_a_state_has_no_order_or_width_but_its_history():
    """A state's order and M are its history's length and width: it stores
    neither, and setting ``num_mics`` raises and leaves a held stream held."""
    states = _stream_states()
    process_frame(states, np.ones((4, 2)), np.ones((4, 2)), ApaParams())
    held = states[1]._filters
    assert [f.name for f in dataclasses.fields(ApaState)] == ["w_hat", "history", "delay"]
    assert states[1].num_mics == states[1].history.shape[1] == 2
    assert init_state(np.ones(3), 0).num_mics == 3
    with pytest.raises(AttributeError):
        states[1].num_mics = 3
    assert held.states and states[1].num_mics == 2


def test_a_singular_solve_later_in_a_stream_names_its_bin_only():
    """A stream names the bin of a singular solve and no frame: each call
    runs one frame, whatever the stream's position.  Frame 3 switches to
    phi_b = 1e300 with bins 0-2 (order 0) silent, so those take the
    constraint row alone and bin 3 is the first singular one; the bins
    after it have not moved."""
    case = {**PARTLY_SILENT, "plan": BandPlan((2000.0,), (0, 3), 1), "quiet_bins": [0, 1, 2],
            "quiet": (3, 4)}
    spec, a, _ = _scene(case)
    params = _params(case)
    orders = params.band_plan.bin_orders(CONFIG)
    assert not orders[:4].any()
    states = [init_state(a[k], int(orders[k]), params.delay) for k in range(CONFIG.num_bins)]
    for n in range(3):
        process_frame(states, spec.data[:, :, n].T, a, params)
    before = copy.deepcopy(states)
    singular = dataclasses.replace(params, phi_b=1e300, phi_a=1e-300)
    with pytest.raises(np.linalg.LinAlgError, match="^singular 2x2 innovation covariance at bin 3$"):
        process_frame(states, spec.data[:, :, 3].T, a, singular)
    for state, old in zip(states[4:], before[4:]):
        np.testing.assert_array_equal(state.w_hat, old.w_hat)
        np.testing.assert_array_equal(state.history, old.history)


def test_an_output_is_not_overwritten_by_later_frames():
    """Each call returns a new array: the outputs of earlier frames keep
    their values while the stream runs on, and after it restacks."""
    spec, a, gains = _scene(PARTLY_SILENT)
    params = _params(PARTLY_SILENT)
    orders = params.band_plan.bin_orders(CONFIG)
    states = [init_state(a[k], int(orders[k]), params.delay) for k in range(CONFIG.num_bins)]
    got = []
    for n in range(spec.num_frames):
        if n == spec.num_frames // 2:
            states[3].w_hat = states[3].w_hat.copy()
        got.append(process_frame(states, spec.data[:, :, n].T, a, params, gains[:, n]))
        if n == 0:
            first = got[0].copy()
        np.testing.assert_array_equal(got[0], first)
    kept = [x.copy() for x in got]
    process_frame(states, spec.data[:, :, 0].T, a, params)
    for x, y in zip(got, kept):
        np.testing.assert_array_equal(x, y)


CHANGES = (
    "none", "new_list", "fresh_state", "copy_w_hat", "copy_history",
    "reset_history", "steering", "alpha_r", "variances", "gains_off",
)


@SETTINGS
@given(case=cases(allow_order_zero=True), data=st.data())
def test_apa_stream_survives_caller_changes(case, data):
    """Between frames the caller may pass a new list of the same states,
    swap in a fresh state, reassign a state's ``w_hat`` or ``history`` to a
    copy, reset a history, switch the steering, change ``alpha_r``, give
    ``phi_b``, ``phi_r``, ``phi_a`` and ``eta`` new values or switch between
    the gain column and none.  The stream
    reuses its filters only while that stays exact: outputs, final filters
    and histories equal, bit for bit, a stream restacked every frame given
    the same changes, and match the scalar loop to ``REL_TOL``.

    The last match is asserted only for streams that keep the default
    variances.  The PSD floor keeps phi_x >= eta * ||y||^2 / M, so the
    condition of the 2x2 solve grows with phi_b / eta, which variances drawn
    from -120 to -10 dB take up to 1e11; two roundings of the same recursion
    then part by up to 1e-6 of the largest value (5,000 random draws), and
    no fixed bound both holds there and means anything.  The bitwise check
    is what catches a stream that keeps stale params."""
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
    streamed, rebuilt, looped = ([fresh(k) for k in range(CONFIG.num_bins)] for _ in range(3))
    got, again, want = [], [], []
    varied = gains_off = False
    for n, (change, k, alpha_r) in enumerate(changes):
        if change == "new_list":
            streamed = list(streamed)
        elif change == "fresh_state":
            streamed[k], rebuilt[k], looped[k] = fresh(k), fresh(k), fresh(k)
        elif change == "copy_w_hat":
            streamed[k].w_hat = streamed[k].w_hat.copy()
        elif change == "copy_history":
            streamed[k].history = streamed[k].history.copy()
        elif change == "reset_history":
            for states in (streamed, rebuilt, looped):
                states[k].reset_history()
        elif change == "steering":
            a = second if a is first else first
        elif change == "alpha_r":
            params = dataclasses.replace(params, alpha_r=alpha_r)
        elif change == "variances":
            db = data.draw(st.lists(st.integers(-120, -10), min_size=4, max_size=4))
            names = ("phi_b", "phi_r", "phi_a", "eta")
            params = dataclasses.replace(params, **{x: 10.0 ** (d / 10.0) for x, d in zip(names, db)})
            varied = True
        elif change == "gains_off":
            gains_off = not gains_off
        column = None if gains is None or gains_off else gains[:, n]
        y = spec.data[:, :, n].T
        got.append(process_frame(streamed, y, a, params, column))
        for s in rebuilt:  # drop the stacked filters, so this frame stacks them anew
            vars(s).pop("_filters", None)
        again.append(process_frame(rebuilt, y, a, params, column))
        want.append([
            _apa_step(s, y[k].copy(), a[k], params, None if column is None else column[k])[0]
            for k, s in enumerate(looped)
        ])
    np.testing.assert_array_equal(got, again)
    for s, r, t in zip(streamed, rebuilt, looped):
        np.testing.assert_array_equal(s.w_hat, r.w_hat)
        np.testing.assert_array_equal(s.history, r.history)
        np.testing.assert_array_equal(s.history, t.history)
        if not varied:
            assert_close(s.w_hat, t.w_hat)
    if not varied:
        assert_close(np.array(got), np.array(want))


def test_stream_continues_an_utterance_run_and_its_copies():
    """States holding the rows of the filters of a run (with the prior pass)
    stream on through ``process_frame`` from where the run left them;
    a deep copy taken mid-stream owns its arrays and streams on by itself."""
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

    run, looped = Run(APA, a, orders, params.delay, spec.num_frames, prior=True), fresh()
    out = run(spec.data, a, gains, params)
    want = _oracle(spec, looped, gains, True, step)
    m = case["num_mics"]
    streamed = [
        ApaState(w[: APA.taps(m, int(o), params.delay)], history[:o], params.delay)
        for o, w, history in zip(orders, run.w, run.history)
    ]
    for got_row, want_row, scale in zip(out, want, (want[0], want[1], want[1])):
        assert_close(got_row, want_row, scale)

    half = spec.num_frames // 2
    got = stream(streamed, range(half))
    copied = copy.deepcopy(streamed)
    got += stream(streamed, range(half, spec.num_frames))
    got_copy = stream(copied, range(half, spec.num_frames))
    rows = _oracle(spec, looped, gains, False, step)[0]
    assert_close(np.array(got).T, rows)
    assert_close(np.array(got_copy).T, rows[:, half:])
    for s, c, t in zip(streamed, copied, looped):
        for state in (s, c):
            assert_close(state.w_hat, t.w_hat)
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
# 6 and 8 mics, as in the APA test
@example(
    case={
        "num_mics": 6, "plan": BandPlan((2000.0, 5000.0), (2, 5, 2), 1), "num_frames": 10,
        "zeros": (0, 2), "quiet_bins": [3, 4, 5], "quiet": (3, 7), "gains": "mixed",
        "alpha_r": 0.5, "prior_pass": True, "seed": 6,
    }
)
@example(
    case={
        "num_mics": 8, "plan": BandPlan((3000.0,), (4, 6), 2), "num_frames": 10, "zeros": (8, 10),
        "quiet_bins": [], "quiet": (0, 0), "gains": "none", "alpha_r": 1.0, "prior_pass": True,
        "seed": 8,
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
    assert_close(got, want[0])


@SETTINGS
@given(data=st.data())
def test_a_run_split_in_two_equals_one_run(data):
    """A run over frames [0, k) and then one over [k, N) on the same bands, given
    copies of the first run's filters and histories, equal one run over
    [0, N) bit for bit, for both kernels: outputs, final filters and
    histories.  A stream is this split taken at every frame."""
    kernel = data.draw(st.sampled_from([APA, RC]))
    case = data.draw(cases(allow_order_zero=kernel is APA))
    spec, a, gains = _scene(case)
    params = _params(case)
    split = data.draw(st.integers(0, spec.num_frames))
    orders = params.band_plan.bin_orders(CONFIG)
    whole = Run(kernel, a, orders, params.delay, spec.num_frames)  # a stands in for the heads
    want = whole(spec.data, a, gains, params)
    got, last = [], None
    for part in (slice(0, split), slice(split, None)):
        chunk = spec.data[:, :, part]
        run = Run(kernel, a, orders, params.delay, chunk.shape[2])
        if last is not None:
            run.w[:], run.history[:] = last.w, last.history
        got.append(run(chunk, a, None if gains is None else gains[:, part], params))
        last = run
    np.testing.assert_array_equal(np.concatenate(got, axis=2), want)
    np.testing.assert_array_equal(last.w, whole.w)
    np.testing.assert_array_equal(last.history, whole.history)


@SETTINGS
@given(data=st.data())
def test_drive_leaves_each_bin_its_scalar_state_history(data):
    """After a run, with or without the prior pass, ``history[k, :L_k]``
    is, bit for bit, the ``history`` of bin k's scalar state run through the
    same frames, for both kernels (the canceller has no stream to pin it),
    and the slots past L_k stay zero."""
    kernel = data.draw(st.sampled_from([APA, RC]))
    case = data.draw(cases(allow_order_zero=kernel is APA))
    spec, a, gains = _scene(case)
    params = _params(case)
    orders = params.band_plan.bin_orders(CONFIG)
    run = Run(kernel, a, orders, params.delay, spec.num_frames, case["prior_pass"])
    run(spec.data, a, gains, params)  # a stands in for the heads
    if kernel is APA:
        states = [init_state(a[k], int(o), params.delay) for k, o in enumerate(orders)]
        _oracle(spec, states, gains, case["prior_pass"],
                lambda state, y_now, k, gain: _apa_step(state, y_now, a[k], params, gain))
    else:
        states = [init_rc_state(a[k], int(o), params.delay) for k, o in enumerate(orders)]
        _oracle(spec, states, gains, case["prior_pass"],
                lambda state, y_now, k, gain: _rc_step(state, y_now, params, gain))
    for order, row, state in zip(orders, run.history, states):
        np.testing.assert_array_equal(row[:order], state.history)
        assert not row[order:].any()


@pytest.mark.parametrize("num_mics", [1, 3, 6, 8])
@pytest.mark.parametrize("plan", [BandPlan((2000.0, 4000.0, 6000.0), (3, 0, 6, 0), 1),
                                  BandPlan((2000.0, 5000.0), (4, 6, 4), 2)])
def test_fresh_filters_equal_the_scalar_states(num_mics, plan):
    """A new run gives every bin the bits of ``init_state`` (or,
    with no head, ``init_rc_state``) in its row, and zeros past its taps
    and in every history slot, on plans with order 0 and with one order in
    bands that do not touch."""
    rng = np.random.default_rng(num_mics)
    a = rng.standard_normal((CONFIG.num_bins, num_mics)) * rng.uniform(0.1, 10.0, (1, num_mics))
    a = a + 1j * rng.standard_normal(a.shape)
    orders = plan.bin_orders(CONFIG)
    for kernel, init, name in ((APA, init_state, "w_hat"), (RC, init_rc_state, "w_rc")):
        if kernel is RC:
            orders = np.where(orders == 0, plan.delay + 1, orders)
        run = Run(kernel, a, orders, plan.delay, 1)
        assert run.history.shape == (CONFIG.num_bins, orders.max(), num_mics)
        assert not run.history.any() and run.delay == plan.delay
        np.testing.assert_array_equal(run.orders, orders)
        for k, row in enumerate(run.w):
            w = getattr(init(a[k], int(orders[k]), plan.delay), name)
            np.testing.assert_array_equal(row[: w.size], w)
            assert not row[w.size :].any()


def test_the_utterance_drivers_make_no_states(monkeypatch):
    """Neither utterance driver builds a per-bin state: both run with the
    state constructors replaced by ones that raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("an utterance driver built a per-bin state")

    for module, name in ((apa, "init_state"), (apa, "ApaState"), (sdmvdr, "init_rc_state"),
                         (sdmvdr, "RcState")):
        monkeypatch.setattr(module, name, refuse)
    spec, a, gains = _scene(PARTLY_SILENT)
    params = _params(PARTLY_SILENT)
    got = process_utterance(spec, a, params, gains=gains, prior_pass=True)
    coherence = CoherenceMatrix(np.broadcast_to(np.eye(3), (CONFIG.num_bins, 3, 3)))
    canceled = process_utterance_sdmvdr(spec, SteeringVector(a, 0), coherence, params, gains,
                                        prior_pass=True)
    assert np.isfinite(got.data).all() and np.isfinite(canceled.data).all()


class CountingLibrary:
    """The kernel library, recording the name and ``head`` argument of every call."""

    def __init__(self, library):
        self.library, self.calls = library, []

    def __getattr__(self, name):
        def call(*args):
            self.calls.append((name, args[9].value))  # run's tenth argument is head
            return getattr(self.library, name)(*args)
        return call


@settings(max_examples=20, deadline=None)
@given(case=cases(allow_order_zero=True))
@example(case=PARTLY_SILENT)
def test_a_run_calls_the_kernel_once_per_span(case):
    """Whatever the band plan, an utterance makes one kernel call on each of
    its spans, here at most 3, with the prior pass on or off, for either
    filter (the canceller on plans without order 0), and a frame one; each
    call passes its filter's ``head``."""
    spec, a, gains = _scene(case)
    params = _params(case)
    m = case["num_mics"]
    coherence = CoherenceMatrix(np.broadcast_to(np.eye(m), (CONFIG.num_bins, m, m)))
    orders = params.band_plan.bin_orders(CONFIG)
    states = [init_state(a[k], int(orders[k]), params.delay) for k in range(CONFIG.num_bins)]

    def calls(kernel):
        run = engine.Run(kernel, a, orders, params.delay, spec.num_frames)
        return [("run", kernel.head)] * len(run.spans)

    with pytest.MonkeyPatch.context() as patch:
        counting = CountingLibrary(engine.LIBRARY)
        patch.setattr(engine, "LIBRARY", counting)
        patch.setattr(os, "sched_getaffinity", lambda pid: range(3))
        process_utterance(spec, a, params, gains=gains, prior_pass=case["prior_pass"])
        assert counting.calls == calls(APA)
        if orders.all():
            del counting.calls[:]
            process_utterance_sdmvdr(spec, SteeringVector(a, 0), coherence, params, gains,
                                     prior_pass=case["prior_pass"])
            assert counting.calls == calls(RC)
        del counting.calls[:]
        process_frame(states, spec.data[:, :, 0].T, a, params)
        assert counting.calls == [("run", APA.head)]


@pytest.mark.parametrize("num_frames", [0, 1, 5])
@pytest.mark.parametrize("kernel", [APA, RC])
def test_the_prior_pass_is_a_dropped_run_then_a_reset(kernel, num_frames):
    """A run with the prior pass, given filters that already hold taps and
    history, equals bit for bit (outputs, filters, histories) a run without
    it whose outputs are dropped, then histories set to zero, then a second
    run: at 0 frames, too, the history ends zeroed."""
    spec, a, gains = _scene(PARTLY_SILENT)
    params = ApaParams(band_plan=SPLIT_PLAN if kernel is APA else BandPlan((2000.0,), (3, 6), 1))
    orders = params.band_plan.bin_orders(CONFIG)
    held = Run(kernel, a, orders, params.delay, spec.num_frames - 5)  # a stands in for the heads
    held(spec.data[:, :, 5:], a, gains[:, 5:], params)
    assert held.history.any()
    once, twice = (Run(kernel, a, orders, params.delay, num_frames, prior) for prior in (1, 0))
    for run in (once, twice):
        run.w[:], run.history[:] = held.w, held.history
    data, part = spec.data[:, :, :num_frames], gains[:, :num_frames]
    got = once(data, a, part, params)
    twice(data, a, part, params)
    twice.history[:] = 0.0
    want = twice(data, a, part, params)
    assert got.tobytes() == want.tobytes()
    assert once.w.tobytes() == twice.w.tobytes()
    assert once.history.tobytes() == twice.history.tobytes()


def test_a_run_holds_every_array_it_points_to():
    """A run's pointers address only arrays it holds: with the caller's steering and
    orders dropped and garbage collected, and memory of their sizes taken and filled
    with NaN, it gives the outputs, filters and histories of a run whose caller kept them."""
    spec, a, gains = _scene(PARTLY_SILENT)
    params = _params(PARTLY_SILENT)
    orders = params.band_plan.bin_orders(CONFIG)
    kept = Run(APA, a, orders, params.delay, spec.num_frames, prior=True)
    want = kept(spec.data, a, gains, params)
    steering, given = a.copy(), orders.astype(ctypes.c_long)
    refs = [weakref.ref(array) for array in (steering, given)]
    run = Run(APA, steering, given, params.delay, spec.num_frames, prior=True)
    del steering, given
    gc.collect()
    # NaN-filled memory of the arrays' sizes, which would reuse the space of a freed one
    noise = [np.full(array.shape, np.nan, array.dtype) for array in (a, orders.astype(float)) * 4]
    assert all(ref() is None for ref in refs) and len(noise) == 8
    assert run(spec.data, a, gains, params).tobytes() == want.tobytes()
    assert run.w.tobytes() == kept.w.tobytes()
    assert run.history.tobytes() == kept.history.tobytes()


def test_the_kernel_signatures_match_the_loader():
    """The one entry point of ``_kernel.c`` takes, in order, the ten ``long``
    scalars that ``load_kernel`` declares, the five ``double`` params named
    as ``engine.PARAMS`` reads them, in its order, and then seven pointers:
    the orders, gains, filters, histories, data, steering and outputs, which
    a run passes in that order, as the addresses of its own arrays and of the
    data and gains: a drift between them would corrupt memory instead of
    raising."""
    source = engine.SOURCE.read_text()
    ((name, params),) = re.findall(r"^CLONES long (\w+)\(([^)]*)\)", source, re.M)
    assert name == "run"
    declared = [re.sub(r"\bconst\b|\w+$", "", p).split() for p in params.split(",")]
    argtypes = engine.LIBRARY.run.argtypes
    assert argtypes == [ctypes.c_long] * 10 + [ctypes.c_double] * 5 + [ctypes.c_void_p] * 7
    pointers = ["long *", "double *"] + ["double complex *"] * 5
    assert [" ".join(d) for d in declared] == ["long"] * 10 + ["double"] * 5 + pointers

    class Names:
        def __getattr__(self, name):
            return name
    doubles = [p.split()[-1] for p in params.split(",")[10:15]]
    assert doubles == list(engine.PARAMS(Names())) == ["phi_b", "phi_r", "phi_a", "eta", "alpha_r"]

    spec, a, gains = _scene(PARTLY_SILENT)
    values, calls = _params(PARTLY_SILENT), []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "LIBRARY", type("Recording", (), {
            "run": staticmethod(lambda *args: calls.append(args) or 0)}))
        run = Run(APA, a, values.band_plan.bin_orders(CONFIG), values.delay, 1)
        data, column = (np.ascontiguousarray(x[..., :1]) for x in (spec.data, gains))
        run(data, a, column, values)
    addresses = [x.ctypes.data for x in (run.orders, column, run.w, run.history, data,
                                         run.steering, run.out)]
    ((*_, o, g, w, h, d, s, out),) = calls  # the run's own arrays as prebuilt c_void_p
    assert [o.value, g, w.value, h.value, d, s.value, out.value] == addresses


@pytest.mark.skipif(not shutil.which("cc"), reason="builds the kernel with cc")
def test_the_kernel_builds_without_warnings(tmp_path):
    """``_kernel.c`` builds at ``CFLAGS`` as C11 with every warning of ``-Wall
    -Wextra -Wpedantic`` an error, so an unused parameter fails here."""
    cmd = ["cc", *engine.CFLAGS, "-Wall", "-Wextra", "-Wpedantic", "-std=c11", "-Werror",
           str(engine.SOURCE), "-o", str(tmp_path / "kernel.so"), "-lm"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_kernel_library_is_cached_by_source(tmp_path, monkeypatch):
    """A second load reuses the library the first one built; a changed
    source is built afresh under a new name."""
    source, cache = tmp_path / "_kernel.c", tmp_path / "cache"
    source.write_bytes(engine.SOURCE.read_bytes())
    load_kernel(source, cache)
    built = sorted(cache.iterdir())
    assert len(built) == 1 and built[0].name.startswith("_kernel-") and built[0].suffix == ".so"

    def no_build(*args, **kwargs):
        raise AssertionError("a cached kernel was built again")

    monkeypatch.setattr(subprocess, "run", no_build)
    load_kernel(source, cache)
    assert sorted(cache.iterdir()) == built
    monkeypatch.undo()
    source.write_bytes(source.read_bytes() + b"/* changed */\n")
    load_kernel(source, cache)
    names = {p.name for p in cache.iterdir()}
    assert len(names) == 2 and built[0].name in names and all(n.endswith(".so") for n in names)


CPUINFO = Path("/proc/cpuinfo")


@pytest.mark.skipif(platform.machine() != "x86_64"
                    or (CPUINFO.exists() and " avx2" not in CPUINFO.read_text()),
                    reason="the AVX2 build needs an x86-64 host with AVX2")
def test_every_vector_width_gives_the_same_bits(tmp_path, monkeypatch):
    """The kernel built without clones at ``CFLAGS``, built again with
    ``-mavx2``, and the library the engine loaded (with its AVX2 clone) run
    both filters over 8 and over 5 mics to the same outputs, filters and
    histories, bit for bit: each sum runs in fixed lanes, whatever the vector
    width.  At 8 mics every sum spans whole vectors; at 5 (10 doubles a frame)
    ``dotc``'s and ``axpy``'s remainder loops run on every head and history."""
    flags, libraries = engine.CFLAGS, [engine.LIBRARY]
    for extra in ((), ("-mavx2",)):
        monkeypatch.setattr(engine, "CFLAGS", (*flags, *extra, "-DCLONES="))
        libraries.append(load_kernel(engine.SOURCE, tmp_path))
    assert len(list(tmp_path.glob("*.so"))) == 2
    for num_mics, kernel in itertools.product((8, 5), (APA, RC)):
        case = {**PARTLY_SILENT, "num_mics": num_mics}
        spec, a, gains = _scene(case)
        params = _params(case)
        orders = params.band_plan.bin_orders(CONFIG)
        runs = []
        for library in libraries:
            monkeypatch.setattr(engine, "LIBRARY", library)
            run = Run(kernel, a, orders, params.delay, spec.num_frames, prior=True)
            runs.append((run(spec.data, a, gains, params), run))
        (want, first), *others = runs
        for got, run in others:
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(run.w, first.w)
            np.testing.assert_array_equal(run.history, first.history)


def _cc_is_gcc() -> bool:
    try:
        return "Free Software Foundation" in subprocess.run(
            ["cc", "--version"], capture_output=True, text=True).stdout
    except OSError:
        return False


@pytest.mark.skipif(platform.machine() != "x86_64" or not shutil.which("objdump")
                    or not _cc_is_gcc(), reason="reads a gcc build for x86-64 with objdump")
def test_the_avx2_clones_inline_their_helpers():
    """``tree``, ``dotc``, ``norm2`` and ``axpy`` are inlined into each clone, so
    the AVX2 clone runs their lanes in AVX2: ``run.avx2`` calls none of them."""
    text = subprocess.run(["objdump", "-d", "--no-show-raw-insn", engine.LIBRARY._name],
                          capture_output=True, text=True, check=True).stdout
    bodies = dict(re.findall(r"^[0-9a-f]+ <([\w.]+)>:\n(.*?)(?=\n\n|\Z)", text, re.M | re.S))
    calls = re.findall(r"\scall\s.*<([\w.]+)", bodies["run.avx2"])
    called = {name.split(".")[0] for name in calls}
    assert called and not called & {"tree", "dotc", "norm2", "axpy"}


@pytest.mark.parametrize("fault", ["compile error", "no compiler", "unwritable cache"])
def test_a_failed_build_raises_import_error(fault, tmp_path, monkeypatch):
    """The error names the command and gives the compiler's messages; no
    library, whole or partial, is left in the cache."""
    def fake_run(cmd, **kwargs):
        if fault == "no compiler":
            raise FileNotFoundError(2, "No such file or directory", cmd[0])
        return subprocess.CompletedProcess(cmd, 1, "", "_kernel.c:9: error: expected ';'")

    cache = tmp_path
    if fault == "unwritable cache":  # a file where the cache directory should be
        (tmp_path / "file").touch()
        cache = tmp_path / "file" / "cache"
    else:
        monkeypatch.setattr(subprocess, "run", fake_run)
    with pytest.raises(ImportError) as info:
        load_kernel(engine.SOURCE, cache)
    message = str(info.value)
    assert f"cc {' '.join(engine.CFLAGS)} " in message
    assert {"compile error": "expected ';'", "no compiler": "No such file or directory",
            "unwritable cache": "Not a directory"}[fault] in message
    assert [p.name for p in tmp_path.iterdir()] == (["file"] if fault == "unwritable cache" else [])


def test_a_host_without_cc_runs_all_but_the_adaptive_filters(tmp_path):
    """A package whose kernel cannot be built imports, and its fixed
    beamformers run; the first adaptive run raises the build's ImportError."""
    shutil.copytree(Path(engine.__file__).parent, tmp_path / "convbeam",
                    ignore=shutil.ignore_patterns("__pycache__"))
    script = """
import numpy as np
from convbeam import (ApaParams, Spectrogram, SteeringVector, StftConfig, apply_fixed,
                      delay_and_sum, process_utterance)
spec = Spectrogram(np.ones((2, StftConfig().num_bins, 3), complex), StftConfig())
a = np.ones((StftConfig().num_bins, 2), complex)
assert np.array_equal(apply_fixed(delay_and_sum(SteeringVector(a, 0)), spec).data, spec.data[:1])
try:
    process_utterance(spec, a, ApaParams())
except ImportError as exc:
    print(exc)
"""
    env = {**os.environ, "PATH": str(tmp_path / "no-bin"), "PYTHONPATH": str(tmp_path)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"building the kernel failed: cc {' '.join(engine.CFLAGS)} ")
    assert not list((tmp_path / "convbeam" / "__pycache__").glob("_kernel-*"))


def test_a_singular_solve_names_its_bin():
    """phi_b = 1e300 overflows |s01|^2, so the first live bin's 2x2 solve
    is singular; it is bin 0, so no filter has moved."""
    spec, a, _ = _scene(PARTLY_SILENT)
    params = dataclasses.replace(_params(PARTLY_SILENT), phi_b=1e300, phi_a=1e-300)
    orders = params.band_plan.bin_orders(CONFIG)
    states = [init_state(a[k], int(orders[k]), params.delay) for k in range(CONFIG.num_bins)]
    with pytest.raises(np.linalg.LinAlgError, match="singular 2x2 innovation covariance at bin 0"):
        process_frame(states, spec.data[:, :, 0].T, a, params)
    for k, state in enumerate(states):
        np.testing.assert_array_equal(state.w_hat, init_state(a[k], int(orders[k])).w_hat)


def test_a_run_owns_a_c_long_copy_of_any_orders():
    """A run keeps its own C-long, C-contiguous copy of the orders: int32
    orders, a strided view and a list give the outputs, filters and
    histories of the band plan's own orders, bit for bit, and a later edit
    of the caller's orders does not reach the run."""
    spec, a, gains = _scene(PARTLY_SILENT)
    params = _params(PARTLY_SILENT)
    orders = params.band_plan.bin_orders(CONFIG)
    runs = []
    for given in (orders, orders.astype(np.int32), np.repeat(orders, 2)[::2], orders.tolist()):
        run = Run(APA, a, given, params.delay, spec.num_frames, prior=True)
        if isinstance(given, np.ndarray):
            given[:] = 0
        assert run.orders.dtype == np.dtype(ctypes.c_long) and run.orders.flags.c_contiguous
        runs.append([x.tobytes() for x in (run(spec.data, a, gains, params), run.w,
                                           run.history)])
    assert all(r == runs[0] for r in runs[1:])


def _misaligned(array: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of ``array`` one byte past an aligned address."""
    raw = bytearray(array.nbytes + 1)
    copy = np.frombuffer(raw, array.dtype, array.size, offset=1).reshape(array.shape)
    copy[...] = array
    assert copy.flags.c_contiguous and copy.flags.writeable and not copy.flags.aligned
    return copy


@pytest.mark.parametrize("fault", ["dtype", "layout", "fortran", "misaligned", "shape",
                                   "read-only"])
def test_a_run_checks_every_caller_array_before_any_pointer(fault):
    """A run takes no pointer to a caller's array as given: its orders and
    steering, and a call's data and gains, each given another dtype, a
    strided or Fortran-ordered layout, an address one byte off its alignment
    or made read-only, give the outputs, filters and histories of C-contiguous
    arrays of the kernel's dtypes holding the same values, bit for bit; each
    given one more row is refused with a ``ValueError`` naming it before the
    kernel runs."""
    spec, a, gains = _scene(PARTLY_SILENT)
    params = _params(PARTLY_SILENT)
    clean = {"orders": params.band_plan.bin_orders(CONFIG), "steering": a,
             "data": spec.data, "gains": gains}
    kinds = {"orders": ctypes.c_long, "steering": complex, "data": complex, "gains": float}

    def run(arrays, built):
        run = Run(APA, built["steering"], built["orders"], params.delay, spec.num_frames, True)
        out = run(arrays["data"], arrays["steering"], arrays["gains"], params)
        return [x.tobytes() for x in (out, run.w, run.history)]

    for name, array in clean.items():
        if fault == "read-only":
            bad = array.copy()
            bad.flags.writeable = False
        elif fault == "dtype":
            bad = array.astype({"i": np.int32, "c": np.complex64, "f": np.float32}[array.dtype.kind])
        elif fault == "layout":
            bad = np.empty(array.shape + (2,), array.dtype)[..., 0]
            bad[...] = array
        elif fault == "fortran":
            bad = np.asfortranarray(array)
        elif fault == "misaligned":
            bad = _misaligned(array)
        else:
            bad = np.concatenate([array, array[:1]])
        given = {**clean, name: bad}
        if fault != "shape":
            same = {**clean, name: np.ascontiguousarray(bad, kinds[name])}
            assert run(given, given) == run(same, same), name
            continue
        with pytest.MonkeyPatch.context() as patch:
            counting = CountingLibrary(engine.LIBRARY)
            patch.setattr(engine, "LIBRARY", counting)
            with pytest.raises(ValueError, match=f"^{name} has shape {re.escape(str(bad.shape))}"):
                run(given, given if name == "orders" else clean)
            assert counting.calls == []


def test_a_run_refuses_arrays_that_would_broadcast_into_its_buffers(monkeypatch):
    """A run refuses an (M,) steering and a (frames,) gain, and data of one
    frame where it was built for more, each with a ``ValueError`` naming it,
    before any thread starts or the kernel runs: the steering would
    broadcast into the run's buffer, and the kernel would read the gains and
    data out of bounds."""
    spec, a, gains = _scene(PARTLY_SILENT)
    params = _params(PARTLY_SILENT)
    (m, bins, frames), started = spec.data.shape, []
    counting = CountingLibrary(engine.LIBRARY)
    monkeypatch.setattr(engine, "LIBRARY", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(3))
    monkeypatch.setattr(_thread, "start_new_thread", lambda *args: started.append(args))
    run = Run(APA, a, params.band_plan.bin_orders(CONFIG), params.delay, spec.num_frames)
    w, history = run.w.copy(), run.history.copy()
    for steering, column, message in (
        (a[0], gains, f"steering has shape \\({m},\\), expected \\({bins}, {m}\\)"),
        (a, gains[0], f"gains has shape \\({frames},\\), expected \\({bins}, {frames}\\)"),
    ):
        with pytest.raises(ValueError, match=f"^{message} for data of shape "):
            run(spec.data, steering, column, params)
    with pytest.raises(ValueError, match=f"^data has shape \\({m}, {bins}, 1\\), expected "):
        run(spec.data[:, :, :1], a, gains[:, :1], params)
    assert counting.calls == [] and started == []
    np.testing.assert_array_equal(run.w, w)
    np.testing.assert_array_equal(run.history, history)


@pytest.mark.parametrize("fault, message", [
    ("nan", "steering has a non-finite value at bin 2, channel 1"),
    ("inf", "steering has a non-finite value at bin 2, channel 1"),
    ("zero", "steering vector of bin 2 has zero norm"),
])
@pytest.mark.parametrize("kernel", [APA, RC])
def test_a_run_refuses_a_bad_steering_when_built_and_when_its_bits_change(kernel, fault, message,
                                                                         monkeypatch):
    """A steering given straight to a run, for either filter, is checked as a
    ``SteeringVector``: a NaN, an infinite value or a zero-norm row is refused
    naming its bin (and channel) when the run is built, before any head is
    formed and so with no warning, and again in a call whose steering's bits
    differ from the run's, before the kernel runs; the filters, histories,
    steering and bits stay as they were."""
    ones = np.ones((4, 2), complex)
    bad = ones.copy()
    bad[2, 1:] = {"nan": np.nan, "inf": np.inf, "zero": 0.0}[fault]
    if fault == "zero":
        bad[2] = 0.0
    with pytest.raises(ValueError, match=f"^{message}$"):
        Run(kernel, bad, [3] * 4, 1, 1)
    counting = CountingLibrary(engine.LIBRARY)
    monkeypatch.setattr(engine, "LIBRARY", counting)
    run = Run(kernel, ones, [3] * 4, 1, 1)
    w, history, bits = run.w.copy(), run.history.copy(), run.bits
    with pytest.raises(ValueError, match=f"^{message}$"):
        run(np.ones((2, 4, 1), complex), bad, None, ApaParams())
    assert counting.calls == []
    np.testing.assert_array_equal(run.w, w)
    np.testing.assert_array_equal(run.history, history)
    assert run.bits is bits and run.steering.tobytes() == bits == ones.tobytes()


def test_filters_that_do_not_fit_the_kernel_are_refused():
    """Orders of another shape than the steering's bins and an order at or
    below the delay are refused when a run is built; data, steering or gains
    with other bins than the run's never reach the kernel; a stream refuses a
    state whose filter or history does not fit its order, or whose delay is
    not bin 0's, before any state changes, as it does a state listed at two
    bins or a history that is not (order, M), with M the steering's width,
    bin 0's as any other's."""
    ones = np.ones((4, 2), complex)
    for steering, orders, delay, message in (
        (ones[:3], [3] * 4, 1, "orders has shape \\(4,\\), expected \\(3,\\)$"),
        (ones, [[3] * 4], 1, "orders has shape \\(1, 4\\), expected \\(4,\\)$"),
        (ones, [3] * 4, 3, "order must be 0 or > delay \\(3\\), got 3$"),
        (ones, [-1] * 4, 1, "order must be 0 or > delay \\(1\\), got -1$"),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            Run(APA, steering, orders, delay, 1)
    run = Run(APA, ones, [3] * 4, 1, 1)
    w = run.w.copy()
    for data, steering, gains, message in (
        (np.ones((2, 3, 1)), ones, None, "data has shape \\(2, 3, 1\\), expected \\(2, 4, 1"),
        (np.ones((2, 4, 1)), ones[:3], None, "steering has shape \\(3, 2\\), expected \\(4"),
        (np.ones((2, 4, 1)), ones, np.ones((4, 2)),
         "gains has shape \\(4, 2\\), expected \\(4, 1\\) for data of shape \\(2, 4, 1\\)"),
    ):
        with pytest.raises(ValueError, match=message):
            run(data.astype(complex), steering, gains, ApaParams())
    np.testing.assert_array_equal(run.w, w)
    short = [init_state(np.ones(2), 3) for _ in range(4)]
    short[2].w_hat = short[2].w_hat[:6]
    below = [ApaState(np.zeros(0, complex), np.zeros((1, 2), complex), 3) for _ in range(4)]
    mixed = [init_state(np.ones(2), 3) for _ in range(3)] + [init_state(np.ones(2), 4, 2)]
    twice = [init_state(np.ones(2), 3) for _ in range(3)]
    flat = [init_state(np.ones(2), 3) for _ in range(4)]
    flat[1].history = flat[1].history.ravel()[:3]
    flat0, wide0 = ([init_state(np.ones(2), 3) for _ in range(4)] for _ in range(2))
    flat0[0].history, wide0[0].history = flat0[0].history.ravel()[:3], np.zeros((3, 5), complex)
    for states, message in (
        (short, "bin 2: at order 3 it needs delay 1, 8 taps and history \\(3, 2\\); "
                "it has 1, \\(6,\\) and \\(3, 2\\)$"),
        (below, "bin 0: order must be 0 or > delay \\(3\\), got 1$"),
        (mixed, "bin 3: at order 4 it needs delay 1, 10 taps and history \\(4, 2\\); "
                "it has 2, \\(8,\\) and \\(4, 2\\)$"),
        (twice + twice[:1], "bin 3: its state is bin 0's too$"),
        (flat, "bin 1: at order 3 it needs delay 1, 8 taps and history \\(3, 2\\); "
               "it has 1, \\(8,\\) and \\(3,\\)$"),
        (flat0, "bin 0: at order 3 it needs delay 1, 8 taps and history \\(3, 2\\); "
                "it has 1, \\(8,\\) and \\(3,\\)$"),
        (wide0, "bin 0: at order 3 it needs delay 1, 8 taps and history \\(3, 2\\); "
                "it has 1, \\(8,\\) and \\(3, 5\\)$"),
    ):
        before = copy.deepcopy(states)
        with pytest.raises(ValueError, match=f"^{message}"):
            process_frame(states, np.ones((4, 2)), np.ones((4, 2)), ApaParams())
        for state, kept in zip(states, before):
            assert not hasattr(state, "_filters")
            np.testing.assert_array_equal(state.w_hat, kept.w_hat)
            np.testing.assert_array_equal(state.history, kept.history)


@pytest.mark.parametrize("order, delay", [(1, 1), (2, 3), (-1, 1), (0, 0), (5, 0), (3, -2)])
def test_band_plan_and_kernel_taps_refuse_a_pair_with_one_message(order, delay):
    """One rule decides which (order, delay) pairs a filter with a head
    takes, so a band plan, even one whose band holds no bin, refuses a bad
    pair with exactly the message of ``APA.taps``."""
    with pytest.raises(ValueError) as taps:
        APA.taps(2, order, delay)
    for orders, edges in (((order,), ()), ((12, order, 6), (800.0, 801.0))):
        with pytest.raises(ValueError) as plan:
            BandPlan(edges, orders, delay)
        assert str(plan.value) == str(taps.value)


SPLIT_PLAN = BandPlan((2000.0, 4000.0, 6000.0), (3, 0, 6, 0), 1)


def _split_run(kernel, count, prior_pass, monkeypatch):
    """A run on PARTLY_SILENT's data and ``SPLIT_PLAN`` (order 0 raised to 2 for the
    canceller) with at most ``count`` spans: its outputs, and the run."""
    spec, a, gains = _scene(PARTLY_SILENT)
    params = ApaParams(band_plan=SPLIT_PLAN)
    orders = SPLIT_PLAN.bin_orders(CONFIG)
    if kernel is RC:
        orders = np.where(orders == 0, SPLIT_PLAN.delay + 1, orders)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(count))
    run = Run(kernel, a, orders, params.delay, spec.num_frames, prior_pass)
    return run(spec.data, a, gains, params), run  # a stands in for the heads


@pytest.mark.parametrize("prior_pass", [False, True])
@pytest.mark.parametrize("kernel", [APA, RC])
def test_any_split_of_the_bins_gives_the_same_bits(kernel, prior_pass, monkeypatch):
    """One span, 2, 3 and more spans than bins (one a bin) give the same
    outputs, final filters and histories, bit for bit, on a plan with order 0,
    and so does a repeat run at each count."""
    (want, first), bins = _split_run(kernel, 1, prior_pass, monkeypatch), CONFIG.num_bins
    for count in (1, 2, 3, bins + 5):
        for _ in range(2):
            got, run = _split_run(kernel, count, prior_pass, monkeypatch)
            assert got.tobytes() == want.tobytes()
            assert run.w.tobytes() == first.w.tobytes()
            assert run.history.tobytes() == first.history.tobytes()


@pytest.mark.parametrize("kernel", [APA, RC])
@pytest.mark.parametrize("num_mics, plan, config", [
    (8, BandPlan(), StftConfig()), (3, SPLIT_PLAN, CONFIG),
    (1, BandPlan((500.0,), (8, 2), 1), CONFIG),
])
def test_spans_cover_each_bin_once_at_near_equal_cost(kernel, num_mics, plan, config,
                                                      monkeypatch):
    """At every CPU count a run over more than one frame has spans that are
    contiguous, in order, cover each bin once and number at most the count
    and the bins; when they number the count, each costs its share of the
    bins' Q_k + M to within one bin's cost."""
    orders = plan.bin_orders(config)
    if kernel is RC:
        orders = np.where(orders == 0, plan.delay + 1, orders)
    ones = np.ones((config.num_bins, num_mics))
    cost = np.array([kernel.taps(num_mics, int(o), plan.delay) for o in orders]) + num_mics
    for count in (*range(1, 8), config.num_bins - 1, config.num_bins, config.num_bins + 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(count))
        spans = engine.Run(kernel, ones, orders, plan.delay, 2).spans
        assert 1 <= len(spans) <= min(count, config.num_bins)
        assert spans[0][0] == 0 and spans[-1][1] == config.num_bins
        assert all(k0 < k1 for k0, k1 in spans)
        assert all(prev[1] == nxt[0] for prev, nxt in zip(spans, spans[1:]))
        if len(spans) == count:
            for k0, k1 in spans:
                assert abs(cost[k0:k1].sum() - cost.sum() / count) <= cost.max()


@pytest.mark.parametrize("prior_pass", [False, True])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_a_singular_solve_names_the_lowest_bin_of_any_span(count, prior_pass, monkeypatch):
    """Two bins go singular and the rest stay silent, so they take the
    constraint row alone: bin 14, in the last span, from frame 0, and bin 3,
    in the first, from frame 5.  Whatever the count, the error names bin 3 at
    frame 5; with bin 3 silent too, bin 14 at frame 0."""
    spec, a, _ = _scene({**PARTLY_SILENT, "quiet_bins": []})
    params = dataclasses.replace(_params(PARTLY_SILENT), phi_b=1e300, phi_a=1e-300)
    orders = params.band_plan.bin_orders(CONFIG)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(count))
    spans = engine.Run(APA, a, orders, params.delay, spec.num_frames).spans
    assert len(spans) == count and spans[0][1] > 3 and spans[-1][0] <= 14
    data = np.zeros_like(spec.data)
    data[:, 14], data[:, 3, 5:] = spec.data[:, 14], spec.data[:, 3, 5:]
    only_14 = data.copy()
    only_14[:, 3] = 0.0
    for live, where in ((data, "bin 3, frame 5"), (only_14, "bin 14, frame 0")):
        with pytest.raises(np.linalg.LinAlgError,
                           match=f"^singular 2x2 innovation covariance at {where}$"):
            Run(APA, a, orders, params.delay, spec.num_frames, prior_pass)(live, a, None, params)


def test_a_refused_array_raises_in_the_caller_before_any_thread(monkeypatch):
    """A run is built in the calling thread before any span starts: an order
    the kernel does not take raises the run's ``ValueError`` there, no
    thread is started and the kernel is never called."""
    spec, a, gains = _scene(PARTLY_SILENT)
    params = _params(PARTLY_SILENT)
    orders = params.band_plan.bin_orders(CONFIG)
    orders[5] = params.delay
    started = []
    counting = CountingLibrary(engine.LIBRARY)
    monkeypatch.setattr(engine, "LIBRARY", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(3))
    monkeypatch.setattr(_thread, "start_new_thread", lambda *args: started.append(args))
    with pytest.raises(ValueError, match="^order must be 0 or > delay "):
        Run(APA, a, orders, params.delay, spec.num_frames, prior=True)(spec.data, a, gains, params)
    assert counting.calls == [] and started == []


def test_a_stream_runs_each_frame_on_the_calling_thread(monkeypatch):
    """With 3 CPUs in the affinity set a stream still runs each frame as one
    span on the calling thread: it starts no thread, and gives the outputs,
    filters and histories of a stream at 1 CPU, bit for bit."""
    spec, a, gains = _scene(PARTLY_SILENT)
    params = _params(PARTLY_SILENT)
    orders = params.band_plan.bin_orders(CONFIG)
    started, start, runs = [], _thread.start_new_thread, {}
    monkeypatch.setattr(_thread, "start_new_thread",
                        lambda *args: (started.append(args), start(*args)))
    for count in (3, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(count))
        states = [init_state(a[k], int(orders[k]), params.delay) for k in range(CONFIG.num_bins)]
        outputs = [process_frame(states, spec.data[:, :, n].T, a, params, gains[:, n])
                   for n in range(spec.num_frames)]
        runs[count] = [x.tobytes() for x in outputs + [s.w_hat for s in states]
                       + [s.history for s in states]]
    assert started == [] and runs[3] == runs[1]


@pytest.mark.parametrize("kernel", [APA, RC])
def test_a_one_frame_run_is_one_span_on_the_calling_thread(kernel, monkeypatch):
    """With 3 CPUs in the affinity set a run over one frame has one span: it
    starts no thread and gives the outputs, filters and histories of a run
    at 1 CPU, bit for bit."""
    spec, a, gains = _scene(PARTLY_SILENT)
    params = ApaParams(band_plan=SPLIT_PLAN)
    orders = SPLIT_PLAN.bin_orders(CONFIG)
    if kernel is RC:
        orders = np.where(orders == 0, SPLIT_PLAN.delay + 1, orders)
    data, column = spec.data[:, :, 4:5], gains[:, 4:5]
    started, start, runs = [], _thread.start_new_thread, {}
    monkeypatch.setattr(_thread, "start_new_thread",
                        lambda *args: (started.append(args), start(*args)))
    for count in (3, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(count))
        run = Run(kernel, a, orders, params.delay, 1, prior=True)  # a stands in for the heads
        assert run.spans == [(0, CONFIG.num_bins)]
        runs[count] = [x.tobytes() for x in (run(data, a, column, params), run.w, run.history)]
    assert started == [] and runs[3] == runs[1]


@pytest.mark.parametrize("kernel", [APA, RC])
def test_a_run_reads_data_and_gains_of_any_layout_as_their_contiguous_values(kernel):
    """The kernel reads the data and gains where they lie, or one copy of
    them: a frame-sliced view of the data, a (bins, M) frame transposed,
    complex64 or float64 data, a misaligned complex128 copy, and gains as a
    column slice or float32, each give the outputs, filters and histories of
    a run on C-contiguous complex128 data and float64 gains of the same
    values, bit for bit, with the prior pass on."""
    spec, a, gains = _scene(PARTLY_SILENT)
    params = ApaParams(band_plan=SPLIT_PLAN)
    orders = SPLIT_PLAN.bin_orders(CONFIG)
    if kernel is RC:
        orders = np.where(orders == 0, SPLIT_PLAN.delay + 1, orders)
    frame = np.ascontiguousarray(spec.data[:, :, 4].T)  # (bins, M), as process_frame has it
    cases = {
        "frame-sliced view": (spec.data[:, :, 3:], gains[:, 3:]),
        "transposed frame": (frame.T[..., None], gains[:, 4:5]),
        "complex64": (spec.data.astype(np.complex64), gains.astype(np.float32)),
        "float64": (spec.data.real, gains),
        "misaligned": (_misaligned(spec.data), _misaligned(gains)),
    }
    for name, given in cases.items():
        runs, contiguous = [], (np.array(given[0], np.complex128), np.array(given[1], float))
        for data, part in (given, contiguous):
            run = Run(kernel, a, orders, params.delay, data.shape[2], prior=True)
            out = run(data, a, part, params)  # a stands in for the heads
            runs.append([x.tobytes() for x in (out, run.w, run.history)])
        assert runs[0] == runs[1], name


@pytest.mark.parametrize("kernel", [APA, RC])
def test_an_utterance_run_keeps_no_copy_of_its_spectrogram(kernel):
    """At 8 mics, 257 bins and the default plan with the prior pass, an
    utterance's traced peak of allocations stays below the spectrogram's own
    size: the kernel reads the data, gains and params where they lie, so the
    run allocates only its outputs, filters and steering."""
    rng = np.random.default_rng(0)
    shape = (8, StftConfig().num_bins, 100)
    spec = Spectrogram(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), StftConfig())
    a = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (shape[1], 8)))
    gains = rng.uniform(0.0, 1.0, shape[1:])
    coherence = CoherenceMatrix(np.broadcast_to(np.eye(8), (shape[1], 8, 8)))

    def run():
        if kernel is APA:
            return process_utterance(spec, a, ApaParams(), gains, prior_pass=True)
        return process_utterance_sdmvdr(spec, a, coherence, ApaParams(), gains, prior_pass=True)
    run()  # the kernel loaded, caches warm
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < spec.data.nbytes, (peak, spec.data.nbytes)
