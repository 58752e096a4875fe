"""Adaptive filter tests built around independently computed oracles.

The dense-oracle tests rebuild the Kalman gain from the full Q x 2 linear
algebra (numpy solve on the explicit innovation covariance) and compare the
fused update against it.  The hand case is small enough to verify by hand:
one mic, no prediction taps, unit variances, y = 1, a = 1, w starting at 0
gives S = [[2, 1], [1, 2]], K = [1/3, 1/3], and an updated filter of 1/3.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from conftest import assert_close
from hypothesis import given, settings
from hypothesis import strategies as st

from convbeam.apa import (
    ApaParams,
    ApaState,
    Observation,
    apa_update,
    init_state,
    kalman_gain,
    limited_output,
    process_frame,
    process_utterance,
    psd_floor,
    speech_psd_estimate,
    stack_observation,
)
from convbeam.gains import apply_gain
from convbeam.geometry import circular_array, plane_wave_steering
from convbeam.scenes import exp_decay_rir_scene, synthetic_speech
from convbeam.stft import BandPlan, Spectrogram, StftConfig, istft


def _unit_params(**kw):
    defaults = dict(phi_b=1.0, phi_r=1.0, phi_a=1.0, eta=1e-30, band_plan=BandPlan((), (4,)))
    defaults.update(kw)
    return ApaParams(**defaults)


def _random_obs(rng, num_mics, order, delay=1):
    a = np.exp(1j * rng.uniform(0, 2 * np.pi, num_mics))
    state = init_state(a, order, delay)
    for _ in range(order):
        state.push(rng.standard_normal(num_mics) + 1j * rng.standard_normal(num_mics))
    y = rng.standard_normal(num_mics) + 1j * rng.standard_normal(num_mics)
    return state, stack_observation(state, y, a), y, a


class TestState:
    def test_init_satisfies_constraint_exactly(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = init_state(a, order=6, delay=2)
        assert state.stacked_len == 4 * (6 - 2 + 2)
        assert np.vdot(a, state.w_hat[:4]) == pytest.approx(1.0, abs=1e-14)
        assert np.all(state.w_hat[4:] == 0.0)

    def test_order_zero_is_head_only(self):
        state = init_state(np.ones(3, dtype=complex), order=0)
        assert state.stacked_len == 3
        assert state.history.shape == (0, 3)

    def test_invalid_orders_rejected(self):
        a = np.ones(2, dtype=complex)
        with pytest.raises(ValueError, match="order"):
            init_state(a, order=1, delay=1)
        with pytest.raises(ValueError, match="delay"):
            init_state(a, order=3, delay=0)
        with pytest.raises(ValueError, match="zero norm"):
            init_state(np.zeros(2, dtype=complex), order=0)

    def test_history_push_order(self):
        state = init_state(np.ones(1, dtype=complex), order=3)
        for v in (1.0, 2.0, 3.0):
            state.push(np.array([v], dtype=complex))
        # history[l-1] = y(n-l): most recent first
        np.testing.assert_array_equal(state.history[:, 0], [3.0, 2.0, 1.0])
        state.reset_history()
        assert np.all(state.history == 0.0)

    def test_stack_observation_skips_delay_gap(self):
        state = init_state(np.ones(1, dtype=complex), order=3, delay=2)
        for v in (1.0, 2.0, 3.0):
            state.push(np.array([v], dtype=complex))
        obs = stack_observation(state, np.array([5.0 + 0j]), np.ones(1, dtype=complex))
        # y(n), then y(n-2), y(n-3); y(n-1) is protected by the delay
        np.testing.assert_array_equal(obs.y_tilde, [5.0, 2.0, 1.0])
        np.testing.assert_array_equal(obs.a_tilde, [1.0, 0.0, 0.0])

    def test_stack_observation_shape_checks(self):
        state = init_state(np.ones(2, dtype=complex), order=3)
        with pytest.raises(ValueError):
            stack_observation(state, np.zeros(3, dtype=complex), np.ones(2, dtype=complex))
        with pytest.raises(ValueError):
            stack_observation(state, np.zeros(2, dtype=complex), np.ones(3, dtype=complex))


# ---------------------------------------------------------------------------
# update algebra
# ---------------------------------------------------------------------------


class TestHandCase:
    def test_single_step_reaches_one_third(self):
        state = init_state(np.ones(1, dtype=complex), order=0)
        state.w_hat[:] = 0.0
        obs = stack_observation(state, np.ones(1, dtype=complex), np.ones(1, dtype=complex))
        apa_update(state, obs, phi_x=1.0, params=_unit_params())
        assert state.w_hat[0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_hand_case_gain_columns(self):
        gain = kalman_gain(
            np.ones(1, dtype=complex),
            np.ones(1, dtype=complex),
            num_mics=1,
            phi_b=1.0,
            phi_r=1.0,
            phi_x=1.0,
            phi_a=1.0,
        )
        np.testing.assert_allclose(gain, [[1.0 / 3.0, 1.0 / 3.0]], atol=1e-15)


class TestKalmanGainOracle:
    def _dense_gain(self, y_tilde, a_tilde, m, phi_b, phi_r, phi_x, phi_a):
        q = y_tilde.shape[0]
        phi_w = np.full(q, phi_r)
        phi_w[:m] = phi_b
        f = np.stack([y_tilde, a_tilde]).conj()  # rows y^H, a^H
        s = (f * phi_w) @ f.conj().T + np.diag([phi_x, phi_a])
        return (phi_w[:, None] * f.conj().T) @ np.linalg.inv(s)

    def test_matches_dense_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            order = int(rng.integers(2, 7))
            state, obs, _, _ = _random_obs(rng, m, order)
            phi_b, phi_r, phi_x, phi_a = 10.0 ** rng.uniform(-6, 0, 4)
            got = kalman_gain(obs.y_tilde, obs.a_tilde, m, phi_b, phi_r, phi_x, phi_a)
            want = self._dense_gain(obs.y_tilde, obs.a_tilde, m, phi_b, phi_r, phi_x, phi_a)
            np.testing.assert_allclose(got, want, atol=1e-9 * max(1.0, np.abs(want).max()))

    def test_gain_identity(self):
        """K (F Phi_w F^H + Phi_eps) = Phi_w F^H, the defining equation."""
        rng = np.random.default_rng(8)
        state, obs, _, _ = _random_obs(rng, 3, 5)
        phi_b, phi_r, phi_x, phi_a = 1e-3, 1e-4, 0.5, 1e-12
        q = obs.y_tilde.shape[0]
        phi_w = np.full(q, phi_r)
        phi_w[:3] = phi_b
        f = np.stack([obs.y_tilde, obs.a_tilde]).conj()
        s = (f * phi_w) @ f.conj().T + np.diag([phi_x, phi_a])
        k = kalman_gain(obs.y_tilde, obs.a_tilde, 3, phi_b, phi_r, phi_x, phi_a)
        np.testing.assert_allclose(k @ s, phi_w[:, None] * f.conj().T, atol=1e-12)

    def test_vanishing_state_variance_freezes_the_filter(self):
        rng = np.random.default_rng(9)
        state, obs, _, _ = _random_obs(rng, 2, 3)
        k = kalman_gain(obs.y_tilde, obs.a_tilde, 2, 1e-300, 1e-300, 0.5, 1e-3)
        assert np.max(np.abs(k)) < 1e-290

    def test_silent_frame_uses_constraint_row_only(self):
        a = np.ones(2, dtype=complex)
        y = np.zeros(4, dtype=complex)
        a_tilde = np.concatenate([a, np.zeros(2)])
        k = kalman_gain(y, a_tilde, 2, 1e-3, 1e-4, 0.0, 1e-12)
        assert np.all(k[:, 0] == 0.0)
        expected = 1e-3 * a / (1e-3 * 2.0 + 1e-12)
        np.testing.assert_allclose(k[:2, 1], expected, rtol=1e-12)

    def test_all_zero_variances_raise(self):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            kalman_gain(np.zeros(2, dtype=complex), np.zeros(2, dtype=complex), 1, 1e-3, 1e-3, 0.0, 0.0)


class TestApaUpdate:
    def test_matches_explicit_gain_times_innovation(self):
        rng = np.random.default_rng(10)
        params = ApaParams(band_plan=BandPlan((), (5,)))
        for _ in range(20):
            state, obs, _, _ = _random_obs(rng, 3, 5)
            state.w_hat += 0.1 * (
                rng.standard_normal(state.stacked_len)
                + 1j * rng.standard_normal(state.stacked_len)
            )
            w_before = state.w_hat.copy()
            phi_x = float(rng.uniform(0.01, 1.0))
            k = kalman_gain(
                obs.y_tilde, obs.a_tilde, 3, params.phi_b, params.phi_r, phi_x, params.phi_a
            )
            e = np.array(
                [-np.vdot(obs.y_tilde, w_before), 1.0 - np.vdot(obs.a_tilde, w_before)]
            )
            apa_update(state, obs, phi_x, params)
            np.testing.assert_allclose(state.w_hat, w_before + k @ e, atol=1e-12)

    def test_post_update_constraint_residual_is_phi_a_scaled(self):
        """Row 2 of the solved system forces the new residual to phi_a * g1,
        so a -120 dB phi_a pins the constraint to machine-level accuracy."""
        rng = np.random.default_rng(11)
        params = ApaParams(band_plan=BandPlan((), (4,)))
        state, obs, y, a = _random_obs(rng, 4, 4)
        apa_update(state, obs, 0.1, params)
        residual = abs(1.0 - np.vdot(a, state.w_hat[:4]))
        assert residual < 1e-8

    def test_repeated_updates_drive_output_toward_zero(self):
        rng = np.random.default_rng(12)
        params = _unit_params(phi_a=1e6)  # effectively unconstrained
        state, obs, _, _ = _random_obs(rng, 2, 3)
        errors = []
        for _ in range(12):
            errors.append(abs(np.vdot(obs.y_tilde, state.w_hat)))
            apa_update(state, obs, 0.01, params)
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 0.05 * errors[0]

    def test_silent_frame_keeps_filter_finite(self):
        state = init_state(np.ones(2, dtype=complex), order=3)
        obs = stack_observation(state, np.zeros(2, dtype=complex), np.ones(2, dtype=complex))
        apa_update(state, obs, 0.0, ApaParams(band_plan=BandPlan((), (3,))))
        assert np.all(np.isfinite(state.w_hat))
        # constraint still held
        assert abs(1.0 - np.vdot(np.ones(2), state.w_hat[:2])) < 1e-8


class TestPsdHelpers:
    def test_speech_psd_estimate(self):
        state = init_state(np.ones(1, dtype=complex), order=0)
        state.w_hat[0] = 2.0
        obs = Observation(np.array([3.0 + 4.0j]), np.ones(1, dtype=complex))
        assert speech_psd_estimate(state, obs) == pytest.approx(100.0)

    def test_floor_activates_on_mean_power(self):
        y = np.ones(4, dtype=complex)
        assert psd_floor(0.0, y, eta=0.1) == pytest.approx(0.1)
        assert psd_floor(0.0, y, eta=0.1, mean_over_mics=False) == pytest.approx(0.4)

    def test_large_estimate_passes_through(self):
        y = np.ones(4, dtype=complex)
        assert psd_floor(5.0, y, eta=0.1) == 5.0

    def test_floor_is_exact_at_activation(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            eta = float(10.0 ** rng.uniform(-4, 0))
            floor = eta * (float(np.sum(np.abs(y) ** 2)) / 3.0)
            assert psd_floor(floor * 0.5, y, eta) == floor


class TestLimiter:
    def test_zero_reverb_passes_beamformer(self):
        assert limited_output(1.0 + 2.0j, 0.0, 1.0) == 1.0 + 2.0j

    def test_alpha_zero_disables_subtraction(self):
        assert limited_output(1.0 + 2.0j, 5.0 - 1.0j, 0.0) == 1.0 + 2.0j

    def test_small_reverb_subtracted_exactly(self):
        x_b, x_r = 2.0 + 0j, 0.5 + 0.5j
        assert limited_output(x_b, x_r, 1.0) == pytest.approx(x_b - x_r)

    def test_large_reverb_clamped_to_beamformer_magnitude(self):
        x_b, x_r = 1.0 + 0j, 10.0j
        out = limited_output(x_b, x_r, 1.0)
        np.testing.assert_allclose(out, 1.0 - 1.0j, atol=1e-15)

    def test_partial_alpha(self):
        x_b, x_r = 2.0 + 0j, 1.0 + 0j
        assert limited_output(x_b, x_r, 0.5) == pytest.approx(1.5 + 0j)


# ---------------------------------------------------------------------------
# frame- and utterance-level drivers
# ---------------------------------------------------------------------------


def _small_spec(num_mics=2, num_frames=20, seed=0, config=None):
    cfg = config or StftConfig(window_len=32)
    rng = np.random.default_rng(seed)
    shape = (num_mics, cfg.num_bins, num_frames)
    return Spectrogram(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), cfg)


def _flat_steering(num_bins, num_mics, seed=0):
    rng = np.random.default_rng(seed)
    a = np.exp(1j * rng.uniform(0, 2 * np.pi, (num_bins, num_mics)))
    a[:, 0] = 1.0
    return a


class TestDrivers:
    def test_process_frame_matches_utterance(self):
        spec = _small_spec()
        a = _flat_steering(spec.num_bins, 2)
        params = ApaParams(band_plan=BandPlan((), (3,)))
        want = process_utterance(spec, a, params).data[0]

        states = [init_state(a[k], 3, 1) for k in range(spec.num_bins)]
        got = np.stack(
            [
                process_frame(states, spec.data[:, :, n].T, a, params)
                for n in range(spec.num_frames)
            ],
            axis=1,
        )
        np.testing.assert_array_equal(got, want)

    def test_process_frame_rejects_empty_states(self):
        spec = _small_spec()
        a = _flat_steering(spec.num_bins, 2)
        with pytest.raises(ValueError, match="states is empty"):
            process_frame([], spec.data[:, :, 0].T, a, ApaParams())

    def test_process_frame_rejects_short_steering_or_gains(self):
        """A steering matrix or gain column with too few bins is an error,
        never a silently shorter output."""
        spec = _small_spec()
        a = _flat_steering(spec.num_bins, 2)
        frame = spec.data[:, :, 0].T
        states = [init_state(a[k], 3, 1) for k in range(spec.num_bins)]
        with pytest.raises(ValueError):
            process_frame(states, frame, a[:-1], ApaParams())
        with pytest.raises(ValueError):
            process_frame(states, frame, a, ApaParams(), gains=np.ones(spec.num_bins - 1))

    def test_process_frame_names_the_argument_at_fault(self):
        spec = _small_spec()
        a = _flat_steering(spec.num_bins, 2)
        frame = spec.data[:, :, 0].T
        states = [init_state(a[k], 3, 1) for k in range(spec.num_bins)]
        params = ApaParams(band_plan=BandPlan((), (3,)))
        with pytest.raises(ValueError, match="^frame has shape"):
            process_frame(states, frame[:-1], a, params)
        with pytest.raises(ValueError, match="^steering has shape"):
            process_frame(states, frame, a[1:], params)
        with pytest.raises(ValueError, match="^gains has shape"):
            process_frame(states, frame, a, params, gains=np.ones((spec.num_bins, 2)))
        # the states have 2 mics: one channel too few or too many
        for wrong in (frame[:, :1], np.concatenate((frame, frame[:, :1]), axis=1)):
            with pytest.raises(ValueError, match="^frame has shape"):
                process_frame(states, wrong, a, params)
            with pytest.raises(ValueError, match="^steering has shape"):
                process_frame(states, frame, wrong, params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_process_frame_rejects_non_finite_frame(self, bad):
        """A non-finite sample is named by bin and channel before it reaches
        the update, and the states are left as they were."""
        spec = _small_spec()
        a = _flat_steering(spec.num_bins, 2)
        params = ApaParams(band_plan=BandPlan((), (3,)))
        states = [init_state(a[k], 3, 1) for k in range(spec.num_bins)]
        process_frame(states, spec.data[:, :, 0].T, a, params)
        before = [(s.w_hat.copy(), s.history.copy()) for s in states]
        frame = spec.data[:, :, 1].T.copy()
        frame[5, 1] = bad
        message = "^frame has a non-finite value at bin 5, channel 1"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                process_frame(states, frame, a, params)
        for s, (w, history) in zip(states, before):
            np.testing.assert_array_equal(s.w_hat, w)
            np.testing.assert_array_equal(s.history, history)

    def test_process_frame_rejects_non_finite_steering(self):
        """A non-finite steering value is named before any band advances; it
        used to surface as a singular update."""
        spec = _small_spec()
        a = _flat_steering(spec.num_bins, 2)
        params = ApaParams(band_plan=BandPlan((4000.0,), (3, 5)))
        states = [init_state(a[k], 3 if k < 9 else 5, 1) for k in range(spec.num_bins)]
        process_frame(states, spec.data[:, :, 0].T, a, params)
        before = [(s.w_hat.copy(), s.history.copy()) for s in states]
        bad = a.copy()
        bad[12, 1] = np.nan
        with pytest.raises(ValueError, match="^steering has a non-finite value at bin 12, channel 1"):
            process_frame(states, spec.data[:, :, 1].T, bad, params)
        for s, (w, history) in zip(states, before):
            np.testing.assert_array_equal(s.w_hat, w)
            np.testing.assert_array_equal(s.history, history)

    def test_process_frame_clamps_gains_once(self):
        """An out-of-range gain column warns once per call, not once per bin,
        and acts as the column clipped into [0, 1]."""
        spec = _small_spec(seed=5)
        a = _flat_steering(spec.num_bins, 2)
        params = ApaParams(band_plan=BandPlan((), (3,)))
        hot = np.random.default_rng(6).uniform(-0.5, 1.5, spec.num_bins)
        assert np.sum((hot < 0.0) | (hot > 1.0)) > 1

        def run(gains):
            states = [init_state(a[k], 3, 1) for k in range(spec.num_bins)]
            return [process_frame(states, spec.data[:, :, n].T, a, params, gains) for n in range(3)]

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = run(hot)
        assert [str(w.message) for w in caught] == ["gain outside [0, 1]; clamping"] * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = run(np.clip(hot, 0.0, 1.0))
        np.testing.assert_array_equal(got, want)

    def test_nan_gain_is_named_before_any_state_changes(self):
        """A NaN in a gain column (process_frame) or a gain mask
        (process_utterance) is named by bin, and frame for a mask, instead
        of surfacing as a singular update."""
        spec = _small_spec()
        a = _flat_steering(spec.num_bins, 2)
        params = ApaParams(band_plan=BandPlan((), (3,)))
        states = [init_state(a[k], 3, 1) for k in range(spec.num_bins)]
        before = [(s.w_hat.copy(), s.history.copy()) for s in states]
        column = np.full(spec.num_bins, 0.5)
        column[4] = np.nan
        with pytest.raises(ValueError, match="^gain is NaN at bin 4$"):
            process_frame(states, spec.data[:, :, 0].T, a, params, column)
        for s, (w, history) in zip(states, before):
            np.testing.assert_array_equal(s.w_hat, w)
            np.testing.assert_array_equal(s.history, history)
        mask = np.full((spec.num_bins, spec.num_frames), 0.5)
        mask[6, 2] = np.nan
        with pytest.raises(ValueError, match="^gain is NaN at bin 6, frame 2$"):
            process_utterance(spec, a, params, gains=mask)

    def test_order_zero_reverb_branch_is_exactly_zero(self):
        spec = _small_spec()
        a = _flat_steering(spec.num_bins, 2)
        params = ApaParams(band_plan=BandPlan((), (0,)))
        out, extras = process_utterance(spec, a, params, return_components=True)
        assert np.all(extras["x_r"] == 0.0)
        np.testing.assert_array_equal(out.data[0], extras["x_b"])

    def test_alpha_zero_output_equals_beamformer_branch(self):
        spec = _small_spec(seed=4)
        a = _flat_steering(spec.num_bins, 2)
        params = ApaParams(alpha_r=0.0, band_plan=BandPlan((), (4,)))
        out, extras = process_utterance(spec, a, params, return_components=True)
        np.testing.assert_array_equal(out.data[0], extras["x_b"])

    def test_prior_pass_changes_early_frames(self):
        spec = _small_spec(num_frames=40, seed=6)
        a = _flat_steering(spec.num_bins, 2)
        params = ApaParams(band_plan=BandPlan((), (4,)))
        cold = process_utterance(spec, a, params, prior_pass=False)
        warm = process_utterance(spec, a, params, prior_pass=True)
        assert not np.array_equal(cold.data, warm.data)
        # both runs are deterministic
        warm2 = process_utterance(spec, a, params, prior_pass=True)
        np.testing.assert_array_equal(warm.data, warm2.data)

    @pytest.mark.parametrize("prior_pass", [False, True])
    def test_matches_manual_bin_loop(self, prior_pass):
        """The utterance driver equals a loop of the public scalar functions
        to ``conftest.REL_TOL``, over an order-0 band and an order-3 band
        with D=2, under a gain mask."""
        spec = _small_spec(num_mics=3, num_frames=25, seed=12)
        a = _flat_steering(spec.num_bins, 3, seed=2)
        params = ApaParams(band_plan=BandPlan((4000.0,), (0, 3), delay=2))
        mask = np.random.default_rng(13).uniform(0.0, 1.0, (spec.num_bins, spec.num_frames))
        got = process_utterance(spec, a, params, gains=mask, prior_pass=prior_pass).data[0]

        def step(state, y_now, a_k, gain):
            obs = stack_observation(state, y_now, a_k)
            phi_x = float(apply_gain(speech_psd_estimate(state, obs), gain))
            phi_x = psd_floor(phi_x, y_now, params.eta, params.mean_floor)
            apa_update(state, obs, phi_x, params)
            x_b = np.vdot(state.w_hat[:3], y_now)
            x_r = x_b - np.vdot(state.w_hat, obs.y_tilde)
            state.push(y_now)
            return limited_output(x_b, x_r, params.alpha_r)

        orders = params.band_plan.bin_orders(spec.config)
        assert set(orders) == {0, 3}
        want = np.empty_like(got)
        for k in range(spec.num_bins):
            state = init_state(a[k], int(orders[k]), 2)
            if prior_pass:
                for n in range(spec.num_frames):
                    step(state, spec.data[:, k, n], a[k], mask[k, n])
                state.reset_history()
            for n in range(spec.num_frames):
                want[k, n] = step(state, spec.data[:, k, n], a[k], mask[k, n])
        assert_close(got, want)

    def test_steering_shape_mismatch_rejected(self):
        spec = _small_spec()
        with pytest.raises(ValueError, match="^steering has shape"):
            process_utterance(spec, np.ones((spec.num_bins, 3), dtype=complex), ApaParams())

    def test_gain_mask_shape_mismatch_rejected(self):
        spec = _small_spec()
        a = _flat_steering(spec.num_bins, 2)
        with pytest.raises(ValueError, match="^gains has shape"):
            process_utterance(spec, a, ApaParams(), gains=np.ones((3, 3)))

    def test_unit_gain_mask_is_identity(self):
        spec = _small_spec(seed=10)
        a = _flat_steering(spec.num_bins, 2)
        params = ApaParams(band_plan=BandPlan((), (3,)))
        plain = process_utterance(spec, a, params)
        masked = process_utterance(
            spec, a, params, gains=np.ones((spec.num_bins, spec.num_frames))
        )
        np.testing.assert_array_equal(plain.data, masked.data)

    def test_zero_gain_mask_floors_every_psd(self):
        """G = 0 kills the PSD estimate, so the floor drives a much more
        aggressive update; the result must differ from the unmasked run but
        stay finite."""
        spec = _small_spec(seed=11)
        a = _flat_steering(spec.num_bins, 2)
        params = ApaParams(band_plan=BandPlan((), (3,)))
        masked = process_utterance(
            spec, a, params, gains=np.zeros((spec.num_bins, spec.num_frames))
        )
        assert np.all(np.isfinite(masked.data))
        assert not np.array_equal(masked.data, process_utterance(spec, a, params).data)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ApaParams(phi_b=0.0)
        with pytest.raises(ValueError):
            ApaParams(eta=-1.0)
        with pytest.raises(ValueError):
            ApaParams(alpha_r=1.5)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["phi_b", "phi_r", "phi_a", "eta"])
    def test_variances_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0, got {value}"):
            ApaParams(**{name: value})

    def test_delay_comes_from_band_plan(self):
        assert ApaParams(band_plan=BandPlan((), (5,), delay=2)).delay == 2


@functools.lru_cache(maxsize=1)
def _reverberant_stream():
    """A 1 s, 4-mic reverberant scene at -20 dBFS on a 64-point STFT, as
    (frames (N, bins, M), steering (bins, M), band orders)."""
    cfg = StftConfig(window_len=64)  # 33 bins, every default band
    geom = circular_array(4, 0.10)
    doa = 0.7
    dry = synthetic_speech(1.0, cfg.sample_rate, seed=5)
    scene = exp_decay_rir_scene(dry, geom, doa, 0.5, 0.0, 20.0, cfg, seed=5)
    ref = istft(scene.mixture)[0]
    mixture = scene.mixture.data * (0.1 / np.sqrt(np.mean(ref**2)))
    steering = plane_wave_steering(geom, doa, cfg).vectors
    return mixture.transpose(2, 1, 0), steering, ApaParams().band_plan.bin_orders(cfg)


def _db(lo, hi):
    return st.floats(lo, hi).map(lambda db: 10.0 ** (db / 10.0))


class TestConstraintResidual:
    @settings(max_examples=20, deadline=None)
    @given(
        phi_b=_db(-60.0, -10.0), phi_r=_db(-60.0, -10.0), phi_a=_db(-140.0, -100.0),
        eta=_db(-40.0, -10.0), alpha_r=st.floats(0.0, 1.0),
    )
    def test_stream_holds_the_distortionless_constraint(self, phi_b, phi_r, phi_a, eta, alpha_r):
        """Across the variance ranges of the command line, a stream keeps
        max |1 - a^H w_head| over every bin and frame within acceptance
        test 02's bound."""
        frames, a, orders = _reverberant_stream()
        params = ApaParams(phi_b=phi_b, phi_r=phi_r, phi_a=phi_a, eta=eta, alpha_r=alpha_r)
        states = [init_state(a_k, int(order), params.delay) for a_k, order in zip(a, orders)]
        worst = 0.0
        for frame in frames:
            process_frame(states, frame, a, params)
            heads = np.array([s.w_hat[: s.num_mics] for s in states])
            worst = max(worst, float(np.max(np.abs(1.0 - np.vecdot(a, heads)))))
        assert worst < 1e-3
