"""Fixed-head variant tests, including the equivalence limit.

The key cross-check: freezing the beamforming head of the fully adaptive
filter (state variance of the head pushed to zero, constraint variance
pushed to infinity) must reproduce the scalar-gain canceller update exactly,
step for step.
"""

import warnings

import numpy as np
import pytest

from convbeam.apa import (
    ApaParams,
    apa_update,
    init_state,
    limited_output,
    process_utterance,
    psd_floor,
    stack_observation,
)
from convbeam.fixedbf import superdirective_mvdr
from convbeam.geometry import circular_array, diffuse_coherence, plane_wave_steering
from convbeam.sdmvdr import (
    RcState,
    init_rc_state,
    process_utterance_sdmvdr,
    rc_speech_psd,
    rc_update,
)
from convbeam.stft import BandPlan, Spectrogram, StftConfig


class TestRcState:
    def test_init(self):
        state = init_rc_state(np.ones(3, dtype=complex), order=5, delay=2)
        assert state.w_rc.shape == (3 * 4,)
        assert np.all(state.w_rc == 0.0)
        assert state.history.shape == (5, 3)

    def test_order_must_exceed_delay(self):
        with pytest.raises(ValueError, match="order"):
            init_rc_state(np.ones(2, dtype=complex), order=1, delay=1)

    def test_stack_skips_delay_gap(self):
        state = init_rc_state(np.ones(1, dtype=complex), order=3, delay=2)
        for v in (1.0, 2.0, 3.0):
            state.push(np.array([v], dtype=complex))
        np.testing.assert_array_equal(state.stack(), [2.0, 1.0])


class TestRcUpdate:
    def test_hand_case_perfect_cancellation(self):
        """One mic, unit fixed weight, regressor [1, 0], target output 1 and
        zero observation noise: the update lands the tap exactly on 1 and the
        limited output cancels to 0."""
        state = init_rc_state(np.ones(1, dtype=complex), order=2, delay=1)
        state.push(np.array([1.0 + 0j]))
        out = rc_update(state, np.array([1.0 + 0j]), phi_x=0.0, phi_r=1.0, alpha_r=1.0)
        np.testing.assert_allclose(state.w_rc, [1.0, 0.0], atol=1e-15)
        assert out == pytest.approx(0.0, abs=1e-15)

    def test_hand_case_with_observation_noise(self):
        # same setup, phi_x = 1: gain halves, tap lands on 0.5
        state = init_rc_state(np.ones(1, dtype=complex), order=2, delay=1)
        state.push(np.array([1.0 + 0j]))
        rc_update(state, np.array([1.0 + 0j]), phi_x=1.0, phi_r=1.0)
        np.testing.assert_allclose(state.w_rc, [0.5, 0.0], atol=1e-15)

    def test_zero_regressor_with_zero_floor_skips_update(self):
        state = init_rc_state(np.ones(2, dtype=complex), order=3, delay=1)
        out = rc_update(state, np.zeros(2, dtype=complex), phi_x=0.0, phi_r=1e-4)
        assert out == 0.0
        assert np.all(state.w_rc == 0.0)
        assert np.all(np.isfinite(state.w_rc))

    def test_frame_shape_checked(self):
        state = init_rc_state(np.ones(2, dtype=complex), order=3)
        with pytest.raises(ValueError):
            rc_update(state, np.zeros(3, dtype=complex), 0.1, 1e-4)

    def test_psd_estimate_uses_prior_prediction(self):
        state = init_rc_state(np.ones(1, dtype=complex), order=2, delay=1)
        state.push(np.array([2.0 + 0j]))
        state.w_rc[0] = 0.25
        # d = 3, prediction = 0.5, estimate (3 - 0.5)^2 = 6.25, no flooring
        got = rc_speech_psd(state, np.array([3.0 + 0j]), eta=1e-12)
        assert got == pytest.approx(6.25)

    def test_psd_gain_and_floor(self):
        state = init_rc_state(np.ones(1, dtype=complex), order=2, delay=1)
        got = rc_speech_psd(state, np.array([2.0 + 0j]), eta=0.5, gain=0.0)
        # gain 0 kills the estimate; floor is eta * |y|^2 / M = 2
        assert got == pytest.approx(2.0)


class TestEquivalenceLimit:
    def test_matches_frozen_head_apa(self):
        """phi_b -> 0 freezes the head, phi_a -> inf disables the constraint
        row; what remains of the two-row update is exactly the scalar-gain
        canceller with tail = -w_rc."""
        rng = np.random.default_rng(21)
        m, order, delay = 2, 4, 1
        w_sd = rng.standard_normal(m) + 1j * rng.standard_normal(m)

        rc = init_rc_state(w_sd, order, delay)
        # choosing a = w_sd / ||w_sd||^2 makes the initial head equal w_sd
        a = w_sd / float(np.sum(np.abs(w_sd) ** 2))
        apa = init_state(a, order, delay)
        np.testing.assert_allclose(apa.w_hat[:m], w_sd, atol=1e-15)

        params = ApaParams(
            phi_b=1e-300,
            phi_r=1e-4,
            phi_a=1e30,
            eta=10.0 ** (-2.5),
            band_plan=BandPlan((), (order,), delay),
        )
        for _ in range(60):
            y = rng.standard_normal(m) + 1j * rng.standard_normal(m)

            phi_rc = rc_speech_psd(rc, y, params.eta)
            out_rc = rc_update(rc, y, phi_rc, params.phi_r, params.alpha_r)

            obs = stack_observation(apa, y, a)
            phi_apa = psd_floor(
                float(abs(np.vdot(apa.w_hat, obs.y_tilde)) ** 2), y, params.eta
            )
            assert phi_apa == pytest.approx(phi_rc, rel=1e-12)
            apa_update(apa, obs, phi_apa, params)
            x_b = np.vdot(apa.w_hat[:m], y)
            x_r = x_b - np.vdot(apa.w_hat, obs.y_tilde)
            apa.push(y)

            np.testing.assert_allclose(apa.w_hat[m:], -rc.w_rc, atol=1e-10)
            np.testing.assert_allclose(
                out_rc, limited_output(x_b, x_r, params.alpha_r), atol=1e-10
            )


class TestUtteranceDriver:
    def _scene(self, num_mics=3, num_frames=30, seed=0):
        cfg = StftConfig(window_len=32, hop=16, fft_len=32)
        rng = np.random.default_rng(seed)
        shape = (num_mics, cfg.num_bins, num_frames)
        spec = Spectrogram(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), cfg)
        geom = circular_array(num_mics, 0.10)
        steer = plane_wave_steering(geom, 0.4, cfg)
        return spec, steer, diffuse_coherence(geom, cfg)

    def test_matches_manual_bin_loop(self):
        """Bit for bit against a loop of the scalar functions, with and without
        the prior pass and a gain mask."""
        spec, steer, coh = self._scene()
        params = ApaParams(band_plan=BandPlan((), (4,)))
        weights = superdirective_mvdr(steer, coh, 0.01).weights
        mask = np.random.default_rng(3).uniform(0.0, 1.0, (spec.num_bins, spec.num_frames))
        for prior_pass in (False, True):
            for gains in (None, mask):
                got = process_utterance_sdmvdr(
                    spec, steer, coh, params, gains=gains, prior_pass=prior_pass
                ).data[0]

                def step(state, k, n):
                    y_now = spec.data[:, k, n]
                    gain = None if gains is None else gains[k, n]
                    phi = rc_speech_psd(state, y_now, params.eta, params.mean_floor, gain)
                    return rc_update(state, y_now, phi, params.phi_r, params.alpha_r)

                want = np.empty_like(got)
                for k in range(spec.num_bins):
                    state = init_rc_state(weights[k], 4, 1)
                    if prior_pass:
                        for n in range(spec.num_frames):
                            step(state, k, n)
                        state.reset_history()
                    for n in range(spec.num_frames):
                        want[k, n] = step(state, k, n)
                np.testing.assert_array_equal(
                    got, want, err_msg=f"prior_pass={prior_pass}, mask={gains is not None}"
                )

    def test_steering_shape_mismatch_rejected(self):
        spec, _, coh = self._scene()
        wrong = plane_wave_steering(circular_array(2, 0.10), 0.4, spec.config)
        with pytest.raises(ValueError, match="steering shape"):
            process_utterance_sdmvdr(spec, wrong, coh, ApaParams(band_plan=BandPlan((), (4,))))

    @pytest.mark.parametrize("driver", ["apa", "sdmvdr"])
    def test_out_of_range_mask_clamped_once(self, driver):
        """An out-of-range mask warns once per utterance, not once per
        bin-frame, and acts as the mask clipped into [0, 1]."""
        spec, steer, coh = self._scene(seed=7)
        params = ApaParams(band_plan=BandPlan((), (3,)))
        rng = np.random.default_rng(8)
        hot = rng.uniform(-0.5, 1.5, (spec.num_bins, spec.num_frames))

        def run(gains):
            if driver == "apa":
                return process_utterance(spec, steer, params, gains=gains, prior_pass=True)
            return process_utterance_sdmvdr(spec, steer, coh, params, gains=gains, prior_pass=True)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = run(hot)
        assert [str(w.message) for w in caught] == ["gain outside [0, 1]; clamping"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = run(np.clip(hot, 0.0, 1.0))
        np.testing.assert_array_equal(got.data, want.data)

    def test_zero_order_band_rejected(self):
        spec, steer, coh = self._scene()
        with pytest.raises(ValueError, match="order 0"):
            process_utterance_sdmvdr(spec, steer, coh, ApaParams(band_plan=BandPlan((), (0,))))

    def test_multithreaded_bit_identical(self):
        spec, steer, coh = self._scene(seed=5)
        params = ApaParams(band_plan=BandPlan((), (3,)))
        single = process_utterance_sdmvdr(spec, steer, coh, params, num_threads=1)
        multi = process_utterance_sdmvdr(spec, steer, coh, params, num_threads=3)
        np.testing.assert_array_equal(single.data, multi.data)

    def test_prior_pass_deterministic_and_different(self):
        spec, steer, coh = self._scene(seed=6)
        params = ApaParams(band_plan=BandPlan((), (3,)))
        cold = process_utterance_sdmvdr(spec, steer, coh, params)
        warm = process_utterance_sdmvdr(spec, steer, coh, params, prior_pass=True)
        warm2 = process_utterance_sdmvdr(spec, steer, coh, params, prior_pass=True)
        assert not np.array_equal(cold.data, warm.data)
        np.testing.assert_array_equal(warm.data, warm2.data)
