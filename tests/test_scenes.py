"""Scene generator tests: exact decompositions, stability, determinism."""

import re

import numpy as np
import pytest

from convbeam.geometry import circular_array, plane_wave_steering
from convbeam.scenes import (
    diffuse_noise_frames,
    exp_decay_rir_scene,
    mclp_scene,
    mclp_spectral_radius,
    measure_srr,
    random_mclp,
    synthetic_speech,
)
from convbeam.stft import Spectrogram, StftConfig

SMALL = StftConfig(window_len=64)
LIMIT = np.iinfo(np.intp).max // 8  # the most samples one float64 array holds


def components_sum(scene):
    """steering * dry + reverb + noise, recomputed from a scene's parts."""
    direct = scene.steering.vectors.T[:, :, None] * scene.dry.data[0][None, :, :]
    return direct + scene.reverb.data + scene.noise.data


class TestSyntheticSpeech:
    def test_rms_and_length(self):
        x = synthetic_speech(2.0)
        assert x.shape == (32000,)
        assert np.sqrt(np.mean(x**2)) == pytest.approx(0.1, rel=1e-12)

    def test_deterministic_by_seed(self):
        np.testing.assert_array_equal(synthetic_speech(1.0, seed=4), synthetic_speech(1.0, seed=4))
        assert not np.array_equal(synthetic_speech(1.0, seed=4), synthetic_speech(1.0, seed=5))

    def test_amplitude_modulation_present(self):
        """Block energies should swing by well over a factor of four."""
        x = synthetic_speech(3.0)
        blocks = x[: x.shape[0] // 512 * 512].reshape(-1, 512)
        energies = np.mean(blocks**2, axis=1)
        assert np.max(energies) > 4.0 * np.percentile(energies, 10)

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            synthetic_speech(0.0)

    @pytest.mark.parametrize("duration", [1e15, 1e300, 1e308], ids=["1e15", "1e300", "1e308"])
    def test_a_duration_whose_sample_count_overflows_is_refused_by_name(self, duration):
        """Past what one float64 array holds, before any allocation."""
        message = (f"duration must be finite and give 1 to {LIMIT} samples at 16000 Hz, "
                   f"got {duration}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            synthetic_speech(duration)


class TestSpectralRadius:
    def test_single_lag_radius_is_coefficient_magnitude(self):
        c = np.array([[[0.3 + 0.4j]]])  # one bin, one lag, M=1
        assert mclp_spectral_radius(c[None], delay=1)[0] == pytest.approx(0.5, abs=1e-12)

    def test_two_lag_hand_case(self):
        # y(n) = 0.25 y(n-2): eigenvalues are +/- 0.5
        c = np.array([[[0.0]], [[0.25]]])  # lags 1 and 2
        assert mclp_spectral_radius(c[None], delay=1)[0] == pytest.approx(0.5, abs=1e-12)

    def test_delay_shifts_lag_positions(self):
        # y(n) = 0.25 y(n-2) expressed with delay 2 and a single block
        c = np.array([[[0.25]]])
        assert mclp_spectral_radius(c[None], delay=2)[0] == pytest.approx(0.5, abs=1e-12)

    def test_non_square_coefficients_are_refused(self):
        with pytest.raises(ValueError, match=re.escape(
                "coefficients must be square, got shape (1, 1, 2, 3)")):
            mclp_spectral_radius(np.zeros((1, 1, 2, 3)), delay=1)

    def test_matrix_case_matches_dense_eigensolve(self):
        rng = np.random.default_rng(0)
        m, blocks, delay = 3, 2, 1
        c = 0.2 * (rng.standard_normal((blocks, m, m)) + 1j * rng.standard_normal((blocks, m, m)))
        order = delay + blocks - 1
        comp = np.zeros((m * order, m * order), dtype=complex)
        comp[:m, :m] = c[0]
        comp[:m, m:] = c[1]
        comp[m:, :m] = np.eye(m)
        want = np.max(np.abs(np.linalg.eigvals(comp)))
        assert mclp_spectral_radius(c[None], delay)[0] == pytest.approx(want, rel=1e-12)


class TestRandomMclp:
    def test_radius_lands_on_target(self):
        c = random_mclp(2, order=4, delay=1, config=SMALL, seed=0)
        radius = mclp_spectral_radius(c, 1)
        np.testing.assert_allclose(radius, 0.9, atol=1e-8)

    def test_shapes_and_determinism(self):
        c = random_mclp(2, order=4, delay=2, config=SMALL, seed=3)
        assert c.shape == (SMALL.num_bins, 3, 2, 2)
        np.testing.assert_array_equal(c, random_mclp(2, 4, 2, SMALL, seed=3))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            random_mclp(2, order=1, delay=1, config=SMALL)
        with pytest.raises(ValueError):
            random_mclp(2, order=4, delay=1, config=SMALL, target_radius=1.5)

    @pytest.mark.parametrize("delay", [0, -1])
    def test_delay_below_one_rejected_by_name(self, delay):
        with pytest.raises(ValueError, match=rf"^delay must be >= 1, got {delay}$"):
            random_mclp(2, order=3, delay=delay, config=SMALL)

    @pytest.mark.parametrize("num_mics", [0, -2])
    def test_no_mics_rejected_by_name(self, num_mics):
        with pytest.raises(ValueError, match=rf"^num_mics must be >= 1, got {num_mics}$"):
            random_mclp(num_mics, order=4, delay=1, config=SMALL)


# ---------------------------------------------------------------------------
# frame-recursive scenes
# ---------------------------------------------------------------------------


class TestMclpScene:
    def _scene(self, snr_db=np.inf, seed=0, num_mics=2, order=3):
        dry = synthetic_speech(0.5, SMALL.sample_rate, seed=seed)
        geom = circular_array(num_mics, 0.10)
        steer = plane_wave_steering(geom, np.deg2rad(30.0), SMALL)
        coeffs = random_mclp(num_mics, order, 1, SMALL, seed=seed)
        return mclp_scene(dry, steer, coeffs, 1, snr_db=snr_db, config=SMALL, seed=seed)

    def test_components_sum_to_mixture(self):
        scene = self._scene(snr_db=20.0)
        np.testing.assert_allclose(components_sum(scene), scene.mixture.data, atol=1e-12)

    def test_reverb_follows_recursion_exactly(self):
        """Recompute the reverb at every frame from the stored coefficients
        and the clean (noiseless) past frames."""
        scene = self._scene()
        clean = scene.mixture.data - scene.noise.data  # (M, K, N)
        c = scene.true_mclp
        delay, order = scene.metadata["delay"], scene.metadata["order"]
        num_frames = scene.mixture.num_frames
        for n in range(3, num_frames, 7):
            want = np.zeros_like(clean[:, :, 0])
            for lag in range(delay, order + 1):
                if n - lag < 0:
                    continue
                want += np.einsum("kij,jk->ik", c[:, lag - delay], clean[:, :, n - lag])
            np.testing.assert_allclose(scene.reverb.data[:, :, n], want, atol=1e-10)

    def test_target_within_rounding_of_one_is_refused(self):
        """random_mclp rescales once and lands on its target only up to
        rounding, so a target just below 1 can come back at or above 1:
        mclp_scene is the one stability check, and prints the full radius."""
        c = random_mclp(2, 4, 1, SMALL, seed=0, target_radius=np.nextafter(1.0, 0.0))
        radius = mclp_spectral_radius(c, 1)
        assert np.any(radius >= 1.0)
        np.testing.assert_allclose(radius, 1.0, rtol=1e-13)
        dry = synthetic_speech(0.3, SMALL.sample_rate)
        steer = plane_wave_steering(circular_array(2, 0.1), 0.0, SMALL)
        worst = float(np.max(radius))
        with pytest.raises(ValueError, match=re.escape(f"spectral radius {worst!r} >= 1")):
            mclp_scene(dry, steer, c, 1, config=SMALL)

    def test_a_snr_whose_power_overflows_runs_as_no_noise(self):
        """1e308 dB is the documented +inf: no noise, the noiseless scene bit for bit."""
        loud, quiet = self._scene(snr_db=1e308), self._scene(snr_db=np.inf)
        assert not np.any(loud.noise.data)
        np.testing.assert_array_equal(loud.mixture.data, quiet.mixture.data)

    def test_unstable_coefficients_rejected(self):
        dry = synthetic_speech(0.3, SMALL.sample_rate)
        steer = plane_wave_steering(circular_array(2, 0.1), 0.0, SMALL)
        c = np.zeros((SMALL.num_bins, 1, 2, 2), dtype=complex)
        c[:, 0] = 1.1 * np.eye(2)
        with pytest.raises(ValueError, match="spectral radius"):
            mclp_scene(dry, steer, c, 1, config=SMALL)

    def test_snr_is_respected(self):
        scene = self._scene(snr_db=10.0, seed=2)
        p_clean = np.mean(np.abs(scene.mixture.data - scene.noise.data) ** 2)
        p_noise = np.mean(np.abs(scene.noise.data) ** 2)
        assert 10.0 * np.log10(p_clean / p_noise) == pytest.approx(10.0, abs=0.3)

    def test_noiseless_scene_has_zero_noise(self):
        scene = self._scene(snr_db=np.inf)
        assert np.all(scene.noise.data == 0.0)

    def test_coefficient_shape_checked(self):
        dry = synthetic_speech(0.3, SMALL.sample_rate)
        steer = plane_wave_steering(circular_array(2, 0.1), 0.0, SMALL)
        with pytest.raises(ValueError, match="coefficients"):
            mclp_scene(dry, steer, np.zeros((4, 1, 2, 2), dtype=complex), 1, config=SMALL)

    def test_reverb_carries_real_energy(self):
        scene = self._scene(seed=5)
        p_rev = np.mean(np.abs(scene.reverb.data) ** 2)
        p_dry = np.mean(np.abs(scene.dry.data) ** 2)
        assert p_rev > 0.1 * p_dry


# ---------------------------------------------------------------------------
# impulse response scenes
# ---------------------------------------------------------------------------


class TestRirScene:
    def _scene(self, **kw):
        defaults = dict(
            dry=synthetic_speech(0.6, SMALL.sample_rate, seed=1),
            geom=circular_array(3, 0.10),
            azimuth=np.deg2rad(60.0),
            t60=0.15,
            drr_db=0.0,
            snr_db=np.inf,
            config=SMALL,
            seed=7,
        )
        defaults.update(kw)
        return exp_decay_rir_scene(**defaults)

    def test_components_sum_to_mixture(self):
        scene = self._scene(snr_db=20.0)
        np.testing.assert_allclose(components_sum(scene), scene.mixture.data, atol=1e-12)

    def test_infinite_drr_leaves_only_direct_path(self):
        # at the production window length the residual mismatch between the
        # sinc interpolator and the per-bin phase model sits near -32 dB
        cfg = StftConfig()
        scene = self._scene(
            drr_db=np.inf, config=cfg, dry=synthetic_speech(0.6, cfg.sample_rate, seed=1)
        )
        assert np.all(scene.metadata["rir_tail"] == 0.0)
        p_rev = np.mean(np.abs(scene.reverb.data) ** 2)
        p_dir = np.mean(np.abs(scene.dry.data) ** 2)
        assert p_rev < 2e-3 * p_dir

    @pytest.mark.parametrize("name", ["drr_db", "snr_db"])
    def test_a_level_whose_power_overflows_runs_as_plus_inf(self, name):
        """1e308 dB is the documented +inf: no tail for the DRR, no noise for
        the SNR, so the scene equals the one at +inf bit for bit."""
        loud, inf = self._scene(**{name: 1e308}), self._scene(**{name: np.inf})
        np.testing.assert_array_equal(loud.mixture.data, inf.mixture.data)
        np.testing.assert_array_equal(loud.metadata["rir_tail"], inf.metadata["rir_tail"])

    @pytest.mark.parametrize("name", ["drr_db", "snr_db"])
    def test_a_level_whose_power_underflows_is_refused_by_name(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite or \\+inf, .*got -1e\\+308$"):
            self._scene(**{name: -1e308})

    @pytest.mark.parametrize("t60", [1e15, 1e300, 1e308], ids=["1e15", "1e300", "1e308"])
    def test_a_t60_whose_tail_length_overflows_is_refused_by_name(self, t60):
        message = f"t60 must be finite and give 0 to {LIMIT} samples at 16000 Hz, got {t60}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self._scene(t60=t60)

    def test_zero_t60_is_anechoic(self):
        scene = self._scene(t60=0.0, drr_db=0.0)
        assert np.all(scene.metadata["rir_tail"] == 0.0)

    def test_drr_scaling(self):
        """The impulse response tail energy must match the requested
        direct-to-reverberant ratio exactly."""
        scene = self._scene(drr_db=3.0)
        tails = scene.metadata["rir_tail"]
        directs = scene.metadata["rirs"] - tails
        for m in range(tails.shape[0]):
            drr = 10.0 * np.log10(np.sum(directs[m] ** 2) / np.sum(tails[m] ** 2))
            assert drr == pytest.approx(3.0, abs=1e-9)

    def test_deterministic(self):
        a = self._scene(seed=9)
        b = self._scene(seed=9)
        np.testing.assert_array_equal(a.mixture.data, b.mixture.data)

    def test_reverb_power_follows_drr(self):
        """Lower direct-to-reverberant ratio means more reverb energy; t60
        only reshapes the tail because the DRR pins its total energy."""
        weak = self._scene(drr_db=6.0)
        strong = self._scene(drr_db=-6.0)
        p = lambda s: np.mean(np.abs(s.reverb.data) ** 2)
        assert p(strong) > 4.0 * p(weak)

    def test_validation(self):
        with pytest.raises(ValueError):
            self._scene(t60=-1.0)
        with pytest.raises(ValueError):
            self._scene(dry=np.zeros((2, 100)))


# ---------------------------------------------------------------------------
# diffuse noise and evaluation
# ---------------------------------------------------------------------------


class TestDiffuseNoise:
    def test_shapes(self):
        geom = circular_array(4, 0.1)
        frames = diffuse_noise_frames(geom, SMALL, 12, seed=0)
        assert frames.shape == (4, SMALL.num_bins, 12)
        frames = diffuse_noise_frames(geom, SMALL, SMALL.num_frames(1600), seed=0)
        assert Spectrogram(frames, SMALL).num_channels == 4

    def test_unit_scale_power(self):
        geom = circular_array(4, 0.1)
        frames = diffuse_noise_frames(geom, SMALL, 4000, seed=1)
        # diagonal of Gamma + loading*I is 1.01
        power = np.mean(np.abs(frames) ** 2)
        assert power == pytest.approx(1.01, rel=0.05)

    def test_frame_count_validated(self):
        with pytest.raises(ValueError):
            diffuse_noise_frames(circular_array(2, 0.1), SMALL, 0)


class TestMeasureSrr:
    def _scene(self):
        dry = synthetic_speech(0.4, SMALL.sample_rate, seed=2)
        steer = plane_wave_steering(circular_array(2, 0.1), 0.0, SMALL)
        coeffs = random_mclp(2, 3, 1, SMALL, seed=2)
        return mclp_scene(dry, steer, coeffs, 1, config=SMALL, seed=2)

    def test_perfect_estimate_hits_cap(self):
        scene = self._scene()
        assert measure_srr(scene, scene.dry) == 60.0

    def test_scaled_estimate_hits_cap(self):
        """Projection removes a global complex scale."""
        scene = self._scene()
        est = Spectrogram(scene.dry.data[0] * (2.0 - 1.0j), SMALL)
        assert measure_srr(scene, est) == 60.0

    def test_mixture_scores_below_dry(self):
        scene = self._scene()
        ref_mic = scene.mixture.channel(0)
        assert measure_srr(scene, ref_mic) < 20.0

    def test_pure_interference_is_very_low(self):
        scene = self._scene()
        rng = np.random.default_rng(3)
        shape = scene.dry.data[0].shape
        est = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert measure_srr(scene, est) < 1.0

    def test_a_silent_dry_signal_is_refused(self):
        scene = self._scene()
        scene.dry = Spectrogram(np.zeros_like(scene.dry.data), SMALL)
        with pytest.raises(ValueError, match="^dry reference is identically zero$"):
            measure_srr(scene, scene.mixture.channel(0))

    def test_an_estimate_with_no_overlap_scores_minus_infinity(self):
        """The dry signal is silent in the first half of the frames and the
        estimate everywhere else, so no part of it projects onto the dry one."""
        scene = self._scene()
        half = scene.dry.num_frames // 2
        scene.dry.data[:, :, :half] = 0.0
        est = scene.mixture.data[0].copy()
        est[:, half:] = 0.0
        assert measure_srr(scene, est) == -np.inf

    def test_shape_mismatch_rejected(self):
        scene = self._scene()
        with pytest.raises(ValueError, match="estimate shape"):
            measure_srr(scene, np.zeros((3, 3), dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_estimate_rejected(self, bad):
        """A NaN or infinity is refused by bin and frame, not scored at the 60 dB cap."""
        scene = self._scene()
        est = scene.dry.data[0].copy()
        est[5, 7] = bad
        with pytest.raises(ValueError, match="^estimate has a non-finite value at bin 5, frame 7$"):
            measure_srr(scene, est)
