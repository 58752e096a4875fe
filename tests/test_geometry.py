"""Array geometry, steering, coherence, and localization tests."""

import numpy as np
import pytest

from convbeam.geometry import (
    SPEED_OF_SOUND,
    ArrayGeometry,
    CoherenceMatrix,
    SteeringVector,
    circular_array,
    diffuse_coherence,
    load_geometry,
    plane_wave_delays,
    plane_wave_steering,
    save_geometry,
    srp_phat_localize,
)
from convbeam.stft import Spectrogram, StftConfig


class TestGeometryTypes:
    def test_positions_validated(self):
        with pytest.raises(ValueError):
            ArrayGeometry(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            ArrayGeometry(np.array([[0.0, 0.0, np.inf]]))
        with pytest.raises(ValueError):
            ArrayGeometry(np.zeros((2, 3)), reference_mic=2)

    def test_circular_array_layout(self):
        geom = circular_array(8, 0.10)
        assert geom.num_mics == 8
        assert geom.reference_mic == 0
        np.testing.assert_allclose(geom.positions[0], [0.10, 0.0, 0.0], atol=1e-15)
        # every mic sits on the circle
        np.testing.assert_allclose(
            np.linalg.norm(geom.positions[:, :2], axis=1), 0.10, atol=1e-15
        )

    def test_adjacent_chord_distance(self):
        # chord of a 45 degree arc: 2 r sin(pi/8)
        geom = circular_array(8, 0.10)
        d = geom.pairwise_distances()
        expected = 2.0 * 0.10 * np.sin(np.pi / 8.0)
        np.testing.assert_allclose(d[0, 1], expected, rtol=1e-12)
        assert d[0, 0] == 0.0
        np.testing.assert_allclose(d, d.T, atol=0)


class TestGeometryIO:
    def test_round_trip(self, tmp_path):
        geom = circular_array(4, 0.05)
        path = tmp_path / "mics.txt"
        save_geometry(path, geom)
        loaded = load_geometry(path)
        np.testing.assert_allclose(loaded.positions, geom.positions, atol=1e-9)
        assert loaded.reference_mic == 0

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "mics.txt"
        path.write_text("# header\n\n0 0 0\n0.1 0 0  # on axis\n")
        geom = load_geometry(path)
        assert geom.num_mics == 2
        np.testing.assert_allclose(geom.positions[1], [0.1, 0.0, 0.0])

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "mics.txt"
        path.write_text("0 0 0\n0.1 0\n")
        with pytest.raises(ValueError, match=":2:"):
            load_geometry(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "mics.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no microphone"):
            load_geometry(path)


# ---------------------------------------------------------------------------
# steering and coherence
# ---------------------------------------------------------------------------


class TestSteering:
    def test_reference_entry_is_exactly_one(self):
        geom = circular_array(8, 0.10)
        steer = plane_wave_steering(geom, 0.3)
        np.testing.assert_array_equal(steer.vectors[:, 0], 1.0 + 0.0j)

    def test_unit_modulus(self):
        geom = circular_array(6, 0.10)
        steer = plane_wave_steering(geom, 1.1)
        np.testing.assert_allclose(np.abs(steer.vectors), 1.0, atol=1e-14)

    def test_two_mic_phase_hand_value(self):
        """Mic on the +x axis hears an azimuth-0 wave d/c earlier than one
        at the origin; with the origin as reference its phase leads."""
        d = 0.1
        geom = ArrayGeometry(np.array([[0.0, 0.0, 0.0], [d, 0.0, 0.0]]))
        cfg = StftConfig()
        steer = plane_wave_steering(geom, 0.0, cfg)
        k = 32  # 1000 Hz
        expected = np.exp(2j * np.pi * 1000.0 * d / SPEED_OF_SOUND)
        np.testing.assert_allclose(steer.vectors[k, 1], expected, rtol=1e-12)

    def test_broadside_has_no_delay(self):
        # wave from +y hits both x-axis mics simultaneously
        geom = ArrayGeometry(np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]))
        steer = plane_wave_steering(geom, np.pi / 2.0)
        np.testing.assert_allclose(steer.vectors, 1.0, atol=1e-12)

    def test_shape(self):
        steer = plane_wave_steering(circular_array(5, 0.08), 0.0)
        assert steer.vectors.shape == (257, 5)

    @pytest.mark.parametrize("azimuth", [np.nan, np.inf, -np.inf])
    def test_non_finite_azimuth_rejected(self, azimuth):
        """The one plane-wave formula behind steering and RIR scenes names the bad angle."""
        with pytest.raises(ValueError, match=f"azimuth must be finite, got {azimuth}"):
            plane_wave_delays(circular_array(4, 0.05), azimuth)


class TestDiffuseCoherence:
    def test_unit_diagonal_and_symmetry(self):
        gamma = diffuse_coherence(circular_array(4, 0.1)).gamma
        assert gamma.shape == (257, 4, 4)
        np.testing.assert_allclose(np.diagonal(gamma, axis1=1, axis2=2), 1.0, atol=0)
        np.testing.assert_allclose(gamma, np.swapaxes(gamma, 1, 2), atol=0)

    def test_zero_crossing_hand_value(self):
        """sinc(2 f d / c) has its first zero where 2 f d / c = 1; at 1 kHz
        that distance is c / 2000 = 0.1715 m."""
        d = SPEED_OF_SOUND / 2000.0
        geom = ArrayGeometry(np.array([[0.0, 0.0, 0.0], [d, 0.0, 0.0]]))
        gamma = diffuse_coherence(geom).gamma
        k = 32  # 1000 Hz
        assert abs(gamma[k, 0, 1]) < 1e-15

    def test_dc_bin_fully_coherent(self):
        gamma = diffuse_coherence(circular_array(4, 0.1)).gamma
        np.testing.assert_allclose(gamma[0], 1.0, atol=0)

    def test_coherence_shape_validation(self):
        with pytest.raises(ValueError):
            CoherenceMatrix(np.zeros((5, 3, 4)))


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------


def _plane_wave_spec(geom, azimuth, num_frames=40, seed=0):
    cfg = StftConfig()
    rng = np.random.default_rng(seed)
    src = rng.standard_normal((cfg.num_bins, num_frames)) + 1j * rng.standard_normal(
        (cfg.num_bins, num_frames)
    )
    a = plane_wave_steering(geom, azimuth, cfg).vectors
    return Spectrogram(a.T[:, :, None] * src[None, :, :], cfg)


class TestSrpPhat:
    def test_recovers_grid_aligned_azimuth(self):
        geom = circular_array(8, 0.10)
        spec = _plane_wave_spec(geom, np.deg2rad(90.0))
        est = srp_phat_localize(spec, geom)
        assert abs(np.rad2deg(est) - 90.0) < 1e-9

    def test_recovers_off_grid_azimuth_within_one_step(self):
        geom = circular_array(8, 0.10)
        spec = _plane_wave_spec(geom, np.deg2rad(123.0), seed=3)
        est = srp_phat_localize(spec, geom)
        err = abs(np.rad2deg(est) - 123.0)
        assert min(err, 360.0 - err) <= 5.0

    def test_scale_invariance(self):
        """PHAT weighting removes magnitude, so scaling cannot move the peak."""
        geom = circular_array(6, 0.10)
        spec = _plane_wave_spec(geom, np.deg2rad(45.0), seed=5)
        scaled = Spectrogram(spec.data * 37.5, spec.config)
        assert srp_phat_localize(spec, geom) == srp_phat_localize(scaled, geom)

    def test_silent_input_rejected(self):
        """A flat map has no peak; the grid's first point must not come back."""
        geom = circular_array(4, 0.10)
        cfg = StftConfig()
        spec = Spectrogram(np.zeros((4, cfg.num_bins, 10), dtype=complex), cfg)
        with pytest.raises(ValueError, match=r"channels \[\] .*pass a DOA$"):
            srp_phat_localize(spec, geom)
        # energy outside the searched range counts as silence too
        spec.data[:, cfg.num_bins - 1, :] = 1.0
        with pytest.raises(ValueError, match=r"channels \[\] .*pass a DOA$"):
            srp_phat_localize(spec, geom)
        # so does energy on one channel alone: every direction steers it alike
        noise = np.random.default_rng(0).standard_normal((cfg.num_bins, 10)) + 0j
        for live in (0, 3):
            spec.data[:] = 0.0
            spec.data[live] = noise
            with pytest.raises(ValueError, match=rf"channels \[{live}\] .*pass a DOA$"):
                srp_phat_localize(spec, geom)

    def test_live_channels_in_disjoint_cells_rejected(self):
        """Two live channels that never share a time-frequency cell give no
        cross-power, so the map is as flat as with one channel."""
        geom = circular_array(4, 0.10)
        cfg = StftConfig()
        noise = np.random.default_rng(1).standard_normal((2, cfg.num_bins, 10)) + 0j
        by_frame = np.zeros((4, cfg.num_bins, 10), dtype=complex)
        by_frame[0, :, :5], by_frame[1, :, 5:] = noise[0, :, :5], noise[1, :, 5:]
        by_bin = np.zeros_like(by_frame)
        by_bin[0, 0::2], by_bin[2, 1::2] = noise[0, 0::2], noise[1, 1::2]
        for data, live in ((by_frame, "0, 1"), (by_bin, "0, 2")):
            with pytest.raises(ValueError, match=rf"channels \[{live}\] .*pass a DOA$"):
                srp_phat_localize(Spectrogram(data, cfg), geom)

    def test_two_live_channels_sharing_cells_localize(self):
        """Two live channels of 8 that share cells still give a peak: the one
        whose pair delay matches the source's (or its mirror about the pair)."""
        geom = circular_array(8, 0.10)
        spec = _plane_wave_spec(geom, np.deg2rad(90.0))
        spec.data[[0, 1, 3, 4, 6, 7]] = 0.0
        est = srp_phat_localize(spec, geom)
        pair_delay = [plane_wave_delays(geom, az) @ [0, 0, -1, 0, 0, 1, 0, 0]
                      for az in (est, np.deg2rad(90.0))]
        assert pair_delay[0] == pytest.approx(pair_delay[1], abs=1e-12)

    def test_single_mic_rejected(self):
        geom = circular_array(1, 0.0)
        cfg = StftConfig()
        spec = Spectrogram(np.zeros((1, cfg.num_bins, 4), dtype=complex), cfg)
        with pytest.raises(ValueError, match="at least 2"):
            srp_phat_localize(spec, geom)

    def test_channel_mismatch_rejected(self):
        cfg = StftConfig()
        spec = Spectrogram(np.zeros((3, cfg.num_bins, 4), dtype=complex), cfg)
        with pytest.raises(ValueError, match="channel count"):
            srp_phat_localize(spec, circular_array(4, 0.1))

    def test_steering_vector_type(self):
        with pytest.raises(ValueError):
            SteeringVector(np.zeros(5), 0)
