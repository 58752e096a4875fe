"""Array geometry, steering, coherence, and localization tests."""

import re

import numpy as np
import pytest

from conftest import assert_close
from convbeam import geometry
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
    srp_phat_localize,
)
from convbeam.stft import Spectrogram, StftConfig


class TestGeometryTypes:
    def test_positions_validated(self):
        with pytest.raises(ValueError):
            ArrayGeometry(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            ArrayGeometry(np.array([[0.0, 0.0, np.inf]]))
        with pytest.raises(TypeError):  # the first mic is always the reference
            ArrayGeometry(np.zeros((2, 3)), reference_mic=2)

    def test_circular_array_refuses_a_negative_radius(self):
        with pytest.raises(ValueError, match=r"^radius must be >= 0, got -0\.1$"):
            circular_array(4, -0.1)

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
        path.write_text("# mics\n" + "".join(f"{x:.9g} {y:.9g} {z:.9g}\n"
                                              for x, y, z in geom.positions))
        loaded = load_geometry(path)
        np.testing.assert_allclose(loaded.positions, geom.positions, atol=1e-9)
        assert loaded.reference_mic == 0

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "mics.txt"
        path.write_text("# header\n\n0 0 0\n0.1 0 0  # on axis\n")
        geom = load_geometry(path)
        assert geom.num_mics == 2
        np.testing.assert_allclose(geom.positions[1], [0.1, 0.0, 0.0])

    @pytest.mark.parametrize("line, message", [
        ("0.1 0", "expected 3 coordinates, got 2"),
        ("nan 0 0", "coordinates must be finite, got 'nan 0 0'"),
        ("0 inf 0", "coordinates must be finite, got '0 inf 0'"),
        ("0 0 -inf", "coordinates must be finite, got '0 0 -inf'"),
    ], ids=["two", "nan", "inf", "-inf"])
    def test_bad_line_reports_line_number(self, tmp_path, line, message):
        path = tmp_path / "mics.txt"
        path.write_text(f"0 0 0\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
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

    def test_coherence_is_cached_per_geometry_and_config(self):
        """Calls for one array and STFT share one read-only matrix; another
        geometry, an in-place edit of the positions and another STFT each get
        their own; a non-finite gamma is refused on every call."""
        geom = circular_array(4, 0.1)
        first = diffuse_coherence(geom)
        assert diffuse_coherence(circular_array(4, 0.1)) is first
        assert not first.gamma.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first.gamma[0, 0, 1] = 0.5
        other = diffuse_coherence(circular_array(4, 0.2))
        assert other is not first and not np.array_equal(other.gamma, first.gamma)
        geom.positions[:] *= 2.0  # edited in place to the bits of the 0.2 m array
        assert diffuse_coherence(geom) is other
        short = diffuse_coherence(circular_array(4, 0.1), StftConfig(window_len=32))
        assert short.gamma.shape == (17, 4, 4)
        far = ArrayGeometry(np.array([[0.0, 0.0, 0.0], [1e308, 0.0, 0.0]]))
        for _ in range(2):  # d overflows to inf, and 2 f d / c is NaN at f = 0
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                    ValueError, match=r"non-finite value at bin 0, entry \(0, 1\)"):
                diffuse_coherence(far)


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
        # a framing with no bin in the range leaves every map flat too
        coarse = Spectrogram(np.ones((4, 2, 10), dtype=complex), StftConfig(window_len=2))
        with pytest.raises(ValueError, match=r"channels \[\] .*pass a DOA$"):
            srp_phat_localize(coarse, geom)

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

    @pytest.mark.parametrize("positions", [
        np.zeros((4, 3)),  # circular:4:0
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.05], [0.0, 0.0, 0.1]],  # stacked on the z axis
        [[0.1, -0.2, 0.0], [0.1, -0.2, 0.3]],
    ])
    def test_array_without_horizontal_aperture_rejected(self, positions):
        """Mics that share one (x, y) steer every azimuth alike: the map is
        flat however live the channels are, so no azimuth may come back."""
        geom = ArrayGeometry(np.asarray(positions, dtype=float))
        spec = _plane_wave_spec(geom, np.deg2rad(90.0))
        with pytest.raises(ValueError, match=r"no horizontal aperture.*pass a DOA$"):
            srp_phat_localize(spec, geom)

    def test_any_horizontal_aperture_localizes(self):
        """Two mics apart in y alone still tell +y from -y sources."""
        geom = ArrayGeometry(np.array([[0.0, 0.0, 0.0], [0.0, 0.1, 0.0]]))
        est = srp_phat_localize(_plane_wave_spec(geom, np.deg2rad(90.0)), geom)
        assert np.rad2deg(est) == pytest.approx(90.0, abs=1e-9)

    def test_grid_power_equals_the_per_azimuth_quadratic_form(self):
        """Each grid point scores sum_k a_k^H C_k a_k, with C_k the PHAT
        cross-power of bin k summed over frames, to rounding."""
        geom = circular_array(6, 0.10)
        spec = _plane_wave_spec(geom, np.deg2rad(123.0), seed=3)
        spec.data[:, :, 5] *= np.exp(1j * np.linspace(0.0, 2.0, 6))[:, None]  # not rank one
        spec.data[2, 40:60, 7] = 0.0  # a cell with no magnitude adds nothing
        grid, power = geometry._SRP_GRID, geometry._srp_map(spec, geom)
        band = (spec.config.freqs >= 300.0) & (spec.config.freqs <= 4000.0)
        data = spec.data[:, band, :]
        mags = np.abs(data)
        phat = np.divide(data, mags, out=np.zeros_like(data), where=mags > 0)
        cross = [phat[:, k] @ phat[:, k].conj().T for k in range(phat.shape[1])]
        want = []
        for az in grid:
            a = plane_wave_steering(geom, az, spec.config).vectors[band]
            want.append(sum((a[k].conj() @ cross[k] @ a[k]).real for k in range(len(a))))
        np.testing.assert_array_equal(grid, np.deg2rad(np.arange(0.0, 360.0, 5.0)))
        assert_close(power, np.array(want))

    def test_exact_tie_goes_to_the_lowest_grid_index(self):
        """Two mics on the x axis steer 60 and 300 degrees to the same bits,
        so both score alike; 60 degrees, the lower index, comes back."""
        geom = ArrayGeometry(np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]))
        grid = geometry._SRP_GRID
        power = geometry._srp_map(_plane_wave_spec(geom, np.deg2rad(60.0)), geom)
        low, high = 12, 60  # 60 and 300 degrees
        assert plane_wave_delays(geom, grid[low]).tobytes() == \
            plane_wave_delays(geom, grid[high]).tobytes()
        assert power[low] == power[high] == power.max()
        assert srp_phat_localize(_plane_wave_spec(geom, np.deg2rad(60.0)), geom) == grid[low]

    def test_cached_grid_gives_the_uncached_doa(self):
        """The grid cache is keyed by value: geometries called in turn, and
        one edited in place, each give the DOA of a call on an empty cache."""
        first = circular_array(6, 0.10)
        second = ArrayGeometry(np.array(
            [[0.0, 0.0, 0.0], [0.07, 0.0, 0.0], [0.0, 0.09, 0.0], [-0.05, -0.05, 0.01]]))
        cases = [(first, _plane_wave_spec(first, np.deg2rad(80.0), seed=1)),
                 (second, _plane_wave_spec(second, np.deg2rad(200.0), seed=2))]

        def uncached(geom, spec):
            geometry._srp_grid.cache_clear()
            return srp_phat_localize(spec, geom)

        want = [uncached(geom, spec) for geom, spec in cases]
        assert np.rad2deg(want) == pytest.approx([80.0, 200.0])
        for (geom, spec), doa in 2 * list(zip(cases, want)):
            assert srp_phat_localize(spec, geom) == doa
        first.positions[:, :2] = first.positions[:, 1::-1].copy()  # mirror about y = x
        edited = srp_phat_localize(cases[0][1], first)
        assert edited == uncached(*cases[0]) and np.rad2deg(edited) == pytest.approx(10.0)

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

    @pytest.mark.parametrize("row, message", [
        ([1.0, np.nan], "^steering has a non-finite value at bin 3, channel 1$"),
        ([1.0, np.inf], "^steering has a non-finite value at bin 3, channel 1$"),
        ([0.0, 0.0], "^steering vector of bin 3 has zero norm$"),
    ])
    def test_steering_vector_refuses_what_it_cannot_steer(self, row, message):
        """A non-finite entry is named by bin and channel, a zero row by bin,
        when the steering is built."""
        vectors = np.ones((5, 2), dtype=complex)
        vectors[3] = row
        with pytest.raises(ValueError, match=message):
            SteeringVector(vectors, 0)
