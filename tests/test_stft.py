"""Framing, windowing, and reconstruction tests.

Expected values that are checked exactly were computed by hand from the
window definition; everything else is a structural or round-trip property.
"""

import numpy as np
import pytest

from convbeam.stft import (
    BandPlan,
    Spectrogram,
    StftConfig,
    istft,
    sqrt_hann,
    stft,
)


class TestWindow:
    def test_sqrt_hann_length_4_hand_values(self):
        # hann(n) = 0.5 - 0.5 cos(2 pi n / 4) at n = 0..3 is [0, .5, 1, .5]
        win = sqrt_hann(4)
        expected = np.sqrt([0.0, 0.5, 1.0, 0.5])
        np.testing.assert_allclose(win, expected, rtol=0, atol=1e-15)

    def test_overlapped_squares_sum_to_one(self):
        """50% overlap constant-overlap-add: w^2(i) + w^2(i + hop) = 1."""
        win = sqrt_hann(512)
        ola = win[:256] ** 2 + win[256:] ** 2
        np.testing.assert_allclose(ola, 1.0, rtol=0, atol=1e-14)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            sqrt_hann(511)


class TestConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert cfg.sample_rate == 16000
        assert cfg.window_len == 512
        assert cfg.hop == 256
        assert cfg.num_bins == 257

    def test_bin_freq(self):
        cfg = StftConfig()
        assert cfg.bin_freq(0) == 0.0
        assert cfg.bin_freq(32) == 1000.0
        assert cfg.bin_freq(256) == 8000.0

    def test_num_frames(self):
        cfg = StftConfig()
        assert cfg.num_frames(512) == 1
        assert cfg.num_frames(513) == 2
        assert cfg.num_frames(512 + 256) == 2
        assert cfg.num_frames(16000) == 1 + int(np.ceil((16000 - 512) / 256))

    def test_too_short_signal_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            StftConfig().num_frames(511)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            StftConfig(window_len=511, hop=256)
        with pytest.raises(ValueError):
            StftConfig(window_len=512, hop=128)
        with pytest.raises(ValueError):
            StftConfig(window_len=512, hop=256, fft_len=256)


class TestSpectrogram:
    def test_two_d_promoted_to_single_channel(self):
        cfg = StftConfig(window_len=32, hop=16, fft_len=32)
        spec = Spectrogram(np.zeros((17, 5)), cfg)
        assert spec.num_channels == 1
        assert spec.num_bins == 17
        assert spec.num_frames == 5

    def test_bin_mismatch_rejected(self):
        cfg = StftConfig(window_len=32, hop=16, fft_len=32)
        with pytest.raises(ValueError, match="bin count"):
            Spectrogram(np.zeros((16, 5)), cfg)

    def test_channel_view(self):
        cfg = StftConfig(window_len=32, hop=16, fft_len=32)
        data = np.arange(2 * 17 * 3).reshape(2, 17, 3).astype(complex)
        spec = Spectrogram(data, cfg)
        np.testing.assert_array_equal(spec.channel(1).data[0], data[1])


class TestRoundTrip:
    def test_interior_reconstruction_near_machine_precision(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 8000))
        cfg = StftConfig()
        y = istft(stft(x, cfg), length=8000)
        # first and last hop see only one window, so compare the interior
        err = x[:, 256:-256] - y[:, 256:-256]
        assert np.max(np.abs(err)) < 1e-12

    def test_pure_tone_lands_in_its_bin(self):
        cfg = StftConfig()
        t = np.arange(16000) / cfg.sample_rate
        spec = stft(np.sin(2 * np.pi * 1000.0 * t), cfg)
        mags = np.abs(spec.data[0, :, 20])
        assert int(np.argmax(mags)) == 32

    def test_length_trim_and_pad(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1000)
        spec = stft(x)
        assert istft(spec, length=1000).shape == (1, 1000)
        assert istft(spec, length=2000).shape == (1, 2000)

    def test_config_mismatch_rejected(self):
        spec = stft(np.zeros(1024), StftConfig())
        with pytest.raises(ValueError, match="config mismatch"):
            istft(spec, config=StftConfig(fft_len=1024))

    def test_tail_samples_are_covered(self):
        """A signal that is not a whole number of hops still round-trips."""
        rng = np.random.default_rng(2)
        n = 512 + 256 * 3 + 100
        x = rng.standard_normal(n)
        y = istft(stft(x), length=n)
        err = x[256:-256] - y[0, 256:-256]
        assert np.max(np.abs(err)) < 1e-12


# ---------------------------------------------------------------------------
# band plans
# ---------------------------------------------------------------------------


class TestBandPlan:
    def test_default_orders_by_bin(self):
        orders = BandPlan().bin_orders(StftConfig())
        # 500 Hz, 1000 Hz, 3000 Hz at 31.25 Hz per bin
        assert orders[16] == 12
        assert orders[32] == 8
        assert orders[96] == 6

    def test_transition_bin_belongs_to_upper_band(self):
        cfg = StftConfig()
        orders = BandPlan().bin_orders(cfg)
        # bin 64 sits exactly on 2000 Hz
        assert cfg.bin_freq(64) == 2000.0
        assert orders[64] == 6
        assert orders[63] == 8

    def test_bin_orders_matches_scalar_lookup(self):
        cfg = StftConfig()
        plan = BandPlan((800.0, 2000.0), (12, 8, 6))
        orders = plan.bin_orders(cfg)
        assert orders.shape == (cfg.num_bins,)
        # 0, 781.25, 812.5, 1968.75, 2000, 4000 and 8000 Hz
        bins = (0, 25, 26, 63, 64, 128, 256)
        assert [orders[k] for k in bins] == [12, 12, 8, 8, 6, 6, 6]

    def test_single_band_plan(self):
        cfg = StftConfig()
        orders = BandPlan((), (4,)).bin_orders(cfg)
        assert np.all(orders == 4)

    def test_validation(self):
        with pytest.raises(ValueError, match="orders"):
            BandPlan((800.0,), (12, 8, 6))
        with pytest.raises(ValueError, match="ascending"):
            BandPlan((2000.0, 800.0), (12, 8, 6))
        with pytest.raises(ValueError, match="delay"):
            BandPlan((), (1,), delay=1)
        with pytest.raises(ValueError):
            BandPlan((), (4,), delay=0)

    def test_zero_order_allowed(self):
        orders = BandPlan((), (0,)).bin_orders(StftConfig())
        assert np.all(orders == 0)
