"""Quality metric tests with analytically constructed expected values.

The frequency-weighted segmental SNR oracle exploits that scaling a signal's
magnitude spectrum by (1 + 10** (-x/20)) puts every band's SNR at exactly
x dB, so the weighted mean is x dB no matter what the weights are.  The
cepstral distance oracle uses a first-order all-pole pair whose LPC cepstra
are known in closed form: c_n = b**n / n.
"""

import numpy as np
import pytest
from scipy.signal import lfilter

from convbeam.metrics import (
    MetricReport,
    _levinson,
    _lpc_cepstrum,
    _mel_filterbank,
    cepstral_distance,
    compute_metrics,
    format_report,
    fw_seg_snr,
)


def _speechish(n, seed=0):
    rng = np.random.default_rng(seed)
    return lfilter([1.0], [1.0, -0.9], rng.standard_normal(n))


class TestMelFilterbank:
    def test_shape_and_coverage(self):
        fb = _mel_filterbank(23, 512, 16000)
        assert fb.shape == (23, 257)
        assert np.all(fb >= 0.0)
        # every band carries some weight
        assert np.all(fb.sum(axis=1) > 0.0)

    def test_triangles_peak_inside_band(self):
        fb = _mel_filterbank(23, 512, 16000)
        peaks = np.argmax(fb, axis=1)
        assert np.all(np.diff(peaks) > 0)


class TestFwSegSnr:
    def test_exact_ten_db_construction(self):
        """est = (1 + 10**-0.5) * ref makes sqrt(P_est) - sqrt(P_ref) equal
        10**-0.5 * sqrt(P_ref) in every band, hence 10 dB everywhere."""
        ref = _speechish(16000)
        est = (1.0 + 10.0 ** (-0.5)) * ref
        assert fw_seg_snr(ref, est) == pytest.approx(10.0, abs=1e-6)

    def test_exact_twenty_db_construction(self):
        ref = _speechish(16000, seed=1)
        est = (1.0 + 10.0 ** (-1.0)) * ref
        assert fw_seg_snr(ref, est) == pytest.approx(20.0, abs=1e-6)

    def test_identical_signals_hit_upper_clamp(self):
        ref = _speechish(8000)
        assert fw_seg_snr(ref, ref) == 35.0

    def test_polarity_inversion_is_invisible(self):
        # the metric compares magnitude spectra
        ref = _speechish(8000, seed=2)
        assert fw_seg_snr(ref, -ref) == 35.0

    def test_garbage_estimate_hits_lower_region(self):
        ref = _speechish(16000, seed=3)
        rng = np.random.default_rng(4)
        est = 100.0 * rng.standard_normal(ref.shape[0])
        assert fw_seg_snr(ref, est) < 0.0

    def test_monotone_in_noise_level(self):
        ref = _speechish(16000, seed=5)
        rng = np.random.default_rng(6)
        noise = rng.standard_normal(ref.shape[0]) * np.std(ref)
        scores = [fw_seg_snr(ref, ref + g * noise) for g in (0.01, 0.1, 0.3, 1.0)]
        assert all(b < a for a, b in zip(scores, scores[1:]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fw_seg_snr(np.zeros(8000), np.zeros(8001))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            fw_seg_snr(np.zeros(100), np.zeros(100))

    def test_silent_reference_rejected(self):
        with pytest.raises(ValueError):
            fw_seg_snr(np.zeros(8000), _speechish(8000))


@pytest.mark.parametrize("metric", [fw_seg_snr, cepstral_distance])
class TestMinimumRate:
    """A 32 ms segment must hold more samples than the LPC order (16)."""

    @pytest.mark.parametrize("rate", [1, 47, 200, 515])
    def test_low_rate_refused_by_name(self, metric, rate):
        x = _speechish(1000)
        with pytest.raises(ValueError, match=rf"^sample_rate {rate} Hz gives a \d+-sample segment"):
            metric(x, x + 0.1 * _speechish(1000, seed=1), rate)

    def test_lowest_rate_scores(self, metric):
        x = _speechish(1000)
        assert np.isfinite(metric(x, x + 0.1 * _speechish(1000, seed=1), 516))


# ---------------------------------------------------------------------------
# LPC machinery
# ---------------------------------------------------------------------------


class TestLevinson:
    def test_analytic_ar1_autocorrelation(self):
        """r(k) = b**k / (1 - b^2) solves exactly to A(z) = 1 - b z^-1; the
        solver returns the coefficients after the leading 1."""
        b = 0.5
        k = np.arange(17)
        r = b**k / (1.0 - b * b)
        a = _levinson(r, 16)
        assert a is not None
        assert a[0] == pytest.approx(-b, abs=1e-12)
        np.testing.assert_allclose(a[1:], 0.0, atol=1e-12)

    def test_analytic_ar2(self):
        # x(n) = 0.6 x(n-1) - 0.25 x(n-2) + e(n): build r by running the
        # recursion r(k) = 0.6 r(k-1) - 0.25 r(k-2) from the Yule-Walker pair
        a1, a2 = 0.6, -0.25
        r = np.empty(5)
        r[0] = 1.0
        r[1] = a1 / (1.0 - a2)
        for k in range(2, 5):
            r[k] = a1 * r[k - 1] + a2 * r[k - 2]
        a = _levinson(r, 2)
        np.testing.assert_allclose(a, [-a1, -a2], atol=1e-12)

    def test_degenerate_inputs_return_none(self):
        assert _levinson(np.zeros(5), 4) is None
        # non-positive-definite sequence drives |k| past 1
        assert _levinson(np.array([1.0, 1.2, 0.0]), 2) is None

    def test_cepstrum_of_known_pole(self):
        """LPC cepstrum of a one-pole model is b**n / n."""
        rng = np.random.default_rng(7)
        b = 0.5
        x = lfilter([1.0], [1.0, -b], rng.standard_normal(200000))
        c = _lpc_cepstrum(x, order=16)
        n = np.arange(1, 17)
        np.testing.assert_allclose(c, b**n / n, atol=5e-3)

    def test_cepstrum_silent_frame_is_none(self):
        assert _lpc_cepstrum(np.zeros(512), 16) is None


class TestCepstralDistance:
    def test_identical_signals_score_zero(self):
        x = _speechish(16000, seed=8)
        assert cepstral_distance(x, x) == 0.0

    def test_gain_invariance(self):
        x = _speechish(16000, seed=9)
        assert cepstral_distance(x, 2.0 * x) == pytest.approx(0.0, abs=1e-9)

    def test_one_pole_closed_form(self):
        """White noise against the same noise through 1/(1 - 0.5 z^-1):
        CD approaches (10/ln 10) * sqrt(2 sum (0.5^n/n)^2) ~ 3.18 dB."""
        rng = np.random.default_rng(10)
        e = rng.standard_normal(160000)
        ref = lfilter([1.0], [1.0, -0.5], e)
        n = np.arange(1, 17)
        want = (10.0 / np.log(10.0)) * np.sqrt(2.0 * np.sum((0.5**n / n) ** 2))
        got = cepstral_distance(ref, e)
        assert got == pytest.approx(want, rel=0.05)

    def test_clamped_to_ten(self):
        rng = np.random.default_rng(11)
        ref = lfilter([1.0], [1.0, -0.999], rng.standard_normal(16000))
        est = rng.standard_normal(16000)
        assert cepstral_distance(ref, est) <= 10.0

    def test_trailing_silence_ignored(self):
        """Frames more than 40 dB below the loudest reference frame drop out
        of the average.  With the signals already fading to silence, further
        zero padding only adds all-zero frames and cannot move the score."""
        x = np.concatenate([_speechish(16000, seed=12), np.zeros(512)])
        y = np.concatenate([_speechish(16000, seed=13), np.zeros(512)])
        base = cepstral_distance(x, y)
        padded = cepstral_distance(
            np.concatenate([x, np.zeros(2560)]), np.concatenate([y, np.zeros(2560)])
        )
        assert padded == base

    def test_estimate_dropout_scores_the_clamp(self):
        """A kept reference frame whose estimate has no LPC fit scores the
        10 dB clamp rather than being skipped, so a dropout ranks below a
        present, noisy copy."""
        ref = _speechish(16000, seed=0)
        dropout = np.where(np.arange(16000) < 1024, ref, 0.0)
        noisy = ref + 0.3 * np.random.default_rng(1).standard_normal(16000)
        assert cepstral_distance(ref, dropout) > 9.0 > 1.0 > cepstral_distance(ref, noisy)
        assert cepstral_distance(ref, np.zeros(16000)) == 10.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cepstral_distance(np.zeros(8000), np.zeros(8001))


class TestNonFiniteInput:
    """One NaN or infinity is refused, naming the signal and the sample: left
    in, it made fw_seg_snr nan and cepstral_distance skip its frames and
    score a perfect 0.0."""

    @pytest.mark.parametrize("metric", [fw_seg_snr, cepstral_distance, compute_metrics])
    @pytest.mark.parametrize("side", ["ref", "est"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refused_with_signal_and_index(self, metric, side, bad):
        pair = {"ref": _speechish(8000, seed=1), "est": _speechish(8000, seed=2)}
        pair[side][4321] = bad
        with pytest.raises(ValueError, match=f"^{side} has a non-finite sample at index 4321$"):
            metric(pair["ref"], pair["est"])


class TestRefusals:
    def test_a_2d_signal_is_refused(self):
        with pytest.raises(ValueError, match="^metrics take single-channel signals$"):
            fw_seg_snr(np.ones((2, 8000)), np.ones((2, 8000)))

    def test_cepstral_distance_refuses_a_silent_reference(self):
        with pytest.raises(ValueError, match="^reference has no energy in any frame$"):
            cepstral_distance(np.zeros(8000), _speechish(8000, seed=3))


class TestReports:
    def test_compute_and_format(self):
        ref = _speechish(16000, seed=14)
        est = ref + 0.01 * _speechish(16000, seed=15)
        report = compute_metrics(ref, est)
        assert isinstance(report, MetricReport)
        text = format_report(report)
        assert "fwsnr=" in text
        assert "cd=" in text

    def test_format_without_srr(self):
        report = MetricReport(fwsnr=10.0, cd=1.0)
        assert format_report(report) == "fwsnr=10.0000\ncd=1.0000"
