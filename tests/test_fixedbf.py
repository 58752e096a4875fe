"""Fixed beamformer tests: hand-computable weights and exact constraints."""

import _thread
import os

import numpy as np
import pytest

from convbeam.fixedbf import FixedWeights, apply_fixed, delay_and_sum, superdirective_mvdr
from convbeam.geometry import (
    CoherenceMatrix,
    SteeringVector,
    circular_array,
    diffuse_coherence,
    plane_wave_steering,
)
from convbeam.stft import Spectrogram, StftConfig


def _steering(num_mics=4, azimuth=0.7):
    return plane_wave_steering(circular_array(num_mics, 0.10), azimuth)


def test_fixed_weights_must_be_bins_by_mics():
    with pytest.raises(ValueError, match=r"^weights must have shape \(bins, M\), got \(4,\)$"):
        FixedWeights(np.ones(4, dtype=complex))


class TestDelayAndSum:
    def test_unit_modulus_steering_gives_average(self):
        steer = _steering(4)
        w = delay_and_sum(steer).weights
        np.testing.assert_allclose(w, steer.vectors / 4.0, atol=1e-15)

    def test_distortionless(self):
        steer = _steering(6)
        w = delay_and_sum(steer).weights
        gain = np.einsum("km,km->k", np.conj(w), steer.vectors)
        np.testing.assert_allclose(gain, 1.0, atol=1e-13)

    def test_recovers_plane_wave_source_exactly(self):
        cfg = StftConfig()
        steer = _steering(4)
        rng = np.random.default_rng(0)
        src = rng.standard_normal((cfg.num_bins, 8)) + 1j * rng.standard_normal(
            (cfg.num_bins, 8)
        )
        spec = Spectrogram(steer.vectors.T[:, :, None] * src[None], cfg)
        out = apply_fixed(delay_and_sum(steer), spec)
        np.testing.assert_allclose(out.data[0], src, atol=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            delay_and_sum(SteeringVector(np.zeros((3, 2), dtype=complex), 0))


def _bad_rows():
    """A zero row at bin 1 and a NaN at bin 2, channel 1, each with its message."""
    zero, nan = np.ones((3, 2), dtype=complex), np.ones((3, 2), dtype=complex)
    zero[1], nan[2, 1] = 0.0, np.nan
    return [(zero, "^steering vector of bin 1 has zero norm$"),
            (nan, "^steering has a non-finite value at bin 2, channel 1$")]


@pytest.mark.parametrize("a, message", _bad_rows())
def test_a_zero_or_non_finite_steering_row_raises_instead_of_nan_weights(a, message):
    """Neither fixed beamformer returns NaN weights for a row it cannot
    steer: the steering is refused, by bin, before any weight is formed."""
    gamma = CoherenceMatrix(np.broadcast_to(np.eye(2), (3, 2, 2)).copy())
    for weights in (delay_and_sum, lambda steer: superdirective_mvdr(steer, gamma)):
        with pytest.raises(ValueError, match=message):
            weights(SteeringVector(a, 0))


class TestSuperdirective:
    def test_distortionless(self):
        geom = circular_array(8, 0.10)
        steer = plane_wave_steering(geom, 0.2)
        w = superdirective_mvdr(steer, diffuse_coherence(geom)).weights
        gain = np.einsum("km,km->k", np.conj(w), steer.vectors)
        np.testing.assert_allclose(gain, 1.0, atol=1e-10)

    def test_identity_coherence_reduces_to_delay_and_sum(self):
        steer = _steering(5)
        eye = CoherenceMatrix(np.broadcast_to(np.eye(5), (257, 5, 5)).copy())
        w = superdirective_mvdr(steer, eye, loading=0.0).weights
        np.testing.assert_allclose(w, delay_and_sum(steer).weights, atol=1e-13)

    def test_two_mic_symmetric_hand_case(self):
        """With a = [1, 1] an eigenvector of every symmetric 2x2 coherence,
        the solution collapses to [0.5, 0.5] regardless of the coherence
        value or loading."""
        a = np.ones((3, 2), dtype=complex)
        gamma = np.stack([np.array([[1.0, g], [g, 1.0]]) for g in (0.1, 0.5, 0.9)])
        w = superdirective_mvdr(SteeringVector(a, 0), CoherenceMatrix(gamma), 0.01).weights
        np.testing.assert_allclose(w, 0.5, atol=1e-13)

    def test_lower_diffuse_noise_gain_than_delay_and_sum(self):
        """The superdirective solution minimizes w^H Gamma w under the same
        constraint, so it can never do worse than the delay-and-sum weights."""
        geom = circular_array(8, 0.10)
        steer = plane_wave_steering(geom, 0.0)
        gamma = diffuse_coherence(geom).gamma
        w_sd = superdirective_mvdr(steer, diffuse_coherence(geom), 0.01).weights
        w_ds = delay_and_sum(steer).weights
        loaded = gamma + 0.01 * np.eye(8)
        p_sd = np.einsum("km,kmp,kp->k", np.conj(w_sd), loaded, w_sd).real
        p_ds = np.einsum("km,kmp,kp->k", np.conj(w_ds), loaded, w_ds).real
        assert np.all(p_sd <= p_ds + 1e-12)
        # strictly better somewhere above the fully coherent low bins
        assert np.any(p_sd < 0.99 * p_ds)

    def test_shape_mismatch_rejected(self):
        steer = _steering(4)
        with pytest.raises(ValueError, match="does not match"):
            superdirective_mvdr(steer, diffuse_coherence(circular_array(3, 0.1)))

    def test_negative_loading_rejected(self):
        geom = circular_array(4, 0.1)
        with pytest.raises(ValueError, match="loading"):
            superdirective_mvdr(plane_wave_steering(geom, 0.0), diffuse_coherence(geom), -1.0)


class TestApplyFixed:
    def test_dimension_check(self):
        cfg = StftConfig()
        spec = Spectrogram(np.zeros((3, cfg.num_bins, 4), dtype=complex), cfg)
        with pytest.raises(ValueError, match="do not match"):
            apply_fixed(FixedWeights(np.zeros((cfg.num_bins, 4), dtype=complex)), spec)

    def test_applies_hermitian(self):
        cfg = StftConfig(window_len=32)
        w = np.full((17, 2), 1j, dtype=complex)
        spec = Spectrogram(np.ones((2, 17, 3), dtype=complex), cfg)
        out = apply_fixed(FixedWeights(w), spec)
        # conj(j) * 1 summed over two mics
        np.testing.assert_allclose(out.data[0], -2j, atol=0)

    def test_is_its_definition_on_the_calling_thread(self, monkeypatch):
        """out[k, n] = vdot(w[k], y[:, k, n]) at 257 bins and 8 mics, to 1e-14
        of the largest value; under a 1- and a 3-CPU affinity, and on a
        repeat, it gives the same bits and starts no thread."""
        rng = np.random.default_rng(5)
        w = rng.standard_normal((257, 8)) + 1j * rng.standard_normal((257, 8))
        y = rng.standard_normal((8, 257, 20)) + 1j * rng.standard_normal((8, 257, 20))
        want = np.array([[np.vdot(w[k], y[:, k, n]) for n in range(20)] for k in range(257)])
        started, start, runs = [], _thread.start_new_thread, []
        monkeypatch.setattr(_thread, "start_new_thread",
                            lambda *args: (started.append(args), start(*args)))
        for count in (1, 3, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(count))
            runs.append(apply_fixed(FixedWeights(w), Spectrogram(y, StftConfig())).data)
        assert np.abs(runs[0][0] - want).max() <= 1e-14 * np.abs(want).max()
        assert started == [] and all(run.tobytes() == runs[0].tobytes() for run in runs)
