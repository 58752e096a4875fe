"""Fixed (data-independent) beamformers: delay-and-sum and superdirective MVDR."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CoherenceMatrix, SteeringVector
from .stft import Spectrogram

__all__ = ["FixedWeights", "delay_and_sum", "superdirective_mvdr", "apply_fixed"]


@dataclass(frozen=True)
class FixedWeights:
    """Per-bin beamformer weights, shape (bins, M), applied as w^H y."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.complex128)
        if w.ndim != 2:
            raise ValueError(f"weights must have shape (bins, M), got {w.shape}")
        object.__setattr__(self, "weights", w)

    @property
    def num_bins(self) -> int:
        return self.weights.shape[0]

    @property
    def num_mics(self) -> int:
        return self.weights.shape[1]


def delay_and_sum(steering: SteeringVector) -> FixedWeights:
    """Phase-aligned averaging, w = a / ||a||^2, distortionless by construction."""
    a = getattr(steering, "vectors", steering)  # or vectors an engine.Run has checked
    return FixedWeights(a / np.sum(np.abs(a) ** 2, axis=1)[:, None])


def superdirective_mvdr(
    steering: SteeringVector,
    coherence: CoherenceMatrix,
    loading: float = 0.01,
) -> FixedWeights:
    """MVDR against a fixed diffuse-coherence model.

    w(k) = (Gamma(k) + loading*I)^-1 a(k) / (a(k)^H (Gamma(k) + loading*I)^-1 a(k))

    Diagonal loading keeps the solve well conditioned at low frequencies where
    the coherence matrix approaches all-ones.
    """
    a = steering.vectors
    gamma = coherence.gamma
    if gamma.shape[0] != a.shape[0] or gamma.shape[1] != a.shape[1]:
        raise ValueError(
            f"coherence shape {gamma.shape} does not match steering {a.shape}"
        )
    if loading < 0:
        raise ValueError(f"loading must be >= 0, got {loading}")
    m = a.shape[1]
    loaded = gamma + loading * np.eye(m)[None, :, :]
    solved = np.linalg.solve(loaded, a[:, :, None])[:, :, 0]
    denom = np.einsum("km,km->k", np.conj(a), solved)
    return FixedWeights(solved / denom[:, None])


def apply_fixed(weights: FixedWeights, spec: Spectrogram) -> Spectrogram:
    """Apply per-bin weights to every frame, returning a single-channel result:
    out[k, n] = w[k]^H y[:, k, n], one batched matmul on the calling thread."""
    if weights.num_bins != spec.num_bins or weights.num_mics != spec.num_channels:
        raise ValueError(
            f"weights ({weights.num_bins} bins, {weights.num_mics} mics) do not match "
            f"spectrogram ({spec.num_bins} bins, {spec.num_channels} channels)"
        )
    out = np.conj(weights.weights)[:, None, :] @ spec.data.transpose(1, 0, 2)
    return Spectrogram(out[:, 0], spec.config)
