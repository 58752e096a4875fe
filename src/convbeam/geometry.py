"""Microphone geometry, steering vectors, diffuse coherence, and DOA search."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .stft import Spectrogram, StftConfig

__all__ = [
    "SPEED_OF_SOUND",
    "ArrayGeometry",
    "SteeringVector",
    "CoherenceMatrix",
    "circular_array",
    "load_geometry",
    "save_geometry",
    "plane_wave_delays",
    "plane_wave_steering",
    "diffuse_coherence",
    "srp_phat_localize",
]

SPEED_OF_SOUND = 343.0
_SRP_GRID_STEP_DEG = 5.0
_SRP_RANGE_HZ = (300.0, 4000.0)


@dataclass(frozen=True)
class ArrayGeometry:
    """Microphone positions in meters, shape (M, 3); one mic is the reference."""

    positions: np.ndarray
    reference_mic: int = 0

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError(f"positions must have shape (M, 3) with M >= 1, got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if not 0 <= self.reference_mic < pos.shape[0]:
            raise ValueError(
                f"reference_mic {self.reference_mic} out of range for {pos.shape[0]} mics"
            )
        object.__setattr__(self, "positions", pos)

    @property
    def num_mics(self) -> int:
        return self.positions.shape[0]

    def pairwise_distances(self) -> np.ndarray:
        """(M, M) matrix of inter-microphone distances in meters."""
        diff = self.positions[:, None, :] - self.positions[None, :, :]
        return np.linalg.norm(diff, axis=2)


@dataclass(frozen=True)
class SteeringVector:
    """Relative plane-wave transfer functions, shape (bins, M).

    The reference-microphone entry is exactly 1 in every bin.
    """

    vectors: np.ndarray
    reference_mic: int

    def __post_init__(self) -> None:
        vec = np.asarray(self.vectors, dtype=np.complex128)
        if vec.ndim != 2:
            raise ValueError(f"vectors must have shape (bins, M), got {vec.shape}")
        object.__setattr__(self, "vectors", vec)


@dataclass(frozen=True)
class CoherenceMatrix:
    """Real spatial coherence per bin, shape (bins, M, M)."""

    gamma: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.gamma, dtype=np.float64)
        if g.ndim != 3 or g.shape[1] != g.shape[2]:
            raise ValueError(f"gamma must have shape (bins, M, M), got {g.shape}")
        object.__setattr__(self, "gamma", g)


# ---------------------------------------------------------------------------
# geometry construction and file I/O
# ---------------------------------------------------------------------------


def circular_array(num_mics: int, radius: float) -> ArrayGeometry:
    """Uniform circular array in the z=0 plane, mic 0 on the +x axis."""
    if num_mics < 1:
        raise ValueError(f"num_mics must be >= 1, got {num_mics}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    angles = 2.0 * np.pi * np.arange(num_mics) / num_mics
    pos = np.stack([radius * np.cos(angles), radius * np.sin(angles), np.zeros(num_mics)], axis=1)
    return ArrayGeometry(pos, reference_mic=0)


def load_geometry(path) -> ArrayGeometry:
    """Read positions from a text file: one ``x y z`` line per mic, '#' comments.

    The microphone on the first non-comment line is the reference.
    """
    rows = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 coordinates, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no microphone positions found")
    return ArrayGeometry(np.asarray(rows), reference_mic=0)


def save_geometry(path, geom: ArrayGeometry) -> None:
    """Write positions in the format accepted by :func:`load_geometry`."""
    lines = ["# microphone positions, one 'x y z' line per mic (meters)"]
    lines += [" ".join(f"{v:.9g}" for v in row) for row in geom.positions]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# steering and coherence
# ---------------------------------------------------------------------------


def plane_wave_delays(geom: ArrayGeometry, azimuth: float) -> np.ndarray:
    """Delay in seconds at each mic of a far-field plane wave from ``azimuth``.

    The angle is in radians, at zero elevation.  Delays are relative to the
    reference microphone, so its entry is exactly 0.  A non-finite azimuth
    raises ``ValueError``.
    """
    if not np.isfinite(azimuth):
        raise ValueError(f"azimuth must be finite, got {azimuth}")
    toward_source = np.array([np.cos(azimuth), np.sin(azimuth), 0.0])
    delays = -(geom.positions @ toward_source) / SPEED_OF_SOUND
    return delays - delays[geom.reference_mic]


def plane_wave_steering(
    geom: ArrayGeometry, azimuth: float, config: StftConfig = StftConfig()
) -> SteeringVector:
    """Far-field steering vectors for a plane wave from ``azimuth`` at zero elevation.

    The angle is in radians.  Phases are relative to the reference
    microphone, so its entry is exactly 1+0j in every bin.
    """
    delays = plane_wave_delays(geom, azimuth)
    vec = np.exp(-2j * np.pi * config.freqs[:, None] * delays[None, :])
    return SteeringVector(vec, geom.reference_mic)


def diffuse_coherence(geom: ArrayGeometry, config: StftConfig = StftConfig()) -> CoherenceMatrix:
    """Spherically isotropic (diffuse) coherence sinc(2 pi f d / c) per bin.

    Here sinc is the unnormalized sin(x)/x, so np.sinc gets the argument
    without the pi factor.
    """
    dists = geom.pairwise_distances()
    gamma = np.sinc(2.0 * config.freqs[:, None, None] * dists[None, :, :] / SPEED_OF_SOUND)
    return CoherenceMatrix(gamma)


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------


def srp_phat_localize(spec: Spectrogram, geom: ArrayGeometry) -> float:
    """Estimate the source azimuth (radians) by steered response power.

    The search runs over a 5-degree azimuth grid at zero elevation, on the
    bins in 300-4000 Hz.  Every time-frequency cell is magnitude-normalized
    before steering, so the estimate depends only on phase.  Ties go to the
    lowest grid index.  A flat map, where no cell in that range holds two
    live channels, is rejected with a message naming the live channels.
    """
    if geom.num_mics < 2:
        raise ValueError(f"localization requires at least 2 microphones, got {geom.num_mics}")
    if spec.num_channels != geom.num_mics:
        raise ValueError(
            f"channel count {spec.num_channels} does not match geometry ({geom.num_mics})"
        )
    freqs = spec.config.freqs
    keep = (freqs >= _SRP_RANGE_HZ[0]) & (freqs <= _SRP_RANGE_HZ[1])
    if not np.any(keep):
        raise ValueError(f"no bins inside frequency range {_SRP_RANGE_HZ}")
    data = spec.data[:, keep, :]
    mags = np.abs(data)
    phat = np.divide(data, mags, out=np.zeros_like(data), where=mags > 0)
    # cross-power accumulated over frames; the grid search then only touches
    # (bins, M, M) instead of the full spectrogram
    cross = np.einsum("mkn,pkn->kmp", phat, np.conj(phat))
    if not cross[:, ~np.eye(geom.num_mics, dtype=bool)].any():  # every direction steers alike
        live = np.flatnonzero(mags.any(axis=(1, 2))).tolist()
        raise ValueError(f"flat SRP-PHAT map: channels {live} have energy in {_SRP_RANGE_HZ} Hz "
                         "but no two of them share a cell; pass a DOA")

    grid = np.deg2rad(np.arange(0.0, 360.0, _SRP_GRID_STEP_DEG))
    delays = np.stack([plane_wave_delays(geom, az) for az in grid])  # (grid, M)
    steer = np.exp(-2j * np.pi * freqs[keep][None, :, None] * delays[:, None, :])
    power = np.einsum("gkm,kmp,gkp->g", np.conj(steer), cross, steer).real
    return float(grid[int(np.argmax(power))])
