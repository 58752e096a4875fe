"""Microphone geometry, steering vectors, diffuse coherence, and DOA search."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .stft import Spectrogram, StftConfig, fan_out, spans

__all__ = [
    "SPEED_OF_SOUND",
    "ArrayGeometry",
    "SteeringVector",
    "CoherenceMatrix",
    "circular_array",
    "load_geometry",
    "plane_wave_delays",
    "plane_wave_steering",
    "diffuse_coherence",
    "srp_phat_localize",
]

SPEED_OF_SOUND = 343.0
_SRP_GRID = np.deg2rad(np.arange(0.0, 360.0, 5.0))  # azimuths searched, in radians
_SRP_RANGE_HZ = (300.0, 4000.0)


@dataclass(frozen=True)
class ArrayGeometry:
    """Microphone positions in meters, shape (M, 3); mic 0 is the reference."""

    positions: np.ndarray
    reference_mic = 0  # a class constant: the first mic is always the reference

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError(f"positions must have shape (M, 3) with M >= 1, got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
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
    """Relative plane-wave transfer functions, shape (bins, M), finite and with no row of zero
    norm; the reference-microphone entry is exactly 1 in every bin."""

    vectors: np.ndarray
    reference_mic: int

    def __post_init__(self) -> None:
        vec = np.asarray(self.vectors, dtype=np.complex128)
        if vec.ndim != 2:
            raise ValueError(f"vectors must have shape (bins, M), got {vec.shape}")
        if not np.isfinite(vec).all():
            k, ch = np.argwhere(~np.isfinite(vec))[0]
            raise ValueError(f"steering has a non-finite value at bin {k}, channel {ch}")
        zero = np.vecdot(vec, vec).real == 0.0
        if zero.any():
            raise ValueError(f"steering vector of bin {np.argmax(zero)} has zero norm")
        object.__setattr__(self, "vectors", vec)


@dataclass(frozen=True)
class CoherenceMatrix:
    """Real spatial coherence per bin, shape (bins, M, M), finite."""

    gamma: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.gamma, dtype=np.float64)
        if g.ndim != 3 or g.shape[1] != g.shape[2]:
            raise ValueError(f"gamma must have shape (bins, M, M), got {g.shape}")
        if not np.isfinite(g).all():
            k, i, j = np.argwhere(~np.isfinite(g))[0]
            raise ValueError(f"gamma has a non-finite value at bin {k}, entry ({i}, {j})")
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
    return ArrayGeometry(pos)


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
            if not np.isfinite(rows[-1]).all():
                raise ValueError(f"coordinates must be finite, got {line!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no microphone positions found")
    return ArrayGeometry(np.asarray(rows))


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
    without the pi factor.  The matrix, whose ``gamma`` is read-only, is kept
    in a bounded cache keyed by the bytes of ``geom.positions`` and by
    ``config``, so every call for one array and STFT shares it and an in-place
    edit of the positions builds it afresh.  A non-finite ``gamma``, from
    positions so far apart that their distance overflows, raises ``ValueError``
    on every call.
    """
    return _coherence(geom.positions.tobytes(), config)


@functools.lru_cache(maxsize=16)
def _coherence(positions: bytes, config: StftConfig) -> CoherenceMatrix:
    """:func:`diffuse_coherence` of the (M, 3) float64 ``positions``, with a read-only ``gamma``."""
    dists = ArrayGeometry(np.frombuffer(positions).reshape(-1, 3)).pairwise_distances()
    gamma = np.sinc(2.0 * config.freqs[:, None, None] * dists[None, :, :] / SPEED_OF_SOUND)
    gamma.flags.writeable = False  # every caller shares it
    return CoherenceMatrix(gamma)


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _srp_grid(positions: bytes, config: StftConfig) -> tuple:
    """The band's bin slice and the grid's read-only steering and its conjugate, (bins, grid, M)."""
    geom = ArrayGeometry(np.frombuffer(positions).reshape(-1, 3))
    lo, hi = _SRP_RANGE_HZ
    band = slice(np.searchsorted(config.freqs, lo), np.searchsorted(config.freqs, hi, "right"))
    delays = np.stack([plane_wave_delays(geom, az) for az in _SRP_GRID])  # (grid, M)
    steer = np.exp(-2j * np.pi * config.freqs[band, None, None] * delays[None, :, :])
    conj = np.conj(steer)
    steer.flags.writeable = conj.flags.writeable = False  # every caller shares them
    return band, steer, conj


def _srp_map(spec: Spectrogram, geom: ArrayGeometry) -> np.ndarray:
    """The steered response power at each azimuth of the grid (:func:`srp_phat_localize`); each
    bin's PHAT cross-power runs in spans, one per CPU (:func:`~convbeam.stft.fan_out`)."""
    if geom.num_mics < 2:
        raise ValueError(f"localization requires at least 2 microphones, got {geom.num_mics}")
    if spec.num_channels != geom.num_mics:
        raise ValueError(
            f"channel count {spec.num_channels} does not match geometry ({geom.num_mics})"
        )
    if not np.ptp(geom.positions[:, :2], axis=0).any():  # every azimuth steers alike
        raise ValueError("the mics share one (x, y), so the array has no horizontal aperture "
                         "and SRP-PHAT cannot tell azimuths apart; pass a DOA")
    band, steer, conj = _srp_grid(geom.positions.tobytes(), spec.config)
    data = spec.data[:, band, :]
    # cross-power accumulated over frames; the grid search then only touches
    # (bins, M, M) instead of the full spectrogram
    cross = np.empty((len(steer), geom.num_mics, geom.num_mics), complex)

    def work(k0, k1):
        part = data[:, k0:k1]
        mags = np.abs(part)
        phat = (part / np.where(mags > 0, mags, 1.0)).transpose(1, 0, 2)  # (bins, M, frames)
        np.matmul(phat, np.conj(phat).transpose(0, 2, 1), out=cross[k0:k1])
    fan_out(work, spans(np.ones(len(steer))))
    if not cross[:, ~np.eye(geom.num_mics, dtype=bool)].any():  # every direction steers alike
        live = np.flatnonzero(data.any(axis=(1, 2))).tolist()
        raise ValueError(f"flat SRP-PHAT map: channels {live} have energy in {_SRP_RANGE_HZ} Hz "
                         "but no two of them share a cell; pass a DOA")
    return np.einsum("kgp,kgp->g", conj @ cross, steer).real


def srp_phat_localize(spec: Spectrogram, geom: ArrayGeometry) -> float:
    """Estimate the source azimuth (radians) by steered response power.

    The search runs over a 5-degree azimuth grid at zero elevation, on the
    bins in 300-4000 Hz.  Every time-frequency cell is magnitude-normalized
    before steering, so the estimate depends only on phase.  Ties go to the
    lowest grid index.  A flat map is rejected: an array whose mics share one
    (x, y), and a scene where no cell in that range holds two live channels,
    the latter with a message naming the live channels.  The grid's steering
    is kept in a bounded cache keyed by the bytes of ``geom.positions`` and by
    ``spec.config``, so an in-place edit of the positions builds it afresh.
    """
    return float(_SRP_GRID[int(np.argmax(_srp_map(spec, geom)))])
