"""External per-bin gain masks for shaping the estimated speech PSD.

A mask supplies a gain G(k, n) in [0, 1]; the adaptive filters scale their
speech PSD estimate by G^2 before flooring.  Masks can come from anywhere
(an oracle, a separate enhancement model); here they are read from a small
binary file so runs stay reproducible.
"""

from __future__ import annotations

import struct
import warnings
from pathlib import Path

import numpy as np

__all__ = [
    "apply_gain",
    "clamp_gain",
    "mask_for_utterance",
    "read_gain_mask",
    "write_gain_mask",
]

_MAGIC = b"GMSK"
_HEADER = struct.Struct("<4sII")


def clamp_gain(gain, what: str = "gain") -> np.ndarray:
    """Gain as float64, clamped into [0, 1] with one warning if any value was outside.

    Values outside [0, 1] usually mean a mask was written with the wrong scale.
    """
    g = np.asarray(gain, dtype=np.float64)
    if np.any(g < 0.0) or np.any(g > 1.0):
        warnings.warn(f"{what} outside [0, 1]; clamping", stacklevel=3)
        g = np.clip(g, 0.0, 1.0)
    return g


def apply_gain(phi_x, gain):
    """Scale a PSD estimate by gain^2, clamping the gain into [0, 1] first."""
    g = clamp_gain(gain)
    return (g * g) * phi_x


def mask_for_utterance(path, num_bins: int, num_frames: int) -> np.ndarray:
    """Read a gain-mask file for an utterance of (num_bins, num_frames).

    A mask of any other shape is rejected with an error naming the file.
    """
    mask = read_gain_mask(path)
    k, n = mask.shape
    if (k, n) != (num_bins, num_frames):
        raise ValueError(
            f"{path}: mask is {k}x{n} but utterance needs {num_bins}x{num_frames}"
        )
    return mask


def write_gain_mask(path, gains: np.ndarray) -> None:
    """Write a (bins, frames) float32 mask: 'GMSK', u32 bins, u32 frames, data.

    Data is little-endian, bin-major (all frames of bin 0 first).
    """
    g = np.asarray(gains, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError(f"gains must have shape (bins, frames), got {g.shape}")
    payload = np.ascontiguousarray(g, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, g.shape[0], g.shape[1]))
        fh.write(payload)


def read_gain_mask(path) -> np.ndarray:
    """Read a mask written by :func:`write_gain_mask`, clamping into [0, 1]."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise OSError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, num_bins, num_frames = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise OSError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
    expected = _HEADER.size + 4 * num_bins * num_frames
    if len(blob) != expected:
        raise OSError(
            f"{path}: expected {expected} bytes for {num_bins}x{num_frames} mask, "
            f"got {len(blob)}"
        )
    mask = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).astype(np.float64)
    return clamp_gain(mask.reshape(num_bins, num_frames), f"{path}: mask values")
