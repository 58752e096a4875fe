"""RIFF/WAVE reading and writing for PCM16 and float32 payloads.

The parser walks chunks explicitly and reports the byte offset of whatever
it rejects, which makes corrupt-file reports actionable.  Samples are
float64 in memory, scaled to [-1, 1) with PCM16 value -32768 mapping to
-1.0 exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = ["AudioBuffer", "WavError", "read_wav", "write_wav", "resample_check"]

_PCM16_SCALE = 32768.0
_FMT_PCM = 1
_FMT_FLOAT = 3
_FMT_EXTENSIBLE = 0xFFFE


class WavError(OSError):
    """Malformed or unsupported WAV content."""


@dataclass
class AudioBuffer:
    """Multichannel audio, samples shaped (channels, num_samples)."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim == 1:
            s = s[None, :]
        if s.ndim != 2:
            raise ValueError(f"samples must be 1-d or 2-d, got shape {s.shape}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        self.samples = s

    @property
    def num_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.num_samples / self.sample_rate


def read_wav(path) -> AudioBuffer:
    """Read a PCM16 or float32 WAV file."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 12:
        raise WavError(f"{path}: file too short for a RIFF header ({len(blob)} bytes)")
    if blob[0:4] != b"RIFF":
        raise WavError(f"{path}: offset 0: expected b'RIFF', got {blob[0:4]!r}")
    if blob[8:12] != b"WAVE":
        raise WavError(f"{path}: offset 8: expected b'WAVE', got {blob[8:12]!r}")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(blob):
        cid = blob[pos : pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        body = memoryview(blob)[pos + 8 : pos + 8 + size]  # a view, not a copy
        if len(body) < size:
            raise WavError(
                f"{path}: offset {pos}: chunk {cid!r} claims {size} bytes, "
                f"only {len(body)} present"
            )
        if cid == b"fmt ":
            if size < 16:
                raise WavError(f"{path}: offset {pos}: fmt chunk too small ({size} bytes)")
            fmt = (struct.unpack_from("<HHIIHH", body), body, pos)
        elif cid == b"data":
            data = (pos + 8, body)
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavError(f"{path}: no fmt chunk found")
    if data is None:
        raise WavError(f"{path}: no data chunk found")
    (audio_format, num_channels, sample_rate, _, block_align, bits), fmt_body, fmt_pos = fmt
    if audio_format == _FMT_EXTENSIBLE and len(fmt_body) >= 26:
        # WAVE_FORMAT_EXTENSIBLE: the real format code leads the subformat GUID
        (audio_format,) = struct.unpack_from("<H", fmt_body, 24)
    if num_channels < 1:
        raise WavError(f"{path}: fmt declares {num_channels} channels")
    offset, body = data

    dtype = {(_FMT_PCM, 16): "<i2", (_FMT_FLOAT, 32): "<f4"}.get((audio_format, bits))
    if dtype is None:
        raise WavError(
            f"{path}: offset {offset}: unsupported encoding "
            f"(format {audio_format}, {bits} bits); only PCM16 and float32 are readable"
        )
    if block_align != (frame := num_channels * bits // 8):
        raise WavError(f"{path}: offset {fmt_pos}: fmt block_align {block_align}, expected {frame}")
    raw = np.frombuffer(body[: len(body) - len(body) % frame], dtype=dtype)
    # one cast into (channels, samples) order; a power-of-two scale rounds as a division would
    samples = np.empty((num_channels, raw.size // num_channels))
    np.multiply(raw.reshape(-1, num_channels).T, 1.0 / _PCM16_SCALE if bits == 16 else 1.0,
                out=samples)
    return AudioBuffer(samples, sample_rate)


def write_wav(path, buf: AudioBuffer, encoding: str = "float32") -> None:
    """Write an AudioBuffer as 'float32' (default) or 'pcm16'.

    PCM16 clips into the representable range before rounding, so values at exactly -1.0 survive
    a round trip bit-for-bit.  A non-finite sample raises ``ValueError`` before the file opens.
    """
    if not (finite := np.isfinite(buf.samples)).all():
        ch, i = np.argwhere(~finite)[0]
        raise ValueError(f"{path}: sample {i} of channel {ch} is not finite")
    interleaved = np.ascontiguousarray(buf.samples.T)
    if encoding == "pcm16":
        clipped = np.clip(interleaved, -1.0, 32767.0 / _PCM16_SCALE)
        payload = np.rint(clipped * _PCM16_SCALE).astype("<i2").tobytes()
        audio_format, bits = _FMT_PCM, 16
    elif encoding == "float32":
        payload = interleaved.astype("<f4").tobytes()
        audio_format, bits = _FMT_FLOAT, 32
    else:
        raise ValueError(f"encoding must be 'pcm16' or 'float32', got {encoding!r}")
    block_align = buf.num_channels * bits // 8
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 4 + 8 + 16 + 8 + len(payload), b"WAVE",
                         b"fmt ", 16, audio_format, buf.num_channels, buf.sample_rate,
                         buf.sample_rate * block_align, block_align, bits, b"data", len(payload))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def resample_check(buf: AudioBuffer, expected_rate: int) -> AudioBuffer:
    """Assert the buffer's sample rate; this toolkit never resamples silently."""
    if expected_rate <= 0:
        raise ValueError(f"expected_rate must be positive, got {expected_rate}")
    if buf.sample_rate != expected_rate:
        raise ValueError(
            f"sample rate is {buf.sample_rate} Hz but {expected_rate} Hz is required; "
            "resample the file first"
        )
    return buf
