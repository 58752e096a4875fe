"""Short-time spectral analysis/synthesis and frequency-band partitioning.

All processing downstream operates on 50%-overlapped square-root Hann
frames, so analysis followed by synthesis is an identity (up to float
rounding) for every sample covered by two windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StftConfig",
    "Spectrogram",
    "BandPlan",
    "sqrt_hann",
    "stft",
    "istft",
]


# ---------------------------------------------------------------------------
# configuration types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StftConfig:
    """Framing parameters shared by every stage of the toolkit."""

    sample_rate: int = 16000
    window_len: int = 512
    hop: int = 256
    fft_len: int = 512

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.window_len <= 0 or self.window_len % 2 != 0:
            raise ValueError(f"window_len must be even and positive, got {self.window_len}")
        if self.hop * 2 != self.window_len:
            raise ValueError(
                f"hop must be window_len/2, got hop={self.hop} window_len={self.window_len}"
            )
        if self.fft_len < self.window_len:
            raise ValueError(
                f"fft_len must be >= window_len, got {self.fft_len} < {self.window_len}"
            )

    @property
    def num_bins(self) -> int:
        """Number of one-sided spectrum bins."""
        return self.fft_len // 2 + 1

    def bin_freq(self, k) -> float:
        """Center frequency in Hz of bin ``k``."""
        return np.asarray(k) * (self.sample_rate / self.fft_len)

    def num_frames(self, num_samples: int) -> int:
        """Frame count produced by :func:`stft` for a signal of given length."""
        if num_samples < self.window_len:
            raise ValueError(
                f"signal too short: {num_samples} samples < window_len {self.window_len}"
            )
        return 1 + int(np.ceil((num_samples - self.window_len) / self.hop))


@dataclass
class Spectrogram:
    """Complex STFT tensor of shape (channels, bins, frames)."""

    data: np.ndarray
    config: StftConfig

    def __post_init__(self) -> None:
        data = np.asarray(self.data)
        if data.ndim == 2:
            data = data[None, :, :]
        if data.ndim != 3:
            raise ValueError(f"expected 2-d or 3-d data, got shape {data.shape}")
        if data.shape[1] != self.config.num_bins:
            raise ValueError(
                f"bin count {data.shape[1]} does not match config ({self.config.num_bins})"
            )
        self.data = np.ascontiguousarray(data, dtype=np.complex128)

    @property
    def num_channels(self) -> int:
        return self.data.shape[0]

    @property
    def num_bins(self) -> int:
        return self.data.shape[1]

    @property
    def num_frames(self) -> int:
        return self.data.shape[2]

    def channel(self, index: int) -> "Spectrogram":
        """Single-channel view of one microphone."""
        return Spectrogram(self.data[index], self.config)


@dataclass(frozen=True)
class BandPlan:
    """Per-frequency-band prediction orders for the convolutional methods.

    ``orders[j]`` is the filter order L used between ``transition_freqs[j-1]``
    (inclusive) and ``transition_freqs[j]`` (exclusive); a bin sitting exactly
    on a transition frequency belongs to the upper (shorter) band.  ``delay``
    is the number of frames D skipped before prediction starts.
    """

    transition_freqs: tuple = (800.0, 2000.0)
    orders: tuple = (12, 8, 6)
    delay: int = 1

    def __post_init__(self) -> None:
        if len(self.orders) != len(self.transition_freqs) + 1:
            raise ValueError(
                f"need len(transition_freqs)+1 orders, got {len(self.orders)} orders "
                f"for {len(self.transition_freqs)} transitions"
            )
        if self.delay < 1:
            raise ValueError(f"delay must be >= 1, got {self.delay}")
        freqs = tuple(float(f) for f in self.transition_freqs)
        if any(f2 <= f1 for f1, f2 in zip(freqs, freqs[1:])):
            raise ValueError(f"transition frequencies must be ascending, got {freqs}")
        for order in self.orders:
            if order != 0 and order <= self.delay:
                raise ValueError(
                    f"each order must be 0 or > delay ({self.delay}), got {order}"
                )

    def bin_orders(self, config: StftConfig) -> np.ndarray:
        """Array of length ``config.num_bins`` with the order of every bin."""
        freqs = config.bin_freq(np.arange(config.num_bins))
        idx = np.searchsorted(np.asarray(self.transition_freqs, dtype=float), freqs, side="right")
        return np.asarray(self.orders, dtype=int)[idx]


# ---------------------------------------------------------------------------
# analysis / synthesis
# ---------------------------------------------------------------------------


def sqrt_hann(window_len: int) -> np.ndarray:
    """Square root of the periodic Hann window.

    Using the same window for analysis and synthesis makes the overlapped
    window products sum to one at 50% hop, which is what guarantees perfect
    reconstruction.
    """
    if window_len <= 0 or window_len % 2 != 0:
        raise ValueError(f"window_len must be even and positive, got {window_len}")
    n = np.arange(window_len)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / window_len)
    return np.sqrt(hann)


def stft(signal: np.ndarray, config: StftConfig | None = None) -> Spectrogram:
    """Analyze a (channels, samples) or (samples,) signal into a Spectrogram.

    Frame n covers samples [n*hop, n*hop + window_len); the tail is
    zero-padded so every input sample is covered by at least one frame.
    """
    if config is None:
        config = StftConfig()
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ValueError(
            f"expected 1-d or 2-d signal with equal-length channels, got shape {np.shape(signal)}"
        )
    num_ch, num_samples = x.shape
    n_frames = config.num_frames(num_samples)
    padded_len = (n_frames - 1) * config.hop + config.window_len
    if padded_len > num_samples:
        x = np.pad(x, ((0, 0), (0, padded_len - num_samples)))
    win = sqrt_hann(config.window_len)
    frames = np.lib.stride_tricks.sliding_window_view(x, config.window_len, axis=1)
    frames = frames[:, :: config.hop, :][:, :n_frames, :]
    spec = np.fft.rfft(frames * win, n=config.fft_len, axis=2)
    return Spectrogram(np.ascontiguousarray(spec.transpose(0, 2, 1)), config)


def istft(
    spec: Spectrogram,
    config: StftConfig | None = None,
    length: int | None = None,
) -> np.ndarray:
    """Overlap-add synthesis back to a (channels, samples) float array.

    ``config``, when given, must equal the config the spectrogram was made
    with.  ``length`` trims or zero-pads the result to an exact sample count.
    """
    if config is not None and config != spec.config:
        raise ValueError(f"config mismatch: {config} != {spec.config}")
    cfg = spec.config
    win = sqrt_hann(cfg.window_len)
    frames = np.fft.irfft(spec.data, n=cfg.fft_len, axis=1)
    frames = frames[:, : cfg.window_len, :] * win[None, :, None]
    num_ch, _, n_frames = frames.shape
    out_len = (n_frames - 1) * cfg.hop + cfg.window_len
    out = np.zeros((num_ch, out_len))
    for n in range(n_frames):
        start = n * cfg.hop
        out[:, start : start + cfg.window_len] += frames[:, :, n]
    if length is not None:
        if length <= out_len:
            out = out[:, :length]
        else:
            out = np.pad(out, ((0, 0), (0, length - out_len)))
    return out
