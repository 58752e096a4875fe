"""Short-time spectral analysis/synthesis and frequency-band partitioning.

All processing downstream operates on 50%-overlapped square-root Hann
frames, so analysis followed by synthesis is an identity (up to float
rounding) for every sample covered by two windows.
"""

from __future__ import annotations

import _thread
import os
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StftConfig",
    "Spectrogram",
    "BandPlan",
    "check_order",
    "fan_out",
    "seconds_to_samples",
    "spans",
    "sqrt_hann",
    "stft",
    "istft",
]


# ---------------------------------------------------------------------------
# configuration types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StftConfig:
    """Framing shared by every stage: an FFT as long as the window, at 16 kHz."""

    window_len: int = 512
    sample_rate = 16000  # a class constant: the one rate the toolkit runs at

    def __post_init__(self) -> None:
        if self.window_len <= 0 or self.window_len % 2 != 0:
            raise ValueError(f"window_len must be even and positive, got {self.window_len}")

    @property
    def hop(self) -> int:
        """Frame advance in samples: half the window."""
        return self.window_len // 2

    @property
    def num_bins(self) -> int:
        """Number of one-sided spectrum bins."""
        return self.window_len // 2 + 1

    @property
    def freqs(self) -> np.ndarray:
        """Center frequency in Hz of every bin."""
        return np.arange(self.num_bins) * (self.sample_rate / self.window_len)

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
        for name, value in (("delay", self.delay), *(("order", o) for o in self.orders)):
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for order in self.orders:
            check_order(order, self.delay)
        freqs = tuple(float(f) for f in self.transition_freqs)
        if not np.isfinite(freqs).all():
            raise ValueError(f"transition frequencies must be finite, got {freqs}")
        nyquist = StftConfig.sample_rate / 2
        if not all(0.0 < f <= nyquist for f in freqs):
            raise ValueError(f"transition frequencies must lie in (0, {nyquist:g}] Hz, got {freqs}")
        if any(f2 <= f1 for f1, f2 in zip(freqs, freqs[1:])):
            raise ValueError(f"transition frequencies must be ascending, got {freqs}")

    def bin_orders(self, config: StftConfig) -> np.ndarray:
        """Array of length ``config.num_bins`` with the order of every bin."""
        edges = np.asarray(self.transition_freqs, dtype=float)
        idx = np.searchsorted(edges, config.freqs, side="right")
        return np.asarray(self.orders, dtype=int)[idx]


def check_order(order: int, delay: int, head: bool = True) -> None:
    """Refuse a pair outside the one rule: delay >= 1, order > delay or, with a head, 0."""
    if delay < 1:
        raise ValueError(f"delay must be >= 1, got {delay}")
    if order <= delay and (order or not head):
        rule = "be 0 or >" if head else "exceed"
        raise ValueError(f"order must {rule} delay ({delay}), got {order}")


def seconds_to_samples(name: str, seconds: float, sample_rate: int, minimum: int = 0) -> int:
    """``seconds`` at ``sample_rate`` as a rounded sample count; one that is NaN, negative,
    below ``minimum`` or more than one float64 array holds raises, naming ``name``."""
    count, limit = seconds * sample_rate, np.iinfo(np.intp).max // 8
    if not 0 <= count <= limit or round(count) < minimum:
        raise ValueError(f"{name} must be finite and give {minimum} to {limit} samples at "
                         f"{sample_rate} Hz, got {seconds}")
    return round(count)


# ---------------------------------------------------------------------------
# analysis / synthesis
# ---------------------------------------------------------------------------


def sqrt_hann(window_len: int) -> np.ndarray:
    """Square root of the periodic Hann window.

    Using the same window for analysis and synthesis makes the overlapped
    window products sum to one at 50% hop, which is what guarantees perfect
    reconstruction.
    """
    n = np.arange(StftConfig(window_len).window_len)  # StftConfig refuses an odd or <= 0 length
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / window_len)
    return np.sqrt(hann)


def stft(signal: np.ndarray, config: StftConfig = StftConfig()) -> Spectrogram:
    """Analyze a (channels, samples) or (samples,) signal into a Spectrogram.

    Frame n covers samples [n*hop, n*hop + window_len); the tail is
    zero-padded so every input sample is covered by at least one frame.
    The channels run in :func:`spans`, one per CPU (:func:`fan_out`), each a channel at a
    time in its own (frames, window_len) buffer, to the bits of one span.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ValueError(
            f"expected 1-d or 2-d signal with equal-length channels, got shape {np.shape(signal)}"
        )
    num_ch, num_samples = x.shape
    n_frames = config.num_frames(num_samples)
    win = sqrt_hann(config.window_len)
    frames = np.lib.stride_tricks.sliding_window_view(x, config.window_len, axis=1)
    frames = frames[:, :: config.hop, :]  # every frame that fits in the signal
    fit, tail = frames.shape[1], num_samples - (n_frames - 1) * config.hop
    # each part's buffers come before the output: that order keeps the peak RSS of a long signal
    parts = [(c0, c1, np.zeros((n_frames, config.window_len)),
              np.empty((n_frames, config.num_bins), complex)) for c0, c1 in spans(np.ones(num_ch))]
    spec = np.empty((num_ch, config.num_bins, n_frames), complex)

    def work(c0, c1, windowed, spectra):
        for c in range(c0, c1):
            np.multiply(frames[c], win, out=windowed[:fit])
            if fit < n_frames:  # at 50% overlap only the last frame runs past the end
                windowed[-1, :tail] = x[c, -tail:] * win[:tail]
            spec[c] = np.fft.rfft(windowed, out=spectra).T
    fan_out(work, parts)
    return Spectrogram(spec, config)


def spans(cost) -> list:
    """At most one contiguous range ``(i0, i1)`` of the items per CPU in the process's affinity
    set, in order and covering each item once, of near-equal cost: item i costs ``cost[i]`` > 0
    and goes to the range in which the middle of its cost falls; no items give no ranges."""
    count = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    cost = np.asarray(cost, dtype=np.float64)
    shares = np.arange(count + 1) * cost.sum() / count
    edges = np.unique(np.searchsorted(np.cumsum(cost) - cost / 2, shares)).tolist()
    return list(zip(edges[:-1], edges[1:]))


def fan_out(work, parts: list) -> list:
    """``[work(*part) for part in parts]``: the caller and a new thread for each further part
    take the next part left until none is, and the caller never waits for a thread to start.
    The first exception of a part, in part order, is raised once every part has ended."""
    if len(parts) == 1:
        return [work(*parts[0])]
    results, errors = [None] * len(parts), [None] * len(parts)
    todo, ended = iter(range(len(parts))), threading.Semaphore(0)

    def run():
        for i in todo:  # next() on a range iterator is atomic under the GIL
            try:
                results[i] = work(*parts[i])
            except BaseException as exc:
                errors[i] = exc
            ended.release()
    for _ in parts[1:]:
        _thread.start_new_thread(run, ())
    run()
    for _ in parts:  # a part may write what the caller reads until it ends
        ended.acquire()
    for exc in filter(None, errors):
        raise exc
    return results


def istft(spec: Spectrogram, *, length: int | None = None) -> np.ndarray:
    """Overlap-add synthesis back to a (channels, samples) float array.

    The spectrogram's own config sets the synthesis; each hop of output adds
    two half frames.  ``length``, which must be >= 0, trims or zero-pads the
    result to an exact sample count.
    """
    if length is not None and length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    cfg = spec.config
    win = sqrt_hann(cfg.window_len)
    frames = np.fft.irfft(spec.data, n=cfg.window_len, axis=1) * win[None, :, None]
    num_ch, _, n_frames = frames.shape
    out = np.zeros((num_ch, n_frames + 1, cfg.hop))
    out[:, :-1] += frames[:, : cfg.hop].transpose(0, 2, 1)
    out[:, 1:] += frames[:, cfg.hop :].transpose(0, 2, 1)
    out = out.reshape(num_ch, -1)
    if length is not None:
        if length <= out.shape[1]:
            out = out[:, :length]
        else:
            out = np.pad(out, ((0, 0), (0, length - out.shape[1])))
    return out
