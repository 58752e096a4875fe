"""Utterance-level enhancement pipeline shared by the command line and tests.

One call runs: level normalization to -20 dBFS at the reference mic (at the
loudest channel when the reference mic is silent), STFT, localization
(unless a DOA is given), steering, the selected beamformer, synthesis, and
de-normalization.  All randomness-free; identical inputs and
configuration give bit-identical outputs.  The method table :data:`TABLE` says
what each method runs; the pipeline, the bench sweep and the CLI read it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .apa import ApaParams, process_utterance
from .engine import APA, RC, Kernel
from .fixedbf import apply_fixed, delay_and_sum, superdirective_mvdr
from .gains import mask_for_utterance
from .geometry import ArrayGeometry, diffuse_coherence, plane_wave_steering, srp_phat_localize
from .sdmvdr import process_utterance_sdmvdr
from .stft import BandPlan, Spectrogram, StftConfig, istft, stft
from .wavio import AudioBuffer, resample_check

__all__ = ["METHODS", "TABLE", "Method", "RunConfig", "enhance"]

_TARGET_RMS = 10.0 ** (-20.0 / 20.0)  # -20 dBFS


@dataclass
class RunConfig:
    """Everything the enhancement pipeline needs besides the audio itself."""

    method: str
    geometry: ArrayGeometry
    doa: float | None = None  # radians; None means estimate
    params: ApaParams = field(default_factory=ApaParams)
    stft_config: StftConfig = field(default_factory=StftConfig)
    prior_pass: bool = True
    gain_mask: str | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.gain_mask is not None and TABLE[self.method].kernel is None:
            adaptive = tuple(name for name, row in TABLE.items() if row.kernel is not None)
            raise ValueError(f"method {self.method!r} takes no gain mask; only the adaptive "
                             f"methods {adaptive} read one")


# Runners take (spec, steering, cfg, gains) and return the enhanced
# single-channel spectrogram.  They call the layers through this module's
# attributes at run time, so a caller that replaces one of those attributes
# sees every method that uses it.


def _ref_mic(spec, steering, cfg, gains) -> Spectrogram:
    return spec.channel(cfg.geometry.reference_mic)


def _delay_sum(spec, steering, cfg, gains) -> Spectrogram:
    return apply_fixed(delay_and_sum(steering), spec)


def _sd_mvdr(spec, steering, cfg, gains) -> Spectrogram:
    gamma = diffuse_coherence(cfg.geometry, cfg.stft_config)
    return apply_fixed(superdirective_mvdr(steering, gamma), spec)


def _apa(spec, steering, cfg, gains) -> Spectrogram:
    params = replace(cfg.params, band_plan=TABLE[cfg.method].plan(cfg.params))
    return process_utterance(spec, steering, params, gains=gains, prior_pass=cfg.prior_pass)


def _conv_sdmvdr(spec, steering, cfg, gains) -> Spectrogram:
    gamma = diffuse_coherence(cfg.geometry, cfg.stft_config)
    return process_utterance_sdmvdr(spec, steering, gamma, cfg.params, gains=gains,
                                    prior_pass=cfg.prior_pass)


class Method(NamedTuple):
    """A row of the method table: what one method runs."""

    runner: Callable  # (spec, steering, cfg, gains) -> Spectrogram
    kernel: Kernel | None  # the adaptive filter it drives; None for a fixed beamformer
    banded: bool  # runs the band plan's orders; False runs every bin at order 0

    def plan(self, params: ApaParams) -> BandPlan:
        """The band plan the method runs: that of ``params``, or every bin at order 0."""
        return params.band_plan if self.banded else BandPlan((), (0,), params.delay)


# in increasing order of cost, which is the row order of the bench sweep
TABLE = {
    "ref-mic": Method(_ref_mic, None, False),
    "delay-sum": Method(_delay_sum, None, False),
    "sd-mvdr": Method(_sd_mvdr, None, False),
    "mpdr-apa": Method(_apa, APA, False),  # the convolutional filter's beamforming head only
    "conv-sdmvdr": Method(_conv_sdmvdr, RC, True),
    "conv-mpdr-apa": Method(_apa, APA, True),
}
METHODS = tuple(TABLE)


def _normalization(samples: np.ndarray, ref: int) -> tuple:
    """(channel, scale) that brings the input to -20 dBFS RMS.

    The reference mic sets the level; when it is silent the loudest channel
    does, and when every channel is silent the scale is 1 with channel "none".
    """
    rms = float(np.sqrt(np.mean(samples[ref] ** 2)))
    if rms == 0.0:
        levels = np.sqrt(np.mean(samples**2, axis=1))
        ref = int(np.argmax(levels))
        rms = float(levels[ref])
        if rms == 0.0:
            return "none", 1.0
    return ref, _TARGET_RMS / rms


def enhance(buf: AudioBuffer, cfg: RunConfig) -> tuple:
    """Process one utterance; returns (AudioBuffer, summary dict)."""
    t0 = time.perf_counter()
    resample_check(buf, cfg.stft_config.sample_rate)
    if buf.num_channels != cfg.geometry.num_mics:
        raise ValueError(
            f"input has {buf.num_channels} channels but geometry has "
            f"{cfg.geometry.num_mics} microphones"
        )
    finite = np.isfinite(buf.samples)
    if not finite.all():
        ch, idx = np.argwhere(~finite)[0]
        raise ValueError(f"input channel {ch} has a non-finite sample at index {idx}")
    channel, scale = _normalization(buf.samples, cfg.geometry.reference_mic)
    spec = stft(buf.samples * scale, cfg.stft_config)

    doa = cfg.doa
    if doa is None:
        doa = srp_phat_localize(spec, cfg.geometry)
    steering = plane_wave_steering(cfg.geometry, doa, cfg.stft_config)

    gains = None
    if cfg.gain_mask is not None:
        gains = mask_for_utterance(cfg.gain_mask, spec.num_bins, spec.num_frames)

    out = TABLE[cfg.method].runner(spec, steering, cfg, gains)

    samples = istft(out, length=buf.num_samples) / scale
    summary = {
        "method": cfg.method,
        "doa_deg": math.degrees(doa),
        "frames": spec.num_frames,
        "orders": ",".join(str(o) for o in TABLE[cfg.method].plan(cfg.params).orders),
        "norm_channel": channel,
        "norm_scale": scale,
        "elapsed_s": time.perf_counter() - t0,
    }
    return AudioBuffer(samples, buf.sample_rate), summary
