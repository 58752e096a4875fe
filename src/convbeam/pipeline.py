"""Utterance-level enhancement pipeline shared by the command line and tests.

One call runs: level normalization to -20 dBFS at the reference mic, STFT,
localization (unless a DOA is given), steering, the selected beamformer,
synthesis, and de-normalization.  All randomness-free; identical inputs and
configuration give bit-identical outputs.  The method table :data:`RUNNERS`
is the one dispatch of the pipeline, the bench sweep and the CLI.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .apa import ApaParams, process_utterance
from .fixedbf import apply_fixed, delay_and_sum, superdirective_mvdr
from .gains import mask_for_utterance
from .geometry import ArrayGeometry, diffuse_coherence, plane_wave_steering, srp_phat_localize
from .sdmvdr import process_utterance_sdmvdr
from .stft import BandPlan, Spectrogram, StftConfig, istft, stft
from .wavio import AudioBuffer, resample_check

__all__ = ["METHODS", "RUNNERS", "RunConfig", "enhance"]

_TARGET_RMS = 10.0 ** (-20.0 / 20.0)  # -20 dBFS


@dataclass
class RunConfig:
    """Everything the enhancement pipeline needs besides the audio itself."""

    method: str
    geometry: ArrayGeometry
    doa: float | None = None  # radians; None means estimate
    params: ApaParams = field(default_factory=ApaParams)
    stft_config: StftConfig = field(default_factory=StftConfig)
    loading: float = 0.01
    prior_pass: bool = True
    gain_mask: str | None = None
    threads: int = 1

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


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
    return apply_fixed(superdirective_mvdr(steering, gamma, cfg.loading), spec)


def _mpdr_apa(spec, steering, cfg, gains) -> Spectrogram:
    # the convolutional filter with every band at order 0: beamforming head only
    flat = replace(cfg.params, band_plan=BandPlan((), (0,), cfg.params.delay))
    return _conv_mpdr_apa(spec, steering, replace(cfg, params=flat), gains)


def _conv_mpdr_apa(spec, steering, cfg, gains) -> Spectrogram:
    return process_utterance(
        spec, steering, cfg.params, gains=gains, prior_pass=cfg.prior_pass, num_threads=cfg.threads
    )


def _conv_sdmvdr(spec, steering, cfg, gains) -> Spectrogram:
    gamma = diffuse_coherence(cfg.geometry, cfg.stft_config)
    return process_utterance_sdmvdr(
        spec, steering, gamma, cfg.params, loading=cfg.loading, gains=gains,
        prior_pass=cfg.prior_pass, num_threads=cfg.threads,
    )


# in increasing order of cost, which is the row order of the bench sweep
RUNNERS = {
    "ref-mic": _ref_mic,
    "delay-sum": _delay_sum,
    "sd-mvdr": _sd_mvdr,
    "mpdr-apa": _mpdr_apa,
    "conv-sdmvdr": _conv_sdmvdr,
    "conv-mpdr-apa": _conv_mpdr_apa,
}
METHODS = tuple(RUNNERS)


def enhance(buf: AudioBuffer, cfg: RunConfig) -> tuple:
    """Process one utterance; returns (AudioBuffer, summary dict)."""
    t0 = time.perf_counter()
    resample_check(buf, cfg.stft_config.sample_rate)
    if buf.num_channels != cfg.geometry.num_mics:
        raise ValueError(
            f"input has {buf.num_channels} channels but geometry has "
            f"{cfg.geometry.num_mics} microphones"
        )
    ref = cfg.geometry.reference_mic
    rms = float(np.sqrt(np.mean(buf.samples[ref] ** 2)))
    scale = _TARGET_RMS / rms if rms > 0.0 else 1.0
    spec = stft(buf.samples * scale, cfg.stft_config)

    doa = cfg.doa
    if doa is None:
        doa = srp_phat_localize(spec, cfg.geometry)
    steering = plane_wave_steering(cfg.geometry, doa, cfg.stft_config)

    gains = None
    if cfg.gain_mask is not None:
        gains = mask_for_utterance(cfg.gain_mask, spec.num_bins, spec.num_frames)

    method = cfg.method
    out = RUNNERS[method](spec, steering, cfg, gains)

    samples = istft(out, length=buf.num_samples) / scale
    orders = cfg.params.band_plan.orders if method.startswith("conv") else (0,)
    summary = {
        "method": method,
        "doa_deg": math.degrees(doa),
        "frames": spec.num_frames,
        "orders": ",".join(str(o) for o in orders),
        "elapsed_s": time.perf_counter() - t0,
    }
    return AudioBuffer(samples, buf.sample_rate), summary
