"""Workload inputs, generated from the seed before the measured process starts.

Every scene comes from ``scenes.exp_decay_rir_scene`` with
``synthetic_speech`` as the dry source: an 8-mic circular array of radius
0.10 m (the command line's default), T60 0.5 s, DRR 0 dB and diffuse noise
at 20 dB SNR, from a direction drawn from the seed.  The same seed gives the
same inputs on every workload of its kind.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from convbeam.apa import ApaParams
from convbeam.geometry import circular_array
from convbeam.scenes import Scene, exp_decay_rir_scene, synthetic_speech
from convbeam.stft import StftConfig, istft
from convbeam.wavio import AudioBuffer, write_wav

NUM_MICS = 8
RADIUS_M = 0.10
T60_S = 0.5
DRR_DB = 0.0
SNR_DB = 20.0
# Offline requests are 5 s utterances.  A run cycles through several
# distinct scenes so that its quality score averages over rooms, sources
# and directions instead of depending on one draw; how many is set per
# workload in ``harness.py``.
UTTERANCE_S = 5.0
# The stream utterance gives 1031 frames, so its p99 frame latency has more
# than ten frames beyond it from the first pass alone.
STREAM_S = 16.5
# Bins per adaptive request that the scalar oracle re-runs: one per band of
# the default band plan plus one drawn from all bins.
EXTRA_CHECK_BINS = 1


@dataclass
class SceneInput:
    scene: Scene
    doa: float  # radians
    num_samples: int
    dry_ref: np.ndarray  # time-domain dry component at the reference mic
    check_bins: list


def geometry():
    return circular_array(NUM_MICS, RADIUS_M)


def _check_bins(rng, config: StftConfig) -> list:
    orders = ApaParams().band_plan.bin_orders(config)
    bins = {int(rng.choice(np.flatnonzero(orders == order))) for order in np.unique(orders)}
    while len(bins) < len(np.unique(orders)) + EXTRA_CHECK_BINS:
        bins.add(int(rng.integers(config.num_bins)))
    return sorted(bins)


def _scene(rng, duration: float, config: StftConfig) -> SceneInput:
    scene_seed = int(rng.integers(2**31))
    doa = float(rng.uniform(0.0, 2.0 * math.pi))
    dry = synthetic_speech(duration, config.sample_rate, seed=scene_seed)
    scene = exp_decay_rir_scene(
        dry, geometry(), doa, T60_S, DRR_DB, SNR_DB, config, seed=scene_seed
    )
    n = dry.shape[0]
    dry_ref = istft(scene.dry, length=n)[0]
    # scoring reads only the dry component; drop the rest but the mixture
    scene = dataclasses.replace(scene, reverb=None, noise=None, metadata={})
    return SceneInput(scene, doa, n, dry_ref, _check_bins(rng, config))


def offline_inputs(seed: int, count: int, workdir: Path) -> tuple:
    """Write ``count`` mixture WAVs; returns (scene inputs, plan entries).

    Scenes are drawn in order from one generator, so a smaller count gives
    the first scenes of a larger one.
    """
    config = StftConfig()
    rng = np.random.default_rng(seed)
    made, entries = [], []
    for j in range(count):
        item = _scene(rng, UTTERANCE_S, config)
        mixture = istft(item.scene.mixture, length=item.num_samples)
        item.scene = dataclasses.replace(item.scene, mixture=None)
        path = workdir / f"mixture-{j}.wav"
        write_wav(path, AudioBuffer(mixture, config.sample_rate))
        made.append(item)
        entries.append(
            {
                "input": str(path),
                "output": str(workdir / f"enhanced-{j}.wav"),
                "check_bins": item.check_bins,
            }
        )
    return made, entries


def stream_inputs(seed: int, workdir: Path) -> tuple:
    """Write the stream's STFT frames as (frames, bins, mics); returns (scene input, path)."""
    config = StftConfig()
    rng = np.random.default_rng(seed)
    item = _scene(rng, STREAM_S, config)
    path = workdir / "frames.npy"
    np.save(path, np.ascontiguousarray(item.scene.mixture.data.transpose(2, 1, 0)))
    return item, path
