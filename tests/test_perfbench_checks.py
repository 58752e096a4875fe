"""The calls that perfbench's correctness checks make into convbeam, run in tier-1.

``perfbench/checks.py`` decides whether a benchmark request failed by
re-running the adaptive filters bin by bin from the public scalar functions
(``init_state``, ``stack_observation``, ``psd_floor(..., mean_floor)``,
``num_mics``, ``push``, ``reset_history``, ``rc_speech_psd``,
``SteeringVector(a, 0)``, ``superdirective_mvdr(..., loading)``,
``process_utterance(..., prior_pass=False)``).  A change to one of those
calls would otherwise show only as failed benchmark runs.  The module is
loaded by path, with no bytecode written, so nothing under ``perfbench/``
is touched.
"""

import importlib.util
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from convbeam.apa import ApaParams, init_state, process_frame, process_utterance
from convbeam.geometry import circular_array, diffuse_coherence, plane_wave_steering
from convbeam.scenes import exp_decay_rir_scene, synthetic_speech
from convbeam.sdmvdr import process_utterance_sdmvdr
from convbeam.stft import StftConfig, istft

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def checks():
    """``perfbench/checks.py`` as a module, with its ``inputs`` import resolved."""
    path, dont_write = list(sys.path), sys.dont_write_bytecode
    had_inputs = "inputs" in sys.modules
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = path, dont_write
        if not had_inputs:
            sys.modules.pop("inputs", None)
    return module


def _scene(geom, seed):
    config = StftConfig()
    doa = math.radians(60.0)
    dry = synthetic_speech(0.6, config.sample_rate, seed=seed)
    scene = exp_decay_rir_scene(dry, geom, doa, 0.5, 0.0, 20.0, config, seed=seed)
    return scene, doa, dry.shape[0], plane_wave_steering(geom, doa, config)


@pytest.mark.parametrize("prior_pass", [False, True])
@pytest.mark.parametrize("method", ["conv-mpdr-apa", "conv-sdmvdr"])
def test_the_benchmark_oracle_matches_the_utterance_drivers(checks, tmp_path, method,
                                                            prior_pass):
    """``checks.oracle_errors``, on a capture written as the benchmark's
    worker writes one (one bin per band and the top bin), finds both
    utterance drivers within ``checks.REL_TOL`` of ``apa_oracle`` and
    ``sdmvdr_oracle``."""
    geom = circular_array(4, 0.10)
    scene, _, _, steering = _scene(geom, seed=2)
    spec, params = scene.mixture, ApaParams()
    orders = params.band_plan.bin_orders(spec.config)
    bins = sorted({int(np.argmax(orders == o)) for o in np.unique(orders)} | {spec.num_bins - 1})
    extra = {}
    if method == "conv-sdmvdr":
        coherence = diffuse_coherence(geom, spec.config)
        out = process_utterance_sdmvdr(spec, steering, coherence, params, prior_pass=prior_pass)
        extra = {"gamma": coherence.gamma[bins], "loading": 0.01}
    else:
        out = process_utterance(spec, steering, params, prior_pass=prior_pass)
    capture = tmp_path / "capture.npz"
    np.savez(capture, y=spec.data[:, bins, :], a=steering.vectors[bins],
             out=out.data[0, bins, :], prior_pass=prior_pass, **extra)
    errors = checks.oracle_errors(str(capture), bins, method, orders)
    assert len(errors) == len(bins)
    assert max(errors) <= checks.REL_TOL


def test_the_benchmark_stream_check_passes_a_stream_and_names_a_wrong_frame(checks, tmp_path):
    """``checks.check_stream`` passes every frame of a ``process_frame``
    stream on its own geometry, and fails exactly the frame made wrong."""
    scene, doa, n, steering = _scene(checks.geometry(), seed=3)
    spec, params = scene.mixture, ApaParams()
    orders = params.band_plan.bin_orders(spec.config)
    states = [init_state(a, int(o), params.delay) for a, o in zip(steering.vectors, orders)]
    out = np.stack([process_frame(states, spec.data[:, :, t].T, steering.vectors, params)
                    for t in range(spec.num_frames)], axis=1)
    item = SimpleNamespace(scene=scene, doa=doa, num_samples=n, check_bins=[0, 60, 200],
                           dry_ref=istft(scene.dry, length=n)[0])  # as inputs.SceneInput
    record = {"requests": [{"error": None, "finite": True, "length_ok": True, "frame": t}
                           for t in range(spec.num_frames)]}
    path = tmp_path / "stream.npy"
    np.save(path, out)
    failed, quality = checks.check_stream(item, record, str(path), False)
    assert not any(failed) and np.isfinite(quality["fwsnr_db"])
    out[60, 7] *= 1.0 + 1e-9
    np.save(path, out)
    failed, _ = checks.check_stream(item, record, str(path), False)
    assert [t for t, f in enumerate(failed) if f] == [7]
