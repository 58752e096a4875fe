"""Compare convbeam's outputs between two source trees, array by array.

    python3 tools/compare_outputs.py SRC_A SRC_B

SRC_A and SRC_B are directories that each contain the ``convbeam`` package
(for example ``src`` of two checkouts).  Each tree is imported in a fresh
subprocess, which runs a fixed set of calls on a 1 s, 4-mic reverberant
scene and saves every result to an ``.npz``:

- ``enhance`` for every method x {no mask, gain-mask file} x {fixed DOA,
  SRP-PHAT} x {prior pass on, off}: the output samples and the DOA;
- ``process_utterance(..., return_components=True)`` on an order-0 +
  order-3 band plan with D=2, a gain mask and the prior pass: the output,
  ``x_b`` and ``x_r``;
- a stream: ``process_frame`` on every frame with the default band plan
  and a gain column, and the final filters and histories of every bin;
- the same stream with caller changes: bin 100's state replaced by a fresh
  ``init_state`` at frame N/3 and the steering switched to a 120-degree
  DOA at frame N/2; its outputs and final filters and histories;
- ``process_utterance_sdmvdr`` called directly with D=2, a gain mask and
  the prior pass;
- both adaptive filters on a band plan whose order repeats in non-adjacent
  bands (orders 3, 6, 3), with a gain mask and the prior pass;
- both adaptive filters with the default band plan, a gain mask and the
  prior pass on the first 61 frames of the scene (a prime count, so the
  utterance spans several of the engine's input blocks and ends in a
  partial one), with bins 20-39 and 120-129 silent on every channel over
  frames 15-34: the output, and ``x_b`` and ``x_r`` of the full filter;
- the method, M, L, D, Q and MAC columns of ``bench.wallclock_sweep``
  with ``num_mics=4``;
- the (complex MACs, real MACs, divisions) of ``bench.count_apa_update``
  and ``bench.count_rc_update`` for M 1-16, D 1-3 and orders D+1 to D+19,
  plus order 0 for the full filter, one row (M, D, L, tally) per call;
- the ``Q`` and ``macs`` columns of ``bench.reference_curves``;
- scenes: the ``random_mclp`` draw behind the scene and its
  ``mclp_spectral_radius``, every component of a 1 s, 4-mic
  ``exp_decay_rir_scene`` (T60 0.5 s, DRR 0 dB, SNR 20 dB), and a
  20-frame ``diffuse_noise_frames`` block;
- ``fw_seg_snr`` and ``cepstral_distance`` of the ``conv-mpdr-apa`` output
  (fixed DOA, no mask, prior pass) against the scene's dry signal.

The two files are then compared with ``np.array_equal``.  The names of the
arrays that differ, or exist on one side only, are printed.  The exit
status is 0 when every array is identical and 1 otherwise.
"""

from __future__ import annotations

import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def dump(src: str, out_file: str) -> None:
    """Import convbeam from ``src`` and save every compared array to ``out_file`` (.npz)."""
    sys.path.insert(0, src)
    import convbeam
    from convbeam.apa import ApaParams, init_state, process_frame, process_utterance
    from convbeam.bench import count_apa_update, count_rc_update, reference_curves, wallclock_sweep
    from convbeam.gains import write_gain_mask
    from convbeam.geometry import circular_array, diffuse_coherence, plane_wave_steering
    from convbeam.metrics import cepstral_distance, fw_seg_snr
    from convbeam.pipeline import METHODS, RunConfig, enhance
    from convbeam.scenes import (
        diffuse_noise_frames, exp_decay_rir_scene, mclp_scene, mclp_spectral_radius, random_mclp,
        synthetic_speech,
    )
    from convbeam.sdmvdr import process_utterance_sdmvdr
    from convbeam.stft import BandPlan, Spectrogram, StftConfig, istft
    from convbeam.wavio import AudioBuffer

    if not str(Path(convbeam.__file__).resolve()).startswith(str(Path(src).resolve())):
        raise SystemExit(f"imported convbeam from {convbeam.__file__}, not from {src}")

    cfg = StftConfig()
    geom = circular_array(4, 0.10)
    doa = math.radians(45.0)
    steering = plane_wave_steering(geom, doa, cfg)
    dry = synthetic_speech(1.0, cfg.sample_rate, seed=3)
    coeffs = random_mclp(4, 3, 1, cfg, seed=3)
    scene = mclp_scene(dry, steering, coeffs, 1, snr_db=25.0, config=cfg, seed=3)
    buf = AudioBuffer(istft(scene.mixture), cfg.sample_rate)
    spec = scene.mixture
    mask = np.random.default_rng(4).uniform(0.0, 1.0, (spec.num_bins, spec.num_frames))

    arrays = {}
    with tempfile.TemporaryDirectory() as tmp:
        mask_path = str(Path(tmp) / "mask.gmsk")
        write_gain_mask(mask_path, mask)
        for method in METHODS:
            for mask_name, gain_mask in (("nomask", None), ("mask", mask_path)):
                for doa_name, run_doa in (("doa45", doa), ("srp", None)):
                    for prior_pass in (True, False):
                        run_cfg = RunConfig(
                            method=method, geometry=geom, doa=run_doa,
                            prior_pass=prior_pass, gain_mask=gain_mask,
                        )
                        out, summary = enhance(buf, run_cfg)
                        key = f"enhance/{method}/{mask_name}/{doa_name}/prior{int(prior_pass)}"
                        arrays[f"{key}/samples"] = out.samples
                        arrays[f"{key}/doa_deg"] = np.array(summary["doa_deg"])

    params = ApaParams(band_plan=BandPlan((4000.0,), (0, 3), delay=2))
    out, extras = process_utterance(
        spec, steering, params, gains=mask, prior_pass=True, return_components=True
    )
    arrays["components/output"] = out.data
    arrays["components/x_b"] = extras["x_b"]
    arrays["components/x_r"] = extras["x_r"]

    params = ApaParams()
    orders = params.band_plan.bin_orders(cfg)
    states = [init_state(a, int(o), params.delay) for a, o in zip(steering.vectors, orders)]
    arrays["stream/output"] = np.stack(
        [
            process_frame(states, spec.data[:, :, n].T, steering.vectors, params, mask[:, n])
            for n in range(spec.num_frames)
        ],
        axis=1,
    )
    arrays["stream/w_hat"] = np.concatenate([s.w_hat for s in states])
    arrays["stream/history"] = np.concatenate([s.history.ravel() for s in states])

    turned = plane_wave_steering(geom, math.radians(120.0), cfg).vectors
    vectors = steering.vectors
    states = [init_state(a, int(o), params.delay) for a, o in zip(vectors, orders)]
    outputs = []
    for n in range(spec.num_frames):
        if n == spec.num_frames // 3:
            states[100] = init_state(vectors[100], int(orders[100]), params.delay)
        if n == spec.num_frames // 2:
            vectors = turned
        outputs.append(process_frame(states, spec.data[:, :, n].T, vectors, params, mask[:, n]))
    arrays["changed_stream/output"] = np.stack(outputs, axis=1)
    arrays["changed_stream/w_hat"] = np.concatenate([s.w_hat for s in states])
    arrays["changed_stream/history"] = np.concatenate([s.history.ravel() for s in states])

    coherence = diffuse_coherence(geom, cfg)
    params = ApaParams(band_plan=BandPlan((2000.0,), (5, 3), delay=2))
    arrays["sdmvdr/D2"] = process_utterance_sdmvdr(
        spec, steering, coherence, params, gains=mask, prior_pass=True
    ).data

    params = ApaParams(band_plan=BandPlan((1000.0, 3000.0), (3, 6, 3)))
    out, extras = process_utterance(
        spec, steering, params, gains=mask, prior_pass=True, return_components=True
    )
    arrays["repeated/apa/output"] = out.data
    arrays["repeated/apa/x_b"] = extras["x_b"]
    arrays["repeated/apa/x_r"] = extras["x_r"]
    arrays["repeated/sdmvdr"] = process_utterance_sdmvdr(
        spec, steering, coherence, params, gains=mask, prior_pass=True
    ).data

    quiet = spec.data[:, :, :61].copy()
    quiet[:, 20:40, 15:35] = 0.0
    quiet[:, 120:130, 15:35] = 0.0
    quiet = Spectrogram(quiet, cfg)
    params = ApaParams()
    out, extras = process_utterance(
        quiet, steering, params, gains=mask[:, :61], prior_pass=True, return_components=True
    )
    arrays["blocks/apa/output"] = out.data
    arrays["blocks/apa/x_b"] = extras["x_b"]
    arrays["blocks/apa/x_r"] = extras["x_r"]
    arrays["blocks/sdmvdr"] = process_utterance_sdmvdr(
        quiet, steering, coherence, params, gains=mask[:, :61], prior_pass=True
    ).data

    rows = wallclock_sweep(num_mics=4, audio_seconds=0.25, repeats=1)
    for column in ("method", "M", "L", "D", "Q", "macs"):
        arrays[f"sweep/{column}"] = np.array([row[column] for row in rows])

    for name, count, first in (("apa", count_apa_update, [0]), ("rc", count_rc_update, [])):
        tallies = []
        for m in range(1, 17):
            for d in range(1, 4):
                for order in first + list(range(d + 1, d + 20)):
                    c = count(m, order, d)
                    tallies.append((m, d, order, c.complex_macs, c.real_macs, c.divisions))
        arrays[f"counts/{name}"] = np.array(tallies)

    rows = reference_curves([26, 52, 104, 208], num_mics=2)
    for column in ("Q", "macs"):
        arrays[f"curves/{column}"] = np.array([row[column] for row in rows])

    arrays["scenes/mclp"] = coeffs
    arrays["scenes/mclp_radius"] = mclp_spectral_radius(coeffs, 1)
    rir = exp_decay_rir_scene(dry, geom, doa, 0.5, 0.0, 20.0, cfg, seed=5)
    for part in ("mixture", "dry", "reverb", "noise"):
        arrays[f"scenes/rir/{part}"] = getattr(rir, part).data
    arrays["scenes/diffuse"] = diffuse_noise_frames(geom, cfg, 20, seed=6)

    ref = istft(scene.dry, length=buf.num_samples)[0]
    est = arrays["enhance/conv-mpdr-apa/nomask/doa45/prior1/samples"][0]
    arrays["metrics/fwsnr"] = np.array(fw_seg_snr(ref, est, cfg.sample_rate))
    arrays["metrics/cd"] = np.array(cepstral_distance(ref, est, cfg.sample_rate))
    np.savez(out_file, **arrays)


def compare(src_a: str, src_b: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        saved = []
        for tag, src in (("a", src_a), ("b", src_b)):
            path = str(Path(tmp) / f"{tag}.npz")
            subprocess.run([sys.executable, __file__, "--dump", src, path], check=True)
            saved.append(np.load(path))
        a, b = saved
        names = sorted(set(a.files) | set(b.files))
        differ = [n for n in names if n not in a.files or n not in b.files
                  or not np.array_equal(a[n], b[n])]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(names)} arrays differ")
    return 1 if differ else 0


def main(argv: list) -> int:
    if len(argv) == 4 and argv[1] == "--dump":
        dump(argv[2], argv[3])
        return 0
    if len(argv) != 3:
        print("usage: python3 tools/compare_outputs.py SRC_A SRC_B", file=sys.stderr)
        return 2
    return compare(argv[1], argv[2])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
