"""Compare convbeam's outputs between two source trees, array by array.

    python3 tools/compare_outputs.py SRC_A SRC_B
    python3 tools/compare_outputs.py --dump SRC OUT.npz

SRC_A and SRC_B are each a directory that contains the ``convbeam`` package
(for example ``src`` of a checkout), an ``.npz`` that ``--dump`` saved, or a
git revision of this repository (``HEAD``, ``HEAD~1``, a hash).  Each tree is
imported in a fresh subprocess, which runs a fixed set of calls on a 1 s,
4-mic reverberant scene and saves every result to an ``.npz``.  ``--dump``
saves that file alone, so a tree whose API this tool no longer calls can be
dumped by its own copy of the tool and compared as a file.  A revision is
dumped that way: its ``src/`` and ``tools/compare_outputs.py`` are extracted
with ``git archive`` into a temporary directory and its own tool dumps its
tree.  The calls are:

- ``enhance`` for every method x {no mask, gain-mask file (the adaptive
  methods only: a fixed one refuses a mask)} x {fixed DOA, SRP-PHAT} x
  {prior pass on, off}: the output samples, the DOA, and the summary without
  ``elapsed_s``, one ``key=value`` string per field, so a change to what a
  method reports counts as a differing array;
- ``enhance`` for ``sd-mvdr`` and ``conv-mpdr-apa`` with SRP-PHAT, once with
  ``os.sched_getaffinity`` returning 1 CPU and once 3, so the stages that
  split their work by the CPU count run as one part and as three: the
  output samples and the DOA; and under each count a stream, ``process_frame``
  on every frame with the default band plan and a gain column: its outputs
  and the final filters and histories of every bin;
- ``process_utterance`` on an order-0 + order-3 band plan with D=2, a gain
  mask and the prior pass: the output, and ``x_b`` and ``x_r``, rows 1 and 2
  of the outputs of an ``engine.Run`` on ``APA`` over the same inputs;
- a stream: ``process_frame`` on every frame with the default band plan
  and a gain column, and the final filters and histories of every bin;
- the stream without a gain column (as perfbench streams), once at the
  default band plan and once on the order-0 + order-3 plan with D=2: the
  outputs and the final filters of every bin;
- the same stream with caller changes: bin 100's state replaced by a fresh
  ``init_state`` at frame N/3, the steering switched to a 120-degree DOA
  at frame N/2 and the params switched to ``phi_b`` and ``phi_r`` 10 dB
  higher at frame 2N/3; its outputs and final filters and histories;
- a stream that turns the steering to 120 degrees at frame 30 while bins
  20-39 and 120-129 are silent on every channel (frames 15-40, longer
  than the largest order, so their whole stacked regressor is zero and
  the constraint row acts alone): its outputs and final filters;
- a stream that reuses its buffers through caller changes: the gain
  column on odd frames and none on even ones, the steering switched between
  the 45- and 120-degree DOAs every 5 frames, and bin 60's ``w_hat``
  reassigned to a copy of itself every 7th frame: its outputs and final
  filters and histories;
- ``process_utterance_sdmvdr`` called directly with D=2, a gain mask and
  the prior pass;
- both adaptive filters on a band plan whose order repeats in non-adjacent
  bands (orders 3, 6, 3), with a gain mask and the prior pass;
- an ``engine.Run`` with the prior pass, for both kernels, given copies of
  the filters and histories of a run over frames 10-39, over 0, 1 and 5
  frames with a gain mask: the outputs and the final filters and histories;
- the same ``engine.Run`` on new filters over the view ``spec.data[:, :, 3:]``
  with the gain mask's column slice ``mask[:, 3:]``, neither C-contiguous, so
  the run's conversion of its inputs is compared too: the outputs and the
  final filters and histories;
- both adaptive filters with the default band plan, a gain mask and the
  prior pass on the first 61 frames of the scene (a prime count), with
  bins 20-39 and 120-129 silent on every channel over frames 15-34: the
  output, and ``x_b`` and ``x_r`` of the full filter, as above;
- the method, M, L, D, Q and MAC columns of ``bench.wallclock_sweep``
  with ``num_mics=4``;
- the (complex MACs, real MACs, divisions) of ``bench.count_apa_update``
  and ``bench.count_rc_update`` for M 1-16, D 1-3 and orders D+1 to D+19,
  plus order 0 for the full filter, one row (M, D, L, tally) per call;
- the ``Q`` and ``macs`` columns of ``bench.reference_curves``;
- scenes: the ``random_mclp`` draw behind the scene and its
  ``mclp_spectral_radius``, six more draws (2 mics, order 4, 33 bins,
  seeds 0-4, and 3 mics, order 5, delay 2, 257 bins), every component of
  a 1 s, 4-mic ``exp_decay_rir_scene`` (T60 0.5 s, DRR 0 dB, SNR 20 dB), and a
  20-frame ``diffuse_noise_frames`` block;
- ``fw_seg_snr`` and ``cepstral_distance`` of the ``conv-mpdr-apa`` output
  (fixed DOA, no mask, prior pass) against the scene's dry signal;
- both metrics of a dropout: a 1 s AR(1) reference (pole 0.9, seed 0)
  against an estimate equal to it for 1,024 samples and silent after, so
  a change to how an estimate frame with no LPC fit scores shows.
- both metrics of that output at ``sample_rate=8000``, so the rate's path
  through the segment length, window and filterbank is pinned too;
- ``apa.kalman_gain`` on 204 fixed random instances: M 1, 2, 4 and 8 with
  Q = 3M, unit-modulus steering heads, variances log-uniform in 1e-8..10,
  and per M one silent regressor with phi_x = 0 (the constraint row alone);
- the scalar oracle, bin by bin, composed of the public per-frame functions
  as perfbench's reference loops compose them (``stack_observation``,
  ``speech_psd_estimate``, ``psd_floor``, ``apa_update``,
  ``limited_output`` and ``push`` for the full filter; ``rc_speech_psd``
  and ``rc_update`` for the canceller): the full filter at orders 0 and 3
  and the canceller at order 3, for M 2 and 3 and D 1 and 2, on 40 random
  frames with every fourth gain zero and a run of silent frames longer
  than the order, with and without a prior pass (``reset_history``
  between passes): the outputs, the final filter and the final history;
- ``srp_phat_localize`` on 72 ``exp_decay_rir_scene`` mixtures (2 s of
  ``synthetic_speech``, M 4, 6 and 8 on a 0.10 m circle, seeds 0-11,
  T60 0.3 and 0.9 s, DRR 0 dB, SNR 20 dB, an off-grid source direction per
  seed and M), one array per scene, so a DOA that flips shows as a differing
  array; the geometries are called in turn, so the grid cache is exercised;
- ``stft`` of a 3-channel signal of odd length (16,001 samples, so the last
  frame is zero-padded), and ``read_wav`` of that signal written as PCM16
  and as float32.

The two files (saved or given) are then compared with ``np.array_equal``.  The names of the
arrays that differ, or exist on one side only, are printed, each numeric
one of equal shape with the size of its difference, max|d| / max|ref| with
SRC_A's array as the reference (the rule of perfbench's ``checks.rel_err``),
and then the largest of these.  The exit status is 0 when every array is
identical and 1 otherwise.
"""

from __future__ import annotations

import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np


def dump(src: str, out_file: str) -> None:
    """Import convbeam from ``src`` and save every compared array to ``out_file`` (.npz)."""
    sys.path.insert(0, src)
    from scipy.signal import lfilter

    import convbeam
    from convbeam.apa import (
        ApaParams, apa_update, init_state, kalman_gain, limited_output, process_frame,
        process_utterance, psd_floor, speech_psd_estimate, stack_observation,
    )
    from convbeam.bench import count_apa_update, count_rc_update, reference_curves, wallclock_sweep
    from convbeam.engine import APA, RC, Run
    from convbeam.gains import apply_gain, write_gain_mask
    from convbeam.geometry import (
        circular_array, diffuse_coherence, plane_wave_steering, srp_phat_localize,
    )
    from convbeam.metrics import cepstral_distance, fw_seg_snr
    from convbeam.pipeline import METHODS, TABLE, RunConfig, enhance
    from convbeam.scenes import (
        diffuse_noise_frames, exp_decay_rir_scene, mclp_scene, mclp_spectral_radius, random_mclp,
        synthetic_speech,
    )
    from convbeam.sdmvdr import (
        init_rc_state, process_utterance_sdmvdr, rc_speech_psd, rc_update,
    )
    from convbeam.stft import BandPlan, Spectrogram, StftConfig, istft, stft
    from convbeam.wavio import AudioBuffer, read_wav, write_wav

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

    def components(spec, params, gains):
        """process_utterance's output with the prior pass, then x_b and x_r: rows 1 and 2 of
        the outputs of its run."""
        out = process_utterance(spec, steering, params, gains=gains, prior_pass=True).data
        orders = params.band_plan.bin_orders(cfg)
        run = Run(APA, steering.vectors, orders, params.delay, spec.num_frames, True)
        rows = run(spec.data, steering.vectors, gains, params)
        return out, rows[1], rows[2]

    arrays = {}
    with tempfile.TemporaryDirectory() as tmp:
        mask_path = str(Path(tmp) / "mask.gmsk")
        write_gain_mask(mask_path, mask)
        for method in METHODS:
            masks = [("nomask", None)]
            if TABLE[method].kernel is not None:  # a fixed method refuses a gain mask
                masks.append(("mask", mask_path))
            for mask_name, gain_mask in masks:
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
                        arrays[f"{key}/summary"] = np.array(
                            [f"{k}={v!r}" for k, v in summary.items() if k != "elapsed_s"])

    affinity = os.sched_getaffinity
    try:
        for cpus in (1, 3):
            os.sched_getaffinity = lambda pid, cpus=cpus: set(range(cpus))
            for method in ("sd-mvdr", "conv-mpdr-apa"):
                out, summary = enhance(buf, RunConfig(method=method, geometry=geom, doa=None))
                arrays[f"cpus{cpus}/{method}/samples"] = out.samples
                arrays[f"cpus{cpus}/{method}/doa_deg"] = np.array(summary["doa_deg"])
            params = ApaParams()
            states = [init_state(a, int(o), params.delay)
                      for a, o in zip(steering.vectors, params.band_plan.bin_orders(cfg))]
            arrays[f"cpus{cpus}/stream/output"] = np.stack(
                [process_frame(states, spec.data[:, :, n].T, steering.vectors, params, mask[:, n])
                 for n in range(spec.num_frames)], axis=1)
            arrays[f"cpus{cpus}/stream/w_hat"] = np.concatenate([s.w_hat for s in states])
            arrays[f"cpus{cpus}/stream/history"] = np.concatenate(
                [s.history.ravel() for s in states])
    finally:
        os.sched_getaffinity = affinity

    params = ApaParams(band_plan=BandPlan((4000.0,), (0, 3), delay=2))
    for name, array in zip(("output", "x_b", "x_r"), components(spec, params, mask)):
        arrays[f"components/{name}"] = array

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

    for name, plan in (("default", BandPlan()), ("D2", BandPlan((4000.0,), (0, 3), delay=2))):
        params = ApaParams(band_plan=plan)
        states = [init_state(a, int(o), params.delay)
                  for a, o in zip(steering.vectors, plan.bin_orders(cfg))]
        arrays[f"stream_nogain/{name}/output"] = np.stack(
            [process_frame(states, spec.data[:, :, n].T, steering.vectors, params)
             for n in range(spec.num_frames)],
            axis=1,
        )
        arrays[f"stream_nogain/{name}/w_hat"] = np.concatenate([s.w_hat for s in states])

    params = ApaParams()
    turned = plane_wave_steering(geom, math.radians(120.0), cfg).vectors
    vectors = steering.vectors
    states = [init_state(a, int(o), params.delay) for a, o in zip(vectors, orders)]
    outputs = []
    for n in range(spec.num_frames):
        if n == spec.num_frames // 3:
            states[100] = init_state(vectors[100], int(orders[100]), params.delay)
        if n == spec.num_frames // 2:
            vectors = turned
        if n == 2 * spec.num_frames // 3:
            params = ApaParams(phi_b=10.0 * params.phi_b, phi_r=10.0 * params.phi_r)
        outputs.append(process_frame(states, spec.data[:, :, n].T, vectors, params, mask[:, n]))
    arrays["changed_stream/output"] = np.stack(outputs, axis=1)
    arrays["changed_stream/w_hat"] = np.concatenate([s.w_hat for s in states])
    arrays["changed_stream/history"] = np.concatenate([s.history.ravel() for s in states])

    params = ApaParams()
    silent = spec.data.copy()
    silent[:, 20:40, 15:41] = 0.0
    silent[:, 120:130, 15:41] = 0.0
    states = [init_state(a, int(o), params.delay) for a, o in zip(steering.vectors, orders)]
    outputs = []
    for n in range(spec.num_frames):
        vectors = turned if n >= 30 else steering.vectors
        outputs.append(process_frame(states, silent[:, :, n].T, vectors, params, mask[:, n]))
    arrays["silent_turn/output"] = np.stack(outputs, axis=1)
    arrays["silent_turn/w_hat"] = np.concatenate([s.w_hat for s in states])

    states = [init_state(a, int(o), params.delay) for a, o in zip(steering.vectors, orders)]
    outputs = []
    for n in range(spec.num_frames):
        if n % 7 == 3:
            states[60].w_hat = states[60].w_hat.copy()
        vectors = turned if n % 10 >= 5 else steering.vectors
        column = mask[:, n] if n % 2 else None
        outputs.append(process_frame(states, spec.data[:, :, n].T, vectors, params, column))
    arrays["reused_stream/output"] = np.stack(outputs, axis=1)
    arrays["reused_stream/w_hat"] = np.concatenate([s.w_hat for s in states])
    arrays["reused_stream/history"] = np.concatenate([s.history.ravel() for s in states])

    coherence = diffuse_coherence(geom, cfg)
    params = ApaParams(band_plan=BandPlan((2000.0,), (5, 3), delay=2))
    arrays["sdmvdr/D2"] = process_utterance_sdmvdr(
        spec, steering, coherence, params, gains=mask, prior_pass=True
    ).data

    params = ApaParams(band_plan=BandPlan((1000.0, 3000.0), (3, 6, 3)))
    for name, array in zip(("output", "x_b", "x_r"), components(spec, params, mask)):
        arrays[f"repeated/apa/{name}"] = array
    arrays["repeated/sdmvdr"] = process_utterance_sdmvdr(
        spec, steering, coherence, params, gains=mask, prior_pass=True
    ).data

    params = ApaParams(band_plan=BandPlan((4000.0,), (3, 5), delay=2))
    vectors = np.ascontiguousarray(steering.vectors)  # the fixed heads of the canceller too
    run_orders = params.band_plan.bin_orders(cfg)
    for name, kernel in (("apa_run", APA), ("rc_run", RC)):  # every tree dumps these keys
        for frames in (0, 1, 5):
            held = Run(kernel, vectors, run_orders, 2, 30)
            held(spec.data[:, :, 10:40], vectors, mask[:, 10:40], params)
            run = Run(kernel, vectors, run_orders, 2, frames, True)
            run.w[:], run.history[:] = held.w, held.history
            key = f"run/{name}/F{frames}"
            arrays[f"{key}/output"] = run(
                spec.data[:, :, :frames], vectors, mask[:, :frames], params)
            arrays[f"{key}/w"], arrays[f"{key}/history"] = run.w, run.history
        run = Run(kernel, vectors, run_orders, 2, spec.num_frames - 3, True)
        key = f"run/{name}/view"
        arrays[f"{key}/output"] = run(spec.data[:, :, 3:], vectors, mask[:, 3:], params)
        arrays[f"{key}/w"], arrays[f"{key}/history"] = run.w, run.history

    quiet = spec.data[:, :, :61].copy()
    quiet[:, 20:40, 15:35] = 0.0
    quiet[:, 120:130, 15:35] = 0.0
    quiet = Spectrogram(quiet, cfg)
    params = ApaParams()
    for name, array in zip(("output", "x_b", "x_r"), components(quiet, params, mask[:, :61])):
        arrays[f"blocks/apa/{name}"] = array
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
    for seed in range(5):
        arrays[f"scenes/mclp_small/{seed}"] = random_mclp(2, 4, 1, StftConfig(64), seed=seed)
    arrays["scenes/mclp_D2"] = random_mclp(3, 5, 2, cfg, seed=11)
    rir = exp_decay_rir_scene(dry, geom, doa, 0.5, 0.0, 20.0, cfg, seed=5)
    for part in ("mixture", "dry", "reverb", "noise"):
        arrays[f"scenes/rir/{part}"] = getattr(rir, part).data
    arrays["scenes/diffuse"] = diffuse_noise_frames(geom, cfg, 20, seed=6)

    ref = istft(scene.dry, length=buf.num_samples)[0]
    est = arrays["enhance/conv-mpdr-apa/nomask/doa45/prior1/samples"][0]
    arrays["metrics/fwsnr"] = np.array(fw_seg_snr(ref, est, cfg.sample_rate))
    arrays["metrics/cd"] = np.array(cepstral_distance(ref, est, cfg.sample_rate))
    arrays["metrics/8k/fwsnr"] = np.array(fw_seg_snr(ref, est, 8000))
    arrays["metrics/8k/cd"] = np.array(cepstral_distance(ref, est, 8000))
    ref = lfilter([1.0], [1.0, -0.9], np.random.default_rng(0).standard_normal(cfg.sample_rate))
    est = np.where(np.arange(ref.size) < 1024, ref, 0.0)
    arrays["metrics/dropout/fwsnr"] = np.array(fw_seg_snr(ref, est, cfg.sample_rate))
    arrays["metrics/dropout/cd"] = np.array(cepstral_distance(ref, est, cfg.sample_rate))

    rng = np.random.default_rng(7)
    gains = []
    for m in (1, 2, 4, 8):
        for n in range(51):
            y = rng.standard_normal(3 * m) + 1j * rng.standard_normal(3 * m)
            a = np.zeros(3 * m, dtype=complex)
            a[:m] = np.exp(2j * np.pi * rng.uniform(size=m))
            phi_b, phi_r, phi_x, phi_a = 10.0 ** rng.uniform(-8.0, 1.0, 4)
            if n == 50:  # a silent regressor with phi_x = 0: the constraint row alone
                y, phi_x = np.zeros_like(y), 0.0
            gains.append(kalman_gain(y, a, m, phi_b, phi_r, phi_x, phi_a))
    arrays["kalman_gain"] = np.concatenate(gains)

    params = ApaParams()

    def apa_step(state, y_now, a, gain):
        obs = stack_observation(state, y_now, a)
        phi_x = float(apply_gain(speech_psd_estimate(state, obs), gain))
        phi_x = psd_floor(phi_x, y_now, params.eta, params.mean_floor)
        apa_update(state, obs, phi_x, params)
        m = state.num_mics
        x_b = np.vdot(state.w_hat[:m], y_now)
        x_r = x_b - np.vdot(state.w_hat, obs.y_tilde)
        state.push(y_now)
        return limited_output(x_b, x_r, params.alpha_r)

    def rc_step(state, y_now, a, gain):
        phi_x = rc_speech_psd(state, y_now, params.eta, params.mean_floor, gain)
        return rc_update(state, y_now, phi_x, params.phi_r, params.alpha_r)

    rng = np.random.default_rng(8)
    for name, init, step, order in (("apa", init_state, apa_step, 0),
                                    ("apa", init_state, apa_step, 3),
                                    ("rc", init_rc_state, rc_step, 3)):
        for m in (2, 3):
            for d in (1, 2):
                y = rng.standard_normal((40, m)) + 1j * rng.standard_normal((40, m))
                y[12:17] = 0.0  # longer than the order: the whole regressor falls silent
                a = np.exp(2j * np.pi * rng.uniform(size=m))
                gains = rng.uniform(0.0, 1.0, 40)
                gains[::4] = 0.0
                for prior in (0, 1):
                    state = init(a if name == "apa" else a / m, order, d)
                    for _ in range(prior):
                        for y_now, gain in zip(y, gains):
                            step(state, y_now, a, gain)
                        state.reset_history()
                    key = f"oracle/{name}/L{order}/M{m}/D{d}/prior{prior}"
                    arrays[f"{key}/output"] = np.array(
                        [step(state, y_now, a, gain) for y_now, gain in zip(y, gains)])
                    arrays[f"{key}/w"] = state.w_hat if name == "apa" else state.w_rc
                    arrays[f"{key}/history"] = state.history

    for seed in range(12):
        dry = synthetic_speech(2.0, cfg.sample_rate, seed=seed)
        for t60 in (0.3, 0.9):
            for m in (4, 6, 8):
                srp_geom = circular_array(m, 0.10)
                azimuth = math.radians((37.0 * seed + 11.0 * m + 2.5) % 360.0)
                mixture = exp_decay_rir_scene(
                    dry, srp_geom, azimuth, t60, 0.0, 20.0, cfg, seed=seed).mixture
                arrays[f"srp/M{m}/t60_{t60}/seed{seed}"] = np.array(
                    srp_phat_localize(mixture, srp_geom))

    signal = np.random.default_rng(9).uniform(-1.0, 1.0, (3, 16001))
    arrays["stft/odd"] = stft(signal, cfg).data
    with tempfile.TemporaryDirectory() as tmp:
        for encoding in ("pcm16", "float32"):
            path = Path(tmp) / f"{encoding}.wav"
            write_wav(path, AudioBuffer(signal, cfg.sample_rate), encoding=encoding)
            arrays[f"wavio/{encoding}"] = read_wav(path).samples
    np.savez(out_file, **arrays)


def extract(rev: str, into: Path) -> tuple:
    """(src, tool): the ``src/`` and ``tools/compare_outputs.py`` of git revision ``rev``,
    extracted into the new directory ``into``; a revision without them exits with git's error.
    Every version of the tool takes ``--dump SRC OUT``, which it runs on itself."""
    root = Path(__file__).resolve().parent.parent
    archive = subprocess.run(
        ["git", "-C", str(root), "archive", rev, "src", "tools/compare_outputs.py"],
        capture_output=True)
    if archive.returncode:
        raise SystemExit(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return str(into / "src"), str(into / "tools" / "compare_outputs.py")


def compare(src_a: str, src_b: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        saved = []
        for tag, src in (("a", src_a), ("b", src_b)):
            path = src if Path(src).is_file() else str(Path(tmp) / f"{tag}.npz")
            if path != src:
                tool = __file__
                if not Path(src).is_dir():  # a git revision, dumped by its own tool
                    src, tool = extract(src, Path(tmp) / tag)
                subprocess.run([sys.executable, tool, "--dump", src, path], check=True)
            saved.append(np.load(path))
        a, b = saved
        names = sorted(set(a.files) | set(b.files))
        differ = [n for n in names if n not in a.files or n not in b.files
                  or not np.array_equal(a[n], b[n])]
        sizes = {n: rel_diff(a[n], b[n]) for n in differ if n in a.files and n in b.files}
    for name in differ:
        size = sizes.get(name)
        print(f"differs: {name}" + ("" if size is None else f"  max|d|/max|ref| = {size:.3g}"))
    print(f"{len(differ)} of {len(names)} arrays differ")
    sized = {n: v for n, v in sizes.items() if v is not None}
    if sized:
        worst = max(sized, key=sized.get)
        print(f"largest max|d|/max|ref| = {sized[worst]:.3g} ({worst})")
    return 1 if differ else 0


def rel_diff(ref: np.ndarray, x: np.ndarray, scale=None):
    """max|x - ref| / max|scale| (max|x - ref| when the scale is all zero),
    with ``ref`` as the scale by default, or None for arrays of other
    shapes or of no numeric type."""
    ref, x = np.asarray(ref), np.asarray(x)
    if ref.shape != x.shape or ref.dtype.kind not in "biufc" or x.dtype.kind not in "biufc":
        return None
    top = float(np.max(np.abs(ref if scale is None else scale), initial=0.0))
    err = float(np.max(np.abs(x - ref), initial=0.0))
    return err / top if top > 0.0 else err


def main(argv: list) -> int:
    if len(argv) == 4 and argv[1] == "--dump":
        dump(argv[2], argv[3])
        return 0
    if len(argv) != 3:
        print("usage: python3 tools/compare_outputs.py SRC_A SRC_B  (a tree, .npz or revision)\n"
              "       python3 tools/compare_outputs.py --dump SRC OUT.npz", file=sys.stderr)
        return 2
    return compare(argv[1], argv[2])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
