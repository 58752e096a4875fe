"""Correctness checks, quality scores and exact work counts, run after the measured process.

A request fails on an exception, a non-finite output, a wrong output
length, an output that differs from an earlier request on the same input,
or a mismatch against a reference computation.

The reference loops below are built only from convbeam's public scalar
functions, one bin at a time, so they pin any faster engine to the
readable transcription of the update equations.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
from convbeam import apa, sdmvdr
from convbeam.apa import ApaParams, process_utterance
from convbeam.bench import count_apa_update, count_rc_update
from convbeam.fixedbf import superdirective_mvdr
from convbeam.geometry import CoherenceMatrix, SteeringVector, plane_wave_steering
from convbeam.metrics import cepstral_distance, fw_seg_snr
from convbeam.scenes import measure_srr
from convbeam.stft import Spectrogram, StftConfig, istft, stft
from convbeam.wavio import read_wav
from inputs import geometry

# Largest accepted max|x - ref| / max|ref| against a reference computation.
# The bound admits a different summation order, not a different algorithm.
REL_TOL = 1e-12
# Methods whose adaptive engine the oracle check re-runs.
ADAPTIVE = ("conv-mpdr-apa", "conv-sdmvdr")


def rel_err(x: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.max(np.abs(ref)))
    err = float(np.max(np.abs(x - ref)))
    return err / scale if scale > 0.0 else err


def _apa_step(state, y_now, a, params) -> complex:
    obs = apa.stack_observation(state, y_now, a)
    phi_x = apa.psd_floor(
        apa.speech_psd_estimate(state, obs), y_now, params.eta, params.mean_floor
    )
    apa.apa_update(state, obs, phi_x, params)
    m = state.num_mics
    x_b = np.vdot(state.w_hat[:m], y_now)
    x_r = x_b - np.vdot(state.w_hat, obs.y_tilde)
    state.push(y_now)
    return apa.limited_output(x_b, x_r, params.alpha_r)


def apa_oracle(y: np.ndarray, a: np.ndarray, order: int, params, prior_pass: bool) -> np.ndarray:
    """Output of one bin, y shaped (frames, M), by the scalar two-row update."""
    state = apa.init_state(a, order, params.delay)
    if prior_pass:
        for y_now in y:
            _apa_step(state, y_now, a, params)
        state.reset_history()
    return np.array([_apa_step(state, y_now, a, params) for y_now in y])


def _rc_step(state, y_now, params) -> complex:
    phi_x = sdmvdr.rc_speech_psd(state, y_now, params.eta, params.mean_floor)
    return sdmvdr.rc_update(state, y_now, phi_x, params.phi_r, params.alpha_r)


def sdmvdr_oracle(y: np.ndarray, w_sd: np.ndarray, order: int, params, prior_pass: bool):
    """Output of one bin, y shaped (frames, M), by the scalar canceller update."""
    state = sdmvdr.init_rc_state(w_sd, order, params.delay)
    if prior_pass:
        for y_now in y:
            _rc_step(state, y_now, params)
        state.reset_history()
    return np.array([_rc_step(state, y_now, params) for y_now in y])


def oracle_errors(path: str, bins, method: str, orders) -> list:
    """Relative error of every captured bin against the scalar oracle.

    The capture file holds what the pipeline gave the adaptive layer (input
    bins ``y`` shaped (M, bins, frames) and steering ``a``) and what it
    returned (``out``); sdmvdr captures add the coherence and loading, from
    which the fixed head is recomputed here.
    """
    params = ApaParams()
    with np.load(path) as capture:
        capture = dict(capture)
    y, a, out = capture["y"], capture["a"], capture["out"]
    prior_pass = bool(capture["prior_pass"])
    heads = None
    if method == "conv-sdmvdr":
        heads = superdirective_mvdr(
            SteeringVector(a, 0), CoherenceMatrix(capture["gamma"]), float(capture["loading"])
        ).weights
    errors = []
    for j, k in enumerate(bins):
        y_k = np.ascontiguousarray(y[:, j, :].T)
        if heads is None:
            ref = apa_oracle(y_k, a[j], int(orders[k]), params, prior_pass)
        else:
            ref = sdmvdr_oracle(y_k, heads[j], int(orders[k]), params, prior_pass)
        errors.append(rel_err(out[j], ref))
    return errors


def frame_errors(out: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per-frame max|out - ref| over bins, relative to max|ref| over the utterance."""
    scale = float(np.max(np.abs(ref)))
    return np.max(np.abs(out - ref), axis=0) / scale


def quality(item, estimate: np.ndarray, full: bool) -> dict:
    """Scores of a time-domain estimate against the scene's dry reference-mic component.

    fwSegSNR always; cepstral distance and SRR only when ``full``, since
    only the traced run reports them.
    """
    scores = {"fwsnr_db": fw_seg_snr(item.dry_ref, estimate)}
    if full:
        scores["cd_db"] = cepstral_distance(item.dry_ref, estimate)
        scores["srr_db"] = measure_srr(item.scene, stft(estimate, item.scene.dry.config))
    return scores


def stream_estimate(item, out: np.ndarray) -> np.ndarray:
    return istft(Spectrogram(out, StftConfig()), length=item.num_samples)[0]


def doa_error_deg(estimate_deg: float, true_rad: float) -> float:
    return abs((estimate_deg - math.degrees(true_rad) + 180.0) % 360.0 - 180.0)


def macs_per_bin_frame(method: str, orders: np.ndarray, num_mics: int, delay: int) -> float:
    """MACs of one update averaged over bins, each bin at its band's order.

    Counts come from convbeam's instrumented updates and depend only on the
    filter dimensions, so they repeat exactly from run to run.
    """
    count = count_rc_update if method == "conv-sdmvdr" else count_apa_update
    per_order = {int(o): count(num_mics, int(o), delay).total for o in np.unique(orders)}
    return float(np.mean([per_order[int(o)] for o in orders]))


def check_offline(method: str, made: list, record: dict) -> tuple:
    """Mark failed requests; returns (failed flags, per-scene doa estimates)."""
    orders = ApaParams().band_plan.bin_orders(StftConfig())
    first_hash: dict = {}
    doa: dict = {}
    failed = []
    for rec in record["requests"]:
        ok = rec["error"] is None and rec["finite"] and rec["length_ok"]
        if ok:
            s = rec["scene"]
            ok = first_hash.setdefault(s, rec["sha256"]) == rec["sha256"]
            doa.setdefault(s, rec["doa_deg"])
            if ok and method in ADAPTIVE:
                # an adaptive request that never reached its engine fails
                ok = "capture" in rec and all(
                    e <= REL_TOL
                    for e in oracle_errors(rec["capture"], made[s].check_bins, method, orders)
                )
        failed.append(not ok)
    return failed, doa


def offline_quality(made: list, entries: list, doa: dict, full: bool) -> dict:
    """Scores of the enhanced files, averaged over the run's scenes."""
    scores = []
    for j, item in enumerate(made):
        est = read_wav(entries[j]["output"]).samples[0]
        q = quality(item, est, full)
        q["doa_err_deg"] = doa_error_deg(doa[j], item.doa)
        scores.append(q)
    return {key: statistics.fmean(s[key] for s in scores) for key in scores[0]}


def check_stream(item, record: dict, stream_output: str, full: bool) -> tuple:
    """Mark failed frames; returns (failed flags, quality of the first pass)."""
    params = ApaParams()
    config = StftConfig()
    out = np.load(stream_output)
    steering = plane_wave_steering(geometry(), item.doa, config)
    ref = process_utterance(item.scene.mixture, steering, params, prior_pass=False).data[0]
    frame_ok = frame_errors(out, ref) <= REL_TOL
    orders = params.band_plan.bin_orders(config)
    data = item.scene.mixture.data
    for k in item.check_bins:
        y_k = np.ascontiguousarray(data[:, k, :].T)
        oracle = apa_oracle(y_k, steering.vectors[k], int(orders[k]), params, False)
        frame_ok &= np.abs(out[k] - oracle) <= REL_TOL * np.max(np.abs(oracle))
    failed = [
        not (
            rec["error"] is None
            and rec["finite"]
            and rec["length_ok"]
            and rec.get("repeat_ok", True)
            and frame_ok[rec["frame"]]
        )
        for rec in record["requests"]
    ]
    q = quality(item, stream_estimate(item, out), full) if np.all(frame_ok) else {}
    q["doa_err_deg"] = 0.0  # the stream is steered to the known direction
    return failed, q
