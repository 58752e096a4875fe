"""Release-gating acceptance suite.

Each test checks one numbered property of the toolkit at a pinned tolerance
and prints a single PASS/FAIL line (run with ``pytest -s`` to see them all).
The properties cover analysis/synthesis fidelity, the distortionless
constraints, degenerate-mode contracts, oracle dereverberation on matched
scenes, the gain identity behind the adaptive update, complexity scaling,
runtime ordering, the PSD pipeline, the diffuse-noise generator, and
determinism of the full pipeline.
"""

import math
import time

import numpy as np
import pytest

from convbeam.apa import (
    ApaParams,
    ApaState,
    apa_update,
    init_state,
    kalman_gain,
    process_frame,
    process_utterance,
    stack_observation,
)
from convbeam.bench import fit_power_law, reference_curves, wallclock_sweep
from convbeam.fixedbf import apply_fixed, delay_and_sum, superdirective_mvdr
from convbeam.gains import apply_gain
from convbeam.geometry import circular_array, diffuse_coherence, plane_wave_steering
from convbeam.pipeline import RunConfig, enhance
from convbeam.apa import psd_floor
from convbeam.scenes import (
    diffuse_noise_frames,
    mclp_scene,
    measure_srr,
    random_mclp,
    synthetic_speech,
)
from convbeam.sdmvdr import init_rc_state, rc_update
from convbeam.stft import BandPlan, StftConfig, istft, stft
from convbeam.wavio import AudioBuffer, write_wav


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}  {detail}", flush=True)
    assert ok, f"acceptance {num}: {detail}"


# ---------------------------------------------------------------------------
# shared scenes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def anechoic():
    """Noiseless plane-wave scene: mixture frames are exactly a * X."""
    cfg = StftConfig()
    geom = circular_array(8, 0.10)
    steering = plane_wave_steering(geom, math.radians(30.0), cfg)
    dry = synthetic_speech(2.0, cfg.sample_rate, seed=1)
    zero_coeffs = np.zeros((cfg.num_bins, 1, 8, 8), dtype=np.complex128)
    scene = mclp_scene(dry, steering, zero_coeffs, 1, snr_db=math.inf, config=cfg, seed=1)
    return cfg, geom, steering, scene


class TestAcceptance:
    # -- 1 ------------------------------------------------------------------

    def test_01_stft_round_trip(self):
        cfg = StftConfig()
        rng = np.random.default_rng(1)
        t0 = time.perf_counter()
        worst = -math.inf
        for _ in range(10):
            x = rng.standard_normal((8, cfg.sample_rate))
            back = istft(stft(x, cfg), length=x.shape[1])
            lo, hi = cfg.window_len, x.shape[1] - cfg.window_len
            err = np.sum((back[:, lo:hi] - x[:, lo:hi]) ** 2)
            ref = np.sum(x[:, lo:hi] ** 2)
            worst = max(worst, 10.0 * math.log10(err / ref))
        elapsed = time.perf_counter() - t0
        ok = worst <= -50.0 and elapsed < 5.0
        _verdict(1, ok, f"round trip worst {worst:.1f} dB (limit -50), {elapsed:.2f} s (limit 5)")

    # -- 2 ------------------------------------------------------------------

    def test_02_distortionless_constraints(self, anechoic):
        cfg, geom, steering, scene = anechoic
        x = scene.dry.data[0]
        mix = scene.mixture.data
        x_norm = float(np.linalg.norm(x))

        rel_ds = np.linalg.norm(apply_fixed(delay_and_sum(steering), scene.mixture).data[0] - x)
        rel_ds /= x_norm

        gamma = diffuse_coherence(geom, cfg)
        w_sd = superdirective_mvdr(steering, gamma)
        rel_sd = np.linalg.norm(apply_fixed(w_sd, scene.mixture).data[0] - x) / x_norm

        # zero history: a fresh canceller state per frame keeps the
        # prediction branch inert, leaving the fixed beamformer alone
        num_bins, num_frames = x.shape
        out_rc = np.empty_like(x)
        for k in range(num_bins):
            for n in range(num_frames):
                state = init_rc_state(w_sd.weights[k], 2, 1)
                out_rc[k, n] = rc_update(state, mix[:, k, n], 1.0, 1e-4)
        rel_rc = np.linalg.norm(out_rc - x) / x_norm

        params = ApaParams(phi_a=1e-12, band_plan=BandPlan((), (0,), 1))
        states = [init_state(steering.vectors[k], 0, 1) for k in range(num_bins)]
        for n in range(50):
            process_frame(states, mix[:, :, n].T, steering.vectors, params)
        residual = max(
            abs(1.0 - np.vdot(steering.vectors[k], states[k].w_hat)) for k in range(num_bins)
        )

        ok = rel_ds <= 1e-6 and rel_sd <= 1e-6 and rel_rc <= 1e-6 and residual < 1e-3
        _verdict(
            2,
            ok,
            f"rel err d&s {rel_ds:.2e}, sd-mvdr {rel_sd:.2e}, conv-sdmvdr {rel_rc:.2e} "
            f"(limit 1e-6); constraint residual {residual:.2e} (limit 1e-3)",
        )

    # -- 3 ------------------------------------------------------------------

    def test_03_degenerate_modes(self, anechoic, tmp_path):
        cfg, geom, steering, scene = anechoic
        buf = AudioBuffer(istft(scene.mixture), cfg.sample_rate)

        flat = ApaParams(band_plan=BandPlan((), (0,), 1))
        out_conv, _ = enhance(
            buf, RunConfig(method="conv-mpdr-apa", geometry=geom, doa=math.radians(30.0), params=flat)
        )
        out_plain, _ = enhance(
            buf, RunConfig(method="mpdr-apa", geometry=geom, doa=math.radians(30.0))
        )
        bit_identical = np.array_equal(out_conv.samples, out_plain.samples)

        params_a0 = ApaParams(alpha_r=0.0, band_plan=BandPlan((), (3,), 1))
        result, extras = process_utterance(
            scene.mixture, steering, params_a0, return_components=True
        )
        alpha_zero_ok = np.array_equal(result.data[0], extras["x_b"])

        ok = bit_identical and alpha_zero_ok
        _verdict(
            3,
            ok,
            f"order-0 bit-identical to plain adaptive beamformer: {bit_identical}; "
            f"alpha_r=0 equals beamformer branch exactly: {alpha_zero_ok}",
        )

    # -- 4 ------------------------------------------------------------------

    def test_04_oracle_dereverberation(self):
        cfg = StftConfig()
        geom = circular_array(8, 0.10)
        steering = plane_wave_steering(geom, math.radians(60.0), cfg)
        dry = synthetic_speech(12.0, cfg.sample_rate, seed=3)
        coeffs = random_mclp(8, 6, 2, cfg, seed=3, target_radius=0.95)
        scene = mclp_scene(dry, steering, coeffs, 2, snr_db=30.0, config=cfg, seed=3)
        params = ApaParams(band_plan=BandPlan((), (6,), 2))  # matched order and delay

        t0 = time.perf_counter()
        result = process_utterance(scene.mixture, steering, params, prior_pass=True)
        elapsed = time.perf_counter() - t0

        srr_gain = measure_srr(scene, result) - measure_srr(scene, scene.mixture.data[0])

        # converged-tail residual: output minus its projection onto the dry
        # source, against the reference-mic reverb over the same frames
        x = scene.dry.data[0]
        out = result.data[0]
        n0 = out.shape[1] * 3 // 4
        dseg, oseg = x[:, n0:], out[:, n0:]
        alpha = np.vdot(dseg, oseg) / np.vdot(dseg, dseg).real
        p_res = float(np.sum(np.abs(oseg - alpha * dseg) ** 2))
        p_rev = float(np.sum(np.abs(scene.reverb.data[0][:, n0:]) ** 2))
        residual_db = 10.0 * math.log10(p_res / p_rev)

        ok = srr_gain >= 6.0 and residual_db <= -15.0 and elapsed < 30.0
        _verdict(
            4,
            ok,
            f"SRR gain {srr_gain:.2f} dB (limit 6), tail residual {residual_db:.2f} dB "
            f"(limit -15), {elapsed:.1f} s (limit 30)",
        )

    # -- 5 ------------------------------------------------------------------

    def test_05_gain_identity(self):
        rng = np.random.default_rng(5)
        worst_identity = 0.0
        worst_dense = 0.0
        for _ in range(100):
            m = int(rng.integers(1, 9))
            blocks = int(rng.integers(1, 14))
            q = m * blocks
            y = rng.standard_normal(q) + 1j * rng.standard_normal(q)
            a = np.zeros(q, dtype=np.complex128)
            a[:m] = np.exp(2j * np.pi * rng.random(m))
            phi_b, phi_r = 10.0 ** rng.uniform(-5, 0, 2)
            phi_x = 10.0 ** rng.uniform(-4, 1)
            phi_a = 10.0 ** rng.uniform(-12, -3)

            gain = kalman_gain(y, a, m, phi_b, phi_r, phi_x, phi_a)
            phi_w = np.full(q, phi_r)
            phi_w[:m] = phi_b
            rows = np.stack([y.conj(), a.conj()])
            cov = (rows * phi_w) @ rows.conj().T + np.diag([phi_x, phi_a])
            rhs = phi_w[:, None] * rows.conj().T
            worst_identity = max(worst_identity, float(np.max(np.abs(gain @ cov - rhs))))
            dense = np.linalg.solve(cov.conj().T, rhs.conj().T).conj().T
            worst_dense = max(worst_dense, float(np.max(np.abs(gain - dense))))

        # hand-checkable single-mic case: one update from w = 0 lands on 1/3
        state = init_state(np.array([1.0 + 0j]), 0, 1)
        state.w_hat[:] = 0.0
        obs = stack_observation(state, np.array([1.0 + 0j]), np.array([1.0 + 0j]))
        apa_update(state, obs, 1.0, ApaParams(phi_b=1.0, phi_r=1.0, phi_a=1.0))
        hand_exact = state.w_hat[0] == (1.0 / 3.0 + 0j)

        ok = worst_identity <= 1e-9 and worst_dense <= 1e-9 and hand_exact
        _verdict(
            5,
            ok,
            f"gain identity max err {worst_identity:.2e}, vs dense solve {worst_dense:.2e} "
            f"(limit 1e-9); single-mic update == 1/3 exactly: {hand_exact}",
        )

    # -- 6 ------------------------------------------------------------------

    def test_06_mac_scaling(self):
        t0 = time.perf_counter()
        rows = reference_curves([26, 52, 104, 208], num_mics=2)
        macs = [row["macs"] for row in rows]
        exponent = fit_power_law([row["Q"] for row in rows], macs)
        ratios = [macs[i + 1] / macs[i] for i in range(len(macs) - 1)]
        elapsed = time.perf_counter() - t0
        ok = exponent <= 1.15 and max(ratios) <= 2.3 and elapsed < 10.0
        _verdict(
            6,
            ok,
            f"exponent {exponent:.3f} (limit 1.15), doubling ratios "
            f"{','.join(f'{r:.2f}' for r in ratios)} (limit 2.3), {elapsed:.2f} s (limit 10)",
        )

    # -- 7 ------------------------------------------------------------------

    def test_07_runtime_ordering(self):
        methods = ("delay-sum", "sd-mvdr", "conv-sdmvdr", "conv-mpdr-apa")
        # 21 sweeps of one round: a round times every method under the same host load, so the
        # two adaptive filters, whose costs lie close, are ordered by their per-round ratios;
        # 11 let host contention flip the median ratio below 1 in a few runs in a hundred.
        # The first adaptive run of a sweep is slower (fresh memory), so mpdr-apa runs before
        # them, untested, and takes that cost
        swept = ("delay-sum", "sd-mvdr", "mpdr-apa", "conv-sdmvdr", "conv-mpdr-apa")
        rounds = [
            {row["method"]: row["seconds_per_audio_second"]
             for row in wallclock_sweep(methods=swept, num_mics=8, audio_seconds=2.0, repeats=1)}
            for _ in range(21)
        ]
        secs = {m: float(np.median([r[m] for r in rounds])) for m in methods}
        ratio = float(np.median([r["conv-mpdr-apa"] / r["conv-sdmvdr"] for r in rounds]))
        ordered = secs["delay-sum"] < secs["sd-mvdr"] < secs["conv-sdmvdr"] and ratio > 1.0
        realtime = secs["conv-mpdr-apa"] < 1.0
        ok = ordered and realtime
        _verdict(
            7,
            ok,
            "s per audio s: " + ", ".join(f"{m} {secs[m]:.4f}" for m in methods)
            + f"; median conv-mpdr-apa / conv-sdmvdr {ratio:.3f}"
            + f"; ordered: {ordered}, adaptive < 1.0: {realtime}",
        )

    # -- 8 ------------------------------------------------------------------

    def test_08_psd_pipeline(self):
        rng = np.random.default_rng(8)
        m = 4
        activations = 0
        for _ in range(10_000):
            y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            phi = float(abs(np.vdot(w, y)) ** 2) * 10.0 ** rng.uniform(-6, 0)
            g = float(rng.uniform(0.0, 1.0))
            eta = 10.0 ** rng.uniform(-4, -1)

            gained = apply_gain(phi, g)
            assert gained == (g * g) * phi

            power = float(np.sum(np.abs(y) ** 2)) / m
            floored = psd_floor(phi, y, eta)
            assert floored == max(phi, eta * power)
            if phi < eta * power:
                activations += 1
                assert floored == eta * power

            assert psd_floor(gained, y, eta) <= psd_floor(phi, y, eta)
        ok = activations > 0
        _verdict(
            8,
            ok,
            f"10000 draws: gain^2 scaling exact, floor exact "
            f"({activations} activations), enhanced <= unenhanced",
        )

    # -- 9 ------------------------------------------------------------------

    def test_09_diffuse_coherence(self):
        cfg = StftConfig()
        geom = circular_array(4, 0.10)
        frames = diffuse_noise_frames(geom, cfg, 10_000, seed=9)
        cov = np.einsum("mkn,pkn->kmp", frames, frames.conj()) / frames.shape[2]
        diag = np.sqrt(np.einsum("kmm->km", cov).real)
        coherence = cov / (diag[:, :, None] * diag[:, None, :])
        gamma = diffuse_coherence(geom, cfg).gamma
        dev = float(np.max(np.abs(coherence - gamma)))
        ok = dev <= 0.05
        _verdict(9, ok, f"sample coherence max deviation {dev:.4f} (limit 0.05)")

    # -- 10 -----------------------------------------------------------------

    def test_10_determinism(self, tmp_path):
        cfg = StftConfig()
        geom = circular_array(4, 0.10)
        steering = plane_wave_steering(geom, math.radians(45.0), cfg)
        dry = synthetic_speech(2.0, cfg.sample_rate, seed=10)
        coeffs = random_mclp(4, 3, 1, cfg, seed=10)
        scene = mclp_scene(dry, steering, coeffs, 1, snr_db=30.0, config=cfg, seed=10)
        buf = AudioBuffer(istft(scene.mixture), cfg.sample_rate)

        payloads = []
        for name in ("a.wav", "b.wav"):
            run_cfg = RunConfig(method="conv-mpdr-apa", geometry=geom, doa=math.radians(45.0))
            out, _ = enhance(buf, run_cfg)
            path = tmp_path / name
            write_wav(path, out)
            payloads.append(path.read_bytes())
        repeat_ok = payloads[0] == payloads[1]

        # streaming frame by frame must give the utterance driver's output bit
        # for bit; a faster engine has to keep both paths on one kernel
        params = ApaParams()
        orders = params.band_plan.bin_orders(cfg)
        vectors = steering.vectors
        states = [init_state(vectors[k], int(orders[k]), params.delay) for k in range(cfg.num_bins)]
        mixture = scene.mixture
        stream = np.stack(
            [
                process_frame(states, mixture.data[:, :, n].T, vectors, params)
                for n in range(mixture.num_frames)
            ],
            axis=1,
        )
        stream_ok = np.array_equal(stream, process_utterance(mixture, steering, params).data[0])
        ok = repeat_ok and stream_ok
        _verdict(
            10,
            ok,
            f"repeat run bit-identical: {repeat_ok}; "
            f"frame-by-frame stream bit-identical to the utterance: {stream_ok}",
        )
