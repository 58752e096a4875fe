"""Orchestration of one benchmark run: inputs, measured process, checks, metrics.

``run.py`` is the command line; this module does the work once the
convbeam sources are known to be present.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from convbeam.apa import ApaParams
from convbeam.stft import StftConfig

import checks
import hostspeed
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER = HERE / "worker.py"

# Set-up is measured in this many fresh processes per untraced run; the
# median is reported.
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 120
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# ``scenes``: distinct 5 s scenes an offline run goes through at least once.
# The conv workloads take seconds per request, so they stop at three; the
# fixed beamformer's requests are cheap, and eight scenes keep its quality
# score as steady across seeds as the conv workloads' are.
# ``kernel``: the host-speed kernel whose slowdown matches the workload's
# work (see ``hostspeed``).
WORKLOADS = {
    "offline-conv-mpdr": {
        "kind": "offline", "method": "conv-mpdr-apa", "scenes": 3, "kernel": "interpreter",
    },
    "offline-conv-sdmvdr": {
        "kind": "offline", "method": "conv-sdmvdr", "scenes": 3, "kernel": "interpreter",
    },
    "offline-fixed": {"kind": "offline", "method": "sd-mvdr", "scenes": 8, "kernel": "vector"},
    "stream-conv-mpdr": {"kind": "stream", "method": "conv-mpdr-apa", "kernel": "interpreter"},
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_worker(plan_path: Path, setup_only: bool = False) -> dict:
    """Run the measured process to completion and return its record."""
    cmd = [sys.executable, str(WORKER), str(plan_path)] + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"measured process exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"measured process failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    plan = json.loads(plan_path.read_text())
    with open(plan["setup_record" if setup_only else "record"]) as fh:
        return json.load(fh)


def correct_for_host_speed(record: dict, setup_records: list, kernel: str) -> tuple:
    """Host-speed-corrected set-up times of all processes, and the main process's correction.

    Sets each request's ``latency_s`` to its corrected time and keeps the
    raw wall time as ``wall_s``.  Set-up, mostly imports, is corrected by
    the interpreter kernel.
    """
    def corrected(window: dict, corr) -> float:
        net = window["t1"] - window["t0"] - window["sampler_s"]
        return net * corr(window["t0"], window["t1"])

    setups = [
        corrected(p["setup"], hostspeed.Correction(p["speed_samples"]["interpreter"]))
        for p in setup_records + [record]
    ]
    corr = hostspeed.Correction(record["speed_samples"][kernel])
    for rec in record["requests"]:
        rec["wall_s"] = rec["t1"] - rec["t0"]
        rec["latency_s"] = corrected(rec, corr)
    return setups, corr


def tail_percentile(n: int) -> float:
    """Highest percentile, at most p99, that leaves ten samples beyond it."""
    return 100.0 if n <= 10 else min(99.0, 100.0 * (n - 10) / n)


def rtf(requests: list, key: str = "latency_s") -> float:
    audio = sum(r["audio_s"] for r in requests)
    return sum(r[key] for r in requests) / audio if audio else float("nan")


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "started_unix": time.time(),
    }


def timing_metrics(record: dict, setups: list, key: str) -> dict:
    """rtf, latency median and tail, and set-up time from the ``key`` times of requests."""
    done = [r for r in record["requests"] if r["error"] is None]
    lat_ms = np.array([r[key] for r in done]) * 1e3
    return {
        "rtf": rtf(done, key),
        "latency_p50_ms": float(np.median(lat_ms)),
        "latency_tail_ms": float(np.percentile(lat_ms, tail_percentile(len(lat_ms)))),
        "setup_s": statistics.median(setups),
    }


def end_to_end(record: dict, setups: list, q: dict) -> dict:
    return {
        **timing_metrics(record, setups, "latency_s"),
        "peak_rss_mb": record["peak_rss_mb"],
        "fwsnr_db": q.get("fwsnr_db", float("nan")),
    }


def per_layer(method: str, record: dict, q: dict, frames: int, passes: int, corr) -> tuple:
    """Per-request self times and work counts from the traced requests; returns (metrics, table).

    ``frames`` and ``passes`` give the adaptive work of one request: its
    STFT frames (1 on the stream) and the filter passes over them.
    """
    samples = [s for series in record["speed_samples"].values() for s in series]
    with open(record["spans"]) as fh:
        recorded = spans.add_leaves(json.load(fh), samples, spans.SAMPLER)

    def speed(root) -> float:
        return corr(root[spans.START], root[spans.END])

    n_req, req_totals = spans.totals_by_name(recorded, spans.REQUEST, speed)
    _, setup_totals = spans.totals_by_name(recorded, spans.SETUP, speed)
    per_req = {name: secs / n_req for name, secs in req_totals.items()}
    traced = [r for r in record["requests"] if r["traced"] and r["error"] is None]
    untraced = [r for r in record["requests"] if not r["traced"] and r["error"] is None]
    request_s = sum(per_req.values())

    def self_s(name: str) -> float:
        return per_req.get(name, 0.0)

    params = ApaParams()
    orders = params.band_plan.bin_orders(StftConfig())
    m = {"request_s": request_s, "trace.overhead_rtf": rtf(traced) - rtf(untraced)}
    for layer, engine in (("apa", "conv-mpdr-apa"), ("sdmvdr", "conv-sdmvdr")):
        used = method == engine
        bin_frames = len(orders) * frames * passes
        busy = sum(s for name, s in per_req.items() if name.startswith(layer + "."))
        macs = checks.macs_per_bin_frame(engine, orders, inputs.NUM_MICS, params.delay)
        m[f"{layer}.bin_frames"] = bin_frames if used else 0
        m[f"{layer}.macs_per_bin_frame"] = macs if used else 0.0
        m[f"{layer}.ns_per_bin_frame"] = busy / bin_frames * 1e9 if used else 0.0
        m[f"{layer}.mmac_per_s"] = macs * bin_frames / busy / 1e6 if used else 0.0
    for name in ("apa.process_utterance", "apa.process_frame", "apa.init_state",
                 "sdmvdr.process_utterance_sdmvdr", "stft.stft", "stft.istft",
                 "geometry.srp_phat_localize", "geometry.plane_wave_steering",
                 "geometry.diffuse_coherence", "fixedbf.weights", "fixedbf.apply_fixed",
                 "wavio.read_wav", "wavio.write_wav"):
        m[f"{name}_s"] = self_s(name)
    m["pipeline.enhance_self_s"] = self_s("pipeline.enhance")
    m["benchmark.request_self_s"] = self_s(spans.REQUEST)
    m["setup.apa.init_state_s"] = setup_totals.get("apa.init_state", 0.0)
    m["setup.geometry.plane_wave_steering_s"] = setup_totals.get(
        "geometry.plane_wave_steering", 0.0
    )
    m["latency_tail_ms"] = timing_metrics(record, [0.0], "latency_s")["latency_tail_ms"]
    for key in ("cd_db", "srr_db", "doa_err_deg"):
        m[key] = q.get(key, float("nan"))
    table = spans.layer_table(per_req, request_s)
    table += (
        f"\ntraced requests {n_req}, untraced {len(untraced)}; tracing overhead "
        f"{m['trace.overhead_rtf']:+.5f} rtf (traced {rtf(traced):.5f}, "
        f"untraced {rtf(untraced):.5f})"
    )
    return m, table


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload end to end; returns the run record, also written to the results."""
    spec = WORKLOADS[name]
    prov = provenance(name, seed, seconds, trace)
    workdir = WORK / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        plan = {
            "kind": spec["kind"],
            "method": spec["method"],
            "seconds": seconds,
            "trace": bool(trace),
            "src": str(SRC),
            "num_mics": inputs.NUM_MICS,
            "radius": inputs.RADIUS_M,
            "workdir": str(workdir),
            "record": str(workdir / "record.json"),
            "setup_record": str(workdir / "setup-record.json"),
            "spans": str(workdir / "spans.json"),
        }
        if spec["kind"] == "offline":
            made, plan["scenes"] = inputs.offline_inputs(seed, spec["scenes"], workdir)
        else:
            item, frames_path = inputs.stream_inputs(seed, workdir)
            plan.update(
                frames=str(frames_path),
                doa=item.doa,
                hop_s=item.scene.mixture.config.hop / item.scene.mixture.config.sample_rate,
                stream_output=str(workdir / "stream-output.npy"),
            )
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan))

        setup_records = []
        if not trace:
            setup_records = [run_worker(plan_path, True) for _ in range(SETUP_SAMPLES - 1)]
        record = run_worker(plan_path)
        setups, corr = correct_for_host_speed(record, setup_records, spec["kernel"])

        if spec["kind"] == "offline":
            failed, doa = checks.check_offline(spec["method"], made, record)
            ok_scenes = {r["scene"] for r, f in zip(record["requests"], failed) if not f}
            q = {}
            if len(ok_scenes) == len(made):
                q = checks.offline_quality(made, plan["scenes"], doa, bool(trace))
            frames = made[0].scene.dry.num_frames
        else:
            failed, q = checks.check_stream(item, record, plan["stream_output"], bool(trace))
            frames = 1
        passes = 2 if any(r.get("prior_pass") for r in record["requests"]) else 1
        table = None
        if trace:
            metrics, table = per_layer(spec["method"], record, q, frames, passes, corr)
            shutil.copy(record["spans"], _results_dir() / f"{name}-seed{seed}.spans.json")
        else:
            metrics = end_to_end(record, setups, q)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(record["requests"])
    n_failed = sum(failed)
    # a score that could not be taken (its scene failed) is reported as null
    values = {
        key: {"value": metrics[key] if math.isfinite(metrics[key]) else None, "unit": unit}
        for key, unit in metric_specs()[trace].items()
    }
    result = {
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": values,
    }
    samples = len([r for r in record["requests"] if r["error"] is None])
    run_record = {
        "provenance": prov,
        "result": result,
        "latency_samples": samples,
        "tail_percentile": tail_percentile(samples),
        "setup_samples_s": setups,
        "wall_clock": timing_metrics(
            record, [p["setup"]["t1"] - p["setup"]["t0"] for p in setup_records + [record]],
            "wall_s",
        ),
        "mean_host_speed": corr.mean_speed(),
        "quality": q,
        "layer_table": table,
    }
    out = _results_dir() / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(run_record, indent=1))
    return run_record


def _results_dir() -> Path:
    path = WORK / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def report(run_record: dict) -> None:
    prov, result = run_record["provenance"], run_record["result"]
    print(
        f"# {prov['workload']} seed={prov['seed']} trace={prov['trace']}: "
        f"{result['attempted']} requests, {result['failed']} failed, "
        f"tail percentile p{run_record['tail_percentile']:.2f}"
    )
    print("# provenance " + json.dumps(prov))
    wall = run_record["wall_clock"]
    print(
        f"# mean host speed {run_record['mean_host_speed']:.3f}; uncorrected wall clock: "
        + " ".join(f"{k}={v:.6g}" for k, v in wall.items())
    )
    if run_record["layer_table"]:
        print(run_record["layer_table"])
    for name, m in result["metrics"].items():
        print(f"{name:<40} {m['value']!s:>22} {m['unit']}")


