"""The measured process: set up convbeam, run the closed request loop, record.

Started by ``harness.py`` with the path of a plan file; it receives only
the generated input files and writes its record next to them.  The plan names
the workload, the inputs and the run length.  Nothing here checks the
outputs beyond what must be taken per request (finiteness, length, a hash
for the repeat check, and the bins the oracle check needs); ``checks.py``
does the checking and the scoring after this process has ended.  The host-speed
sampler runs for the whole life of the process; its samples go into the
record with the timings.

    python3 perfbench/worker.py PLAN.json [--setup-only]
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import os
import resource
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from hostspeed import HostSpeed  # noqa: E402
from spans import REQUEST, SETUP, Tracer  # noqa: E402


def setup(plan: dict, tracer: Tracer | None, speed: HostSpeed) -> tuple:
    """Import convbeam and build what every request needs; returns (state, timing).

    The clock covers the import of convbeam and of the dependencies the
    benchmark has not loaded already (scipy; numpy is loaded by then), the
    geometry, configuration and parameters, and for the stream workload the
    steering and one filter state per bin.
    """
    spent = speed.spent
    t0 = time.perf_counter()
    sys.path.insert(0, plan["src"])
    import convbeam  # noqa: F401

    mods = {name: importlib.import_module(f"convbeam.{name}") for name in
            ("apa", "geometry", "pipeline", "sdmvdr", "stft", "wavio")}
    if not convbeam.__file__.startswith(plan["src"]):
        raise RuntimeError(f"imported convbeam from {convbeam.__file__}, not {plan['src']}")
    if tracer is not None:
        tracer.install()
    with tracer.span(SETUP) if tracer is not None else contextlib.nullcontext():
        geom = mods["geometry"].circular_array(plan["num_mics"], plan["radius"])
        cfg = mods["stft"].StftConfig()
        params = mods["apa"].ApaParams()
        state = {"mods": mods, "geom": geom, "cfg": cfg, "params": params}
        if plan["kind"] == "offline":
            state["run_cfg"] = mods["pipeline"].RunConfig(
                method=plan["method"], geometry=geom, params=params, stft_config=cfg
            )
        else:
            steering = mods["geometry"].plane_wave_steering(geom, plan["doa"], cfg)
            orders = params.band_plan.bin_orders(cfg)
            state["vectors"] = steering.vectors
            state["orders"] = orders
            state["states"] = [
                mods["apa"].init_state(steering.vectors[k], int(orders[k]), params.delay)
                for k in range(cfg.num_bins)
            ]
    timing = {"t0": t0, "t1": time.perf_counter(), "sampler_s": speed.spent - spent}
    if tracer is not None:
        tracer.uninstall()
    return state, timing


class Capture:
    """Keeps the arguments and result of the adaptive call made during a request.

    The oracle check in ``checks.py`` needs the spectrogram and steering the
    pipeline handed to the adaptive layer and the bins it returned; the tap
    holds references only, so it adds one Python call per request.
    """

    def __init__(self, module, attr: str) -> None:
        original = getattr(module, attr)
        self.last = None

        def tap(*args, **kwargs):
            result = original(*args, **kwargs)
            self.last = (args, kwargs, result)
            return result

        setattr(module, attr, tap)

    def save(self, path, bins) -> bool | None:
        """Write the checked bins to ``path``; returns whether a prior pass was asked for.

        Returns None, writing nothing, when the adaptive call was not made.
        """
        if self.last is None:
            return None
        args, kwargs, result = self.last
        spec, steering = args[0], args[1]
        extra = {}
        if len(args) > 2 and hasattr(args[2], "gamma"):
            extra = {"gamma": args[2].gamma[bins], "loading": kwargs.get("loading", 0.01)}
        prior_pass = bool(kwargs.get("prior_pass", False))
        np.savez(
            path,
            y=spec.data[:, bins, :],
            a=steering.vectors[bins],
            out=result.data[0, bins, :],
            prior_pass=prior_pass,
            **extra,
        )
        self.last = None
        return prior_pass


class Timer:
    """Times requests net of the host-speed sampler's interruptions.

    A request that raises is recorded as failed and the loop goes on.
    """

    def __init__(self, speed: HostSpeed, tracer: Tracer | None) -> None:
        self.speed = speed
        self.tracer = tracer

    @contextlib.contextmanager
    def request(self, rec: dict):
        traced = rec["traced"]
        if traced:
            self.tracer.install()
        spent = self.speed.spent
        t0 = time.perf_counter()
        try:
            with self.tracer.span(REQUEST) if traced else contextlib.nullcontext():
                yield
        except Exception as exc:  # a failed request is counted, not fatal
            rec["error"] = repr(exc)
        finally:
            rec.update(t0=t0, t1=time.perf_counter(), sampler_s=self.speed.spent - spent)
            if traced:
                self.tracer.uninstall()


def run_offline(plan: dict, state: dict, timer: Timer) -> list:
    mods = state["mods"]
    wavio, pipeline = mods["wavio"], mods["pipeline"]
    capture = None
    if plan["method"] == "conv-mpdr-apa":
        capture = Capture(pipeline, "process_utterance")
    elif plan["method"] == "conv-sdmvdr":
        capture = Capture(pipeline, "process_utterance_sdmvdr")
    scenes = plan["scenes"]
    records = []
    start = time.perf_counter()
    i = 0
    # closed loop: every scene at least once, then until the run length is used
    while i < len(scenes) or time.perf_counter() - start < plan["seconds"]:
        scene = scenes[i % len(scenes)]
        rec = {"scene": i % len(scenes), "traced": plan["trace"] and i % 2 == 1, "error": None}
        if capture is not None:
            capture.last = None
        with timer.request(rec):
            buf = wavio.read_wav(scene["input"])
            out, summary = pipeline.enhance(buf, state["run_cfg"])
            wavio.write_wav(scene["output"], out)
        if rec["error"] is None:
            samples = out.samples
            rec["audio_s"] = buf.duration
            rec["length_ok"] = samples.shape == (1, buf.num_samples)
            rec["finite"] = bool(np.all(np.isfinite(samples)))
            rec["sha256"] = hashlib.sha256(samples.tobytes()).hexdigest()
            rec["doa_deg"] = summary["doa_deg"]
            if capture is not None:
                path = os.path.join(plan["workdir"], f"capture-{i}.npz")
                rec["prior_pass"] = capture.save(path, scene["check_bins"])
                if rec["prior_pass"] is not None:
                    rec["capture"] = path
        records.append(rec)
        i += 1
    return records


def run_stream(plan: dict, state: dict, timer: Timer) -> list:
    apa = state["mods"]["apa"]
    frames = np.load(plan["frames"])  # (frames, bins, mics), each frame contiguous
    num_frames, num_bins, _ = frames.shape
    vectors, params = state["vectors"], state["params"]
    first = np.full((num_bins, num_frames), np.nan + 0j)
    records = []
    states = state["states"]
    start = time.perf_counter()
    n = 0
    passes = 0
    # closed loop over the utterance's frames; when the run length outlasts
    # the utterance it starts over from fresh filters (outside any request)
    while passes == 0 or time.perf_counter() - start < plan["seconds"]:
        if n == num_frames:
            states = [
                apa.init_state(vectors[k], int(state["orders"][k]), params.delay)
                for k in range(num_bins)
            ]
            n = 0
            passes += 1
            continue
        rec = {"frame": n, "pass": passes, "traced": plan["trace"] and n % 2 == 1, "error": None}
        with timer.request(rec):
            out = apa.process_frame(states, frames[n], vectors, params)
        if rec["error"] is None:
            rec["audio_s"] = plan["hop_s"]
            rec["length_ok"] = out.shape == (num_bins,)
            rec["finite"] = bool(np.all(np.isfinite(out)))
            if rec["length_ok"]:
                if passes == 0:
                    first[:, n] = out
                else:
                    rec["repeat_ok"] = bool(np.array_equal(out, first[:, n]))
        records.append(rec)
        n += 1
        if passes == 0 and n == num_frames:
            np.save(plan["stream_output"], first)
    return records


def main(argv) -> int:
    with open(argv[1]) as fh:
        plan = json.load(fh)
    setup_only = "--setup-only" in argv
    tracer = Tracer() if plan["trace"] and not setup_only else None
    speed = HostSpeed()
    speed.start()
    try:
        state, setup_window = setup(plan, tracer, speed)
        record = {"setup": setup_window}
        if not setup_only:
            timer = Timer(speed, tracer)
            run = run_offline if plan["kind"] == "offline" else run_stream
            record["requests"] = run(plan, state, timer)
            record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        speed.stop()
    record["speed_samples"] = speed.samples
    if tracer is not None:
        record["spans"] = plan["spans"]
        tracer.dump(plan["spans"])
    with open(plan["setup_record"] if setup_only else plan["record"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
