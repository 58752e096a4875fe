"""Method table tests: one table behind enhance, the bench sweep and the CLI."""

import argparse
import inspect

import numpy as np
import pytest

from convbeam import bench, cli, pipeline
from convbeam.apa import ApaParams
from convbeam.geometry import circular_array
from convbeam.pipeline import METHODS, RUNNERS, RunConfig, enhance
from convbeam.stft import BandPlan
from convbeam.wavio import AudioBuffer


class TestMethodTable:
    def test_methods_come_from_the_table(self):
        assert METHODS == tuple(RUNNERS)

    def test_cli_choices_come_from_the_table(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        method = next(a for a in sub.choices["enhance"]._actions if a.dest == "method")
        assert tuple(method.choices) == METHODS

    def test_bench_defaults_come_from_the_table(self):
        default = inspect.signature(bench.wallclock_sweep).parameters["methods"].default
        assert default == tuple(m for m in METHODS if m != "ref-mic")
        # the row order of the bench CSV
        assert default == ("delay-sum", "sd-mvdr", "mpdr-apa", "conv-sdmvdr", "conv-mpdr-apa")


def _tap(monkeypatch, attr):
    """Replace ``convbeam.pipeline.<attr>`` by a pass-through that records each call."""
    calls = []
    original = getattr(pipeline, attr)

    def tap(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, attr, tap)
    return calls


class TestLayerAttributes:
    """Callers that wrap the adaptive layers at ``convbeam.pipeline``'s
    attributes (tracing, capture of the filter's inputs) must see every call."""

    @pytest.mark.parametrize(
        "attr, method",
        [
            ("process_utterance", "conv-mpdr-apa"),
            ("process_utterance", "mpdr-apa"),
            ("process_utterance_sdmvdr", "conv-sdmvdr"),
        ],
    )
    def test_enhance_is_intercepted(self, monkeypatch, attr, method):
        calls = _tap(monkeypatch, attr)
        geom = circular_array(2, 0.05)
        samples = 0.1 * np.random.default_rng(0).standard_normal((2, 3200))
        cfg = RunConfig(
            method=method, geometry=geom, doa=0.3, params=ApaParams(band_plan=BandPlan((), (2,)))
        )
        enhance(AudioBuffer(samples, 16000), cfg)
        assert len(calls) == 1
        args, kwargs = calls[0]
        assert args[1].vectors.shape[1] == 2
        assert kwargs["prior_pass"] is True
        if attr == "process_utterance_sdmvdr":
            assert hasattr(args[2], "gamma")
            assert kwargs["loading"] == cfg.loading

    def test_bench_sweep_is_intercepted(self, monkeypatch):
        calls = _tap(monkeypatch, "process_utterance")
        bench.wallclock_sweep(methods=("conv-mpdr-apa",), num_mics=2, audio_seconds=0.1, repeats=2)
        assert len(calls) == 2
        assert all(kwargs["prior_pass"] is False for _, kwargs in calls)
