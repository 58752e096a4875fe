"""Pipeline tests: the method table behind enhance, the bench sweep and the
CLI; the option surface; the input contract of enhance; its behaviour under
scaling and extreme levels."""

import argparse
import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convbeam import apa, bench, cli, geometry, metrics, pipeline, sdmvdr
from convbeam.apa import ApaParams
from convbeam.gains import write_gain_mask
from convbeam.geometry import CoherenceMatrix, SteeringVector, circular_array
from convbeam.pipeline import METHODS, RUNNERS, RunConfig, enhance
from convbeam.stft import BandPlan, Spectrogram, StftConfig, istft
from convbeam.wavio import AudioBuffer, write_wav


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
            # the superdirective head uses the default loading, the value a
            # caller that captures these inputs assumes
            assert "loading" not in kwargs
            loading = inspect.signature(pipeline.superdirective_mvdr).parameters["loading"]
            assert loading.default == 0.01

    def test_bench_sweep_is_intercepted(self, monkeypatch):
        calls = _tap(monkeypatch, "process_utterance")
        bench.wallclock_sweep(methods=("conv-mpdr-apa",), num_mics=2, audio_seconds=0.1, repeats=2)
        assert len(calls) == 2
        assert all(kwargs["prior_pass"] is False for _, kwargs in calls)


def _enhance_parser():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices["enhance"]


class TestOptionSurface:
    """Adding or removing an option is a deliberate act, and a change that
    would break the benchmark's calls into convbeam fails here first."""

    def test_options_and_benchmark_signatures(self):
        assert {f.name for f in dataclasses.fields(RunConfig)} == {
            "method", "geometry", "doa", "params", "stft_config", "prior_pass", "gain_mask",
        }
        assert [f.name for f in dataclasses.fields(ApaParams)] == [
            "phi_b", "phi_r", "phi_a", "eta", "alpha_r", "band_plan",
        ]
        # a class constant, not a field: the benchmark's oracle reads it
        assert ApaParams.mean_floor is True and "mean_floor" not in vars(ApaParams())
        assert [f.name for f in dataclasses.fields(StftConfig)] == ["window_len"]
        # a class constant, not a field: the benchmark reads config.sample_rate
        assert StftConfig.sample_rate == 16000 and "sample_rate" not in vars(StftConfig())
        options = {opt for a in _enhance_parser()._actions for opt in a.option_strings}
        assert options == {
            "-h", "--help", "--input", "--output", "--method", "--geometry", "--doa", "--D",
            "--bands", "--phi-b", "--phi-r", "--phi-a", "--eta", "--alpha-r", "--prior-pass",
            "--gain-mask", "--encoding",
        }

        def names(fn):
            return list(inspect.signature(fn).parameters)

        assert names(apa.process_frame) == ["states", "frame", "steering", "params", "gains"]
        assert names(pipeline.process_utterance) == [
            "spec", "steering", "params", "gains", "prior_pass", "return_components",
        ]
        assert names(pipeline.process_utterance_sdmvdr) == [
            "spec", "steering", "coherence", "params", "gains", "prior_pass",
        ]
        assert names(metrics.compute_metrics) == ["ref", "est", "sample_rate"]
        assert names(bench.wallclock_sweep) == ["methods", "num_mics", "audio_seconds", "repeats"]
        assert pipeline.process_utterance is apa.process_utterance
        assert pipeline.process_utterance_sdmvdr is sdmvdr.process_utterance_sdmvdr
        assert names(geometry.srp_phat_localize) == ["spec", "geom"]
        assert names(geometry.plane_wave_steering) == ["geom", "azimuth", "config"]
        assert names(geometry.diffuse_coherence) == ["geom", "config"]
        assert names(istft) == ["spec", "length"]


class TestStructure:
    def test_no_module_imports_a_private_name_from_another(self):
        """What two modules share is public in the module that holds it."""
        package = Path(pipeline.__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("convbeam")
                ):
                    found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
        assert found == []


class TestInputContract:
    def _noise(self, num_mics=4, seconds=1.0):
        rng = np.random.default_rng(21)
        return 0.1 * rng.standard_normal((num_mics, int(16000 * seconds)))

    def test_non_finite_sample_rejected(self, tmp_path, capsys):
        """One NaN names its channel and sample, ahead of normalization and filtering."""
        samples = self._noise()
        samples[2, 1234] = np.nan
        cfg = RunConfig(method="conv-mpdr-apa", geometry=circular_array(4, 0.10))
        with pytest.raises(ValueError, match="channel 2 has a non-finite sample at index 1234"):
            enhance(AudioBuffer(samples, 16000), cfg)

        samples[2, 1234] = 0.0
        samples[0, 99] = np.inf
        path = tmp_path / "bad.wav"
        write_wav(path, AudioBuffer(samples, 16000))
        rc = cli.main(
            ["enhance", "--input", str(path), "--output", str(tmp_path / "out.wav"),
             "--geometry", "circular:4:0.10"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "channel 0 has a non-finite sample at index 99" in err
        assert not (tmp_path / "out.wav").exists()

    def test_channel_count_must_match_geometry(self):
        cfg = RunConfig(method="delay-sum", geometry=circular_array(4, 0.10))
        message = "^input has 3 channels but geometry has 4 microphones$"
        with pytest.raises(ValueError, match=message):
            enhance(AudioBuffer(self._noise(num_mics=3), 16000), cfg)

    @pytest.mark.parametrize("method", ["conv-mpdr-apa", "conv-sdmvdr"])
    def test_nan_in_gain_mask_file_rejected(self, tmp_path, method):
        """One NaN in a mask file is named by file, bin and frame, not met
        as a singular update or a silent zero step."""
        buf = AudioBuffer(self._noise(), 16000)
        cfg = RunConfig(method=method, geometry=circular_array(4, 0.10), doa=0.7)
        _, summary = enhance(buf, cfg)
        mask = np.full((257, summary["frames"]), 0.5)
        mask[40, 7] = np.nan
        path = tmp_path / "mask.gmsk"
        write_gain_mask(path, mask)
        cfg = dataclasses.replace(cfg, gain_mask=str(path))
        with pytest.raises(ValueError, match="mask.gmsk: mask is NaN at bin 40, frame 7$"):
            enhance(buf, cfg)

    @pytest.mark.parametrize("driver", ["apa", "sdmvdr"])
    def test_non_finite_steering_rejected_by_the_utterance_drivers(self, driver):
        """A NaN in the steering is named by bin and channel before any
        weights are computed, not met as a singular update or NaN output."""
        cfg = StftConfig(window_len=32)  # 17 bins
        rng = np.random.default_rng(4)
        spec = Spectrogram(rng.standard_normal((2, 17, 6)) + 0j, cfg)
        a = np.ones((17, 2), dtype=complex)
        a[5, 1] = np.nan
        params = ApaParams(band_plan=BandPlan((), (3,)))
        with pytest.raises(ValueError, match="^steering has a non-finite value at bin 5, channel"):
            if driver == "apa":
                apa.process_utterance(spec, a, params)
            else:
                coherence = CoherenceMatrix(np.broadcast_to(np.eye(2), (17, 2, 2)))
                sdmvdr.process_utterance_sdmvdr(spec, SteeringVector(a, 0), coherence, params)

    @pytest.mark.parametrize("driver", ["apa", "sdmvdr"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_spectrogram_rejected_by_the_utterance_drivers(self, driver, bad):
        """A non-finite spectrogram value is named by channel, bin and frame,
        not met as a singular update or passed through as NaN output."""
        cfg = StftConfig(window_len=32)  # 17 bins
        data = np.random.default_rng(4).standard_normal((2, 17, 6)) + 0j
        data[1, 5, 2] = bad
        spec = Spectrogram(data, cfg)
        a = np.ones((17, 2), dtype=complex)
        params = ApaParams(band_plan=BandPlan((), (3,)))
        message = "^spectrogram has a non-finite value at channel 1, bin 5, frame 2$"
        with pytest.raises(ValueError, match=message):
            if driver == "apa":
                apa.process_utterance(spec, a, params)
            else:
                coherence = CoherenceMatrix(np.broadcast_to(np.eye(2), (17, 2, 2)))
                sdmvdr.process_utterance_sdmvdr(spec, SteeringVector(a, 0), coherence, params)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", ["process_frame", "apa", "sdmvdr"])
    def test_zero_norm_steering_row_rejected(self, entry):
        """A steering row of zero norm is named by bin before any state
        changes or weights are computed: not run silently, raised without
        the bin, or turned into NaN output."""
        cfg = StftConfig(window_len=32)  # 17 bins
        spec = Spectrogram(np.random.default_rng(4).standard_normal((4, 17, 6)) + 0j, cfg)
        a = np.ones((17, 4), dtype=complex)
        a[5] = 0.0
        params = ApaParams(band_plan=BandPlan((), (3,)))
        message = "^steering vector of bin 5 has zero norm$"
        if entry == "process_frame":
            states = [apa.init_state(np.ones(4, complex), 3) for _ in range(17)]
            apa.process_frame(states, spec.data[:, :, 0].T, np.ones((17, 4)), params)
            w_hat = [s.w_hat.copy() for s in states]
            history = [s.history.copy() for s in states]
            with pytest.raises(ValueError, match=message):
                apa.process_frame(states, spec.data[:, :, 1].T, a, params)
            for state, w, h in zip(states, w_hat, history):
                np.testing.assert_array_equal(state.w_hat, w)
                np.testing.assert_array_equal(state.history, h)
        elif entry == "apa":
            with pytest.raises(ValueError, match=message):
                apa.process_utterance(spec, a, params)
        else:
            coherence = CoherenceMatrix(np.broadcast_to(np.eye(4), (17, 4, 4)))
            with pytest.raises(ValueError, match=message):
                sdmvdr.process_utterance_sdmvdr(spec, SteeringVector(a, 0), coherence, params)

    def test_silent_scene_needs_a_doa(self):
        """All-zero input cannot be localized; with a given DOA it comes back as zeros."""
        buf = AudioBuffer(np.zeros((4, 16000)), 16000)
        geom = circular_array(4, 0.10)
        with pytest.raises(ValueError, match="pass a DOA"):
            enhance(buf, RunConfig(method="delay-sum", geometry=geom))
        out, summary = enhance(buf, RunConfig(method="delay-sum", geometry=geom, doa=0.7))
        assert out.samples.shape == (1, 16000)
        assert np.all(np.isfinite(out.samples))
        assert np.all(out.samples == 0.0)
        assert summary["doa_deg"] == pytest.approx(np.degrees(0.7))
        assert (summary["norm_channel"], summary["norm_scale"]) == ("none", 1.0)

    def test_one_live_channel_needs_a_doa(self):
        """With sound on one channel of 8 the SRP-PHAT map is flat, so
        ``doa=None`` asks for a DOA instead of returning the grid's first point."""
        samples = np.zeros((8, 16000))
        samples[5] = self._noise()[0]
        cfg = RunConfig(method="conv-mpdr-apa", geometry=circular_array(8, 0.10))
        with pytest.raises(ValueError, match=r"channels \[5\] .*pass a DOA$"):
            enhance(AudioBuffer(samples, 16000), cfg)

    def test_silent_reference_mic_normalizes_from_loudest_channel(self):
        """A silent reference mic hands the level to the loudest channel and
        the summary names it; a live reference mic keeps the level."""
        samples = self._noise()
        samples[2] *= 3.0
        samples[0] = 0.0
        geom = circular_array(4, 0.10)
        cfg = RunConfig(method="delay-sum", geometry=geom, doa=0.7)
        out, summary = enhance(AudioBuffer(samples, 16000), cfg)
        assert summary["norm_channel"] == 2
        rms = np.sqrt(np.mean(samples[2] ** 2))
        assert summary["norm_scale"] * rms == pytest.approx(0.1, rel=1e-12)
        assert out.samples.shape == (1, 16000)
        assert np.all(np.isfinite(out.samples))
        assert np.max(np.abs(out.samples)) > 0.0

        live = self._noise()
        _, summary = enhance(AudioBuffer(live, 16000), cfg)
        assert summary["norm_channel"] == geom.reference_mic
        assert summary["norm_scale"] == 0.1 / float(np.sqrt(np.mean(live[0] ** 2)))


class TestImportCost:
    def test_enhancing_and_streaming_load_no_scipy(self):
        """scipy serves only the scene generators: importing convbeam, one
        ``enhance`` and one ``process_frame`` leave it unloaded."""
        script = """
import sys
import numpy as np
import convbeam
from convbeam import apa
from convbeam.geometry import circular_array
from convbeam.pipeline import RunConfig, enhance
from convbeam.wavio import AudioBuffer

x = 0.1 * np.random.default_rng(0).standard_normal((4, 4000))
geom = circular_array(4, 0.10)
enhance(AudioBuffer(x, 16000), RunConfig(method="conv-mpdr-apa", geometry=geom))
a = np.ones((257, 4), dtype=complex)
states = [apa.init_state(v, 3) for v in a]
apa.process_frame(states, a, a, apa.ApaParams())
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
        src = str(Path(pipeline.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.strip() == "[]"


class TestLevels:
    """``enhance`` is scale-equivariant: normalization hands every method the
    same input level.  (The adaptive updates are also homogeneous in the
    level, so it takes a fault in both to break this.)  No input level,
    silence included, drives any method to a non-finite output."""

    CFG = StftConfig(window_len=64)  # 33 bins, every default band

    def _run(self, samples, method):
        cfg = RunConfig(
            method=method, geometry=circular_array(4, 0.10), doa=0.7, stft_config=self.CFG
        )
        return enhance(AudioBuffer(samples, 16000), cfg)[0].samples

    @pytest.mark.parametrize("method", METHODS)
    @settings(max_examples=10, deadline=None)
    @given(log_c=st.floats(-6.0, 6.0))
    def test_scaling_commutes(self, method, log_c):
        c = 10.0**log_c
        x = 0.1 * np.random.default_rng(8).standard_normal((4, 2000))
        want = c * self._run(x, method)
        got = self._run(c * x, method)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("method", METHODS)
    def test_extreme_levels_stay_finite(self, method):
        noise = 0.1 * np.random.default_rng(9).standard_normal((4, 4000))
        impulse = np.zeros((4, 4000))
        impulse[1, 2000] = 1.0  # the reference mic is silent
        step = noise.copy()
        step[:, 2000:] *= 1e6  # 120 dB up halfway through
        for x in (np.zeros((4, 4000)), impulse, step):
            assert np.all(np.isfinite(self._run(x, method)))
