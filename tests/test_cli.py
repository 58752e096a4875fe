"""End-to-end command-line tests: simulate, enhance, metrics, bench."""

import csv
import dataclasses
import inspect
import math

import numpy as np
import pytest

from convbeam.apa import ApaParams
from convbeam.bench import wallclock_sweep
from convbeam.cli import (
    _build_parser,
    _params_from_args,
    _parse_bands,
    _parse_bool,
    _parse_doa,
    _parse_geometry,
    main,
)
from convbeam.gains import write_gain_mask
from convbeam.geometry import circular_array
from convbeam.pipeline import RunConfig
from convbeam.stft import BandPlan, stft
from convbeam.wavio import AudioBuffer, read_wav, write_wav

import argparse


class TestParsers:
    def test_circular_geometry(self):
        geom = _parse_geometry("circular:3:0.05")
        assert geom.num_mics == 3
        assert np.linalg.norm(geom.positions[0]) == pytest.approx(0.05)

    def test_geometry_file(self, tmp_path):
        path = tmp_path / "array.txt"
        path.write_text("".join(f"{x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in
                                circular_array(4, 0.1).positions))
        geom = _parse_geometry(str(path))
        assert geom.num_mics == 4

    def test_geometry_errors(self):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_geometry("circular:3")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_geometry("/nonexistent/array.txt")

    def test_doa(self):
        assert _parse_doa("auto") is None
        assert _parse_doa("90") == pytest.approx(math.pi / 2)
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_doa("north")

    def test_bands(self):
        assert _parse_bands("12,8,6@800,2000") == ((12, 8, 6), (800.0, 2000.0))
        assert _parse_bands("8") == ((8,), ())
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_bands("12,8@800,2000")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_bands("a,b@800")

    def test_bool(self):
        assert _parse_bool("true") is True
        assert _parse_bool("0") is False
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_bool("maybe")

    def test_the_defaults_are_the_librarys(self):
        """``enhance`` given only its paths parses to ``ApaParams()``, so to the
        variances, ``alpha_r``, ``BandPlan()`` and its delay, and to ``RunConfig``'s
        ``prior_pass`` and ``write_wav``'s encoding; ``bench`` given only its CSV
        parses to ``wallclock_sweep``'s mics, seconds and repeats.  A default moved
        on one side only fails here."""
        parser = _build_parser()
        args = parser.parse_args(["enhance", "--input", "x", "--output", "y"])
        assert _params_from_args(args) == ApaParams()
        plan = BandPlan()
        assert args.bands == (plan.orders, plan.transition_freqs) and args.delay == plan.delay
        run_defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
        assert args.prior_pass is run_defaults["prior_pass"]
        assert args.encoding == inspect.signature(write_wav).parameters["encoding"].default
        args = parser.parse_args(["bench", "--csv", "c"])
        sweep = inspect.signature(wallclock_sweep).parameters
        assert (args.mics, args.audio_seconds, args.repeats) == tuple(
            sweep[name].default for name in ("num_mics", "audio_seconds", "repeats"))


class TestArgErrors:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_method(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["enhance", "--input", "a.wav", "--output", "b.wav", "--method", "wiener"])
        assert info.value.code == 2

    def test_a_circular_array_of_no_mics_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["enhance", "--input", "a.wav", "--output", "b.wav",
                  "--geometry", "circular:0:0.1"])
        assert info.value.code == 2
        assert "argument --geometry: num_mics must be >= 1, got 0" in capsys.readouterr().err

    def test_runtime_error_is_one_line(self, tmp_path, capsys):
        rc = main(
            [
                "enhance",
                "--input",
                str(tmp_path / "missing.wav"),
                "--output",
                str(tmp_path / "out.wav"),
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    rc = main(
        [
            "simulate",
            "--type",
            "mclp",
            "--output-dir",
            str(out),
            "--duration",
            "1.0",
            "--geometry",
            "circular:3:0.05",
            "--order",
            "3",
            "--snr",
            "25",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    return out


class TestPipelineSmoke:
    def test_simulate_outputs(self, scene_dir, capsys):
        for name in ("mixture", "dry", "reverb", "noise"):
            buf = read_wav(scene_dir / f"{name}.wav")
            assert buf.sample_rate == 16000
        assert read_wav(scene_dir / "mixture.wav").num_channels == 3
        text = (scene_dir / "scene.txt").read_text()
        assert "doa_deg=45.0" in text
        assert "snr_db=25.0" in text

    def test_enhance_and_metrics(self, scene_dir, tmp_path, capsys):
        out_wav = tmp_path / "enhanced.wav"
        rc = main(
            [
                "enhance",
                "--input",
                str(scene_dir / "mixture.wav"),
                "--output",
                str(out_wav),
                "--geometry",
                "circular:3:0.05",
                "--doa",
                "45",
                "--bands",
                "3",
                "--prior-pass",
                "false",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        summary = dict(line.split("=", 1) for line in lines)
        assert summary["method"] == "conv-mpdr-apa"
        assert float(summary["doa_deg"]) == pytest.approx(45.0, abs=1e-6)
        enhanced = read_wav(out_wav)
        assert enhanced.num_channels == 1
        assert enhanced.num_samples > 0

        rc = main(
            ["metrics", "--ref", str(scene_dir / "dry.wav"), "--est", str(out_wav)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fwsnr=" in out and "cd=" in out

    @pytest.mark.parametrize("method", ["delay-sum", "conv-mpdr-apa"])
    def test_enhance_rejects_a_non_finite_doa(self, method, scene_dir, tmp_path, capsys):
        out_wav = tmp_path / "enhanced.wav"
        with pytest.raises(SystemExit) as info:  # a usage error: --doa refuses it as it parses
            main(
                [
                    "enhance",
                    "--input",
                    str(scene_dir / "mixture.wav"),
                    "--output",
                    str(out_wav),
                    "--geometry",
                    "circular:3:0.05",
                    "--method",
                    method,
                    "--doa",
                    "nan",
                ]
            )
        assert info.value.code == 2
        assert "--doa takes 'auto' or finite degrees, got 'nan'" in capsys.readouterr().err
        assert not out_wav.exists()

    @pytest.mark.parametrize("scene_type", ["mclp", "rir"])
    def test_simulate_rejects_a_non_finite_doa(self, scene_type, tmp_path, capsys):
        out = tmp_path / "scene"
        rc = main(
            ["simulate", "--type", scene_type, "--output-dir", str(out), "--duration", "0.5",
             "--geometry", "circular:3:0.05", "--doa", "nan"]
        )
        assert rc == 1
        assert "--doa must be finite, got nan" in capsys.readouterr().err
        assert not (out / "mixture.wav").exists()

    @pytest.mark.parametrize(
        "method, flag", [("conv-sdmvdr", "--phi-r"), ("conv-mpdr-apa", "--eta")]
    )
    def test_enhance_rejects_an_infinite_variance(self, method, flag, scene_dir, tmp_path, capsys):
        out_wav = tmp_path / "enhanced.wav"
        rc = main(
            ["enhance", "--input", str(scene_dir / "mixture.wav"), "--output", str(out_wav),
             "--geometry", "circular:3:0.05", "--method", method, "--doa", "45", flag, "inf"]
        )
        assert rc == 1
        name = flag[2:].replace("-", "_")
        assert f"{name} must be finite and > 0, got inf" in capsys.readouterr().err
        assert not out_wav.exists()

    @pytest.mark.parametrize("flag", ["--phi-b", "--phi-r", "--phi-a", "--eta"])
    @pytest.mark.parametrize("value, power", [("1e308", "inf"), ("-inf", "0.0"), ("-4000", "0.0")])
    def test_enhance_names_a_db_value_without_a_finite_power(self, flag, value, power, scene_dir,
                                                             tmp_path, capsys):
        """A dB value whose power overflows or vanishes is refused with the
        option and the dB value given, not the conversion's own error."""
        out_wav = tmp_path / "enhanced.wav"
        rc = main(
            ["enhance", "--input", str(scene_dir / "mixture.wav"), "--output", str(out_wav),
             "--geometry", "circular:3:0.05", "--doa", "45", f"{flag}={value}"]
        )
        assert rc == 1
        name = flag[2:].replace("-", "_")
        given = float(value)
        assert capsys.readouterr().err == (
            f"error: {flag}: {name} must be finite and > 0, got {power} from {given} dB\n"
        )
        assert not out_wav.exists()

    @pytest.mark.parametrize("delay", ["0", "-1"])
    def test_simulate_rejects_a_delay_below_one(self, delay, tmp_path, capsys):
        rc = main(["simulate", "--output-dir", str(tmp_path / "scene"), "--duration", "0.5",
                   "--geometry", "circular:2:0.05", "--order", "3", f"--D={delay}"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: delay must be >= 1, got {delay}\n"
        assert not list(tmp_path.rglob("*.wav"))

    @pytest.mark.parametrize("bands", ["12,8@9000", "12,8@0", "12,8@-100", "12,8,6@800,20000"])
    def test_enhance_rejects_a_band_edge_past_nyquist(self, bands, scene_dir, tmp_path, capsys):
        """A transition outside (0, 8000] Hz would leave a band no bin runs in."""
        out_wav = tmp_path / "enhanced.wav"
        rc = main(
            ["enhance", "--input", str(scene_dir / "mixture.wav"), "--output", str(out_wav),
             "--geometry", "circular:3:0.05", "--doa", "45", f"--bands={bands}"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "transition frequencies must lie in (0, 8000] Hz" in err
        assert bands.split("@")[1].split(",")[-1] in err
        assert not out_wav.exists()

    def test_enhance_refuses_a_gain_mask_for_a_fixed_method(self, scene_dir, tmp_path, capsys):
        """``--gain-mask`` with a fixed method exits 1 naming the method and
        writes nothing; the same mask runs with an adaptive method."""
        mixture = scene_dir / "mixture.wav"
        mask = tmp_path / "mask.gmsk"
        write_gain_mask(mask, np.full((257, stft(read_wav(mixture).samples).num_frames), 0.5))
        out_wav = tmp_path / "enhanced.wav"
        args = ["enhance", "--input", str(mixture), "--output", str(out_wav),
                "--geometry", "circular:3:0.05", "--doa", "45", "--gain-mask", str(mask)]
        assert main([*args, "--method", "delay-sum"]) == 1
        assert "error: method 'delay-sum' takes no gain mask" in capsys.readouterr().err
        assert not out_wav.exists()
        assert main([*args, "--method", "conv-mpdr-apa"]) == 0 and out_wav.exists()

    def test_simulate_rejects_a_negative_seed(self, tmp_path, capsys):
        rc = main(["simulate", "--output-dir", str(tmp_path / "scene"), "--duration", "0.5",
                   "--seed=-1"])
        assert rc == 1
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*"))

    @pytest.mark.parametrize(
        "scene_type, flag, value, name",
        [
            ("mclp", "--snr", "nan", "snr_db"),
            ("rir", "--snr", "nan", "snr_db"),
            ("mclp", "--snr", "-inf", "snr_db"),
            ("rir", "--snr", "-inf", "snr_db"),
            ("rir", "--drr", "nan", "drr_db"),
            ("rir", "--drr", "-inf", "drr_db"),
            ("rir", "--t60", "nan", "t60"),
            ("rir", "--t60", "inf", "t60"),
            ("mclp", "--duration", "nan", "duration"),
        ],
    )
    def test_simulate_rejects_a_non_finite_setting(self, scene_type, flag, value, name, tmp_path,
                                                   capsys):
        out = tmp_path / "scene"
        args = {"--duration": "0.5", flag: value}
        rc = main(
            ["simulate", "--type", scene_type, "--output-dir", str(out), "--geometry",
             "circular:3:0.05", "--order", "3"] + [f"{k}={v}" for k, v in args.items()]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be finite") and f"got {value}" in err
        assert not list(tmp_path.rglob("*.wav"))

    def test_simulate_rir_from_input(self, tmp_path, capsys):
        dry = tmp_path / "dry.wav"
        write_wav(dry, AudioBuffer(0.1 * np.random.default_rng(5).standard_normal(8000), 16000))
        out = tmp_path / "scene"
        rc = main(
            ["simulate", "--type", "rir", "--input", str(dry), "--output-dir", str(out),
             "--geometry", "circular:3:0.05", "--t60", "0.2", "--seed", "2"]
        )
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "scene=rir"
        channels = {"mixture": 3, "dry": 1, "reverb": 3, "noise": 3}
        for name, count in channels.items():
            buf = read_wav(out / f"{name}.wav")
            assert (buf.sample_rate, buf.num_channels) == (16000, count)
            assert buf.num_samples >= 8000
        lines = (out / "scene.txt").read_text().splitlines()
        meta = dict(line.split("=", 1) for line in lines)
        assert set(meta) == {"doa_deg", "snr_db", "t60_s", "seed", "kind", "drr_db"}
        assert (meta["kind"], meta["t60_s"], meta["seed"]) == ("rir", "0.2", "2")

    @pytest.mark.parametrize("scene_type", ["mclp", "rir"])
    def test_simulate_keeps_the_dry_length(self, scene_type, tmp_path, capsys):
        """Every scene WAV has the dry signal's sample count, not a whole number of hops."""
        out = tmp_path / "scene"
        rc = main(
            ["simulate", "--type", scene_type, "--duration", "0.5", "--output-dir", str(out),
             "--geometry", "circular:3:0.05", "--order", "3", "--t60", "0.2"]
        )
        assert rc == 0
        for name in ("mixture", "dry", "reverb", "noise"):
            assert read_wav(out / f"{name}.wav").num_samples == 8000

    def test_simulate_rejects_multichannel_input(self, scene_dir, tmp_path, capsys):
        """A multichannel dry WAV is refused, not reduced to its channel 0."""
        path = scene_dir / "mixture.wav"
        rc = main(["simulate", "--input", str(path), "--output-dir", str(tmp_path / "s")])
        assert rc == 1
        assert f"{path}: expected a single-channel WAV, got 3 channels" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("flag", ["--ref", "--est"])
    def test_metrics_rejects_multichannel_input(self, scene_dir, flag, capsys):
        """Either side of the score must be one channel; a mixture is refused."""
        mixture, dry = str(scene_dir / "mixture.wav"), str(scene_dir / "dry.wav")
        args = {"--ref": dry, "--est": dry, flag: mixture}
        rc = main(["metrics", "--ref", args["--ref"], "--est", args["--est"]])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{mixture}: expected a single-channel WAV, got 3 channels" in captured.err

    def test_metrics_refuses_non_finite_input(self, tmp_path, capsys):
        """A float32 WAV holding a NaN is refused with its index, not scored."""
        ref, est = tmp_path / "ref.wav", tmp_path / "est.wav"
        samples = 0.1 * np.random.default_rng(5).standard_normal(8000)
        write_wav(ref, AudioBuffer(samples, 16000))
        samples[777] = np.nan
        write_wav(est, AudioBuffer(samples, 16000))
        assert main(["metrics", "--ref", str(ref), "--est", str(est)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: est has a non-finite sample at index 777")

    def test_enhance_refuses_to_localize_without_horizontal_aperture(self, scene_dir, tmp_path,
                                                                      capsys):
        """A zero-radius circle steers every azimuth alike, so --doa auto must
        not report the grid's first point as the source's direction."""
        out_wav = tmp_path / "enhanced.wav"
        rc = main(["enhance", "--input", str(scene_dir / "mixture.wav"), "--output", str(out_wav),
                   "--geometry", "circular:3:0", "--doa", "auto"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no horizontal aperture" in captured.err
        assert captured.err.rstrip().endswith("pass a DOA")
        assert not out_wav.exists()

    def test_metrics_refuses_a_rate_too_low_for_a_segment(self, tmp_path, capsys):
        """At 200 Hz a 32 ms segment holds 6 samples, fewer than the LPC order."""
        ref, est = tmp_path / "ref.wav", tmp_path / "est.wav"
        samples = 0.1 * np.random.default_rng(6).standard_normal(1000)
        write_wav(ref, AudioBuffer(samples, 200))
        write_wav(est, AudioBuffer(0.5 * samples, 200))
        assert main(["metrics", "--ref", str(ref), "--est", str(est)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: sample_rate 200 Hz gives a 6-sample segment")

    def test_metrics_rate_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.wav"
        b = tmp_path / "b.wav"
        write_wav(a, AudioBuffer(np.zeros(1600), 16000))
        write_wav(b, AudioBuffer(np.zeros(800), 8000))
        assert main(["metrics", "--ref", str(a), "--est", str(b)]) == 1
        assert "sample rates differ" in capsys.readouterr().err

    def test_enhance_deterministic_bytes(self, scene_dir, tmp_path, capsys):
        outs = []
        for name in ("one.wav", "two.wav"):
            path = tmp_path / name
            rc = main(
                [
                    "enhance",
                    "--input",
                    str(scene_dir / "mixture.wav"),
                    "--output",
                    str(path),
                    "--geometry",
                    "circular:3:0.05",
                    "--doa",
                    "45",
                    "--bands",
                    "3",
                    "--prior-pass",
                    "false",
                ]
            )
            assert rc == 0
            outs.append(path.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]


class TestBenchCommand:
    def test_bench_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        rc = main(
            [
                "bench",
                "--csv",
                str(csv_path),
                "--mics",
                "2",
                "--audio-seconds",
                "0.3",
                "--repeats",
                "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mac_power_law_exponent=" in out
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} >= {"delay-sum", "conv-mpdr-apa"}

    def test_bench_zero_repeats_is_an_error(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        rc = main(["bench", "--csv", str(csv_path), "--mics", "2", "--repeats", "0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: repeats must be >= 1")
        assert not csv_path.exists()


def _numeric_options():
    """(command, option, dest) of every option of the parser that takes a number."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0], action.dest)
            for command, parser in sub.choices.items() for action in parser._actions
            if action.type in (int, float, _parse_doa)]


@pytest.fixture(scope="module")
def two_mic_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("wav") / "mix.wav"
    noise = 0.05 * np.random.default_rng(0).standard_normal((2, 8000))
    write_wav(path, AudioBuffer(noise, 16000))
    return path


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0", "0.01", "1e15", "1e308"])
@pytest.mark.parametrize("command, option, dest", _numeric_options())
def test_every_numeric_option_refuses_a_bad_value_by_name(
    command, option, dest, value, two_mic_wav, tmp_path, capsys
):
    """Each numeric option, given a value at or past the edge of its range,
    either runs cleanly or exits 1 naming the option and the value; text
    the option's type cannot parse ("nan" for an int) is argparse's usage
    error, exit 2, which names both too.  Scenes are simulated as both types."""
    base = {
        "enhance": ["--input", str(two_mic_wav), "--output", str(tmp_path / "out.wav"),
                    "--doa", "45"],
        "simulate": ["--output-dir", str(tmp_path / "scene"), "--duration", "0.5"],
        "bench": ["--csv", str(tmp_path / "b.csv"), "--mics", "2", "--audio-seconds", "0.5",
                  "--repeats", "1"],
    }[command]
    geometry = [] if command == "bench" else ["--geometry", "circular:2:0.05"]
    for scene_type in (("--type", "mclp"), ("--type", "rir")) if command == "simulate" else ((),):
        try:
            code = main([command, *base, *geometry, *scene_type, f"{option}={value}"])
        except SystemExit as exc:  # argparse's usage error, exit 2
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2), err
        if code:
            assert option.lstrip("-") in err or dest in err, err
            assert value in err or str(float(value)) in err, err
