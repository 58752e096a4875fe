"""Command-line front end: enhance, simulate, metrics, bench."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .apa import ApaParams
from .bench import fit_power_law, reference_curves, wallclock_sweep, write_bench_csv
from .geometry import ArrayGeometry, circular_array, load_geometry
from .metrics import MetricReport, cepstral_distance, format_report, fw_seg_snr
from .pipeline import METHODS, RunConfig, enhance
from .scenes import (
    Scene,
    exp_decay_rir_scene,
    mclp_scene,
    random_mclp,
    synthetic_speech,
)
from .stft import BandPlan, StftConfig, istft
from .wavio import AudioBuffer, read_wav, resample_check, write_wav

__all__ = ["main", "cmd_enhance", "cmd_simulate", "cmd_metrics", "cmd_bench"]


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def _parse_geometry(text: str) -> ArrayGeometry:
    """Either a positions file path or 'circular:M:RADIUS'."""
    if text.startswith("circular:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                f"expected circular:M:RADIUS, got {text!r}"
            )
        try:
            return circular_array(int(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    try:
        return load_geometry(text)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_doa(text: str):
    if text == "auto":
        return None
    try:
        return math.radians(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"--doa takes 'auto' or degrees, got {text!r}") from None


def _parse_bands(text: str) -> tuple:
    """'L1,L2,L3@F1,F2' -> (orders, transition_freqs); a lone 'L' means one band."""
    if "@" in text:
        orders_text, freqs_text = text.split("@", 1)
        freqs = tuple(float(f) for f in freqs_text.split(",") if f)
    else:
        orders_text, freqs = text, ()
    try:
        orders = tuple(int(o) for o in orders_text.split(",") if o)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad band orders in {text!r}") from None
    if len(orders) != len(freqs) + 1:
        raise argparse.ArgumentTypeError(
            f"need one more order than transition frequencies, got {text!r}"
        )
    return orders, freqs


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _db_to_power(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convbeam",
        description="Multichannel dereverberation and noise reduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enh = sub.add_parser("enhance", help="process a multichannel WAV")
    enh.add_argument("--input", required=True, help="multichannel WAV to process")
    enh.add_argument("--output", required=True, help="enhanced single-channel WAV")
    enh.add_argument("--method", default="conv-mpdr-apa", choices=METHODS)
    enh.add_argument(
        "--geometry",
        type=_parse_geometry,
        default="circular:8:0.10",
        help="positions file or circular:M:RADIUS (default circular:8:0.10)",
    )
    enh.add_argument("--doa", type=_parse_doa, default="auto", help="'auto' or degrees")
    enh.add_argument("--D", type=int, default=1, dest="delay", help="prediction delay in frames")
    enh.add_argument(
        "--bands",
        type=_parse_bands,
        default="12,8,6@800,2000",
        help="orders and transition frequencies, e.g. 12,8,6@800,2000",
    )
    enh.add_argument("--phi-b", type=float, default=-37.0, help="beamformer tap variance in dB")
    enh.add_argument("--phi-r", type=float, default=-40.0, help="prediction tap variance in dB")
    enh.add_argument("--phi-a", type=float, default=-120.0, help="constraint variance in dB")
    enh.add_argument("--eta", type=float, default=-25.0, help="PSD floor in dB")
    enh.add_argument("--alpha-r", type=float, default=1.0, help="over-subtraction factor")
    enh.add_argument("--prior-pass", type=_parse_bool, default=True, metavar="BOOL")
    enh.add_argument("--gain-mask", default=None, help="optional gain-mask file")
    enh.add_argument("--threads", type=int, default=1, help="bins processed in parallel")
    enh.add_argument("--encoding", default="float32", choices=("float32", "pcm16"))
    enh.set_defaults(func=cmd_enhance)

    sim = sub.add_parser("simulate", help="write a synthetic scene to a directory")
    sim.add_argument("--type", default="mclp", choices=("mclp", "rir"), dest="scene_type")
    sim.add_argument("--output-dir", required=True)
    sim.add_argument("--input", default=None, help="dry WAV; synthesized when omitted")
    sim.add_argument("--duration", type=float, default=5.0, help="synthesized dry seconds")
    sim.add_argument(
        "--geometry", type=_parse_geometry, default="circular:8:0.10", help="as in enhance"
    )
    sim.add_argument("--doa", type=float, default=45.0, help="source azimuth in degrees")
    sim.add_argument("--order", type=int, default=8, help="recursion order L (mclp scenes)")
    sim.add_argument("--D", type=int, default=1, dest="delay", help="recursion delay in frames")
    sim.add_argument("--t60", type=float, default=0.4, help="reverberation time (rir scenes)")
    sim.add_argument("--drr", type=float, default=0.0, help="direct-to-reverberant dB (rir)")
    sim.add_argument("--snr", type=float, default=30.0, help="noise SNR in dB, inf for none")
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(func=cmd_simulate)

    met = sub.add_parser("metrics", help="score an estimate against a reference")
    met.add_argument("--ref", required=True, help="reference WAV (single channel)")
    met.add_argument("--est", required=True, help="estimate WAV (single channel)")
    met.set_defaults(func=cmd_metrics)

    ben = sub.add_parser("bench", help="MAC scaling and wall-clock sweep")
    ben.add_argument("--csv", required=True, help="output CSV path")
    ben.add_argument("--mics", type=int, default=8)
    ben.add_argument("--audio-seconds", type=float, default=2.0)
    ben.add_argument("--repeats", type=int, default=5)
    ben.set_defaults(func=cmd_bench)
    return parser


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _params_from_args(args) -> ApaParams:
    orders, freqs = args.bands
    return ApaParams(
        phi_b=_db_to_power(args.phi_b),
        phi_r=_db_to_power(args.phi_r),
        phi_a=_db_to_power(args.phi_a),
        eta=_db_to_power(args.eta),
        alpha_r=args.alpha_r,
        band_plan=BandPlan(freqs, orders, args.delay),
    )


def cmd_enhance(args) -> int:
    buf = read_wav(args.input)
    cfg = RunConfig(
        method=args.method,
        geometry=args.geometry,
        doa=args.doa,
        params=_params_from_args(args),
        prior_pass=args.prior_pass,
        gain_mask=args.gain_mask,
        threads=args.threads,
    )
    out, summary = enhance(buf, cfg)
    write_wav(args.output, out, encoding=args.encoding)
    for key, value in summary.items():
        print(f"{key}={value:.4f}" if isinstance(value, float) else f"{key}={value}")
    return 0


def _write_scene(scene: Scene, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = scene.mixture.config
    fs = cfg.sample_rate
    for name, spec in (
        ("mixture", scene.mixture),
        ("dry", scene.dry),
        ("reverb", scene.reverb),
        ("noise", scene.noise),
    ):
        write_wav(out_dir / f"{name}.wav", AudioBuffer(istft(spec), fs))
    meta = dict(scene.metadata)
    lines = []
    for key in ("doa_deg", "snr_db", "t60_s", "seed"):
        if key in meta:
            lines.append(f"{key}={meta.pop(key)}")
    for key, value in meta.items():
        if isinstance(value, (int, float, str, bool)):
            lines.append(f"{key}={value}")
    (out_dir / "scene.txt").write_text("\n".join(lines) + "\n")


def cmd_simulate(args) -> int:
    config = StftConfig()
    if args.input is not None:
        dry_buf = resample_check(read_wav(args.input), config.sample_rate)
        dry = dry_buf.samples[0]
    else:
        dry = synthetic_speech(args.duration, config.sample_rate, seed=args.seed)
    geom = args.geometry
    azimuth = math.radians(args.doa)
    if args.scene_type == "mclp":
        from .geometry import plane_wave_steering

        steering = plane_wave_steering(geom, azimuth, config)
        coeffs = random_mclp(
            geom.num_mics, args.order, args.delay, config, seed=args.seed
        )
        scene = mclp_scene(
            dry, steering, coeffs, args.delay, snr_db=args.snr, config=config, seed=args.seed
        )
        scene.metadata["doa_deg"] = args.doa
    else:
        scene = exp_decay_rir_scene(
            dry,
            geom,
            azimuth,
            t60=args.t60,
            drr_db=args.drr,
            snr_db=args.snr,
            config=config,
            seed=args.seed,
        )
    _write_scene(scene, Path(args.output_dir))
    print(f"scene={args.scene_type}")
    print(f"frames={scene.mixture.num_frames}")
    return 0


def cmd_metrics(args) -> int:
    ref = read_wav(args.ref)
    est = read_wav(args.est)
    if ref.sample_rate != est.sample_rate:
        raise ValueError(
            f"sample rates differ: ref {ref.sample_rate} Hz, est {est.sample_rate} Hz"
        )
    report = MetricReport(
        fwsnr=fw_seg_snr(ref.samples[0], est.samples[0], ref.sample_rate),
        cd=cepstral_distance(ref.samples[0], est.samples[0], ref.sample_rate),
    )
    print(format_report(report))
    return 0


def cmd_bench(args) -> int:
    rows = wallclock_sweep(
        num_mics=args.mics, audio_seconds=args.audio_seconds, repeats=args.repeats
    )
    write_bench_csv(rows, args.csv)
    curve = reference_curves([26, 52, 104, 208], num_mics=2)
    exponent = fit_power_law([r["Q"] for r in curve], [r["macs"] for r in curve])
    print(f"mac_power_law_exponent={exponent:.4f}")
    for row in rows:
        print(
            f"{row['method']}: {row['seconds_per_audio_second']:.4f} s per audio second, "
            f"{row['macs']} MACs per bin-frame"
        )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a clean one-line failure, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
