"""Enhancement quality metrics: frequency-weighted segmental SNR and
cepstral distance.

Both metrics compare magnitude behavior of short frames, so they are
insensitive to a global sign flip of the estimate but respond to additive
noise and spectral coloration.  Absolute values depend on the band and frame
constants fixed here; comparisons are meaningful within this implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MetricReport", "fw_seg_snr", "cepstral_distance", "compute_metrics", "format_report"]

_SEGMENT_SECONDS = 0.032
_NUM_BANDS = 23
_LPC_ORDER = 16
_FRAME_SELECT_DB = 40.0  # frames within this of the loudest ref frame count


@dataclass
class MetricReport:
    """Bundle of utterance-level scores."""

    fwsnr: float
    cd: float
    srr: float | None = None


# ---------------------------------------------------------------------------
# shared framing helpers
# ---------------------------------------------------------------------------


def _segments(x: np.ndarray, seg_len: int, hop: int) -> np.ndarray:
    if x.shape[0] < seg_len:
        raise ValueError(f"signal too short for one {seg_len}-sample segment")
    n_seg = 1 + (x.shape[0] - seg_len) // hop
    view = np.lib.stride_tricks.sliding_window_view(x, seg_len)
    return view[:: hop][:n_seg]


def _check_pair(ref, est):
    ref = np.asarray(ref, dtype=np.float64)
    est = np.asarray(est, dtype=np.float64)
    if ref.ndim != 1 or est.ndim != 1:
        raise ValueError("metrics take single-channel signals")
    if ref.shape != est.shape:
        raise ValueError(f"length mismatch: ref {ref.shape[0]}, est {est.shape[0]}")
    return ref, est


def _mel_filterbank(num_bands: int, fft_len: int, sample_rate: int) -> np.ndarray:
    """Triangular mel-spaced filters over the one-sided spectrum."""

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = from_mel(np.linspace(to_mel(0.0), to_mel(sample_rate / 2.0), num_bands + 2))
    bins = np.arange(fft_len // 2 + 1) * (sample_rate / fft_len)
    fb = np.zeros((num_bands, bins.shape[0]))
    for j in range(num_bands):
        lo, mid, hi = edges[j], edges[j + 1], edges[j + 2]
        up = (bins >= lo) & (bins <= mid)
        down = (bins > mid) & (bins <= hi)
        fb[j, up] = (bins[up] - lo) / max(mid - lo, 1e-12)
        fb[j, down] = (hi - bins[down]) / max(hi - mid, 1e-12)
    return fb


# ---------------------------------------------------------------------------
# frequency-weighted segmental SNR
# ---------------------------------------------------------------------------


def fw_seg_snr(
    ref: np.ndarray,
    est: np.ndarray,
    sample_rate: int = 16000,
    num_bands: int = _NUM_BANDS,
) -> float:
    """Mel-band weighted segmental SNR in dB, higher is better.

    Per 32 ms half-overlapped segment, band SNRs compare reference and
    estimate band magnitudes; bands are weighted by the reference magnitude
    raised to 0.2 and each segment's weighted average is clamped to
    [-10, 35] dB before averaging over segments.
    """
    ref, est = _check_pair(ref, est)
    seg_len = int(round(_SEGMENT_SECONDS * sample_rate))
    hop = seg_len // 2
    window = np.hanning(seg_len)
    fft_len = int(2 ** math.ceil(math.log2(seg_len)))
    fb = _mel_filterbank(num_bands, fft_len, sample_rate)

    ref_mag = np.abs(np.fft.rfft(_segments(ref, seg_len, hop) * window, n=fft_len, axis=1))
    est_mag = np.abs(np.fft.rfft(_segments(est, seg_len, hop) * window, n=fft_len, axis=1))
    p_ref = ref_mag**2 @ fb.T
    p_est = est_mag**2 @ fb.T
    scores = []
    for seg_ref, seg_est in zip(p_ref, p_est):
        valid = seg_ref > 0.0
        if not np.any(valid):
            continue
        err = (np.sqrt(seg_ref[valid]) - np.sqrt(seg_est[valid])) ** 2
        snr = 10.0 * np.log10(seg_ref[valid] / np.maximum(err, 1e-300))
        weights = seg_ref[valid] ** 0.1
        scores.append(np.clip(np.sum(weights * snr) / np.sum(weights), -10.0, 35.0))
    if not scores:
        raise ValueError("reference has no energy in any segment")
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# cepstral distance
# ---------------------------------------------------------------------------


def _levinson(r: np.ndarray, order: int) -> np.ndarray | None:
    """Levinson-Durbin solve for LPC coefficients of A(z) = 1 + sum a_i z^-i.

    Returns None when the frame is numerically degenerate (zero energy or a
    reflection coefficient at or beyond unit magnitude).
    """
    if r[0] <= 0.0 or not np.isfinite(r[0]):
        return None
    a = np.zeros(order + 1)
    a[0] = 1.0
    err = r[0]
    for i in range(1, order + 1):
        acc = r[i] + a[1:i] @ r[i - 1 : 0 : -1]
        k = -acc / err
        if not np.isfinite(k) or abs(k) >= 1.0:
            return None
        prev = a[1:i].copy()
        a[1:i] = prev + k * prev[::-1]
        a[i] = k
        err *= 1.0 - k * k
        if err <= 0.0:
            return None
    return a[1:]


def _lpc_cepstrum(frame: np.ndarray, order: int) -> np.ndarray | None:
    spec = np.fft.rfft(frame, n=2 * frame.shape[0])
    r = np.fft.irfft(np.abs(spec) ** 2)[: order + 1]
    a = _levinson(r, order)
    if a is None:
        return None
    c = np.zeros(order + 1)
    for n in range(1, order + 1):
        acc = a[n - 1]
        for k in range(1, n):
            acc += (k / n) * c[k] * a[n - k - 1]
        c[n] = -acc
    return c[1:]


def cepstral_distance(
    ref: np.ndarray,
    est: np.ndarray,
    sample_rate: int = 16000,
    order: int = _LPC_ORDER,
) -> float:
    """Mean LPC-cepstral distance in dB, lower is better.

    Per 32 ms half-overlapped frame within 40 dB of the loudest reference
    frame, order-16 LPC cepstra of both signals are compared:
    (10/ln 10) * sqrt(2 * sum_i (dc_i)^2), clamped to [0, 10] dB.  Frames
    where either LPC solve is degenerate are skipped.
    """
    ref, est = _check_pair(ref, est)
    seg_len = int(round(_SEGMENT_SECONDS * sample_rate))
    hop = seg_len // 2
    window = np.hamming(seg_len)
    ref_frames = _segments(ref, seg_len, hop) * window
    est_frames = _segments(est, seg_len, hop) * window
    energies = np.sum(ref_frames**2, axis=1)
    if np.max(energies) <= 0.0:
        raise ValueError("reference has no energy in any frame")
    keep = energies >= np.max(energies) * 10.0 ** (-_FRAME_SELECT_DB / 10.0)
    scores = []
    for rf, ef in zip(ref_frames[keep], est_frames[keep]):
        c_ref = _lpc_cepstrum(rf, order)
        c_est = _lpc_cepstrum(ef, order)
        if c_ref is None or c_est is None:
            continue
        dist = (10.0 / math.log(10.0)) * math.sqrt(2.0 * float(np.sum((c_ref - c_est) ** 2)))
        scores.append(min(max(dist, 0.0), 10.0))
    if not scores:
        raise ValueError("no usable frames for cepstral distance")
    return float(np.mean(scores))


def compute_metrics(ref, est, sample_rate: int = 16000, srr: float | None = None) -> MetricReport:
    """Convenience bundle of both metrics over one signal pair."""
    return MetricReport(
        fwsnr=fw_seg_snr(ref, est, sample_rate),
        cd=cepstral_distance(ref, est, sample_rate),
        srr=srr,
    )


def format_report(report: MetricReport) -> str:
    """Plain key=value lines for easy machine parsing."""
    lines = [f"fwsnr={report.fwsnr:.4f}", f"cd={report.cd:.4f}"]
    if report.srr is not None:
        lines.append(f"srr={report.srr:.4f}")
    return "\n".join(lines)
