"""Synthetic multichannel scenes with known dry/reverb/noise decompositions.

Two generators are provided.  The first builds reverberation directly from
the frame-recursive model the adaptive canceller assumes (a matched-model
oracle: the optimum filter cancels its reverb exactly).  The second convolves
time-domain exponentially decaying impulse responses, which sits outside that
model class and exercises mismatch.  Every scene keeps its components as
separate spectrograms so tests can measure exactly how much of each survives
processing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import RC
from .geometry import (
    ArrayGeometry,
    SteeringVector,
    diffuse_coherence,
    plane_wave_delays,
    plane_wave_steering,
)
from .stft import Spectrogram, StftConfig, seconds_to_samples, stft

__all__ = [
    "Scene",
    "synthetic_speech",
    "random_mclp",
    "mclp_spectral_radius",
    "mclp_scene",
    "exp_decay_rir_scene",
    "measure_srr",
]

_MCLP_LAG_DECAY = 0.7  # per-lag magnitude decay of random_mclp's draws
_NOISE_LOADING = 0.01  # diagonal loading of the coherence behind diffuse noise
_SRR_CAP_DB = 60.0


@dataclass
class Scene:
    """A mixture and its exact additive decomposition in the STFT domain.

    mixture = steering * dry + reverb + noise, bin by bin.  ``true_mclp``
    holds the (bins, L-D+1, M, M) recursion coefficients when the scene was
    generated from the frame-recursive model, else None.
    """

    mixture: Spectrogram
    dry: Spectrogram
    reverb: Spectrogram
    noise: Spectrogram
    steering: SteeringVector
    true_mclp: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)


def synthetic_speech(duration: float, sample_rate: int = 16000, seed: int = 0) -> np.ndarray:
    """Deterministic speech-shaped test signal: modulated warm noise.

    Not speech, but it has the two properties the adaptive tests need: a
    tilted long-term spectrum and syllable-rate amplitude modulation.
    Normalized to RMS 0.1 (-20 dBFS).
    """
    from scipy.signal import lfilter  # here, so enhancing never imports scipy
    n = seconds_to_samples("duration", duration, sample_rate, 1)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x = lfilter([1.0], [1.0, -0.92], x)
    t = np.arange(n) / sample_rate
    env = (0.35 + 0.65 * 0.5 * (1.0 + np.sin(2.0 * np.pi * 2.7 * t))) * (
        0.6 + 0.4 * 0.5 * (1.0 + np.sin(2.0 * np.pi * 0.4 * t + 1.0))
    )
    x *= env
    return 0.1 * x / np.sqrt(np.mean(x**2))


def _db_power(name: str, value: float) -> float:
    """A level in dB as a power; +inf (or one that overflows) means none, NaN or 0 raises."""
    try:
        power = 10.0 ** (value / 10.0)
    except OverflowError:
        return math.inf
    if not power > 0.0:
        raise ValueError(f"{name} must be finite or +inf, with a power above 0, got {value}")
    return power


# ---------------------------------------------------------------------------
# frame-recursive (matched-model) scenes
# ---------------------------------------------------------------------------


def mclp_spectral_radius(c_lags: np.ndarray, delay: int) -> np.ndarray:
    """Spectral radius of the frame recursion y(n) = sum_l C_l y(n-l) per bin.

    ``c_lags`` has shape (bins, L-D+1, M, M).  Radius < 1 keeps the recursion
    stable.
    """
    c = np.asarray(c_lags, dtype=np.complex128)
    num_bins, blocks, m, m2 = c.shape
    if m != m2:
        raise ValueError(f"coefficients must be square, got shape {c.shape}")
    order = delay + blocks - 1
    companion = np.zeros((num_bins, m * order, m * order), dtype=np.complex128)
    for lag in range(delay, order + 1):
        companion[:, :m, (lag - 1) * m : lag * m] = c[:, lag - delay]
    if order > 1:
        idx = np.arange(m * (order - 1))
        companion[:, m + idx, idx] = 1.0
    return np.max(np.abs(np.linalg.eigvals(companion)), axis=1)


def random_mclp(
    num_mics: int,
    order: int,
    delay: int = 1,
    config: StftConfig = StftConfig(),
    seed: int = 0,
    target_radius: float = 0.9,
) -> np.ndarray:
    """Draw per-bin recursion coefficients with geometrically decaying lags.

    Entry magnitudes fall off as 0.7**(l - delay); each bin is then rescaled
    by s**l, which scales every recursion eigenvalue by exactly s, so its
    spectral radius lands on ``target_radius`` up to rounding.  One draw is
    made and not checked again: a target within rounding of 1 can land at or
    above 1, and :func:`mclp_scene` refuses such a recursion.
    """
    if num_mics < 1:
        raise ValueError(f"num_mics must be >= 1, got {num_mics}")
    RC.taps(num_mics, order, delay)  # the canceller's rule: delay >= 1 and order > delay
    if not 0.0 < target_radius < 1.0:
        raise ValueError(f"target_radius must be in (0, 1), got {target_radius}")
    blocks = order - delay + 1
    shape = (config.num_bins, blocks, num_mics, num_mics)
    lags = np.arange(delay, order + 1)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    scale = _MCLP_LAG_DECAY ** (lags - delay) / (2.0 * math.sqrt(num_mics * blocks))
    c *= scale[None, :, None, None] / math.sqrt(2.0)
    s = target_radius / mclp_spectral_radius(c, delay)
    c *= (s[:, None] ** lags[None, :])[:, :, None, None]
    return c


def mclp_scene(
    dry: np.ndarray,
    steering: SteeringVector,
    coeffs: np.ndarray,
    delay: int = 1,
    snr_db: float = math.inf,
    config: StftConfig = StftConfig(),
    seed: int = 0,
) -> Scene:
    """Scene whose reverb obeys the frame recursion the canceller models.

    The clean multichannel signal is built frame by frame as
    y(n) = a X(n) + sum_{l=D..L} C_l y(n-l), so the reverb at frame n is a
    linear function of the *already mixed* past frames.  Spatially white
    noise is then added at ``snr_db`` (inf for noiseless).
    """
    snr = _db_power("snr_db", snr_db)
    dry_spec = stft(np.asarray(dry, dtype=np.float64), config)
    x = dry_spec.data[0]
    num_bins, num_frames = x.shape
    a = steering.vectors
    num_mics = a.shape[1]
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 4 or c.shape[0] != num_bins or c.shape[2:] != (num_mics, num_mics):
        raise ValueError(
            f"coefficients must have shape ({num_bins}, lags, {num_mics}, {num_mics}), "
            f"got {c.shape}"
        )
    blocks = c.shape[1]
    order = delay + blocks - 1
    radius = mclp_spectral_radius(c, delay)
    worst = float(np.max(radius))
    if worst >= 1.0:
        raise ValueError(f"unstable recursion: spectral radius {worst!r} >= 1")

    direct = a.T[:, :, None] * x[None, :, :]
    reverb = np.zeros((num_mics, num_bins, num_frames), dtype=np.complex128)
    rings = np.zeros((order, num_bins, num_mics), dtype=np.complex128)
    for n in range(num_frames):
        rev_n = np.einsum("krij,rkj->ki", c, rings[delay - 1 :])
        y_n = a * x[:, n][:, None] + rev_n
        reverb[:, :, n] = rev_n.T
        rings[1:] = rings[:-1]
        rings[0] = y_n

    clean = direct + reverb
    rng = np.random.default_rng(seed)
    if math.isinf(snr):
        noise = np.zeros_like(clean)
    else:
        p_clean = float(np.mean(np.abs(clean) ** 2))
        sigma = math.sqrt(p_clean / snr)
        noise = (
            rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
        ) * (sigma / math.sqrt(2.0))
    mixture = clean + noise
    return Scene(
        mixture=Spectrogram(mixture, config),
        dry=dry_spec,
        reverb=Spectrogram(reverb, config),
        noise=Spectrogram(noise, config),
        steering=steering,
        true_mclp=c,
        metadata={
            "kind": "mclp",
            "delay": delay,
            "order": order,
            "snr_db": snr_db,
            "seed": seed,
            "max_spectral_radius": worst,
        },
    )


# ---------------------------------------------------------------------------
# time-domain impulse response scenes
# ---------------------------------------------------------------------------


def exp_decay_rir_scene(
    dry: np.ndarray,
    geom: ArrayGeometry,
    azimuth: float,
    t60: float,
    drr_db: float = 0.0,
    snr_db: float = math.inf,
    config: StftConfig = StftConfig(),
    seed: int = 0,
) -> Scene:
    """Scene from per-mic impulse responses: direct delta plus decaying tail.

    The direct path is a fractionally delayed (windowed-sinc) impulse with
    plane-wave inter-mic delays; the tail is white Gaussian shaped by
    exp(-6.9 t / T60), scaled to the requested direct-to-reverberant ratio.
    This reverb does NOT follow the canceller's frame recursion, so it serves
    as the model-mismatch case.  The stored reverb component is defined as
    whatever the steered dry signal fails to explain, keeping the component
    sum exact.
    """
    from scipy.signal import fftconvolve  # here, so enhancing never imports scipy
    n_tail = seconds_to_samples("t60", t60, config.sample_rate)
    drr, snr = _db_power("drr_db", drr_db), _db_power("snr_db", snr_db)
    dry = np.asarray(dry, dtype=np.float64)
    if dry.ndim != 1:
        raise ValueError(f"dry signal must be 1-d, got shape {dry.shape}")
    fs = config.sample_rate
    rng = np.random.default_rng(seed)

    direction_delays = plane_wave_delays(geom, azimuth)
    half = 16
    offset = half + int(np.ceil(np.max(np.abs(direction_delays)) * fs))
    frac_delays = direction_delays * fs + offset

    # the farthest direct tap sits at ceil(max frac delay) + half; the tail,
    # when present, runs from ceil(frac) + 2 for n_tail samples
    n_rir = int(np.ceil(np.max(frac_delays))) + half + n_tail + 3
    rirs_direct = np.zeros((geom.num_mics, n_rir))
    rirs_tail = np.zeros((geom.num_mics, n_rir))
    rows = np.arange(geom.num_mics)[:, None]
    taps = np.round(frac_delays).astype(int)[:, None] + np.arange(-half, half + 1)
    rirs_direct[rows, taps] = np.sinc(taps - frac_delays[:, None]) * np.hanning(2 * half + 1)
    if n_tail > 0:
        decay = np.exp(-6.9 * np.arange(n_tail) / (t60 * fs))
        tails = rng.standard_normal((geom.num_mics, n_tail)) * decay
        e_direct, e_tail = np.sum(rirs_direct**2, axis=1), np.sum(tails**2, axis=1)
        gains = np.sqrt(e_direct / (e_tail * drr))  # 0 at a DRR of +inf
        starts = np.ceil(frac_delays).astype(int)[:, None] + 2
        rirs_tail[rows, starts + np.arange(n_tail)] = gains[:, None] * tails

    n_samples = dry.shape[0]
    direct_sig = fftconvolve(dry[None, :], rirs_direct, axes=1)[:, :n_samples]
    tail_sig = fftconvolve(dry[None, :], rirs_tail, axes=1)[:, :n_samples]
    dry_at_ref = direct_sig[geom.reference_mic]

    steering = plane_wave_steering(geom, azimuth, config)
    dry_spec = stft(dry_at_ref, config)
    clean_spec = stft(direct_sig + tail_sig, config)
    a = steering.vectors
    steered_dry = a.T[:, :, None] * dry_spec.data[0][None, :, :]
    reverb_data = clean_spec.data - steered_dry

    num_frames = dry_spec.num_frames
    if math.isinf(snr):
        noise_data = np.zeros_like(clean_spec.data)
    else:
        noise = diffuse_noise_frames(geom, config, num_frames, seed=seed + 1)
        p_clean = float(np.mean(np.abs(clean_spec.data) ** 2))
        p_noise = float(np.mean(np.abs(noise) ** 2))
        noise_data = noise * math.sqrt(p_clean / (p_noise * snr))
    mixture = clean_spec.data + noise_data
    return Scene(
        mixture=Spectrogram(mixture, config),
        dry=dry_spec,
        reverb=Spectrogram(reverb_data, config),
        noise=Spectrogram(noise_data, config),
        steering=steering,
        true_mclp=None,
        metadata={
            "kind": "rir",
            "doa_deg": math.degrees(azimuth),
            "t60_s": t60,
            "drr_db": drr_db,
            "snr_db": snr_db,
            "seed": seed,
            "rirs": rirs_direct + rirs_tail,
            "rir_tail": rirs_tail,
        },
    )


# ---------------------------------------------------------------------------
# diffuse noise
# ---------------------------------------------------------------------------


def diffuse_noise_frames(
    geom: ArrayGeometry,
    config: StftConfig,
    num_frames: int,
    seed: int = 0,
) -> np.ndarray:
    """(M, bins, frames) noise with the array's diffuse coherence, unit-ish power."""
    if num_frames < 1:
        raise ValueError(f"num_frames must be >= 1, got {num_frames}")
    gamma = diffuse_coherence(geom, config).gamma
    m = geom.num_mics
    chol = np.linalg.cholesky(gamma + _NOISE_LOADING * np.eye(m)[None, :, :])
    rng = np.random.default_rng(seed)
    shape = (config.num_bins, m, num_frames)
    white = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    colored = np.einsum("kij,kjn->kin", chol, white)
    return np.ascontiguousarray(colored.transpose(1, 0, 2))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def measure_srr(scene: Scene, estimate) -> float:
    """Signal-to-residual ratio of an estimate against the scene's dry signal.

    The estimate is projected onto the dry spectrogram (one complex scale
    over all bins and frames); the ratio of projected to residual power is
    returned in dB, capped at 60 dB so a perfect estimate stays finite.  A
    non-finite estimate raises ``ValueError`` naming its bin and frame.
    """
    est = estimate.data[0] if isinstance(estimate, Spectrogram) else np.asarray(estimate)
    dry = scene.dry.data[0]
    if est.shape != dry.shape:
        raise ValueError(f"estimate shape {est.shape} does not match dry {dry.shape}")
    if not np.isfinite(est).all():
        k, n = np.argwhere(~np.isfinite(est))[0]
        raise ValueError(f"estimate has a non-finite value at bin {k}, frame {n}")
    denom = np.vdot(dry, dry).real
    if denom == 0.0:
        raise ValueError("dry reference is identically zero")
    alpha = np.vdot(dry, est) / denom
    p_proj = float(abs(alpha) ** 2 * denom)
    p_res = float(np.sum(np.abs(est - alpha * dry) ** 2))
    if p_res == 0.0:
        return _SRR_CAP_DB
    if p_proj == 0.0:
        return -math.inf
    return min(_SRR_CAP_DB, 10.0 * math.log10(p_proj / p_res))
