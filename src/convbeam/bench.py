"""Complexity accounting: closed-form MAC tallies and wall-clock sweeps.

A tally counts the arithmetic of one adaptive update, as written in
:func:`convbeam.apa.apa_update` or :func:`convbeam.sdmvdr.rc_update`, from
the filter dimensions alone: one complex multiply-accumulate costs 1,
scaling a complex number by a real costs 1, and a 2x2 inversion costs 6
complex MACs plus 2 divisions.  That is what lets a test pin the
linear-in-Q scaling.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from . import apa, engine
from .geometry import circular_array, plane_wave_steering
from .pipeline import METHODS, TABLE, RunConfig
from .stft import StftConfig, seconds_to_samples, stft

__all__ = [
    "MacCounter",
    "count_apa_update",
    "count_rc_update",
    "fit_power_law",
    "reference_curves",
    "wallclock_sweep",
    "write_bench_csv",
]


@dataclass(frozen=True)
class MacCounter:
    """Tally of complex MACs, real MACs and divisions of one update."""

    complex_macs: int
    real_macs: int
    divisions: int

    @property
    def total(self) -> int:
        """All multiply-accumulates, complex and real."""
        return self.complex_macs + self.real_macs


# ---------------------------------------------------------------------------
# per-update tallies
# ---------------------------------------------------------------------------


def count_apa_update(num_mics: int, order: int, delay: int = 1) -> MacCounter:
    """Tally of one two-row update: 4Q + 4M + 7 complex MACs, 2 real, 2 divisions.

    Q = M*(L - D + 2) is the stacked length, or M at order 0.  Term by term,
    in the order :func:`convbeam.apa.apa_update` computes them:

    - Phi_w ytilde, the state variances times the regressor: Q;
    - s00 = ytilde^H (Phi_w ytilde): Q, plus 1 real MAC to add phi_x;
    - s01 = phi_b (y^H a), over the head only: M + 1;
    - s11 = phi_b ||a||^2: M, plus 1 real MAC to add phi_a;
    - the innovation e0 = -ytilde^H w: Q;
    - the constraint residual e1 = 1 - a^H w, over the head: M;
    - the cofactor solve of the 2x2 system: 6, plus 2 divisions by det;
    - the correction along Phi_w ytilde: Q;
    - the correction phi_b g1 a along the head: M.

    Raises the ``ValueError`` of :meth:`convbeam.engine.Kernel.taps` for dimensions it rejects.
    """
    q = engine.APA.taps(num_mics, order, delay)
    return MacCounter(4 * q + 4 * num_mics + 7, 2, 2)


def count_rc_update(num_mics: int, order: int, delay: int = 1) -> MacCounter:
    """Tally of one canceller update: M + 4P + 1 complex MACs, 1 real, 1 division.

    P = M*(L - D + 1) is the number of adaptive taps.  Term by term, in the
    order :func:`convbeam.sdmvdr.rc_update` computes them:

    - the fixed beamformer output d = w_sd^H y: M;
    - the prior prediction w_rc^H f in e = d - w_rc^H f: P;
    - ||f||^2: P, plus 1 real MAC for phi_r ||f||^2 + phi_x;
    - the step gain phi_r / denom: 1 division;
    - the tap correction (gain * conj(e)) f: P + 1;
    - the updated prediction x_r = w_rc^H f: P.

    Raises the ``ValueError`` of :meth:`convbeam.engine.Kernel.taps` for dimensions it rejects.
    """
    p = engine.RC.taps(num_mics, order, delay)
    return MacCounter(num_mics + 4 * p + 1, 1, 1)


def fit_power_law(sizes, counts) -> float:
    """Least-squares exponent of counts ~ sizes**p in log-log space."""
    logq, logc = (np.log(np.asarray(x, dtype=np.float64)) for x in (sizes, counts))
    return float(np.polyfit(logq, logc, 1)[0])


def reference_curves(stacked_lens, num_mics: int = 2) -> list:
    """APA MAC tallies at delay 1, one ``{"Q", "macs"}`` row per stacked length.

    Each Q must be reachable as num_mics * (L + 1) for an integer L > 1.
    """
    qs = sorted(int(q) for q in stacked_lens)
    rows = []
    for q in qs:
        if q % num_mics != 0:
            raise ValueError(f"Q={q} is not a multiple of num_mics={num_mics}")
        order = q // num_mics - 1
        if order <= 1:
            raise ValueError(f"Q={q} gives order {order} <= delay 1")
        rows.append({"Q": q, "macs": count_apa_update(num_mics, order).total})
    return rows


# ---------------------------------------------------------------------------
# wall-clock sweep
# ---------------------------------------------------------------------------

# the tally of one update of each adaptive kernel; a fixed beamformer's is M, one w^H y dot
_TALLIES = {engine.APA: count_apa_update, engine.RC: count_rc_update}
# every method of the pipeline's table that runs a beamformer, cheapest first
_BENCH_METHODS = tuple(m for m in METHODS if m != "ref-mic")


def wallclock_sweep(
    methods=_BENCH_METHODS,
    num_mics: int = 8,
    audio_seconds: float = 2.0,
    repeats: int = 5,
) -> list:
    """Median filtering time per second of audio for each method.

    Each method runs through the pipeline's method table
    (:data:`convbeam.pipeline.TABLE`) with the prior pass off, one repeat
    of each per round, so host contention hits every method alike, after
    one untimed round (a fresh sweep's first adaptive run is slower).  Times
    cover weights and filtering on a prepared spectrogram, not analysis,
    synthesis or localization, which every method shares.  The input is
    white noise (seed 0) on a circular array of radius 0.10 m at the default
    STFT settings and band plan.  Returns one row per method with the
    dimensions and MAC tally of its per-bin update.  ``repeats`` or ``num_mics``
    < 1, or an ``audio_seconds`` shorter than one STFT frame or too long for
    one array (:func:`~convbeam.stft.seconds_to_samples`), raises ``ValueError``.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    config, params = StftConfig(), apa.ApaParams()
    n = seconds_to_samples("audio_seconds", audio_seconds, config.sample_rate, config.window_len)
    geom = circular_array(num_mics, 0.10)  # refuses num_mics < 1 by name
    rng = np.random.default_rng(0)
    samples = 0.05 * rng.standard_normal((num_mics, n))
    spec = stft(samples, config)
    steering = plane_wave_steering(geom, 0.0, config)
    cfgs = {method: RunConfig(method=method, geometry=geom, doa=0.0, params=params,
                              stft_config=config, prior_pass=False) for method in methods}
    times = {method: [] for method in methods}
    for _ in range(repeats + 1):
        for method, cfg in cfgs.items():
            t0 = time.perf_counter()
            TABLE[method].runner(spec, steering, cfg, None)
            times[method].append(time.perf_counter() - t0)
    rows = []
    for method in methods:
        row, delay, timed = TABLE[method], params.delay, times[method][1:]
        order = int(max(row.plan(params).orders))
        q = row.kernel.taps(num_mics, order, delay) if row.kernel else num_mics
        macs = _TALLIES[row.kernel](num_mics, order, delay).total if row.kernel else num_mics
        rows.append({"method": method, "M": num_mics, "L": order, "D": delay, "Q": q, "macs": macs,
                     "seconds_per_audio_second": float(np.median(timed)) / audio_seconds})
    return rows


def write_bench_csv(rows, path) -> None:
    """CSV with the fixed column set used by the command-line bench."""
    fields = ["method", "M", "L", "D", "Q", "macs", "seconds_per_audio_second"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
