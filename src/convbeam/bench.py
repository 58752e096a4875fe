"""Complexity instrumentation: MAC tallies and wall-clock sweeps.

The MAC counter tallies the arithmetic the adaptive updates actually
perform, using fixed conventions: one complex multiply-accumulate costs 1,
scaling a complex number by a real costs 1, a 2x2 inversion costs 6 complex
MACs plus 2 divisions.  Counts are deterministic functions of the filter
dimensions, which is what lets a test pin the linear-in-Q scaling.
"""

from __future__ import annotations

import csv
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import apa, sdmvdr
from .geometry import circular_array, plane_wave_steering
from .pipeline import METHODS, RUNNERS, RunConfig
from .stft import BandPlan, StftConfig, stft

__all__ = [
    "MacCounter",
    "count_apa_update",
    "count_rc_update",
    "fit_power_law",
    "reference_curves",
    "wallclock_sweep",
    "write_bench_csv",
]


@dataclass
class MacCounter:
    """Tally of complex MACs, real MACs, and divisions, with named scopes.

    Counts recorded inside a scope also land in every enclosing scope, so a
    parent's totals are exactly the sum of its own direct counts and its
    children's.
    """

    complex_macs: int = 0
    real_macs: int = 0
    divisions: int = 0
    scopes: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def _bump(self, kind: int, n: int) -> None:
        for label in self._stack:
            self.scopes[label][kind] += n

    def cmac(self, n: int = 1) -> None:
        self.complex_macs += n
        self._bump(0, n)

    def rmac(self, n: int = 1) -> None:
        self.real_macs += n
        self._bump(1, n)

    def div(self, n: int = 1) -> None:
        self.divisions += n
        self._bump(2, n)

    @property
    def total(self) -> int:
        """All multiply-accumulates, complex and real."""
        return self.complex_macs + self.real_macs

    @contextmanager
    def scope(self, label: str):
        self.scopes.setdefault(label, [0, 0, 0])
        self._stack.append(label)
        try:
            yield self
        finally:
            self._stack.pop()

    def scope_totals(self, label: str) -> tuple:
        """(complex_macs, real_macs, divisions) recorded under a scope."""
        return tuple(self.scopes[label])


# ---------------------------------------------------------------------------
# instrumented updates
# ---------------------------------------------------------------------------


def count_apa_update(num_mics: int, order: int, delay: int = 1, seed: int = 0) -> MacCounter:
    """Run one instrumented adaptive update on random data and return the tally."""
    rng = np.random.default_rng(seed)
    a = np.exp(2j * np.pi * rng.random(num_mics))
    state = apa.init_state(a, order, delay)
    if order > 0:
        state.history[:] = rng.standard_normal(state.history.shape) + 1j * rng.standard_normal(
            state.history.shape
        )
    y_now = rng.standard_normal(num_mics) + 1j * rng.standard_normal(num_mics)
    obs = apa.stack_observation(state, y_now, a)
    phi_x = apa.psd_floor(apa.speech_psd_estimate(state, obs), y_now, 10.0**-2.5)
    counter = MacCounter()
    params = apa.ApaParams(band_plan=BandPlan((), (order,), delay) if order else BandPlan((), (0,)))
    with counter.scope("apa_update"):
        apa.apa_update(state, obs, phi_x, params, counter)
    return counter


def count_rc_update(num_mics: int, order: int, delay: int = 1, seed: int = 0) -> MacCounter:
    """Instrumented tally for the fixed-beamformer variant's scalar update."""
    rng = np.random.default_rng(seed)
    w_sd = rng.standard_normal(num_mics) + 1j * rng.standard_normal(num_mics)
    state = sdmvdr.init_rc_state(w_sd, order, delay)
    state.history[:] = rng.standard_normal(state.history.shape) + 1j * rng.standard_normal(
        state.history.shape
    )
    y_now = rng.standard_normal(num_mics) + 1j * rng.standard_normal(num_mics)
    phi_x = sdmvdr.rc_speech_psd(state, y_now, 10.0**-2.5)
    counter = MacCounter()
    with counter.scope("rc_update"):
        sdmvdr.rc_update(state, y_now, phi_x, 1e-4, counter=counter)
    return counter


def fit_power_law(sizes, counts) -> float:
    """Least-squares exponent of counts ~ sizes**p in log-log space."""
    logq = np.log(np.asarray(sizes, dtype=np.float64))
    logc = np.log(np.asarray(counts, dtype=np.float64))
    slope, _ = np.polyfit(logq, logc, 1)
    return float(slope)


def reference_curves(
    stacked_lens,
    num_mics: int = 2,
    delay: int = 1,
) -> list:
    """Measured MAC tallies next to quadratic and fast-inversion growth models.

    Both reference curves (c*Q^2 and c*Q^2.37) are anchored to the measured
    tally at the smallest Q, so the comparison is about growth rate only.
    Each Q must be reachable as num_mics * (L - delay + 2) for integer L.
    """
    qs = sorted(int(q) for q in stacked_lens)
    rows = []
    for q in qs:
        if q % num_mics != 0:
            raise ValueError(f"Q={q} is not a multiple of num_mics={num_mics}")
        order = q // num_mics - 2 + delay
        if order <= delay:
            raise ValueError(f"Q={q} gives order {order} <= delay {delay}")
        rows.append({"Q": q, "macs": count_apa_update(num_mics, order, delay).total})
    anchor = rows[0]["macs"]
    q0 = rows[0]["Q"]
    for row in rows:
        ratio = row["Q"] / q0
        row["quadratic"] = anchor * ratio**2
        row["fast_inverse"] = anchor * ratio**2.37
    return rows


# ---------------------------------------------------------------------------
# wall-clock sweep
# ---------------------------------------------------------------------------

# every method of the pipeline's table that runs a beamformer, cheapest first
_BENCH_METHODS = tuple(m for m in METHODS if m != "ref-mic")


def wallclock_sweep(
    methods=_BENCH_METHODS,
    num_mics: int = 8,
    radius: float = 0.10,
    band_plan: BandPlan | None = None,
    audio_seconds: float = 2.0,
    repeats: int = 5,
    seed: int = 0,
    config: StftConfig | None = None,
) -> list:
    """Median filtering time per second of audio for each method.

    Each method runs through the pipeline's method table
    (:data:`convbeam.pipeline.RUNNERS`) with the prior pass off.  Times cover
    weight computation plus filtering on a prepared spectrogram
    (analysis/synthesis and localization excluded, since they are shared by
    every method).  Returns one row per method with the dimensions and MAC
    tally of its per-bin update.
    """
    if config is None:
        config = StftConfig()
    if band_plan is None:
        band_plan = BandPlan()
    params = apa.ApaParams(band_plan=band_plan)
    rng = np.random.default_rng(seed)
    samples = 0.05 * rng.standard_normal((num_mics, int(audio_seconds * config.sample_rate)))
    spec = stft(samples, config)
    geom = circular_array(num_mics, radius)
    steering = plane_wave_steering(geom, 0.0, config)
    max_order = int(max(band_plan.orders))
    rows = []
    for method in methods:
        cfg = RunConfig(
            method=method, geometry=geom, doa=0.0, params=params, stft_config=config,
            prior_pass=False,
        )
        times = []
        for _ in range(max(int(repeats), 1)):
            t0 = time.perf_counter()
            RUNNERS[method](spec, steering, cfg, None)
            times.append(time.perf_counter() - t0)
        order = max_order if method.startswith("conv") else 0
        if method.endswith("apa"):
            macs = count_apa_update(num_mics, order, band_plan.delay).total
        elif method == "conv-sdmvdr":
            macs = count_rc_update(num_mics, order, band_plan.delay).total
        else:
            macs = num_mics  # one w^H y dot per bin and frame
        blocks = 0 if order == 0 else order - band_plan.delay + 1
        rows.append(
            {
                "method": method,
                "M": num_mics,
                "L": order,
                "D": band_plan.delay,
                "Q": num_mics * (blocks + 1),
                "macs": macs,
                "seconds_per_audio_second": float(np.median(times)) / audio_seconds,
            }
        )
    return rows


def write_bench_csv(rows, path) -> None:
    """CSV with the fixed column set used by the command-line bench."""
    fields = ["method", "M", "L", "D", "Q", "macs", "seconds_per_audio_second"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
