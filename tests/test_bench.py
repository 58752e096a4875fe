"""MAC tally and complexity sweep tests.

The exact per-update tallies are pinned here so any change to the update's
arithmetic shows up as a count change, not just a timing blip: the fused
two-row update costs 4Q + 4M + 7 complex MACs, 2 real MACs, 2 divisions;
the scalar-gain canceller costs M + 4P + 1 complex MACs for P taps.
"""

import csv

import numpy as np
import pytest

from convbeam.bench import (
    count_apa_update,
    count_rc_update,
    fit_power_law,
    reference_curves,
    wallclock_sweep,
    write_bench_csv,
)


class TestUpdateTallies:
    @pytest.mark.parametrize("m,order", [(1, 2), (2, 4), (4, 8), (8, 12)])
    def test_apa_update_exact_count(self, m, order):
        q = m * (order - 1 + 2)  # delay 1
        c = count_apa_update(m, order)
        assert c.complex_macs == 4 * q + 4 * m + 7
        assert c.real_macs == 2
        assert c.divisions == 2

    def test_apa_update_order_zero(self):
        c = count_apa_update(3, 0)
        assert c.complex_macs == 4 * 3 + 4 * 3 + 7

    @pytest.mark.parametrize("m,order", [(2, 4), (4, 8)])
    def test_rc_update_exact_count(self, m, order):
        p = m * order  # delay 1
        c = count_rc_update(m, order)
        assert c.complex_macs == m + 4 * p + 1
        assert c.real_macs == 1
        assert c.divisions == 1

    def test_dimensions_the_update_rejects(self):
        with pytest.raises(ValueError, match="delay must be >= 1"):
            count_apa_update(2, 3, delay=0)
        with pytest.raises(ValueError, match="order must be 0 or > delay"):
            count_apa_update(2, 2, delay=2)
        with pytest.raises(ValueError, match="order must exceed delay"):
            count_rc_update(2, 0)


class TestScaling:
    def test_fit_power_law_recovers_known_exponent(self):
        sizes = [1.0, 2.0, 4.0, 8.0]
        counts = [3.0 * s**1.7 for s in sizes]
        assert fit_power_law(sizes, counts) == pytest.approx(1.7, abs=1e-12)

    def test_reference_curves_structure(self):
        rows = reference_curves([26, 52, 104], num_mics=2)
        assert [r["Q"] for r in rows] == [26, 52, 104]
        assert all(set(r) == {"Q", "macs"} for r in rows)

    def test_reference_curves_validation(self):
        with pytest.raises(ValueError, match="multiple"):
            reference_curves([27], num_mics=2)
        with pytest.raises(ValueError, match="order"):
            reference_curves([2], num_mics=2)

    def test_near_linear_growth(self):
        rows = reference_curves([26, 52, 104, 208], num_mics=2)
        exponent = fit_power_law([r["Q"] for r in rows], [r["macs"] for r in rows])
        assert 0.8 < exponent < 1.0


class TestWallclock:
    def test_sweep_rows_and_csv(self, tmp_path):
        rows = wallclock_sweep(
            methods=("delay-sum", "conv-sdmvdr"),
            num_mics=2,
            audio_seconds=0.3,
            repeats=1,
        )
        assert [r["method"] for r in rows] == ["delay-sum", "conv-sdmvdr"]
        for row in rows:
            assert row["seconds_per_audio_second"] > 0.0
            assert row["M"] == 2
        path = tmp_path / "bench.csv"
        write_bench_csv(rows, path)
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == 2
        assert back[0]["method"] == "delay-sum"
        assert int(back[1]["Q"]) == rows[1]["Q"]

    @pytest.mark.parametrize("kwargs,name", [
        ({"repeats": 0}, "repeats"),
        ({"repeats": -2}, "repeats"),
        ({"audio_seconds": -1.0}, "audio_seconds"),
        ({"audio_seconds": 0.0}, "audio_seconds"),
        ({"audio_seconds": float("nan")}, "audio_seconds"),
        ({"audio_seconds": float("inf")}, "audio_seconds"),
        ({"audio_seconds": 0.01}, "audio_seconds"),  # shorter than one STFT frame
        ({"audio_seconds": 1e15}, "audio_seconds"),  # more samples than one array holds
        ({"audio_seconds": 1e300}, "audio_seconds"),
        ({"audio_seconds": 1e308}, "audio_seconds"),  # its sample count overflows
        ({"num_mics": -1}, "num_mics"),
    ])
    def test_bad_repeats_or_duration_rejected(self, kwargs, name):
        """``repeats=0`` must not silently run one repeat, and a bad duration
        or mic count is named rather than failing inside numpy."""
        args = {"methods": ("delay-sum",), "num_mics": 2, "audio_seconds": 0.3, "repeats": 1}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            wallclock_sweep(**{**args, **kwargs})

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            wallclock_sweep(methods=("nope",), num_mics=2, audio_seconds=0.3, repeats=1)
