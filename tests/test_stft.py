"""Framing, windowing, and reconstruction tests.

Expected values that are checked exactly were computed by hand from the
window definition; everything else is a structural or round-trip property.
The last tests cover ``spans`` and ``fan_out``, which run the STFT, SRP-PHAT's
cross-power and an adaptive run's spans of bins on every CPU: each stage must
give the bits of one part whatever the CPU count.
"""

import os
import _thread
import re
import sys
import threading
import time

import numpy as np
import pytest

from convbeam.apa import ApaParams
from convbeam.engine import APA, RC, Run
from convbeam.geometry import _srp_map, circular_array
from convbeam.stft import (
    BandPlan,
    Spectrogram,
    StftConfig,
    fan_out,
    istft,
    spans,
    sqrt_hann,
    stft,
)


class TestWindow:
    def test_sqrt_hann_length_4_hand_values(self):
        # hann(n) = 0.5 - 0.5 cos(2 pi n / 4) at n = 0..3 is [0, .5, 1, .5]
        win = sqrt_hann(4)
        expected = np.sqrt([0.0, 0.5, 1.0, 0.5])
        np.testing.assert_allclose(win, expected, rtol=0, atol=1e-15)

    def test_overlapped_squares_sum_to_one(self):
        """50% overlap constant-overlap-add: w^2(i) + w^2(i + hop) = 1."""
        win = sqrt_hann(512)
        ola = win[:256] ** 2 + win[256:] ** 2
        np.testing.assert_allclose(ola, 1.0, rtol=0, atol=1e-14)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            sqrt_hann(511)


class TestConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert cfg.sample_rate == 16000
        assert cfg.window_len == 512
        assert cfg.hop == 256
        assert cfg.num_bins == 257

    def test_bin_freq(self):
        cfg = StftConfig()
        assert cfg.freqs[0] == 0.0
        assert cfg.freqs[32] == 1000.0
        assert cfg.freqs[256] == 8000.0

    def test_num_frames(self):
        cfg = StftConfig()
        assert cfg.num_frames(512) == 1
        assert cfg.num_frames(513) == 2
        assert cfg.num_frames(512 + 256) == 2
        assert cfg.num_frames(16000) == 1 + int(np.ceil((16000 - 512) / 256))

    def test_too_short_signal_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            StftConfig().num_frames(511)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            StftConfig(window_len=511)


class TestSpectrogram:
    def test_two_d_promoted_to_single_channel(self):
        cfg = StftConfig(window_len=32)
        spec = Spectrogram(np.zeros((17, 5)), cfg)
        assert spec.num_channels == 1
        assert spec.num_bins == 17
        assert spec.num_frames == 5

    def test_bin_mismatch_rejected(self):
        cfg = StftConfig(window_len=32)
        with pytest.raises(ValueError, match="bin count"):
            Spectrogram(np.zeros((16, 5)), cfg)

    def test_four_d_data_is_refused(self):
        message = "expected 2-d or 3-d data, got shape (1, 1, 17, 5)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Spectrogram(np.zeros((1, 1, 17, 5)), StftConfig(window_len=32))

    def test_stft_refuses_a_3d_signal(self):
        message = "expected 1-d or 2-d signal with equal-length channels, got shape (1, 2, 64)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stft(np.zeros((1, 2, 64)), StftConfig(window_len=32))

    def test_channel_view(self):
        cfg = StftConfig(window_len=32)
        data = np.arange(2 * 17 * 3).reshape(2, 17, 3).astype(complex)
        spec = Spectrogram(data, cfg)
        np.testing.assert_array_equal(spec.channel(1).data[0], data[1])


class TestRoundTrip:
    def test_interior_reconstruction_near_machine_precision(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 8000))
        cfg = StftConfig()
        y = istft(stft(x, cfg), length=8000)
        # first and last hop see only one window, so compare the interior
        err = x[:, 256:-256] - y[:, 256:-256]
        assert np.max(np.abs(err)) < 1e-12

    def test_pure_tone_lands_in_its_bin(self):
        cfg = StftConfig()
        t = np.arange(16000) / cfg.sample_rate
        spec = stft(np.sin(2 * np.pi * 1000.0 * t), cfg)
        mags = np.abs(spec.data[0, :, 20])
        assert int(np.argmax(mags)) == 32

    def test_length_trim_and_pad(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1000)
        spec = stft(x)
        assert istft(spec, length=1000).shape == (1, 1000)
        assert istft(spec, length=2000).shape == (1, 2000)

    def test_negative_length_rejected(self):
        spec = stft(np.random.default_rng(1).standard_normal(4096))
        with pytest.raises(ValueError, match="^length must be >= 0, got -1$"):
            istft(spec, length=-1)
        assert istft(spec, length=0).shape == (1, 0)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_overlap_add_equals_the_frame_loop(self, channels):
        """The block overlap-add gives the bits of adding frame after frame."""
        spec = stft(np.random.default_rng(3).standard_normal((channels, 5000)))
        cfg = spec.config
        win = sqrt_hann(cfg.window_len)[:, None]
        frames = np.fft.irfft(spec.data, n=cfg.window_len, axis=1) * win
        want = np.zeros((channels, (spec.num_frames + 1) * cfg.hop))
        for n in range(spec.num_frames):
            want[:, n * cfg.hop : n * cfg.hop + cfg.window_len] += frames[:, :, n]
        got = istft(spec)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("channels", [1, 8])
    @pytest.mark.parametrize("length", [512 + 256 * 4, 512 + 256 * 4 + 100, 512])
    def test_each_frame_equals_its_own_transform(self, channels, length):
        """Every frame's bins are the bits of rfft(frame * window), with the
        last frame zero-padded when the signal is not a whole number of hops."""
        x = np.random.default_rng(6).standard_normal((channels, length))
        spec = stft(x)
        cfg = spec.config
        win = sqrt_hann(cfg.window_len)
        padded = np.zeros((channels, (spec.num_frames - 1) * cfg.hop + cfg.window_len))
        padded[:, :length] = x
        assert spec.data.flags.c_contiguous
        for m in range(channels):
            for n in range(spec.num_frames):
                frame = padded[m, n * cfg.hop : n * cfg.hop + cfg.window_len]
                assert spec.data[m, :, n].tobytes() == np.fft.rfft(frame * win).tobytes()

    def test_tail_samples_are_covered(self):
        """A signal that is not a whole number of hops still round-trips."""
        rng = np.random.default_rng(2)
        n = 512 + 256 * 3 + 100
        x = rng.standard_normal(n)
        y = istft(stft(x), length=n)
        err = x[256:-256] - y[0, 256:-256]
        assert np.max(np.abs(err)) < 1e-12


# ---------------------------------------------------------------------------
# band plans
# ---------------------------------------------------------------------------


class TestBandPlan:
    def test_default_orders_by_bin(self):
        orders = BandPlan().bin_orders(StftConfig())
        # 500 Hz, 1000 Hz, 3000 Hz at 31.25 Hz per bin
        assert orders[16] == 12
        assert orders[32] == 8
        assert orders[96] == 6

    def test_transition_bin_belongs_to_upper_band(self):
        cfg = StftConfig()
        orders = BandPlan().bin_orders(cfg)
        # bin 64 sits exactly on 2000 Hz
        assert cfg.freqs[64] == 2000.0
        assert orders[64] == 6
        assert orders[63] == 8

    def test_bin_orders_matches_scalar_lookup(self):
        cfg = StftConfig()
        plan = BandPlan((800.0, 2000.0), (12, 8, 6))
        orders = plan.bin_orders(cfg)
        assert orders.shape == (cfg.num_bins,)
        # 0, 781.25, 812.5, 1968.75, 2000, 4000 and 8000 Hz
        bins = (0, 25, 26, 63, 64, 128, 256)
        assert [orders[k] for k in bins] == [12, 12, 8, 8, 6, 6, 6]

    def test_single_band_plan(self):
        cfg = StftConfig()
        orders = BandPlan((), (4,)).bin_orders(cfg)
        assert np.all(orders == 4)

    def test_validation(self):
        with pytest.raises(ValueError, match="orders"):
            BandPlan((800.0,), (12, 8, 6))
        with pytest.raises(ValueError, match="ascending"):
            BandPlan((2000.0, 800.0), (12, 8, 6))
        for bad in ("nan", "inf"):
            with pytest.raises(ValueError, match=f"must be finite, got \\(800.0, {bad}\\)"):
                BandPlan((800.0, float(bad)), (12, 8, 6))
        for edges in ((800.0, 9000.0), (0.0, 800.0), (-100.0, 800.0), (800.0, 20000.0)):
            with pytest.raises(ValueError, match=r"must lie in \(0, 8000\] Hz") as info:
                BandPlan(edges, (12, 8, 6))
            assert str(edges) in str(info.value)
        assert BandPlan((800.0, 8000.0), (12, 8, 6)).bin_orders(StftConfig())[-1] == 6
        with pytest.raises(ValueError, match="delay"):
            BandPlan((), (1,), delay=1)
        with pytest.raises(ValueError):
            BandPlan((), (4,), delay=0)

    def test_non_integer_order_or_delay_rejected(self):
        """A float order would run truncated and a float delay fail deep in the kernel."""
        with pytest.raises(ValueError, match=r"^order must be an integer, got 2\.5$"):
            BandPlan((800.0,), (12, 2.5), delay=1)
        with pytest.raises(ValueError, match=r"^delay must be an integer, got 1\.5$"):
            BandPlan((), (4,), delay=1.5)
        with pytest.raises(ValueError, match=r"^order must be an integer, got '4'$"):
            BandPlan((), ("4",))
        plan = BandPlan((800.0,), (np.int64(6), 3), delay=np.int32(2))
        assert plan.bin_orders(StftConfig())[0] == 6

    def test_zero_order_allowed(self):
        orders = BandPlan((), (0,)).bin_orders(StftConfig())
        assert np.all(orders == 0)


# ---------------------------------------------------------------------------
# the fan-out over the CPUs
# ---------------------------------------------------------------------------


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _run(kernel):
    """A run with the prior pass on 3 mics, 33 bins of two orders and 40 frames: its outputs,
    final filters and histories."""
    rng, cfg = np.random.default_rng(11), StftConfig(64)
    steering = np.exp(2j * np.pi * rng.uniform(size=(cfg.num_bins, 3)))
    run = Run(kernel, steering, BandPlan((2000.0,), (4, 3)).bin_orders(cfg), 1, 40, prior=True)
    data = _complex(rng, (3, cfg.num_bins, 40))
    out = run(data, steering, rng.uniform(size=(cfg.num_bins, 40)), ApaParams())
    return out, run.w, run.history


def _stage(name):
    """A call of one stage that fans out, returning the arrays it made."""
    rng = np.random.default_rng(12)
    if name.startswith("stft"):  # stft-<channels>-<tail or whole>
        _, channels, tail = name.split("-")
        x = rng.standard_normal((int(channels), 512 + 256 * 9 + (100 if tail == "tail" else 0)))
        return lambda: (stft(x).data,)
    if name == "srp":
        spec = Spectrogram(_complex(rng, (4, 257, 30)), StftConfig())
        return lambda: (_srp_map(spec, circular_array(4, 0.10)),)
    return lambda: _run(APA if name == "drive-apa" else RC)


@pytest.mark.parametrize("name", ["stft-1-whole", "stft-1-tail", "stft-8-whole", "stft-8-tail",
                                  "srp", "drive-apa", "drive-rc"])
def test_every_cpu_count_gives_the_bits_of_one_part(name, monkeypatch):
    """At 1 CPU a stage starts no thread; at 2, 3 and 9 (more parts than the
    stft's channels) it starts some and gives the same bits, with the
    interpreter switching threads as often as it can, and so does a repeat
    run."""
    started, start = [], _thread.start_new_thread
    monkeypatch.setattr(_thread, "start_new_thread", lambda *a: (started.append(a), start(*a)))
    run, runs, interval = _stage(name), {}, sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for count in (1, 2, 3, 9, 1):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(count))
            del started[:]
            runs[count] = [a.tobytes() for a in run()]
            assert (len(started) > 0) == (count > 1 and not name.startswith("stft-1"))
    finally:
        sys.setswitchinterval(interval)
    assert all(got == runs[1] for got in runs.values())


def test_no_parts_give_no_results(monkeypatch):
    """An empty split is no ranges, and no parts are no calls and no results."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(3))
    assert spans([]) == [] and spans(np.ones(0)) == []
    assert fan_out(lambda *part: pytest.fail("called"), []) == []


@pytest.mark.parametrize("failing", [(0,), (2,), (1, 2)])
def test_a_failing_part_raises_once_every_part_has_ended(failing):
    """The first failing part, in part order, raises in the caller, after the
    slow part 3 has finished, whichever thread took it."""
    finished = []

    def work(i):
        if i == 3:
            time.sleep(0.05)
        finished.append(i)
        if i in failing:
            raise ValueError(f"part {i}")
        return i
    with pytest.raises(ValueError, match=f"^part {failing[0]}$"):
        fan_out(work, [(i,) for i in range(4)])
    assert sorted(finished) == [0, 1, 2, 3]
    assert fan_out(lambda i: i * i, [(i,) for i in range(4)]) == [0, 1, 4, 9]


def test_the_caller_takes_the_parts_of_a_thread_that_has_not_run(monkeypatch):
    """A thread the host has not yet run leaves its parts to the caller, which
    ends every part without waiting for it; the late thread then takes none."""
    late, taken, got = [], [], []
    monkeypatch.setattr(_thread, "start_new_thread", lambda run, args: late.append(run))
    parts = [(i,) for i in range(3)]
    caller = threading.Thread(target=lambda: got.append(fan_out(lambda i: taken.append(i) or i,
                                                                parts)), daemon=True)
    caller.start()
    caller.join(timeout=10)
    assert not caller.is_alive() and got == [[0, 1, 2]] and taken == [0, 1, 2] and len(late) == 2
    for run in late:
        run()
    assert taken == [0, 1, 2]


def test_spans_split_items_of_equal_cost_evenly(monkeypatch):
    """Equal costs split into near-equal counts of contiguous items, at most
    one range per CPU in the affinity set."""
    for items, count, want in ((8, 2, [(0, 4), (4, 8)]), (8, 3, [(0, 3), (3, 5), (5, 8)]),
                               (3, 9, [(0, 1), (1, 2), (2, 3)]), (119, 1, [(0, 119)])):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(count))
        assert spans(np.ones(items)) == want
