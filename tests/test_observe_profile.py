"""Tests for the time-binned utilization profile (paper Fig. 12)."""

import numpy as np
import pytest

from repro.apps.nqueens import run_nqueens
from repro.hardware.config import MachineConfig
from repro.observe import (
    TimeProfile,
    active_observers,
    chrome_trace,
    clear_registry,
    format_timeline,
)
from repro.observe.profile import MAX_BINS

USEFUL, OVERHEAD = 0, 1  # rows of TimeProfile.seconds, in KINDS order


class TestRecord:
    def test_totals_accumulate(self):
        tr = TimeProfile(bin_width=1e-3)
        tr.record(0, 0.0, 2e-3, "useful")
        tr.record(1, 0.0, 1e-3, "overhead")
        tr.record(0, 2e-3, 5e-4, "idle")
        assert tr.seconds.sum(axis=1) == pytest.approx([2e-3, 1e-3, 5e-4])

    def test_interval_split_across_bins(self):
        tr = TimeProfile(bin_width=1e-3)
        tr.record(0, 0.5e-3, 1e-3, "useful")  # spans bins 0 and 1
        bins = tr.seconds[USEFUL]
        assert bins[0] == pytest.approx(0.5e-3)
        assert bins[1] == pytest.approx(0.5e-3)

    def test_interval_ending_on_a_bin_edge_stays_out_of_the_next_bin(self):
        tr = TimeProfile(bin_width=1.0)
        tr.record(0, 0.5, 1.5, "useful")
        assert tr.seconds.shape == (3, 2)
        assert list(tr.seconds[USEFUL]) == [0.5, 1.0]

    def test_bins_grow_on_demand(self):
        tr = TimeProfile(bin_width=1e-3)
        tr.record(0, 0.0, 1e-3, "overhead")
        tr.record(0, 0.499, 1e-3, "useful")
        assert tr.seconds.shape[1] >= 500
        # growth keeps what every kind had already accumulated
        assert tr.seconds[OVERHEAD][0] == pytest.approx(1e-3)
        assert tr.seconds.sum() == pytest.approx(2e-3)

    def test_unknown_kind_counts_as_overhead(self):
        tr = TimeProfile(bin_width=1e-3)
        tr.record(0, 0.0, 1e-3, "mystery")
        assert tr.seconds[OVERHEAD][0] == pytest.approx(1e-3)
        assert tr.seconds.sum() == pytest.approx(1e-3)

    def test_zero_duration_ignored(self):
        tr = TimeProfile(bin_width=1e-3)
        tr.record(0, 0.0, 0.0, "useful")
        assert tr.seconds.shape == (3, 0)

    def test_bad_bin_width_rejected(self):
        with pytest.raises(ValueError):
            TimeProfile(bin_width=0.0)

    def test_max_bins_guard(self):
        tr = TimeProfile(bin_width=1e-9)
        assert 1.0 / tr.bin_width > MAX_BINS
        with pytest.raises(ValueError, match="increase bin_width"):
            tr.record(0, 1.0, 1e-9, "useful")
        assert tr.seconds.shape == (3, 0)  # refused before anything grew


class TestFractions:
    def _profile(self, n_pes=2):
        tr = TimeProfile(bin_width=1e-3)
        # PE0: 100% useful for 4ms; PE1: idle 2ms then useful 2ms
        tr.record(0, 0.0, 4e-3, "useful")
        tr.record(1, 0.0, 2e-3, "idle")
        tr.record(1, 2e-3, 2e-3, "useful")
        return tr.close(n_pes)

    def test_fractions_sum_to_one(self):
        p = self._profile()
        total = p.useful + p.overhead + p.idle
        assert np.allclose(total, 1.0, atol=1e-9)

    def test_unrecorded_time_is_topped_up_as_idle(self):
        tr = TimeProfile(bin_width=1e-3)
        tr.record(0, 0.0, 1e-3, "useful")  # PE1 never woke up
        p = tr.close(2)
        assert p.useful[0] == pytest.approx(0.5)
        assert p.idle[0] == pytest.approx(0.5)

    def test_summary(self):
        p = self._profile()
        s = p.summary()
        assert s["useful"] == pytest.approx(0.75)
        assert s["idle"] == pytest.approx(0.25)

    def test_tail_idle_fraction(self):
        tr = TimeProfile(bin_width=1e-3)
        tr.record(0, 0.0, 2e-3, "useful")
        tr.record(0, 2e-3, 2e-3, "idle")  # idle tail
        p = tr.close(1)
        assert p.tail_idle_fraction(0.5) == pytest.approx(1.0)

    def test_until_clips(self):
        tr = TimeProfile(bin_width=1e-3)
        tr.record(0, 0.0, 4e-3, "useful")
        assert tr.close(1).n_bins == 4
        assert tr.close(1, until=2e-3).n_bins == 2

    def test_open_profile_is_empty(self):
        tr = TimeProfile(bin_width=1e-3)
        tr.record(0, 0.0, 4e-3, "useful")
        assert tr.n_bins == 0
        assert tr.tail_idle_fraction() == 0.0
        assert tr.summary() == {"useful": 0.0, "overhead": 0.0, "idle": 0.0}


class TestRender:
    def test_render_contains_legend_and_bars(self):
        p = TestFractions()._profile()
        text = p.render(width=40, height=6, title="demo")
        assert "demo" in text
        assert "useful" in text and "idle" in text
        assert "#" in text

    def test_render_resamples_to_width(self):
        tr = TimeProfile(bin_width=1e-3)
        tr.record(0, 0.0, 0.1, "overhead")
        rows = tr.close(1).render(width=10, height=4).splitlines()
        assert rows[:4] == ["|" + "!" * 10 + "|"] * 4
        assert rows[4] == "+" + "-" * 10 + "+"

    def test_render_empty(self):
        assert "empty" in TimeProfile(bin_width=1e-3).close(1).render()


class TestOneStream:
    """The observer is the scheduler's interval hook when a machine has
    one; the profile the caller asked for comes from the same stream."""

    @staticmethod
    def _run(trace_bin, **config):
        clear_registry()
        res = run_nqueens(8, 4, 16, config=MachineConfig(**config),
                          trace_bin=trace_bin)
        return res, (active_observers() or [None])[0]

    def test_profile_and_timeline_in_one_run(self):
        plain, _ = self._run(1e-5)
        observed, obs = self._run(1e-5, observe=True)
        alone, obs_alone = self._run(None, observe=True)

        # observation-only, in combination
        assert plain.profile.n_bins > 0
        for kind in ("useful", "overhead", "idle"):
            assert np.array_equal(getattr(plain.profile, kind),
                                  getattr(observed.profile, kind)), kind
        assert np.array_equal(plain.profile.seconds, observed.profile.seconds)
        assert plain.total_time == observed.total_time == alone.total_time
        assert (plain.messages_sent == observed.messages_sent
                == alone.messages_sent)

        # asking for a profile costs the observer nothing: the raw
        # timeline covers every PE that ran, interval for interval
        assert alone.profile is None and obs_alone.profile is None
        assert len(obs_alone.timeline) > 1
        assert obs.timeline == obs_alone.timeline
        slices = [ev for ev in chrome_trace(obs)["traceEvents"]
                  if ev.get("cat") == "pe"]
        assert len(slices) == sum(map(len, obs.timeline.values()))
        assert "no PE activity" not in format_timeline(obs)

        # ... and it is the stream the profile was binned from
        replay = TimeProfile(1e-5)
        for rank, intervals in obs.timeline.items():
            for interval in intervals:
                replay.record(rank, *interval)
        assert np.allclose(replay.seconds, observed.profile.seconds,
                           rtol=0, atol=1e-12)
