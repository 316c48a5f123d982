from fractions import Fraction

import numpy as np
import pytest

from scfosim.errors import PulseTooNarrow, WindowTooShort
from scfosim.rational import parse_rational
from scfosim.timing import (
    AlignmentState,
    PpsModel,
    align_fifo,
    pps_sample_indices,
    synchronize_pps,
    tick_trace_rows,
)


def brute_force_indices(f_a, tick_times):
    """Independent oracle: exact tick/grid intersection via Fraction compare."""
    out = []
    for t in tick_times:
        k = 0 if t >= 0 else -10
        # binary search on k/f_a <= t < (k+1)/f_a
        lo, hi = -1, 1
        while Fraction(hi) / f_a <= t:
            hi *= 2
        while Fraction(lo) / f_a > t:
            lo *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if Fraction(mid) / f_a <= t:
                lo = mid
            else:
                hi = mid
        out.append(lo)
    return out


class TestPpsSampleIndices:
    def test_integer_clock_zero_jitter(self):
        pps = PpsModel(jitter_ns=0.0, seed=0)
        idx = pps_sample_indices(Fraction(10), pps, 5)
        assert idx == [0, 10, 20, 30, 40]

    def test_non_integer_hz_alternating_counts(self):
        f_a = parse_rational("3000000000.1")
        pps = PpsModel(jitter_ns=0.0)
        idx = pps_sample_indices(f_a, pps, 21)
        counts = np.diff(idx)
        assert set(counts) == {3_000_000_000, 3_000_000_001}
        # long-run accounting: totals track floor(n * f_a) exactly
        assert idx[-1] == (20 * f_a.numerator) // f_a.denominator

    def test_matches_brute_force_oracle(self):
        f_a = Fraction(30_000_000_001, 10)
        pps = PpsModel(jitter_ns=3.0, seed=5)
        ticks = pps.tick_times(8)
        assert pps_sample_indices(f_a, pps, 8) == brute_force_indices(f_a, ticks)

    def test_jitter_spreads_counts(self):
        f_a = Fraction(4_000_000_000)
        pps = PpsModel(jitter_ns=5.0, seed=7)
        idx = pps_sample_indices(f_a, pps, 50)
        counts = np.diff(idx).astype(float)
        spread = np.std(counts - np.mean(counts))
        # 5 ns at 4 GHz is 20 samples of tick sigma; differences ~ sqrt(2) that
        assert 5.0 < spread < 100.0

    def test_kapb_reference_exact(self):
        pps = PpsModel(jitter_ns=0.0)
        idx = pps_sample_indices(Fraction(100_000_000), pps, 12)
        assert all(d == 100_000_000 for d in np.diff(idx))

    def test_long_run_tick_accounting(self):
        # sum of inter-tick counts over n ticks = round(n*f_a) +/- 1
        for f_a in (Fraction(999, 10), Fraction(1004, 10), Fraction(30_000_000_001, 10)):
            pps = PpsModel(jitter_ns=0.0)
            idx = pps_sample_indices(f_a, pps, 11)
            total = idx[-1] - idx[0]
            assert abs(total - round(10 * f_a)) <= 1


class TestSynchronizePps:
    def test_symmetric_case(self):
        # pulse aligned to a cycle edge: run starts at phase 0, center known
        res = synchronize_pps(Fraction(5), Fraction(1), n_phases=8)
        assert res["first_phase"] == 0
        assert res["chosen_phase"] == (8 - 1) // 2
        assert res["resampled_index"] == 6

    def test_sweep_single_registration_step(self):
        clock = Fraction(100)
        base = Fraction(3)  # tick at 3 s = cycle 300
        last = None
        transitions = 0
        for i in range(200):
            tick = base + Fraction(i, 200) / clock  # sweep one clock period
            res = synchronize_pps(tick, clock, n_phases=8)
            if last is not None and res["resampled_index"] != last:
                transitions += 1
                assert res["resampled_index"] == last + 1
            last = res["resampled_index"]
        assert transitions == 1

    def test_drifting_tick_registers_every_second(self):
        clock = Fraction(30_000_000_001, 10)
        indices = []
        for i in range(100):
            # 2 ns/s linear drift of the 1PPS against the clock
            tick = Fraction(i) * (1 + Fraction(2, 1_000_000_000))
            res = synchronize_pps(tick, clock, n_phases=8)
            indices.append(res["resampled_index"])
        gaps = np.diff(indices)
        # exactly one registration per tick, about one second of cycles apart
        assert np.all(gaps >= 3_000_000_000)
        assert np.all(gaps <= 3_000_000_008)

    def test_pulse_too_narrow(self):
        with pytest.raises(PulseTooNarrow):
            synchronize_pps(Fraction(1), Fraction(100), n_phases=8, pulse_width_cycles=Fraction(1, 8))

    def test_deterministic(self):
        a = synchronize_pps(Fraction(123, 7), Fraction(997), n_phases=16)
        b = synchronize_pps(Fraction(123, 7), Fraction(997), n_phases=16)
        assert a == b


class TestAlignFifo:
    def test_identical_ticks(self):
        ticks = [100, 200, 300, 400]
        st = align_fifo(ticks, ticks, window=4)
        assert st.offset_estimate == 0.0
        assert st.fifo_depth == 0

    def test_constant_offset(self):
        kapb = [100, 200, 300, 400, 500]
        ant = [k + 7 for k in kapb]
        st = align_fifo(ant, kapb, window=5)
        assert st.fifo_depth == 7
        assert st.offset_estimate == 7.0

    def test_jittered_centroid(self):
        rng = np.random.default_rng(2)
        kapb = np.arange(64) * 1000
        jitter = rng.integers(-3, 4, size=64)
        ant = kapb + 7 + jitter
        st = align_fifo(list(ant), list(kapb), window=64)
        assert st.offset_estimate == pytest.approx(7.0, abs=3.0 / np.sqrt(64) * 4)
        assert abs(st.offset_estimate - st.fifo_depth) < 0.5

    def test_fiber_wander_absorbed(self):
        # slow drift across the window: residual bounded by the wander
        kapb = np.arange(32) * 1000
        drift = np.linspace(0.0, 4.0, 32)  # 4 samples of wander
        ant = kapb + 10 + np.round(drift).astype(int)
        st = align_fifo(list(ant), list(kapb), window=32)
        assert abs(st.offset_estimate - 12.0) <= 4.0
        assert isinstance(st, AlignmentState)

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            align_fifo([1, 2, 3], [1, 2, 3], window=1)
        with pytest.raises(WindowTooShort):
            align_fifo([1, 2], [1, 2], window=5)


class TestTrace:
    def test_rows_and_counts(self):
        rows = tick_trace_rows(Fraction(1000), PpsModel(jitter_ns=0.0), 4)
        assert [r["sample_index"] for r in rows] == [0, 1000, 2000, 3000]
        assert rows[0]["inter_tick_count"] == ""
        assert rows[1]["inter_tick_count"] == 1000
