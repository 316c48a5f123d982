from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfosim import rational as rational_module
from scfosim.errors import RatioOutOfRange
from scfosim.rational import count_outputs, phase_blocks, phase_run, plan_period, sample_index


def brute_force_steps(ratio, n_steps, frac_width=1024, position=Fraction(0)):
    """Independent oracle: per-step rational rounding, no shared machinery."""
    P = frac_width
    out = []
    prev_g = (Fraction(position) * P).__round__()  # round-half-even on Fraction
    prev_n = (prev_g + P // 2) // P
    pos = Fraction(position)
    for _ in range(n_steps):
        pos += ratio
        g = (pos * P).__round__()
        n = (g + P // 2) // P
        lut = (g + P // 2) % P
        out.append((n - prev_n, lut))
        prev_n = n
    return out, pos


def read_steps(ratio, count, frac_width=1024, position=Fraction(0)):
    """(advances, lut, end) of phase_run's ``count`` steps from ``position``:
    each step's read-pointer advance is the difference of its sample index n
    from the previous one's, so the ramp starts one step early."""
    n, lut, end = phase_run(position - ratio, ratio, frac_width, count + 1)
    return np.diff(n), lut[1:], end


class TestAccumulator:
    """The resampler's read pointer and LUT index, read off phase_run."""

    def test_unity_ratio_identity(self):
        advances, luts, _ = read_steps(Fraction(1), 200)
        assert np.all(advances == 1)
        assert set(luts) == {512}  # zero fraction sits at the center index

    def test_skip_every_thousand(self):
        # ratio 1001/1000: exactly one advance=2 event per 1000 output samples
        advances, _, _ = read_steps(Fraction(1001, 1000), 100_000)
        assert np.count_nonzero(advances == 2) == 100
        events = np.flatnonzero(advances == 2)
        assert np.all(np.diff(events) == 1000)

    def test_repeat_count_oracle(self):
        # frozen from the brute-force oracle: 10 repeats over 10_000 steps
        oracle, _ = brute_force_steps(Fraction(999, 1000), 10_000)
        assert sum(1 for a, _ in oracle if a == 0) == 10
        advances, _, _ = read_steps(Fraction(999, 1000), 10_000)
        assert np.count_nonzero(advances == 0) == 10

    def test_exact_position_after_many_steps(self):
        ratio = Fraction(1_000_001, 1_000_000)
        n = 1_000_000
        _, _, end = phase_run(Fraction(0), ratio, 1024, n)
        assert end == n * ratio  # exact rational equality

    def test_skip_density_converges(self):
        ratio = Fraction(1001, 1000)
        n = 1_000_000
        advances, _, _ = read_steps(ratio, n)
        non_unit = np.count_nonzero(advances != 1)
        assert abs(non_unit / n - abs(float(ratio - 1))) < 2 / n

    def test_lut_period_matches_frac_increment_denominator(self):
        # lut sequence period = denominator of the reduced fractional increment
        for ratio in [Fraction(1001, 1000), Fraction(7, 8), Fraction(13, 12)]:
            period = (ratio - 1).denominator
            _, luts, _ = read_steps(ratio, 4 * period)
            assert np.array_equal(luts[:period], luts[period : 2 * period])
            # and no shorter period divides it unless the oracle says so
            oracle, _ = brute_force_steps(ratio, 2 * period)
            assert [l for _, l in oracle] == list(luts[: 2 * period])

    def test_frac_endpoint_mapping(self):
        def grid_index(position):  # (n, lut) of ``position`` itself
            n, lut, _ = phase_run(position - 1, Fraction(1), 1024, 1)
            return n[0], lut[0]

        # frac exactly -1/2 addresses index 0; frac just below +1/2 addresses P-1
        assert grid_index(Fraction(-1, 2)) == (0, 0)
        assert grid_index(Fraction(1, 2) - Fraction(1, 1000)) == (0, 1023)
        # within 1/(2P) of +1/2 the index folds onto the next sample
        assert grid_index(Fraction(1, 2) - Fraction(1, 10_000)) == (1, 0)

    @given(
        num=st.integers(501, 1499),
        den=st.just(1000),
        start_num=st.integers(-500, 500),
        count=st.integers(1, 300),
    )
    @settings(max_examples=40, deadline=None)
    def test_run_matches_single_steps_and_oracle(self, num, den, start_num, count):
        ratio = Fraction(num, den)
        start = Fraction(start_num, 1000)
        advances, luts, end = read_steps(ratio, count, 256, start)
        oracle, end_pos = brute_force_steps(ratio, count, 256, start)
        assert list(zip(advances.tolist(), luts.tolist())) == oracle
        assert end == end_pos
        assert all(a in (0, 1, 2) for a, _ in oracle)

    @given(
        data=st.data(),
        frac_width=st.sampled_from([2, 256, 1000, 1024]),
        count=st.integers(1, 200),
        tie=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_phase_run_matches_the_oracle(self, data, frac_width, count, tie):
        # a denominator that divides P puts every position of a tie start on a tie
        den = data.draw(st.one_of(st.integers(1, 10**6), st.sampled_from([2, 256, 1000, 1024])))
        ratio = Fraction(data.draw(st.integers(den // 2 + 1, max(den // 2 + 1, (3 * den - 1) // 2))), den)
        if tie:  # start * P on a half-integer, where round-half-even decides
            start = Fraction(2 * data.draw(st.integers(-3 * frac_width, 3 * frac_width)) + 1, 2 * frac_width)
        else:
            start = Fraction(data.draw(st.integers(-(10**6), 10**6)), data.draw(st.integers(1, 10**6)))
        n, lut, end = phase_run(start, ratio, frac_width, count)
        oracle, oracle_end = brute_force_steps(ratio, count, frac_width, start)
        first_n = ((start * frac_width).__round__() + frac_width // 2) // frac_width
        assert list(n) == list(first_n + np.cumsum([a for a, _ in oracle]))
        assert list(lut) == [l for _, l in oracle]
        assert end == oracle_end

    def test_phase_run_huge_denominator_chunks(self):
        # micro-Hz style ratio: exercises the overflow-guard chunking
        ratio = Fraction(3_000_000_000_000_001, 3_000_000_000_000_000)
        n, lut, pos = phase_run(Fraction(0), ratio, 1024, 1000)
        assert pos == 1000 * ratio
        assert np.all(np.diff(n) >= 0)
        oracle, _ = brute_force_steps(ratio, 10, 1024)
        assert [l for _, l in oracle] == list(lut[:10])

    @pytest.mark.parametrize("den", [2**51 - 1, 2**51 + 1, 2**52 - 1, 2**52 + 1, 2**53 - 1, 2**53 + 1])
    def test_a_plan_past_int64_raises_instead_of_wrapping(self, den):
        # from position -ratio the common denominator is den, and a plan on a
        # 1/1024 grid fits int64 while den plus the step den + 1 is at most
        # (2**63 - 1) / 1024; 1 + 1/(2**52 + 1) used to read n = [-4, 1, 2, 3, 4]
        ratio = 1 + Fraction(1, den)
        if den < 2**52:
            n, lut, _ = phase_run(-ratio, ratio, 1024, 5)
            assert (list(n), list(lut)) == grid_positions(-ratio, ratio, 5, 1024)
        else:
            with pytest.raises(RatioOutOfRange, match="overflows int64"):
                phase_run(-ratio, ratio, 1024, 5)


def grid_positions(start, ratio, count, frac_width):
    """Independent oracle: (n, lut) of each position start + (j+1)*ratio, one
    Fraction at a time, for any ratio, negative and zero included."""
    P = frac_width
    ns, luts = [], []
    for j in range(1, count + 1):
        g = round((start + j * ratio) * P) + P // 2  # Fraction rounds half-even
        ns.append(g // P)
        luts.append(g % P)
    return ns, luts


class TestPeriodicPlan:
    """phase_run over several periods of its plan, the span phase_blocks
    repeats: den steps, or 2*den when num * P is odd, since an odd move of g
    flips round-half-even's ties."""

    @given(
        data=st.data(),
        frac_width=st.sampled_from([1, 2, 3, 5, 7, 256, 1023, 1024]),
        den=st.integers(1, 16),
        tie=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_oracle_over_several_periods(self, data, frac_width, den, tie):
        num = data.draw(st.integers(-2 * den, 2 * den))
        ratio = Fraction(num, den)
        period = ratio.denominator * (1 if ratio.numerator * frac_width % 2 == 0 else 2)
        count = data.draw(st.integers(0, 4 * period))
        if tie:  # start * P on a half-integer, where round-half-even decides
            start = Fraction(2 * data.draw(st.integers(-3 * frac_width, 3 * frac_width)) + 1, 2 * frac_width)
        else:
            start = Fraction(data.draw(st.integers(-1000, 1000)), data.draw(st.integers(1, 1000)))
        n, lut, end = phase_run(start, ratio, frac_width, count)
        assert (list(n), list(lut)) == grid_positions(start, ratio, count, frac_width)
        assert n.dtype == lut.dtype == np.int64
        assert end == start + count * ratio

    def test_an_odd_move_doubles_the_period(self):
        # P = 1, ratio 1: every position is a tie, and one step moves g by 1,
        # so ties alternate between rounding down and up; a plan repeated
        # every step would read [0, 1, 2, 3]
        n, lut, end = phase_run(Fraction(-3, 2), Fraction(1), 1, 4)
        assert list(n) == [0, 0, 2, 2]
        assert list(lut) == [0, 0, 0, 0]
        assert end == Fraction(5, 2)

    @pytest.mark.parametrize("frac_width", [1, 3, 1023, 1024])
    @pytest.mark.parametrize(
        "ratio", [Fraction(1001, 1000), Fraction(7, 5), Fraction(-3, 4), Fraction(-1), Fraction(0)]
    )
    def test_counts_around_one_period(self, frac_width, ratio):
        period = ratio.denominator * (1 if ratio.numerator * frac_width % 2 == 0 else 2)
        for start in (Fraction(-3, 2 * frac_width), Fraction(5, 7)):
            for count in (period - 1, period, period + 1):
                n, lut, end = phase_run(start, ratio, frac_width, count)
                assert (list(n), list(lut)) == grid_positions(start, ratio, count, frac_width)
                assert end == start + count * ratio


class TestPhaseBlocks:
    """phase_blocks yields each plan of phase_run once, as (rel, lut, starts),
    with every piece of at most ``most`` steps it applies to; where a period
    fits in a piece every whole piece shares one plan of whole periods,
    planned once, and the tail is a prefix of it."""

    @given(
        data=st.data(),
        frac_width=st.sampled_from([1, 3, 1023, 1024]),
        den=st.integers(1, 40),
        fit=st.sampled_from(["below", "at", "above"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_starts_expand_to_phase_run(self, data, frac_width, den, fit):
        # ratios of both signs and 0, lap 1 and 2; ``most`` below, at and
        # above the plan period
        ratio = Fraction(data.draw(st.integers(-2 * den, 2 * den)), den)
        period = plan_period(ratio, frac_width)
        most = {"below": data.draw(st.integers(1, max(period - 1, 1))), "at": period}.get(fit)
        most = most or data.draw(st.integers(period + 1, 5 * period))
        count = data.draw(st.integers(0, 6 * period + 3))
        start = Fraction(data.draw(st.integers(-1000, 1000)), data.draw(st.integers(1, 1000)))
        entries = list(phase_blocks(start, ratio, frac_width, count, most))
        n, lut, _ = phase_run(start, ratio, frac_width, count)
        pieces = sorted((lo, base, rel, pl) for rel, pl, starts in entries for lo, base in starts)
        lens = [len(rel) for _, _, rel, _ in pieces]
        assert [lo for lo, *_ in pieces] == [sum(lens[:i]) for i in range(len(pieces))]
        assert sum(lens) == count and all(0 < k <= most for k in lens)
        assert [starts[0][0] for *_, starts in entries] == sorted(starts[0][0] for *_, starts in entries)
        for rel, pl, starts in entries:
            assert len(pl) == len(rel) and not (rel.flags.writeable or pl.flags.writeable)
            (lo0, base0), *rest = starts
            for lo, base in rest:  # whole periods on, so the plan repeats
                assert (lo - lo0) % period == 0 and base - base0 == (lo - lo0) * ratio
        if period <= most:  # each piece but the last whole periods, all on one plan, and the tail
            assert all(k % period == 0 for k in lens[:-1])
            assert len(entries) == (count >= most // period * period) + (count % (most // period * period) > 0)
        else:
            assert len(entries) == len(pieces)
        assert [base + v for _, base, rel, _ in pieces for v in rel.tolist()] == n.tolist()
        assert [v for *_, pl in pieces for v in pl.tolist()] == lut.tolist()

    @pytest.mark.parametrize(
        "ratio, frac_width, period",
        [(Fraction(1001, 1000), 1024, 1000), (Fraction(1), 1, 2), (Fraction(-3, 4), 3, 8), (Fraction(0), 1, 1)],
    )
    def test_the_period_is_den_or_twice_den_when_num_times_p_is_odd(self, ratio, frac_width, period):
        assert plan_period(ratio, frac_width) == period

    def test_each_plan_is_planned_once(self, monkeypatch):
        calls = []
        original = rational_module.phase_run
        monkeypatch.setattr(rational_module, "phase_run", lambda *args: calls.append(args[3]) or original(*args))
        ratio = 1 + Fraction(53, 50_000)  # period 50,000
        entries = list(phase_blocks(Fraction(-7, 3), ratio, 1024, 230_000, 1 << 16))
        assert [(len(rel), [lo for lo, _ in starts]) for rel, _, starts in entries] == [
            (50_000, [0, 50_000, 100_000, 150_000]),
            (30_000, [200_000]),
        ]
        assert np.shares_memory(entries[0][0], entries[1][0]) and np.shares_memory(entries[0][1], entries[1][1])
        assert calls == [50_000]
        calls.clear()
        entries = list(phase_blocks(Fraction(-7, 3), ratio, 1024, 230_000, 40_000))  # shorter than a period
        assert [(len(rel), len(starts)) for rel, _, starts in entries] == [(40_000, 1)] * 5 + [(30_000, 1)]
        assert calls == [40_000] * 5 + [30_000]

    @pytest.mark.parametrize("most", [1, 999, 1000, 1 << 16])
    def test_no_steps_yield_no_entry(self, most):
        assert list(phase_blocks(Fraction(-7, 3), Fraction(1001, 1000), 1024, 0, most)) == []


def brute_force_count(position, ratio, frac_width, last_n):
    """Outputs whose sample index n stays <= last_n, one Fraction at a time."""
    P = frac_width
    count = 0
    while (round((position + (count + 1) * ratio) * P) + P // 2) // P <= last_n:
        count += 1
    return count


class TestCountOutputs:
    @given(
        num=st.integers(501, 1499),
        den=st.sampled_from([1000, 997, 1024]),
        width=st.sampled_from([1, 2, 8, 256, 1024]),
        last_n=st.integers(-3, 60),
        start=st.one_of(
            st.fractions(Fraction(-5), Fraction(5), max_denominator=5000),
            # fractional part exactly +-1/2
            st.integers(-5, 5).map(lambda k: k + Fraction(1, 2)),
        ),
        tie=st.integers(0, 40),
        on_tie=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_single_steps(self, num, den, width, last_n, start, tie, on_tie):
        ratio = Fraction(num, den)
        if not Fraction(1, 2) < ratio < Fraction(3, 2):
            return
        if on_tie:
            # output tie+1 lands exactly on the rounding tie G + 1/2 of the bound
            G = (last_n + 1) * width - width // 2 - 1
            start = Fraction(2 * G + 1, 2 * width) - (tie + 1) * ratio
        want = brute_force_count(start, ratio, width, last_n)
        assert count_outputs(start, ratio, width, last_n) == want

    @pytest.mark.parametrize("width, counted", [(1024, 0), (2, 1)])
    def test_tie_rounds_half_to_even(self, width, counted):
        # the first output lands on x = H + 1/2 - 1/(2P), where x*P = G + 1/2
        # exactly; G = (H+1)P - P/2 - 1 is odd for P >= 4 (the tie rounds up to
        # sample H+1) and even for P = 2 (it rounds down and stays on H)
        ratio, last_n = Fraction(1), 5
        x = last_n + Fraction(1, 2) - Fraction(1, 2 * width)
        assert count_outputs(x - ratio, ratio, width, last_n) == counted
        assert brute_force_count(x - ratio, ratio, width, last_n) == counted


STARTS = st.one_of(
    st.fractions(Fraction(-20), Fraction(20), max_denominator=5000),
    st.integers(-20, 20).map(lambda k: k + Fraction(1, 2)),  # a rounding tie
)


@pytest.mark.parametrize(
    "num,den,expect",
    [(1, 2, 0), (3, 2, 2), (5, 2, 2), (7, 2, 4), (-1, 2, 0), (-3, 2, -2), (4, 3, 1), (5, 3, 2)],
)
def test_sample_index_rounds_ties_to_even(num, den, expect):
    # on a 1/1 grid the sample index is the position rounded, ties to even
    assert sample_index(Fraction(num, den), 1) == expect


@given(position=STARTS, width=st.sampled_from([2, 8, 256, 1024]))
@settings(max_examples=200, deadline=None)
def test_sample_index_is_the_read_pointer_phase_run_gives(position, width):
    n, _, _ = phase_run(position - 1, Fraction(1), width, 1)
    assert sample_index(position, width) == n[0]
