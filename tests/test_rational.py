from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfosim.errors import NegativeFrequency, RatioOutOfRange, ZeroDenominator
from scfosim.rational import (
    PhaseAccumulator,
    accumulator_step,
    count_outputs,
    make_rational,
    parse_frequency,
    phase_run,
    round_half_even,
)


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


class TestMakeRational:
    def test_band1_clock_exact(self):
        f = make_rational(4_000_000_000, 1)
        assert f == Fraction(4_000_000_000)
        assert float(f) == 4.0e9

    def test_gcd_reduction(self):
        f = make_rational(2, 4)
        assert f.numerator == 1 and f.denominator == 2

    def test_non_integer_hz_exact(self):
        f = make_rational(30_000_000_001, 10)
        assert f == Fraction(30_000_000_001, 10)
        assert f * 10 == 30_000_000_001

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            make_rational(1, 0)

    def test_negative_rejected(self):
        with pytest.raises(NegativeFrequency):
            make_rational(-3, 7)
        # sign normalized onto numerator first, so -3/-7 is fine
        assert make_rational(-3, -7) == Fraction(3, 7)


class TestParse:
    def test_slash_form(self):
        assert parse_frequency("30000000001/10") == Fraction(30_000_000_001, 10)

    def test_decimal_exact(self):
        # exact decimal expansion, not float rounding
        assert parse_frequency("3000000000.1") == Fraction(30_000_000_001, 10)
        assert parse_frequency("0.1") == Fraction(1, 10)

    def test_negative_rejected(self):
        with pytest.raises(NegativeFrequency):
            parse_frequency("-1/2")

    def test_zero_den(self):
        with pytest.raises(ZeroDenominator):
            parse_frequency("1/0")


class TestRoundHalfEven:
    @pytest.mark.parametrize(
        "num,den,expect",
        [(1, 2, 0), (3, 2, 2), (5, 2, 2), (7, 2, 4), (-1, 2, 0), (-3, 2, -2), (4, 3, 1), (5, 3, 2)],
    )
    def test_cases(self, num, den, expect):
        assert round_half_even(num, den) == expect

    @given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
    def test_matches_python_round_of_fraction(self, num, den):
        assert round_half_even(num, den) == round(Fraction(num, den))


class TestAccumulator:
    def test_unity_ratio_identity(self):
        acc = PhaseAccumulator(Fraction(1), 1024)
        luts = set()
        for _ in range(200):
            advance, lut = acc.step()
            assert advance == 1
            luts.add(lut)
        assert luts == {512}  # zero fraction sits at the center index

    def test_skip_every_thousand(self):
        # ratio 1001/1000: exactly one advance=2 event per 1000 output samples
        acc = PhaseAccumulator(Fraction(1001, 1000), 1024)
        advances, _ = acc.run(100_000)
        assert np.count_nonzero(advances == 2) == 100
        events = np.flatnonzero(advances == 2)
        assert np.all(np.diff(events) == 1000)

    def test_repeat_count_oracle(self):
        # frozen from the brute-force oracle: 10 repeats over 10_000 steps
        oracle, _ = brute_force_steps(Fraction(999, 1000), 10_000)
        assert sum(1 for a, _ in oracle if a == 0) == 10
        acc = PhaseAccumulator(Fraction(999, 1000), 1024)
        advances, _ = acc.run(10_000)
        assert np.count_nonzero(advances == 0) == 10

    def test_exact_position_after_many_steps(self):
        ratio = Fraction(1_000_001, 1_000_000)
        acc = PhaseAccumulator(ratio, 1024)
        n = 1_000_000
        acc.run(n)
        assert acc.position == n * ratio  # exact rational equality

    def test_skip_density_converges(self):
        ratio = Fraction(1001, 1000)
        acc = PhaseAccumulator(ratio, 1024)
        n = 1_000_000
        advances, _ = acc.run(n)
        non_unit = np.count_nonzero(advances != 1)
        assert abs(non_unit / n - abs(float(ratio - 1))) < 2 / n

    def test_lut_period_matches_frac_increment_denominator(self):
        # lut sequence period = denominator of the reduced fractional increment
        for ratio in [Fraction(1001, 1000), Fraction(7, 8), Fraction(13, 12)]:
            period = (ratio - 1).denominator
            acc = PhaseAccumulator(ratio, 1024)
            _, luts = acc.run(4 * period)
            assert np.array_equal(luts[:period], luts[period : 2 * period])
            # and no shorter period divides it unless the oracle says so
            oracle, _ = brute_force_steps(ratio, 2 * period)
            assert [l for _, l in oracle] == list(luts[: 2 * period])

    def test_frac_endpoint_mapping(self):
        # frac exactly -1/2 addresses index 0; frac just below +1/2 addresses P-1
        acc = PhaseAccumulator(Fraction(1), 1024, position=Fraction(-1, 2))
        n, lut = acc.grid_index()
        assert lut == 0 and n == 0
        acc = PhaseAccumulator(Fraction(1), 1024, position=Fraction(1, 2) - Fraction(1, 1000))
        n, lut = acc.grid_index()
        assert lut == 1023 and n == 0
        # within 1/(2P) of +1/2 the index folds onto the next sample
        acc = PhaseAccumulator(Fraction(1), 1024, position=Fraction(1, 2) - Fraction(1, 10_000))
        n, lut = acc.grid_index()
        assert lut == 0 and n == 1

    def test_ratio_out_of_range(self):
        with pytest.raises(RatioOutOfRange):
            PhaseAccumulator(Fraction(3, 2), 1024)
        with pytest.raises(RatioOutOfRange):
            PhaseAccumulator(Fraction(1, 2), 1024)

    def test_functional_step_leaves_input_untouched(self):
        acc = PhaseAccumulator(Fraction(1001, 1000), 1024)
        advance, lut, acc2 = accumulator_step(acc)
        assert acc.position == 0
        assert acc2.position == Fraction(1001, 1000)
        assert advance == 1

    @given(
        num=st.integers(501, 1499),
        den=st.just(1000),
        start_num=st.integers(-500, 500),
        count=st.integers(1, 300),
    )
    @settings(max_examples=40, deadline=None)
    def test_run_matches_single_steps_and_oracle(self, num, den, start_num, count):
        ratio = Fraction(num, den)
        if not Fraction(1, 2) < ratio < Fraction(3, 2):
            return
        start = Fraction(start_num, 1000)
        acc_a = PhaseAccumulator(ratio, 256, position=start)
        acc_b = PhaseAccumulator(ratio, 256, position=start)
        adv_vec, lut_vec = acc_a.run(count)
        singles = [acc_b.step() for _ in range(count)]
        assert list(adv_vec) == [a for a, _ in singles]
        assert list(lut_vec) == [l for _, l in singles]
        oracle, end_pos = brute_force_steps(ratio, count, 256, start)
        assert singles == oracle
        assert acc_a.position == end_pos
        assert all(a in (0, 1, 2) for a, _ in singles)

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


def brute_force_count(position, ratio, frac_width, last_n):
    """Outputs whose sample index n stays <= last_n, by single accumulator steps."""
    acc = PhaseAccumulator(ratio, frac_width, position=position)
    count = 0
    while True:
        acc.step()
        if acc.grid_index()[0] > last_n:
            return count
        count += 1


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
