from fractions import Fraction

import numpy as np
import pytest

from scfosim.errors import TapCountNotDivisible
from scfosim.frontend import SampleStream
from scfosim.polyphase import (
    CommutatorState,
    demux_resample,
    slice_phase_table,
    verify_demux,
)
from scfosim.rational import PhaseAccumulator, accumulator_step
from scfosim.resampler import CoefficientBank, design_bank, resample


@pytest.fixture(scope="module")
def bank56():
    return design_bank(56, 1024, 19)


def constant_bank(n_taps, phases=2):
    table = np.full((phases, n_taps), 1.0 / n_taps)
    return CoefficientBank(
        taps_per_phase=n_taps,
        phases=phases,
        coeff_bits=None,
        table=table,
        table_int=None,
        window="constant",
        beta=0.0,
        cutoff=1.0,
        passband=(0.0, 1.0),
    )


def rand_stream(n, rate, seed=0):
    rng = np.random.default_rng(seed)
    return SampleStream(rate=Fraction(rate), epoch=Fraction(0), data=rng.standard_normal(n))


class TestSlicePhaseTable:
    def test_unit_ratio_equal_fracs(self):
        acc = PhaseAccumulator(Fraction(1), 1024)
        table = slice_phase_table(acc, 4)
        assert all(f == table.fracs[0] for f in table.fracs)
        assert np.all(table.advances == 1)

    def test_linear_phase_progression(self):
        delta = Fraction(1, 100)
        acc = PhaseAccumulator(1 + delta, 1024)
        table = slice_phase_table(acc, 3)
        # fractions advance by exactly delta per slice (mod the +/-0.5 fold)
        f0 = table.fracs[0]
        for j, f in enumerate(table.fracs):
            expect = f0 + j * delta
            expect -= round(expect)
            assert f == expect

    def test_matches_sequential_steps(self):
        for ratio in (Fraction(1001, 1000), Fraction(993, 1000), Fraction(9, 8)):
            acc = PhaseAccumulator(ratio, 256, position=Fraction(3, 7))
            table = slice_phase_table(acc, 8)
            seq = []
            walker = acc
            for _ in range(8):
                a, l, walker = accumulator_step(walker)
                seq.append((a, l))
            assert list(zip(table.advances, table.lut_indices)) == seq
            # pure: the original accumulator did not move
            assert acc.position == Fraction(3, 7)

    def test_then_advancing_by_k_equals_k_steps(self):
        acc = PhaseAccumulator(Fraction(1001, 1000), 1024)
        acc.run(17)  # arbitrary starting state
        table = slice_phase_table(acc, 5)
        adv, lut = acc.run(5)
        assert np.array_equal(table.advances, adv)
        assert np.array_equal(table.lut_indices, lut)


class TestDemuxEquivalence:
    def test_k1_degenerate_identical(self, bank56):
        s = rand_stream(20_000, Fraction(1001, 1))
        direct = resample(s, Fraction(1000), bank56)
        demux = demux_resample(s, Fraction(1000), bank56, k=1)
        m = min(len(direct), len(demux))
        assert np.array_equal(direct.data[:m], demux.data[:m])

    def test_constant_tap_direct_form(self):
        # k=3, N=9, constant taps, unit ratio: the demuxed structure must
        # reproduce the plain direct-form FIR sample for sample
        bank = constant_bank(9)
        s = rand_stream(3000, Fraction(1000))
        demux = demux_resample(s, Fraction(1000), bank, k=3)
        direct = resample(s, Fraction(1000), bank)
        m = min(len(direct), len(demux))
        assert np.array_equal(demux.data[:m], direct.data[:m])
        # at unit ratio output k is the moving average of x[k .. k+8]
        fir = np.convolve(s.data, np.full(9, 1.0 / 9.0), mode="valid")
        assert np.allclose(demux.data[:m], fir[:m], atol=1e-15)

    def test_bit_identical_with_skips(self, bank56):
        s = rand_stream(105_000, Fraction(1001, 1000) * 1_000_000, seed=3)
        direct = resample(s, Fraction(1_000_000), bank56)
        demux = demux_resample(s, Fraction(1_000_000), bank56, k=8)
        m = min(len(direct), len(demux))
        assert m >= 100_000
        assert np.array_equal(direct.data[:m], demux.data[:m])
        # make sure the run really contained skip events
        acc = PhaseAccumulator(Fraction(1001, 1000), 1024)
        adv, _ = acc.run(m)
        assert np.count_nonzero(adv == 2) > 50

    @pytest.mark.parametrize("start", [Fraction(0), Fraction(-1, 2), Fraction(1, 3)])
    def test_keeps_every_whole_block_of_direct(self, bank56, start):
        # at this length a float estimate of the output count fell short of
        # the last whole block (1936 instead of 1944 outputs)
        s = rand_stream(2001, Fraction(1001, 1000) * 1_000_000, seed=7)
        direct = resample(s, Fraction(1_000_000), bank56, start_position=start)
        demux = demux_resample(s, Fraction(1_000_000), bank56, k=8, start_position=start)
        assert len(demux) == (len(direct) // 8) * 8
        assert np.array_equal(demux.data, direct.data[: len(demux)])

    def test_fixed_point_bit_identical(self, bank56):
        from scfosim.frontend import QuantKind, QuantizerSpec, quantize

        s = rand_stream(50_000, Fraction(999, 1000) * 1_000_000, seed=4)
        q = quantize(s, QuantizerSpec(QuantKind.Q8_UNIFORM))
        direct = resample(q, Fraction(1_000_000), bank56, fixed_point=True)
        demux = demux_resample(q, Fraction(1_000_000), bank56, k=4, fixed_point=True)
        m = min(len(direct), len(demux))
        assert np.array_equal(direct.data[:m], demux.data[:m])

    def test_verify_demux_helper(self, bank56):
        res = verify_demux(bank56, Fraction(1001, 1000), 30_000, k=8, seed=1)
        assert res["passed"] and res["first_divergence"] is None
        assert res["checked"] > 25_000

    def test_tap_count_not_divisible(self, bank56):
        s = rand_stream(2000, Fraction(1000))
        with pytest.raises(TapCountNotDivisible):
            demux_resample(s, Fraction(1000), bank56, k=5)

    def test_work_accounting(self, bank56):
        s = rand_stream(30_000, Fraction(1001, 1000) * 1_000_000, seed=5)
        stats = {}
        demux = demux_resample(s, Fraction(1_000_000), bank56, k=8, stats=stats)
        assert stats["multiplies"] == stats["outputs"] * 56
        assert stats["outputs"] == len(demux)
        # same arithmetic as direct form: N multiplies per output sample
        direct = resample(s, Fraction(1_000_000), bank56)
        assert abs(len(direct) - stats["outputs"]) < 8  # whole blocks only

    def test_commutator_roll_tracks_consumption(self, bank56):
        s = rand_stream(30_000, Fraction(1001, 1000) * 1_000_000, seed=6)
        stats = {}
        demux_resample(s, Fraction(1_000_000), bank56, k=8, stats=stats)
        # total consumed inputs mod k defines the final barrel position
        acc = PhaseAccumulator(Fraction(1001, 1000), 1024)
        adv, _ = acc.run(stats["outputs"])
        assert stats["final_roll_offset"] == int(adv.sum()) % 8


class TestCommutatorState:
    def test_roll_wraps(self):
        c = CommutatorState(k=3)
        c.roll(3)
        assert c.roll_offset == 0
        c.roll(4)  # a skip inside the block shifts the barrel by the surplus
        assert c.roll_offset == 1
        c.roll(2)  # a repeat shifts it back
        assert c.roll_offset == 0
        assert c.blocks == 3
