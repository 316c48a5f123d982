from fractions import Fraction

import numpy as np
import pytest

from scfosim.errors import StreamTooShort, TapCountNotDivisible
from scfosim.frontend import SampleStream
from scfosim.polyphase import demux_resample
from scfosim.rational import phase_run
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
    )


def rand_stream(n, rate, seed=0):
    rng = np.random.default_rng(seed)
    return SampleStream(rate=Fraction(rate), epoch=Fraction(0), data=rng.standard_normal(n))


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
        n, _, _ = phase_run(Fraction(0), Fraction(1001, 1000), 1024, m)
        assert np.count_nonzero(np.diff(n, prepend=0) == 2) > 50

    @pytest.mark.parametrize("start", [Fraction(0), Fraction(-1, 2), Fraction(1, 3)])
    def test_keeps_every_whole_block_of_direct(self, bank56, start):
        # at 2001 samples direct gives 1944 outputs, where a float estimate of
        # the output count once fell short of the last whole block (1936); at
        # 2006 the cut drops 5 outputs.  ``start`` is the stream's epoch, which
        # moves the output epoch and no sample
        for n, outputs in ((2001, 1944), (2006, 1949)):
            s = SampleStream(
                rate=Fraction(1001, 1000) * 1_000_000,
                epoch=start,
                data=np.random.default_rng(7).standard_normal(n),
            )
            direct = resample(s, Fraction(1_000_000), bank56)
            demux = demux_resample(s, Fraction(1_000_000), bank56, k=8)
            end = (outputs // 8) * 8
            assert (len(direct), len(demux)) == (outputs, end)
            assert np.array_equal(demux.data, direct.data[:end])
            assert demux.epoch == direct.epoch == start + Fraction(55, 2) / s.rate

    def test_fewer_outputs_than_a_block(self, bank56):
        s = rand_stream(60, Fraction(1000))
        assert 0 < len(resample(s, Fraction(1000), bank56)) < 8
        with pytest.raises(StreamTooShort):
            demux_resample(s, Fraction(1000), bank56, k=8)

    def test_fixed_point_bit_identical(self, bank56):
        from scfosim.frontend import QuantKind, QuantizerSpec, quantize

        s = rand_stream(50_000, Fraction(999, 1000) * 1_000_000, seed=4)
        q = quantize(s, QuantizerSpec(QuantKind.Q8_UNIFORM))
        direct = resample(q, Fraction(1_000_000), bank56, fixed_point=True)
        demux = demux_resample(q, Fraction(1_000_000), bank56, k=4, fixed_point=True)
        m = min(len(direct), len(demux))
        assert np.array_equal(direct.data[:m], demux.data[:m])

    def test_tap_count_not_divisible(self, bank56):
        s = rand_stream(2000, Fraction(1000))
        with pytest.raises(TapCountNotDivisible):
            demux_resample(s, Fraction(1000), bank56, k=5)

    def test_k_below_one_rejected(self, bank56):
        s = rand_stream(2000, Fraction(1000))
        with pytest.raises(ValueError, match="k must be >= 1"):
            demux_resample(s, Fraction(1000), bank56, k=0)
