import math
from fractions import Fraction

import numpy as np
import pytest

from scfosim.errors import EmptyBand, UnknownAntenna
from scfosim.signal import (
    TONE_BLOCK,
    InterferenceKind,
    InterferenceSpec,
    SampleGrid,
    Tone,
    ToneBankSignal,
    combine,
    eval_tones,
    inject,
    synth_signal,
)


class TestSynth:
    def test_single_tone_rms_one(self):
        sig = synth_signal(seed=1, n_tones=1, band=(0.2, 0.2))
        assert len(sig.tones) == 1
        tone = sig.tones[0]
        assert tone.freq_hz == 0.2
        # RMS of a sin(.) is a/sqrt(2); normalization makes that 1.0
        assert tone.amplitude == pytest.approx(np.sqrt(2.0))
        grid = SampleGrid(Fraction(20_000), 0, 100_000)  # 5 s, integer periods of f=0.2
        measured = np.sqrt(np.mean(eval_tones(*sig.arrays(), grid) ** 2))
        assert measured == pytest.approx(1.0, rel=1e-3)

    def test_determinism(self):
        a = synth_signal(seed=1, n_tones=64, band=(1e6, 2e6))
        b = synth_signal(seed=1, n_tones=64, band=(1e6, 2e6))
        assert a == b  # byte-identical tone tuples
        c = synth_signal(seed=2, n_tones=64, band=(1e6, 2e6))
        assert a != c

    def test_band_occupancy_flat_within_6db(self):
        sig = synth_signal(seed=1, n_tones=256, band=(250e6, 2.75e9))
        edges = np.linspace(250e6, 2.75e9, 33)
        power = np.zeros(32)
        for tone in sig.tones:
            b = min(np.searchsorted(edges, tone.freq_hz, side="right") - 1, 31)
            power[b] += tone.amplitude**2 / 2.0
        mean = power.mean()
        ratio_db = 10 * np.log10(power / mean)
        assert np.all(np.abs(ratio_db) < 6.0)

    def test_total_rms_normalized(self):
        sig = synth_signal(seed=3, n_tones=100, band=(1.0, 10.0))
        assert sig.rms() == pytest.approx(1.0)
        sig2 = synth_signal(seed=3, n_tones=100, band=(1.0, 10.0), rms=0.25)
        assert sig2.rms() == pytest.approx(0.25)

    def test_empty_band(self):
        with pytest.raises(EmptyBand):
            synth_signal(seed=1, n_tones=4, band=(2.0, 1.0))


def on_grid(sig, rate, start, count):
    """``sig`` at samples start .. start+count-1 of the grid t_n = n / rate."""
    return eval_tones(*sig.arrays(), SampleGrid(Fraction(rate), start, count))


class TestEval:
    def test_empty_bank_is_zero(self):
        sig = ToneBankSignal(tones=(), seed=0, band=(0.0, 1.0))
        assert on_grid(sig, 100, 37, 1)[0] == 0.0  # t = 0.37 s

    def test_quarter_period_peak(self):
        sig = ToneBankSignal(tones=(Tone(1.0, 1.0, 0.0),), seed=0, band=(1.0, 1.0))
        assert on_grid(sig, 4, 1, 1)[0] == pytest.approx(1.0)  # t = 0.25 s

    def test_periodicity(self):
        # one period of the 3 Hz tone is 100 samples at 300 samples/s
        sig = ToneBankSignal(tones=(Tone(0.7, 3.0, 1.1),), seed=0, band=(3.0, 3.0))
        idx = np.array([3, 36, 120])  # t = 0.01, 0.12, 0.4 s
        x = on_grid(sig, 300, 0, 300)
        assert x[idx] == pytest.approx(x[idx + 100], abs=1e-12)

    def test_linearity(self):
        a = synth_signal(seed=5, n_tones=16, band=(1.0, 5.0))
        b = synth_signal(seed=6, n_tones=16, band=(1.0, 5.0))
        both = combine(a, b)
        # 257 samples of 1/256 s, t = 0 .. 1 s
        assert on_grid(a, 256, 0, 257) + on_grid(b, 256, 0, 257) == pytest.approx(
            on_grid(both, 256, 0, 257), abs=1e-12
        )


def chain_bank():
    """The requant-loss chain's bank: 16 sky plus 16 noise tones at f_c = 1 MHz."""
    band = (0.0833 * 5e5, 0.9167 * 5e5)
    return combine(synth_signal(1, 16, band), synth_signal(1110, 16, band)).arrays()


def exact_tones(amps, freqs, phases, rate, indices, epoch=Fraction(0)):
    """sum a sin(2 pi frac(f (epoch + n / rate)) + phi) with the phase reduced in exact rationals."""
    out = []
    for n in indices:
        total = 0.0
        for a, f, p in zip(amps, freqs, phases):
            cyc = Fraction(float(f)) * (epoch + Fraction(n) / rate)
            total += a * math.sin(2 * math.pi * float(cyc - math.floor(cyc)) + p)
        out.append(total)
    return np.array(out)


class TestEvalTonesGrid:
    F_C = Fraction(1_000_000)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("start", [0, 100_000_000 - 700])
    def test_matches_exact_phase_oracle(self, sign, start):
        amps, freqs, phases = chain_bank()
        rate = self.F_C * (1 + sign * Fraction(1, 10000))
        count = 2 * TONE_BLOCK + 300
        got = eval_tones(amps, freqs, phases, SampleGrid(rate, start, count))
        assert got.shape == (count,)
        picks = np.r_[0:40, TONE_BLOCK - 20 : TONE_BLOCK + 20, count - 40 : count]
        want = exact_tones(amps, freqs, phases, rate, [start + int(j) for j in picks])
        assert np.max(np.abs(got[picks] - want)) < 1e-11

    @pytest.mark.parametrize("epoch", [Fraction(0), Fraction(123_456_789, 7) + Fraction(1, 3 * 10**9)])
    @pytest.mark.parametrize("start", [0, 5_000_000 - 300])
    def test_epoch_matches_exact_phase_oracle(self, epoch, start):
        # t_n = epoch + n / rate; the epoch (here up to ~1.8e7 s, far from a
        # whole number of any tone's periods) enters each block's phase exactly
        amps, freqs, phases = chain_bank()
        rate = self.F_C * (1 + Fraction(1, 10000))
        count = TONE_BLOCK + 600
        got = eval_tones(amps, freqs, phases, SampleGrid(rate, start, count, epoch))
        picks = np.r_[0:30, TONE_BLOCK - 310 : TONE_BLOCK - 290, count - 30 : count]
        want = exact_tones(amps, freqs, phases, rate, [start + int(j) for j in picks], epoch)
        assert np.max(np.abs(got[picks] - want)) < 1e-11

    def test_close_to_float_time_form(self):
        amps, freqs, phases = chain_bank()
        rate = self.F_C * (1 + Fraction(1, 10000))
        got = eval_tones(amps, freqs, phases, SampleGrid(rate, 12_345, 5000))
        t = float(Fraction(12_345) / rate) + np.arange(5000) / float(rate)
        assert np.max(np.abs(got - eval_tones(amps, freqs, phases, t))) < 1e-8

    @pytest.mark.parametrize("chunk", [1, 5, 1000, TONE_BLOCK, TONE_BLOCK + 1, 3 * TONE_BLOCK - 7])
    def test_bit_identical_across_chunkings(self, chunk):
        amps, freqs, phases = chain_bank()
        rate = self.F_C * (1 - Fraction(1, 10000))
        start, total = 3 * TONE_BLOCK - 2, 4 * TONE_BLOCK + 11
        whole = eval_tones(amps, freqs, phases, SampleGrid(rate, start, total))
        if chunk == 1:
            total = 40  # crosses a block boundary
        pieces = [
            eval_tones(amps, freqs, phases, SampleGrid(rate, n, min(chunk, start + total - n)))
            for n in range(start, start + total, chunk)
        ]
        assert np.array_equal(np.concatenate(pieces), whole[:total])

    def test_empty_bank_and_empty_grid(self):
        none = np.zeros(0)
        assert np.array_equal(eval_tones(none, none, none, SampleGrid(Fraction(10), 3, 4)), np.zeros(4))
        amps, freqs, phases = chain_bank()
        assert len(eval_tones(amps, freqs, phases, SampleGrid(Fraction(10**6), 0, 0))) == 0

    def test_numpy_integer_start(self):
        # the block phase is reduced in Python integers, not in int64
        amps, freqs, phases = chain_bank()
        rate = self.F_C * (1 + Fraction(1, 10000))
        want = eval_tones(amps, freqs, phases, SampleGrid(rate, 4097, 50))
        assert np.array_equal(eval_tones(amps, freqs, phases, SampleGrid(rate, np.int64(4097), 50)), want)


class TestInject:
    def setup_method(self):
        self.clocks = {
            "m001": Fraction(4_000_000_000),
            "m002": Fraction(4_000_100_000),
        }
        self.sig = synth_signal(seed=1, n_tones=8, band=(0.25e9, 2.75e9))

    def test_self_clock_quarter_harmonic(self):
        spec = InterferenceSpec(
            kind=InterferenceKind.SELF_CLOCK_DERIVED,
            amplitude=0.01,
            clock_scale=Fraction(1, 4),
        )
        out = inject(self.sig, spec, self.clocks, antenna="m001")
        assert out.tones[-1].freq_hz == 1.0e9
        assert not out.tones[-1].out_of_band

    def test_cross_leak_uses_other_antennas_clock(self):
        spec = InterferenceSpec(
            kind=InterferenceKind.CROSS_CLOCK_LEAK,
            amplitude=0.01,
            clock_scale=Fraction(1, 4),
            source_antenna="m002",
        )
        out = inject(self.sig, spec, self.clocks, antenna="m001")
        assert out.tones[-1].freq_hz == 4_000_100_000 / 4

    def test_fixed_rf_out_of_band_tagged(self):
        spec = InterferenceSpec(
            kind=InterferenceKind.FIXED_RF, amplitude=0.02, freq_hz=3.1e9
        )
        out = inject(self.sig, spec, self.clocks, antenna="m001")
        assert out.tones[-1].freq_hz == 3.1e9
        assert out.tones[-1].out_of_band

    def test_unknown_antenna(self):
        spec = InterferenceSpec(
            kind=InterferenceKind.CROSS_CLOCK_LEAK,
            amplitude=0.01,
            clock_scale=Fraction(1, 2),
            source_antenna="nope",
        )
        with pytest.raises(UnknownAntenna):
            inject(self.sig, spec, self.clocks, antenna="m001")

    def test_original_bank_untouched(self):
        n = len(self.sig.tones)
        spec = InterferenceSpec(
            kind=InterferenceKind.FIXED_RF, amplitude=0.02, freq_hz=1e9
        )
        inject(self.sig, spec, self.clocks, antenna="m001")
        assert len(self.sig.tones) == n
