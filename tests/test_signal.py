import math
from fractions import Fraction

import numpy as np
import pytest

from scfosim import scenarios
from scfosim.errors import EmptyBand
from scfosim.resampler import design_bank
from scfosim.signal import (
    TONE_BLOCK,
    SampleGrid,
    Tone,
    ToneBankSignal,
    eval_tones,
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
        # the analytic RMS of distinct tones: sqrt(sum a_k^2 / 2)
        for rms in (1.0, 0.25):
            sig = synth_signal(seed=3, n_tones=100, band=(1.0, 10.0), rms=rms)
            assert math.sqrt(sum(t.amplitude**2 for t in sig.tones) / 2) == pytest.approx(rms)

    def test_empty_band(self):
        with pytest.raises(EmptyBand):
            synth_signal(seed=1, n_tones=4, band=(2.0, 1.0))

    def test_no_tones_rejected(self):
        with pytest.raises(ValueError, match="n_tones"):
            synth_signal(seed=1, n_tones=0, band=(1.0, 2.0))


def on_grid(sig, rate, start, count):
    """``sig`` at samples start .. start+count-1 of the grid t_n = n / rate."""
    return eval_tones(*sig.arrays(), SampleGrid(Fraction(rate), start, count))


class TestEval:
    def test_empty_bank_is_zero(self):
        sig = ToneBankSignal(())
        assert on_grid(sig, 100, 37, 1)[0] == 0.0  # t = 0.37 s

    def test_quarter_period_peak(self):
        sig = ToneBankSignal((Tone(1.0, 1.0, 0.0),))
        assert on_grid(sig, 4, 1, 1)[0] == pytest.approx(1.0)  # t = 0.25 s

    def test_periodicity(self):
        # one period of the 3 Hz tone is 100 samples at 300 samples/s
        sig = ToneBankSignal((Tone(0.7, 3.0, 1.1),))
        idx = np.array([3, 36, 120])  # t = 0.01, 0.12, 0.4 s
        x = on_grid(sig, 300, 0, 300)
        assert x[idx] == pytest.approx(x[idx + 100], abs=1e-12)

    def test_linearity(self):
        a = synth_signal(seed=5, n_tones=16, band=(1.0, 5.0))
        b = synth_signal(seed=6, n_tones=16, band=(1.0, 5.0))
        both = ToneBankSignal(a.tones + b.tones)
        # 257 samples of 1/256 s, t = 0 .. 1 s
        assert on_grid(a, 256, 0, 257) + on_grid(b, 256, 0, 257) == pytest.approx(
            on_grid(both, 256, 0, 257), abs=1e-12
        )


def chain_bank():
    """The requant-loss chain's bank: 16 sky plus 16 noise tones at f_c = 1 MHz."""
    band = (0.0833 * 5e5, 0.9167 * 5e5)
    return ToneBankSignal(synth_signal(1, 16, band).tones + synth_signal(1110, 16, band).tones).arrays()


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


def test_clock_tone_sits_at_the_exact_scale_times_f_a(monkeypatch):
    # a 200 Hz offset on B1 puts f_a at 1,000,000.05 Hz, where the exact rule
    # and float(3/4) * float(f_a) differ in the last bit
    f_c = Fraction(1_000_000)
    (f_a,) = scenarios._desk_rates({"band": "B1", "f_c": "1000000/1", "offsets_hz": ["200/1"]})
    assert f_a.denominator != 1
    assert float(Fraction(3, 4) * f_a) != 0.75 * float(f_a)
    seen = []
    real_sample = scenarios.sample

    def spy(sig, *args, **kwargs):
        seen.append(sig)
        return real_sample(sig, *args, **kwargs)

    monkeypatch.setattr(scenarios, "sample", spy)
    sky = synth_signal(seed=1, n_tones=4, band=(1e5, 4e5))
    bank = design_bank(56, 1024, 19)
    # one antenna runs in this process, so the spy sees its bank
    scenarios._resampled_tone_streams([f_a], scenarios.Zone.ZONE1, f_c, bank, 2_000, sky, clock_tone=(0.5, Fraction(3, 4)))
    (sig,) = seen
    assert sig.tones[:-1] == sky.tones
    assert sig.tones[-1] == Tone(0.5, float(Fraction(3, 4) * f_a), 0.0)
