import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from scfosim import mixer as mixer_module
from scfosim import rational as rational_module
from scfosim.errors import DesignInfeasible, StreamTooShort
from scfosim.frontend import SampleStream, sample
from scfosim.mixer import (
    HILBERT_BAND,
    HILBERT_TAPS,
    LUT_WORD_BITS,
    MIX_BLOCK,
    PHASE_LUT_BITS,
    design_hilbert,
    hilbert_response,
    image_rejection_db,
    quadrature_lut,
    ssb_shift,
)
from scfosim.rational import phase_run
from scfosim.signal import Tone, ToneBankSignal


def tone_stream(freq, fs, n, amp=1.0, phase=0.3):
    sig = ToneBankSignal((Tone(amp, freq, phase),))
    return sample(sig, Fraction(fs), n), sig


class TestHilbertDesign:
    def test_even_offsets_zero(self):
        h = design_hilbert(127, (0.1, 0.9))
        offsets = np.arange(127) - 63
        assert np.all(h[offsets % 2 == 0] == 0.0)

    def test_band_center_gain_and_phase(self):
        h = design_hilbert(127, (0.1, 0.9))
        resp = hilbert_response(h, np.array([0.5]))[0]
        gain_db = 20 * np.log10(abs(resp))
        assert abs(gain_db) < 0.01
        phase_deg = np.degrees(np.angle(resp))
        assert phase_deg == pytest.approx(-90.0, abs=0.1)

    def test_image_suppression_in_band(self):
        h = design_hilbert(127, (0.1, 0.9))
        rej = image_rejection_db(h, np.linspace(0.1, 0.9, 201))
        assert rej.min() >= 60.0

    def test_designed_once_per_process_and_read_only(self):
        h = design_hilbert(HILBERT_TAPS, HILBERT_BAND)
        assert design_hilbert(HILBERT_TAPS, HILBERT_BAND) is h and not h.flags.writeable

    def test_infeasible_design(self):
        with pytest.raises(DesignInfeasible):
            design_hilbert(9, (0.02, 0.98))

    def test_even_tap_count_rejected(self):
        with pytest.raises(ValueError):
            design_hilbert(64, (0.1, 0.9))

    def test_fewer_than_7_taps_rejected(self):
        with pytest.raises(ValueError, match="n_taps"):
            design_hilbert(5, (0.1, 0.9))

    @pytest.mark.parametrize("band", [(0.0, 0.5), (0.5, 1.0), (0.6, 0.4)], ids=["from-dc", "to-nyquist", "reversed"])
    def test_band_outside_0_1_rejected(self, band):
        with pytest.raises(ValueError, match="band must lie inside"):
            design_hilbert(63, band)


def ramp_indices(start, inc, bits, count):
    """Oscillator LUT indices of the phases start + k*inc, k < count, in one
    pass: the ramp's one phase_run plan on the 1/L grid, L = 2**bits, whose
    LUT index i stands for (i - L/2)/L, moved on by L/2."""
    L = 1 << bits
    _, lut, _ = phase_run(Fraction(start) - inc, Fraction(inc), L, count)
    return (lut + L // 2) % L


class TestOscillator:
    def test_exact_rational_phase_no_drift(self):
        inc = Fraction(12345, 1_000_000)
        idx = ramp_indices(Fraction(0), inc, 10, 200_000)
        # recompute a late index directly from the exact fraction
        k = 199_999
        frac = (inc * k) % 1
        expect = round(frac * 1024) % 1024
        assert idx[k] == expect

    def test_negative_increment(self):
        idx = ramp_indices(Fraction(0), Fraction(-1, 7), 10, 14)
        assert np.all((0 <= idx) & (idx < 1024))
        assert idx[7] == round(Fraction(-1) % 1 * 1024) % 1024

    @pytest.mark.parametrize(
        "start, inc, bits",
        [
            (Fraction(3, 7), Fraction(12345, 1_000_000), 10),
            (Fraction(2, 9), Fraction(-4_240_000, 1_004_240_000), 10),
            (Fraction(1, 4096), Fraction(1, 2048), 10),  # every index an exact half-LUT tie
            (Fraction(-5, 3), Fraction(-1, 7), 8),
            (Fraction(10**15 + 1, 3), Fraction(1, 2**40 + 3), 10),  # start numerator * L > 2**63
        ],
        ids=["nonzero-start", "negative-inc", "half-lut-ties", "negative-start-L256", "wide-start"],
    )
    def test_every_index_is_the_rounded_exact_phase(self, start, inc, bits):
        L = 1 << bits
        idx = ramp_indices(start, inc, bits, 3000)
        want = [round(L * ((start + k * inc) % 1)) % L for k in range(3000)]
        assert idx.tolist() == want

    def test_lut_word_quantization(self):
        table = quadrature_lut(10, 20)
        assert len(table) == 1024
        scale = (1 << 19) - 1
        assert np.all(np.abs(table * scale - np.rint(table * scale)) < 1e-9)
        assert table[0] == 1.0
        assert abs(table[256]) < 2.0 / scale  # cos(pi/2)


class TestSsbShift:
    def test_zero_shift_gives_analytic_signal(self):
        s, _ = tone_stream(100.0, 1000, 4000)
        out = ssb_shift(s, Fraction(0))
        # only the samples the whole 127-tap window covers: 63 fewer at each end
        assert len(out) == len(s) - 126
        assert out.epoch == s.epoch + Fraction(63, 1000)
        assert np.array_equal(out.data.real, s.data[63:-63])
        # imaginary part is the Hilbert transform: for sin-based tones the
        # analytic magnitude is the envelope
        mag = np.abs(out.data)
        assert np.std(mag) / np.mean(mag) < 1e-3

    def test_a_later_cut_shifts_to_the_same_samples(self):
        # a stream sampled from sample 500 on shifts to the samples of the
        # whole stream from 500 on, bit for bit: the oscillator follows the epoch
        sig = ToneBankSignal((Tone(1.0, 300.0, 0.3),))
        whole = ssb_shift(sample(sig, Fraction(1000), 4000), Fraction(-37, 3))
        late = ssb_shift(sample(sig, Fraction(1000), 3000, first=500), Fraction(-37, 3))
        assert late.epoch == whole.epoch + Fraction(500, 1000)
        assert np.array_equal(late.data, whole.data[500 : 500 + len(late)])

    # oscillator periods of 3,000 and 1,000 samples, shorter than a block,
    # and of 101,000, longer than one
    @pytest.mark.parametrize("shift", [Fraction(-37, 3), Fraction(12_347), Fraction(12_347, 101)])
    def test_each_output_is_the_same_whatever_the_cut(self, shift):
        # a cut of the stream from sample s on, its epoch moved with it,
        # shifts to the whole stream's outputs from s on, bit for bit:
        # one-output cuts, and cuts that end one output into a block
        rate = Fraction(1000)
        data = np.random.default_rng(2).standard_normal(2 * MIX_BLOCK + 500)
        whole = ssb_shift(SampleStream(rate=rate, epoch=Fraction(0), data=data), shift).data
        # the blocks give the one-pass mix over the whole stream
        c, L = HILBERT_TAPS // 2, 1 << PHASE_LUT_BITS
        h, table = design_hilbert(HILBERT_TAPS, HILBERT_BAND), quadrature_lut(PHASE_LUT_BITS, LUT_WORD_BITS)
        idx = ramp_indices(shift * Fraction(c) / rate, shift / rate, PHASE_LUT_BITS, len(whole))
        one_pass = (1j * np.convolve(data, h, mode="valid") + data[c:-c]) * (1j * table[(idx - L // 4) % L] + table[idx])
        assert np.array_equal(whole, one_pass)
        cuts = [(s, 1) for s in range(300)]
        cuts += [(s, k) for s in (0, 7) for k in (MIX_BLOCK - 1, MIX_BLOCK + 1, 2 * MIX_BLOCK + 1)]
        for s, k in cuts:
            cut = SampleStream(rate=rate, epoch=s / rate, data=data[s : s + HILBERT_TAPS - 1 + k])
            assert np.array_equal(ssb_shift(cut, shift).data, whole[s : s + k]), (s, k)

    # oscillator periods of 3,000 and 1,000 samples: one plan for the call,
    # one oscillator for the two whole blocks and one for the tail; of
    # 101,000, longer than a block: a plan and an oscillator for each of the 3
    @pytest.mark.parametrize(
        "shift, period, plans, oscillators",
        [(Fraction(-37, 3), 3_000, 1, 2), (Fraction(12_347), 1_000, 1, 2), (Fraction(12_347, 101), 101_000, 3, 3)],
    )
    def test_each_plan_and_its_oscillator_are_built_once(self, monkeypatch, shift, period, plans, oscillators):
        class Table:  # the oscillator table, counting its reads: two per oscillator (cos, sin)
            reads = 0

            def __getitem__(self, index):
                Table.reads += 1
                return quadrature_lut(PHASE_LUT_BITS, LUT_WORD_BITS)[index]

        data = np.random.default_rng(2).standard_normal(2 * MIX_BLOCK + 500)
        stream = SampleStream(rate=Fraction(1000), epoch=Fraction(0), data=data)
        want = ssb_shift(stream, shift).data
        calls = []
        original = rational_module.phase_run
        monkeypatch.setattr(rational_module, "phase_run", lambda *args: calls.append(args) or original(*args))
        monkeypatch.setattr(mixer_module, "quadrature_lut", lambda *args: Table())
        out = ssb_shift(stream, shift)
        assert -(-len(out) // MIX_BLOCK) == 3 and np.array_equal(out.data, want)
        assert rational_module.plan_period(shift / 1000, 1 << PHASE_LUT_BITS) == period
        assert len(calls) == plans and Table.reads == 2 * oscillators

    def test_ssb_shift_peaks_near_its_output_bytes(self):
        # the analytic signal, the oscillator and the mix go a block at a
        # time, so only the output spans the stream: the rest of the peak is
        # a few MB whatever the stream's length
        s = SampleStream(rate=Fraction(1000), epoch=Fraction(0), data=np.random.default_rng(1).standard_normal(1 << 20))
        tracemalloc.start()
        try:
            out = ssb_shift(s, Fraction(-37, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.data.nbytes + (8 << 20)

    def test_stream_shorter_than_the_hilbert_window_raises(self):
        s, _ = tone_stream(100.0, 1000, 126)
        with pytest.raises(StreamTooShort):
            ssb_shift(s, Fraction(0))
        s, _ = tone_stream(100.0, 1000, 127)
        assert len(ssb_shift(s, Fraction(0))) == 1

    def test_complex_input_rejected(self):
        s, _ = tone_stream(100.0, 1000, 4000)
        analytic = ssb_shift(s, Fraction(0))
        with pytest.raises(ValueError, match="real input stream"):
            ssb_shift(analytic, Fraction(0))

    def test_peak_moves_by_exact_shift(self):
        fs, f0, delta = 1000, 300.0, 40.0
        s, _ = tone_stream(f0, fs, 5000)
        out = ssb_shift(s, Fraction(-int(delta)))
        seg = out.data[:4000]
        spec = np.abs(np.fft.fft(seg * np.hanning(len(seg))))
        freqs = np.fft.fftfreq(len(seg), d=1.0 / fs)
        peak = freqs[int(np.argmax(spec))]
        assert peak == pytest.approx(f0 - delta, abs=0.5)

    def test_magnitude_preserved_within_ripple(self):
        s, _ = tone_stream(250.0, 1000, 6000, amp=0.7)
        out = ssb_shift(s, Fraction(15))
        # analytic tone amplitude equals the real tone amplitude
        mag = np.abs(out.data)
        assert np.mean(mag) == pytest.approx(0.7, rel=2e-3)

    def test_lut_spur_floor(self):
        # pure tone, representative irrational-ish shift: worst non-carrier
        # line must sit at or below -60 dBc (1024-entry LUT)
        fs = 1_000_000
        s, _ = tone_stream(200_000.0, fs, 1 << 16)
        out = ssb_shift(s, Fraction(12_347))
        seg = out.data[: 1 << 15]
        win = np.blackman(len(seg))
        spec = np.abs(np.fft.fft(seg * win))
        peak = int(np.argmax(spec))
        carrier = spec[peak]
        guard = 8
        mask = np.ones(len(spec), bool)
        mask[peak - guard : peak + guard + 1] = False
        spur_db = 20 * np.log10(np.max(spec[mask]) / carrier)
        assert spur_db <= -60.0

    def test_zone2_shift_aligns_two_antennas(self):
        # the unit-level version of the Fig 3-2 experiment: common tone at F,
        # two antennas in Zone 2 at slightly different rates, per-antenna
        # shift f_c - f_a; the re-sampled+mixed tone lands at f_c - F in both
        from scfosim.resampler import design_bank, resample

        bank = design_bank(56, 1024, None)
        f_c = Fraction(1000)
        F = 700.0
        peaks = []
        for f_a in (Fraction(999), Fraction(1002)):
            s = sample(ToneBankSignal((Tone(1.0, F, 0.2),)), f_a, 12_000)  # Zone 2: F in (f_a/2, f_a)
            r = resample(s, f_c, bank)
            out = ssb_shift(r, f_c - f_a)
            seg = out.data[:8000]
            spec = np.abs(np.fft.fft(seg * np.hanning(len(seg))))
            freqs = np.fft.fftfreq(len(seg), d=1.0 / float(f_c))
            peaks.append(freqs[int(np.argmax(spec))])
        assert peaks[0] == pytest.approx(float(f_c) - F, abs=0.5)
        assert peaks[0] == pytest.approx(peaks[1], abs=0.5)
