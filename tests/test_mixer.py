from fractions import Fraction

import numpy as np
import pytest

from scfosim.errors import DesignInfeasible
from scfosim.frontend import SampleStream, Zone, sample
from scfosim.mixer import (
    MixerConfig,
    design_hilbert,
    hilbert_response,
    image_rejection_db,
    oscillator_indices,
    quadrature_lut,
    ssb_shift,
)
from scfosim.signal import Tone, ToneBankSignal


def tone_stream(freq, fs, n, amp=1.0, phase=0.3, zone=Zone.ZONE1):
    band = (freq, freq)
    sig = ToneBankSignal(tones=(Tone(amp, freq, phase),), seed=0, band=band)
    return sample(sig, Fraction(fs), n, zone, band_slack=1.0), sig


class TestHilbertDesign:
    def test_s_is_pure_delay(self):
        pair = design_hilbert(127, (0.1, 0.9))
        s = pair["s"]
        assert s[63] == 1.0
        assert np.count_nonzero(s) == 1

    def test_even_offsets_zero(self):
        pair = design_hilbert(127, (0.1, 0.9))
        h = pair["h"]
        offsets = np.arange(127) - 63
        assert np.all(h[offsets % 2 == 0] == 0.0)

    def test_band_center_gain_and_phase(self):
        pair = design_hilbert(127, (0.1, 0.9))
        resp = hilbert_response(pair["h"], np.array([0.5]))[0]
        gain_db = 20 * np.log10(abs(resp))
        assert abs(gain_db) < 0.01
        phase_deg = np.degrees(np.angle(resp))
        assert phase_deg == pytest.approx(-90.0, abs=0.1)

    def test_image_suppression_in_band(self):
        pair = design_hilbert(127, (0.1, 0.9))
        rej = image_rejection_db(pair["h"], np.linspace(0.1, 0.9, 201))
        assert rej.min() >= 60.0

    def test_infeasible_design(self):
        with pytest.raises(DesignInfeasible):
            design_hilbert(9, (0.02, 0.98))

    def test_even_tap_count_rejected(self):
        with pytest.raises(ValueError):
            design_hilbert(64, (0.1, 0.9))


class TestOscillator:
    def test_exact_rational_phase_no_drift(self):
        inc = Fraction(12345, 1_000_000)
        idx = oscillator_indices(Fraction(0), inc, 10, 200_000)
        # recompute a late index directly from the exact fraction
        k = 199_999
        frac = (inc * k) % 1
        expect = round(frac * 1024) % 1024
        assert idx[k] == expect

    def test_negative_increment(self):
        idx = oscillator_indices(Fraction(0), Fraction(-1, 7), 10, 14)
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
        idx = oscillator_indices(start, inc, bits, 3000)
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
        out = ssb_shift(s, MixerConfig(shift_hz=Fraction(0)))
        sl = out.valid_slice()
        assert np.array_equal(out.data[sl].real, s.data[sl])
        # imaginary part is the Hilbert transform: for sin-based tones the
        # analytic magnitude is the envelope
        mag = np.abs(out.data[sl])
        assert np.std(mag) / np.mean(mag) < 1e-3

    def test_peak_moves_by_exact_shift(self):
        fs, f0, delta = 1000, 300.0, 40.0
        s, _ = tone_stream(f0, fs, 5000)
        out = ssb_shift(s, MixerConfig(shift_hz=Fraction(-int(delta))))
        sl = out.valid_slice()
        seg = out.data[sl][:4000]
        spec = np.abs(np.fft.fft(seg * np.hanning(len(seg))))
        freqs = np.fft.fftfreq(len(seg), d=1.0 / fs)
        peak = freqs[int(np.argmax(spec))]
        assert peak == pytest.approx(f0 - delta, abs=0.5)

    def test_magnitude_preserved_within_ripple(self):
        s, _ = tone_stream(250.0, 1000, 6000, amp=0.7)
        out = ssb_shift(s, MixerConfig(shift_hz=Fraction(15)))
        sl = out.valid_slice()
        # analytic tone amplitude equals the real tone amplitude
        mag = np.abs(out.data[sl])
        assert np.mean(mag) == pytest.approx(0.7, rel=2e-3)

    def test_lut_spur_floor(self):
        # pure tone, representative irrational-ish shift: worst non-carrier
        # line must sit at or below -60 dBc (1024-entry LUT)
        fs = 1_000_000
        s, _ = tone_stream(200_000.0, fs, 1 << 16)
        out = ssb_shift(s, MixerConfig(shift_hz=Fraction(12_347)))
        sl = out.valid_slice()
        seg = out.data[sl][: 1 << 15]
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
            sig = ToneBankSignal(
                tones=(Tone(1.0, F, 0.2),), seed=0, band=(0.55 * float(f_a), 0.95 * float(f_a))
            )
            s = sample(sig, f_a, 12_000, Zone.ZONE2)
            r = resample(s, f_c, bank)
            out = ssb_shift(r, MixerConfig(shift_hz=f_c - f_a))
            sl = out.valid_slice()
            seg = out.data[sl][:8000]
            spec = np.abs(np.fft.fft(seg * np.hanning(len(seg))))
            freqs = np.fft.fftfreq(len(seg), d=1.0 / float(f_c))
            peaks.append(freqs[int(np.argmax(spec))])
        assert peaks[0] == pytest.approx(float(f_c) - F, abs=0.5)
        assert peaks[0] == pytest.approx(peaks[1], abs=0.5)
