from fractions import Fraction

import numpy as np
import pytest

from scfosim.errors import AlreadyQuantized, BandZoneMismatch
from scfosim.frontend import (
    FilterSpec,
    QuantKind,
    QuantizerSpec,
    SampleStream,
    Zone,
    antialias,
    lloyd_max_levels,
    quantize,
    quantize_array,
    quantizer_efficiency,
    quantizer_levels,
    sample,
)
from scfosim.signal import SampleGrid, Tone, ToneBankSignal, eval_tones, synth_signal


def tone_bank(*tones, band=None):
    freqs = [t[1] for t in tones]
    band = band or (min(freqs), max(freqs))
    return ToneBankSignal(
        tones=tuple(Tone(*t) for t in tones), seed=0, band=band
    )


class TestSample:
    def test_dc_constant(self):
        # f=0 with phase pi/2 is the DC convention: sin(pi/2) = 1
        sig = tone_bank((1.0, 0.0, np.pi / 2), band=(0.0, 0.0))
        s = sample(sig, Fraction(1000), 64)
        assert np.all(s.data == s.data[0])
        assert s.data[0] == pytest.approx(1.0)

    def test_zone1_peak_bin(self):
        fs = Fraction(1000)
        sig = tone_bank((1.0, 300.0, 0.3))
        s = sample(sig, fs, 1000, Zone.ZONE1)
        spec = np.abs(np.fft.rfft(s.data))
        assert np.argmax(spec[1:]) + 1 == 300

    def test_zone2_alias_and_reversal(self):
        fs = Fraction(1000)
        # two tones at 0.6 and 0.7 fs with distinct amplitudes
        sig = tone_bank((1.0, 700.0, 0.1), (0.5, 600.0, 0.2), band=(600.0, 700.0))
        s = sample(sig, fs, 1000, Zone.ZONE2)
        assert s.zone is Zone.ZONE2
        spec = np.abs(np.fft.rfft(s.data))
        # 700 aliases to 300 (strong), 600 aliases to 400 (weak): order reversed
        assert spec[300] > spec[400] > 10 * np.median(spec)
        strong, weak = np.argsort(spec[1:-1])[-2:][::-1] + 1
        assert strong == 300 and weak == 400

    def test_zone2_band_check(self):
        sig = tone_bank((1.0, 200.0, 0.0), band=(150.0, 300.0))
        with pytest.raises(BandZoneMismatch):
            sample(sig, Fraction(1000), 64, Zone.ZONE2)
        # slack lets a slightly protruding band through
        sig2 = tone_bank((1.0, 495.0, 0.0), band=(495.0, 900.0))
        sample(sig2, Fraction(1000), 64, Zone.ZONE2, band_slack=0.02)

    @pytest.mark.parametrize(
        "m, n", [(1000, (1 << 20) + 1), ((1 << 20) - 3, (1 << 20) + 5), (1 << 20, (1 << 20) + 1)]
    )
    def test_prefix_bit_identical_across_chunk_boundary(self, m, n):
        # sample() synthesizes in 2^20-sample chunks; a sample's value must not
        # depend on which chunk it fell in or on the stream length
        sig = synth_signal(seed=4, n_tones=6, band=(1e3, 4e5))
        f_a, epoch = Fraction(1_000_100), Fraction(7, 3)
        long = sample(sig, f_a, n, epoch=epoch).data
        assert np.array_equal(long[:m], sample(sig, f_a, m, epoch=epoch).data)
        assert np.array_equal(long, eval_tones(*sig.arrays(), SampleGrid(f_a, 0, n, epoch)))


class TestLloydMax:
    def test_symmetric_and_converged(self):
        lv = lloyd_max_levels(16)
        assert np.allclose(lv, -lv[::-1], atol=1e-12)
        assert np.all(np.diff(lv) > 0)
        # at the Lloyd fixed point E[x q] = E[q^2], so eta = 1 - distortion
        eta = quantizer_efficiency(QuantizerSpec(QuantKind.Q4_OPTIMAL))
        assert eta == pytest.approx(0.990499, abs=2e-5)

    def test_mc_efficiency_matches_oracle(self):
        # classical efficiency oracle vs Monte Carlo on 1e7 correlated pairs
        spec = QuantizerSpec(QuantKind.Q4_OPTIMAL)
        eta_oracle = quantizer_efficiency(spec)
        rng = np.random.default_rng(11)
        n = 10_000_000
        rho = 0.25
        x = rng.standard_normal(n)
        y = rho * x + np.sqrt(1 - rho * rho) * rng.standard_normal(n)
        qx = quantize_array(x, spec, 1.0)
        qy = quantize_array(y, spec, 1.0)
        rho_q = np.mean(qx * qy) / np.sqrt(np.mean(qx * qx) * np.mean(qy * qy))
        rho_f = np.mean(x * y) / np.sqrt(np.mean(x * x) * np.mean(y * y))
        assert rho_q / rho_f == pytest.approx(eta_oracle, abs=2.5e-3)


class TestQuantize:
    def make_stream(self, data):
        return SampleStream(rate=Fraction(1000), epoch=Fraction(0), data=np.asarray(data, float))

    def test_q8_midrise_zero_input(self):
        spec = QuantizerSpec(QuantKind.Q8_UNIFORM)
        out = quantize_array(np.array([0.0]), spec, sigma=1.0)
        step = 8.0 / 256.0
        assert out[0] == pytest.approx(step / 2.0)

    def test_saturation_top_level(self):
        spec = QuantizerSpec(QuantKind.Q8_UNIFORM)
        out = quantize_array(np.array([50.0, -50.0]), spec, sigma=1.0)
        step = 8.0 / 256.0
        assert out[0] == pytest.approx((127 + 0.5) * step)
        assert out[1] == pytest.approx((-128 + 0.5) * step)
        q4 = QuantizerSpec(QuantKind.Q4_OPTIMAL)
        out4 = quantize_array(np.array([50.0]), q4, sigma=1.0)
        assert out4[0] == pytest.approx(lloyd_max_levels(16)[-1])

    def test_q4_level_index_is_the_searchsorted_index(self):
        spec = QuantizerSpec(QuantKind.Q4_OPTIMAL, 1.0)
        sigma = 1.3
        levels = quantizer_levels(spec, sigma)
        t = 0.5 * (levels[:-1] + levels[1:])
        rng = np.random.default_rng(5)
        x = np.concatenate([
            t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
            [-np.inf, np.inf], sigma * 3 * rng.standard_normal(10_000),
        ])
        assert np.array_equal(quantize_array(x, spec, sigma), levels[np.searchsorted(t, x)])
        assert quantize_array(np.array([np.nan]), spec, sigma)[0] == levels[0]

    def test_idempotent_on_levels(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(10000)
        for kind in (QuantKind.Q4_OPTIMAL, QuantKind.Q8_UNIFORM):
            spec = QuantizerSpec(kind)
            once = quantize_array(x, spec, sigma=1.0)
            twice = quantize_array(once, spec, sigma=1.0)
            assert np.array_equal(once, twice)

    def test_stream_quantize_and_already_quantized(self):
        rng = np.random.default_rng(4)
        s = self.make_stream(rng.standard_normal(4096))
        q = quantize(s, QuantizerSpec(QuantKind.Q4_OPTIMAL))
        assert q.quant is QuantKind.Q4_OPTIMAL
        assert len(np.unique(q.data)) <= 16
        with pytest.raises(AlreadyQuantized):
            quantize(q, QuantizerSpec(QuantKind.Q8_UNIFORM))

    def test_float_spec_passthrough(self):
        s = self.make_stream(np.arange(8.0))
        out = quantize(s, QuantizerSpec(QuantKind.FLOAT))
        assert out.quant is QuantKind.FLOAT


class TestAntialias:
    def test_allpass_identity(self):
        sig = synth_signal(seed=2, n_tones=16, band=(1e6, 2e6))
        out = antialias(sig, FilterSpec(points=((0.0, 0.0),)))
        assert out.tones == sig.tones

    def test_brickwall_removes(self):
        sig = tone_bank((1.0, 2.0e9, 0.0), (1.0, 3.0e9, 0.0), band=(0.0, 2.75e9))
        blocked = 2 * FilterSpec.BLOCKED_DB
        out = antialias(sig, FilterSpec(points=((0.0, 0.0), (2.75e9, 0.0), (2.75e9, blocked))))
        assert len(out.tones) == 1
        assert out.tones[0].freq_hz == 2.0e9

    def test_relaxed_minus_20db(self):
        # -20 dB at 1.2x band edge scales an out-of-band tone by 0.1
        edge = 2.75e9
        filt = FilterSpec(points=((0.0, 0.0), (edge, 0.0), (1.2 * edge, -20.0)))
        sig = tone_bank((1.0, 1.2 * edge, 0.0), band=(0.25e9, edge))
        out = antialias(sig, filt)
        assert out.tones[0].amplitude == pytest.approx(0.1)


class TestSincReconstruction:
    def test_two_rates_agree_with_analytic(self):
        # sample the shared sky at two offset rates, sinc-reconstruct, and
        # compare against the analytic signal in the interior: < -60 dB error
        sig = synth_signal(seed=9, n_tones=24, band=(20.0, 140.0))
        n = 4096
        for fs in (Fraction(1000), Fraction(1001)):
            s = sample(sig, fs, n)
            mid = np.arange(n // 2 - 32, n // 2 + 32)
            recon = np.empty(len(mid))
            for i, m in enumerate(mid):
                # Whittaker-Shannon at the half-sample point m + 1/2
                recon[i] = np.dot(s.data, np.sinc(m + 0.5 - np.arange(n)))
            # those points are the odd samples of the grid at twice the rate
            truth = eval_tones(*sig.arrays(), SampleGrid(2 * fs, 2 * mid[0] + 1, 2 * len(mid)))[::2]
            err = np.sqrt(np.mean((recon - truth) ** 2)) / np.sqrt(np.mean(truth**2))
            assert 20 * np.log10(err) < -60.0
