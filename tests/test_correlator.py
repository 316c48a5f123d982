import math
from fractions import Fraction

import numpy as np
import pytest

from scfosim.chain import ChainSpec, SignalModel
from scfosim.correlator import (
    CorrelationAccumulator,
    coherence_loss,
    correlate,
    sensitivity_loss,
    washing_suppression_db,
)
from scfosim.errors import (
    EnvelopeRegimeViolated,
    InsufficientOverlap,
    InsufficientSamples,
    RateMismatch,
)
from scfosim.frontend import QuantKind, QuantizerSpec, SampleStream


def cstream(data, rate=1000):
    return SampleStream(rate=Fraction(rate), epoch=Fraction(0), data=np.asarray(data))


class TestCorrelate:
    def test_self_correlation_unity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(8192) + 1j * rng.standard_normal(8192)
        rep = correlate(cstream(x), cstream(x.copy()), T=8.0)
        assert abs(rep.rho) == pytest.approx(1.0, abs=1e-12)
        assert rep.n_samples == 8000

    def test_independent_noise_bound(self):
        rng = np.random.default_rng(1)
        n = 1_000_000
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rep = correlate(cstream(a, rate=n), cstream(b, rate=n), T=1.0)
        assert abs(rep.rho) < 5.0 / math.sqrt(n)

    def test_two_tone_washing(self):
        # |rho| of two offset complex tones follows |sinc(dw*T/2)|
        fs = 100_000
        n = fs
        t = np.arange(n) / fs
        delta_f = 1000.0
        a = np.exp(2j * np.pi * 20_000.0 * t)
        b = np.exp(2j * np.pi * (20_000.0 + delta_f) * t)
        rep = correlate(cstream(a, rate=fs), cstream(b, rate=fs), T=1.0)
        x = np.pi * delta_f * 1.0  # dw*T/2
        assert abs(rep.rho) == pytest.approx(abs(np.sin(x) / x), abs=2e-5)
        # envelope bound 1/(dw*T) in the paper's dB convention
        assert abs(rep.rho) <= 1.0 / (2 * np.pi * delta_f) * 2 * np.pi + 1e-9
        assert rep.suppression_db >= washing_suppression_db(delta_f, 1.0) - 3.01

    def test_rate_mismatch(self):
        with pytest.raises(RateMismatch):
            correlate(cstream(np.zeros(100), 1000), cstream(np.zeros(100), 1001), T=0.05)

    def test_insufficient_overlap(self):
        with pytest.raises(InsufficientOverlap):
            correlate(cstream(np.zeros(100)), cstream(np.zeros(100)), T=1.0)

    def test_normalization_scale_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        b = 0.3 * a + rng.standard_normal(4096)
        r1 = correlate(cstream(a), cstream(b), T=4.0)
        r2 = correlate(cstream(a * 7.5), cstream(b), T=4.0)
        assert abs(r1.rho - r2.rho) < 1e-13

    def test_real_streams_via_analytic(self):
        fs, n = 10_000, 10_000
        t = np.arange(n) / fs
        a = np.sin(2 * np.pi * 1000 * t + 0.3)
        b = np.sin(2 * np.pi * 1000 * t + 0.3)
        rep = correlate(cstream(a, fs), cstream(b, fs), T=0.9)
        assert abs(rep.rho) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "T, n", [(0.3, 300_000), (0.7, 700_000), (0.4, 400_000), (Fraction(3, 10), 300_000)]
    )
    def test_window_counts_the_decimal_T(self, T, n):
        # int(Fraction(0.3) * 1e6) is 299,999: the double nearest 0.3 lies below it
        x = np.ones(n + 1, dtype=np.complex128)
        rep = correlate(cstream(x, 1_000_000), cstream(x, 1_000_000), T=T)
        assert rep.n_samples == n


class TestAccumulatorAssociativity:
    def test_blocked_equals_oneshot_bitwise(self):
        rng = np.random.default_rng(3)
        n = 40_000
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        one = CorrelationAccumulator()
        one.add(a, b)
        blocked = CorrelationAccumulator()
        for lo in (0, 1234, 5000, 20_000, 33_333):
            hi = {0: 1234, 1234: 5000, 5000: 20_000, 20_000: 33_333, 33_333: n}[lo]
            blocked.add(a[lo:hi], b[lo:hi])
        assert one.rho() == blocked.rho()  # bit-for-bit


class TestWashingFormula:
    @pytest.mark.parametrize(
        "delta_f,T,expect",
        [(1_000.0, 1.0, 37.98), (1_000.0, 0.1, 27.98), (10_000.0, 0.14, 39.45)],
    )
    def test_paper_points(self, delta_f, T, expect):
        assert washing_suppression_db(delta_f, T) == pytest.approx(expect, abs=0.01)

    def test_envelope_regime_guard(self):
        with pytest.raises(EnvelopeRegimeViolated):
            washing_suppression_db(0.1, 1.0)


class TestCoherenceLoss:
    def test_zero_limit(self):
        assert coherence_loss(0.0) == 0.0

    def test_lut_phase_step(self):
        assert coherence_loss(np.pi / 1024) == pytest.approx(1.57e-6, rel=0.02)

    def test_small_angle_series(self):
        x = np.pi * 0.875 * 0.2e-4
        assert coherence_loss(x) == pytest.approx(x**2 / 6.0, rel=1e-4)
        assert coherence_loss(x) == pytest.approx(5.0e-10, rel=0.04)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            coherence_loss(-0.1)


class TestSensitivityLoss:
    def test_float_chain_loss_near_zero(self):
        a = ChainSpec("float")
        b = ChainSpec("float2")
        rep = sensitivity_loss(1, a, b, n=400_000, segments=16)
        assert abs(rep.loss_a) < 1e-12
        assert abs(rep.difference) < 1e-12

    def test_q4_broadband_loss_matches_oracle(self):
        from scfosim.frontend import quantizer_efficiency

        spec = QuantizerSpec(QuantKind.Q4_OPTIMAL, 1.0)
        chain = ChainSpec("q4", input_quant=spec)
        ref = ChainSpec("float")
        model = SignalModel(sky_seed=3, snr=0.25)
        rep = sensitivity_loss(3, ref, chain, n=2_000_000, model=model, segments=16)
        expected = 1.0 - quantizer_efficiency(spec)
        assert rep.difference == pytest.approx(expected, abs=1.5e-3)
        assert rep.stderr < 1e-3

    def test_insufficient_samples_guard(self):
        a = ChainSpec("q4", input_quant=QuantizerSpec(QuantKind.Q4_OPTIMAL, 1.0))
        b = ChainSpec("float")
        with pytest.raises(InsufficientSamples):
            sensitivity_loss(1, a, b, n=200_000, segments=8, tol=1e-9)
