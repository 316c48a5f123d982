from fractions import Fraction

import numpy as np
import pytest

from scfosim.errors import ChainWasQuantized, DesignInfeasible, StreamTooShort
from scfosim.frontend import QuantKind, QuantizerSpec, SampleStream, Zone, sample
from scfosim.rational import PhaseAccumulator
from scfosim.resampler import (
    FIR_TILE,
    Resampler,
    _fir_rows,
    cached_bank,
    design_bank,
    export_bank,
    export_response_csv,
    resample,
    resample_error,
    response,
)
from scfosim.signal import SampleGrid, Tone, ToneBankSignal, eval_tones, synth_signal


@pytest.fixture(scope="module")
def bank19():
    return design_bank(56, 1024, 19)


@pytest.fixture(scope="module")
def bank_float():
    return design_bank(56, 1024, None)


def stream_from(data, rate=Fraction(1000), **kw):
    return SampleStream(rate=Fraction(rate), epoch=Fraction(0), data=np.asarray(data, float), **kw)


class TestDesign:
    def test_phase512_deviation_at_half_band(self, bank19):
        r = response(bank19, 512, 1001, 0.0, 1.0)
        i = int(np.argmin(np.abs(r.freq - 0.5)))
        assert abs(10 ** (r.mag_db[i] / 20.0) - 1.0) < 1e-4

    def test_cached_bank_is_shared_and_read_only(self, bank19):
        shared = cached_bank(56, 1024, 19)
        assert cached_bank(56, 1024, 19) is shared
        assert np.array_equal(shared.table_int, bank19.table_int)
        assert not shared.table.flags.writeable
        assert not shared.table_int.flags.writeable

    def test_two_tap_linear_interpolator(self):
        b = design_bank(2, 2, None, passband=(0.01, 0.2), max_ripple_db=60)
        # d = -0.5 phase is the exact integer delay; d = 0 is the midpoint
        assert np.allclose(b.table[0], [1.0, 0.0], atol=1e-15)
        assert np.allclose(b.table[1], [0.5, 0.5], atol=1e-15)

    def test_mirror_phases_time_reverse(self, bank_float):
        for i in (1, 100, 399):
            assert np.allclose(
                bank_float.table[i], bank_float.table[1024 - i][::-1], atol=1e-14
            )

    def test_zero_delay_phase_symmetric(self, bank19, bank_float):
        assert np.array_equal(bank_float.table[512], bank_float.table[512][::-1])
        ulp = 1.0 / (1 << 18)
        assert np.max(np.abs(bank19.table[512] - bank19.table[512][::-1])) <= ulp

    def test_dc_gain_exact_per_phase(self, bank19):
        sums = bank19.table_int.sum(axis=1)
        # the pure-delta phase saturates at full-scale minus one ULP; all
        # other phases carry an exactly unit DC gain
        assert np.count_nonzero(sums != (1 << 18)) <= 1
        tol = 2.0 ** -(19 - 3)
        assert np.max(np.abs(bank19.table.sum(axis=1) - 1.0)) <= tol

    def test_coeff_representable(self, bank19):
        # signed two's complement at the declared binary point
        assert bank19.table_int.min() >= -(1 << 18)
        assert bank19.table_int.max() <= (1 << 18) - 1

    def test_infeasible_design_raises(self):
        # 8 taps cannot hold 0.05 dB ripple over nearly the whole band
        with pytest.raises(DesignInfeasible):
            design_bank(8, 64, None, passband=(0.05, 0.95), max_ripple_db=0.05)


class TestResponse:
    def test_zero_delay_phase_has_linear_phase(self, bank_float):
        r = response(bank_float, 512, 257, 0.0833, 0.9167)
        assert np.max(np.abs(r.delay_err_samples)) < 1e-9

    def test_dc_gain_equals_tap_sum(self, bank19):
        r = response(bank19, 700, 64, 0.0, 1.0)
        taps_sum = bank19.table[700].sum()
        assert 10 ** (r.mag_db[0] / 20.0) == pytest.approx(taps_sum, rel=1e-12)

    def test_band5_region_spec(self, bank19):
        # criterion: ripple < 0.05 dB, delay error pk-pk < 1e-3 samples
        lo, hi = 1e9, -1e9
        ripple = 0.0
        for p in range(0, 1024, 8):
            r = response(bank19, p, 129, 0.0833, 0.9167)
            ripple = max(ripple, float(np.max(np.abs(r.mag_db))))
            lo = min(lo, r.delay_err_samples.min())
            hi = max(hi, r.delay_err_samples.max())
        assert ripple < 0.05
        assert hi - lo < 1e-3

    def test_quantization_monotonicity(self, bank19, bank_float):
        # 19-bit worst delay error >= float worst delay error (dense phases)
        def worst(bank):
            w = 0.0
            for p in range(1024):
                r = response(bank, p, 33, 0.0833, 0.9167)
                w = max(w, float(np.max(np.abs(r.delay_err_samples))))
            return w

        w_int, w_float = worst(bank19), worst(bank_float)
        assert w_int >= w_float
        assert w_int < 1e-3


class TestIdentityResampling:
    def test_odd_bank_exact_identity(self):
        bank = design_bank(9, 64, None, passband=(0.05, 0.5), max_ripple_db=10)
        rng = np.random.default_rng(0)
        s = stream_from(rng.standard_normal(256))
        out = resample(s, Fraction(1000), bank)
        c = 4
        sl = out.valid_slice()
        expect = s.data[sl.start + c : sl.stop + c]
        assert np.array_equal(out.data[sl], expect)

    def test_even_bank_exact_identity_at_half_phase(self, bank_float):
        rng = np.random.default_rng(1)
        s = stream_from(rng.standard_normal(512))
        out = resample(s, Fraction(1000), bank_float, start_position=Fraction(-1, 2))
        sl = out.valid_slice()
        # phase -1/2 selects the pure-delta tap set: exact delay of 27 samples
        expect = s.data[sl.start + 27 : sl.stop + 27]
        assert np.array_equal(out.data[sl], expect)


class TestResampling:
    def test_tone_absolute_frequency_preserved(self, bank_float):
        f_c, f_a = Fraction(1000), Fraction(1001)
        sig = ToneBankSignal(tones=(Tone(1.0, 300.0, 0.4),), seed=0, band=(300.0, 300.0))
        s = sample(sig, f_a, 9000)
        out = resample(s, f_c, bank_float)
        sl = out.valid_slice()
        seg = out.data[sl][:8000]
        spec = np.abs(np.fft.rfft(seg * np.hanning(len(seg))))
        peak = np.argmax(spec) * float(f_c) / len(seg)
        assert abs(peak - 300.0) < 0.5  # absolute Hz, not 300*f_a/f_c

    def test_skip_event_count(self, bank19):
        acc = PhaseAccumulator(Fraction(1001, 1000), 1024)
        adv, _ = acc.run(100_000)
        skips = int(np.count_nonzero(adv == 2))
        assert 99 <= skips <= 100

    def test_resample_error_in_band_tone(self, bank_float):
        f_c, f_a = Fraction(1000), Fraction(1001)
        sig = ToneBankSignal(tones=(Tone(1.0, 40.0, 1.0),), seed=0, band=(40.0, 40.0))
        s = sample(sig, f_a, 6000)
        out = resample(s, f_c, bank_float)
        err = resample_error(sig, out)
        assert err["rms_err"] < 1e-4

    def test_resample_error_follows_lut_granularity(self, bank_float):
        # with 1024 phases the dominant float-path error is the +/-1/(2P)
        # delay grid: rms ~ omega/(2P sqrt(3)) per unit amplitude
        f_c, f_a = Fraction(1000), Fraction(1001)
        for freq in (100.0, 200.0, 400.0):
            sig = ToneBankSignal(tones=(Tone(1.0, freq, 0.3),), seed=0, band=(freq, freq))
            s = sample(sig, f_a, 8000)
            out = resample(s, f_c, bank_float)
            err = resample_error(sig, out)
            omega = 2 * np.pi * freq / float(f_a)
            predicted = omega / (2 * 1024 * np.sqrt(3))
            assert err["rms_err"] == pytest.approx(predicted, rel=0.35)

    def test_resample_error_zero_signal(self, bank_float):
        sig = ToneBankSignal(tones=(), seed=0, band=(0.0, 1.0))
        s = stream_from(np.zeros(1000))
        out = resample(s, Fraction(1000), bank_float)
        err = resample_error(sig, out)
        assert err["rms_err"] == 0.0 and err["max_err"] == 0.0

    def test_guard_band_tone_reported_not_judged(self, bank_float):
        # beyond the passband edge the error may be large; the op just reports
        f_c, f_a = Fraction(1000), Fraction(1001)
        sig = ToneBankSignal(tones=(Tone(1.0, 497.0, 0.0),), seed=0, band=(497.0, 497.0))
        s = sample(sig, f_a, 6000)
        out = resample(s, f_c, bank_float)
        err = resample_error(sig, out)
        assert err["rms_err"] > 1e-4

    def test_quantized_chain_rejected(self, bank_float):
        from scfosim.frontend import quantize

        sig = synth_signal(seed=2, n_tones=8, band=(50.0, 300.0))
        s = sample(sig, Fraction(1001), 4000)
        q = quantize(s, QuantizerSpec(QuantKind.Q8_UNIFORM))
        out = resample(q, Fraction(1000), bank_float)
        with pytest.raises(ChainWasQuantized):
            resample_error(sig, out)

    @pytest.mark.parametrize("kind", [QuantKind.Q8_UNIFORM, QuantKind.Q4_OPTIMAL])
    @pytest.mark.parametrize("sigma", [None, 0.8])
    def test_out_quant_is_quantize_of_the_float_output(self, bank19, kind, sigma):
        from scfosim.frontend import quantize

        s = sample(synth_signal(seed=4, n_tones=8, band=(50.0, 300.0)), Fraction(1001), 4000)
        spec = QuantizerSpec(kind, 0.5)
        got = resample(s, Fraction(1000), bank19, out_quant=spec, out_sigma=sigma)
        want = quantize(resample(s, Fraction(1000), bank19), spec, sigma)
        assert np.array_equal(got.data, want.data)
        assert (got.quant, got.quant_scale, got.lineage) == (want.quant, want.quant_scale, want.lineage)
        assert got.lineage == ["resample", kind.value]

    def test_stream_too_short(self, bank_float):
        with pytest.raises(StreamTooShort):
            resample(stream_from(np.zeros(40)), Fraction(1000), bank_float)

    def test_streaming_chunks_match_oneshot(self, bank19):
        rng = np.random.default_rng(5)
        data = rng.standard_normal(7000)
        ratio = Fraction(1001, 1000)
        one = Resampler(bank19, ratio)
        out_one = one.process(data)
        many = Resampler(bank19, ratio)
        outs = [many.process(data[i : i + 613]) for i in range(0, 7000, 613)]
        out_many = np.concatenate(outs)
        m = min(len(out_one), len(out_many))
        assert np.array_equal(out_one[:m], out_many[:m])

    @pytest.mark.parametrize("outputs", [1, FIR_TILE, FIR_TILE + 1])
    @pytest.mark.parametrize("fixed", [False, True])
    def test_fir_rows_is_a_left_fold(self, bank19, outputs, fixed):
        rng = np.random.default_rng(outputs)
        buf = rng.standard_normal(outputs + 200)
        table = bank19.table
        if fixed:
            buf = np.rint(buf * 32).astype(np.int64)
            table = bank19.table_int
        rel = np.sort(rng.integers(0, len(buf) - 56, outputs))
        lut = rng.integers(0, 1024, outputs)
        got = _fir_rows(buf, rel, table, lut)
        for j in range(outputs):
            acc = buf[rel[j]] * table[lut[j], 0]
            for m in range(1, 56):
                acc = acc + buf[rel[j] + m] * table[lut[j], m]
            assert got[j] == acc

    def test_streaming_one_output_per_call(self, bank19):
        rng = np.random.default_rng(8)
        data = rng.standard_normal(3000)
        ratio = Fraction(999, 1000)
        out_one = Resampler(bank19, ratio).process(data)
        many = Resampler(bank19, ratio)
        out_many = np.concatenate([many.process(data[i : i + 1]) for i in range(3000)])
        m = min(len(out_one), len(out_many))
        assert m > 2900 and np.array_equal(out_one[:m], out_many[:m])

    def test_fixed_point_close_to_float(self, bank19):
        sig = synth_signal(seed=3, n_tones=12, band=(50.0, 400.0))
        s = sample(sig, Fraction(1001), 5000)
        out_f = resample(s, Fraction(1000), bank19)
        out_i = resample(s, Fraction(1000), bank19, fixed_point=True)
        sl = out_f.valid_slice()
        err = out_f.data[sl] - out_i.data[sl]
        assert np.sqrt(np.mean(err**2)) < 1e-2  # 8-bit word register grid


class TestPpsPropagation:
    def test_marks_land_at_group_delay_compensated_index(self, bank19):
        f_c, f_a = Fraction(1000), Fraction(1001)
        rng = np.random.default_rng(6)
        marks = [100, 1777, 3502]
        s = stream_from(rng.standard_normal(5000), rate=f_a, pps_marks=marks)
        out = resample(s, f_c, bank19)
        ratio = f_a / f_c
        c = 27.5
        for j, k in zip(marks, out.pps_marks):
            expect = (j - c) / float(ratio)
            assert abs(k - expect) <= 1.0

    def test_marks_sorted_and_within(self, bank19):
        s = stream_from(np.zeros(4000), rate=Fraction(1001), pps_marks=[5, 2000, 3900])
        out = resample(s, Fraction(1000), bank19)
        assert out.pps_marks == sorted(out.pps_marks)
        assert all(0 <= k < len(out) for k in out.pps_marks)


class TestTransients:
    def test_error_outside_event_windows_bounded_by_ripple(self, bank_float):
        # ratio 1001/1000 sweeps phases and produces skip events. Outside
        # N-sample windows around the skips the float-path error stays at the
        # filter ripple scale.
        f_c, f_a = Fraction(100_000), Fraction(100_100)
        sig = synth_signal(seed=8, n_tones=10, band=(5_000.0, 44_000.0))
        s = sample(sig, f_a, 60_000)
        out = resample(s, f_c, bank_float)
        sl = out.valid_slice()
        truth = eval_tones(*sig.arrays(), SampleGrid(out.rate, sl.start, sl.stop - sl.start, out.epoch))
        err = np.abs(out.data[sl] - truth)
        acc = PhaseAccumulator(f_a / f_c, 1024)
        adv, _ = acc.run(sl.stop)
        events = np.flatnonzero(adv[sl.start : sl.stop] != 1)
        mask = np.ones(len(err), bool)
        N = 56
        for e in events:
            mask[max(0, e - N) : e + N] = False
        sig_rms = np.sqrt(np.mean(truth**2))
        bound = 10 ** (0.05 / 20) - 1  # declared ripple budget, linear
        assert err[mask].max() / sig_rms < 3 * bound

    def test_impacted_fraction_accounting(self, bank19):
        # a skip/repeat touches an output "in any way" through taps above 0.1
        assert np.count_nonzero(np.abs(bank19.table) > 0.1, axis=1).max() <= 8
        # paper-style accounting: 0.1% events x few(=3) taps <= 0.3% of data
        acc = PhaseAccumulator(Fraction(1001, 1000), 1024)
        adv, _ = acc.run(100_000)
        events = int(np.count_nonzero(adv != 1))
        assert events * 3 / 100_000 <= 0.003 + 1e-12


class TestAlignment:
    def test_crosscorr_peak_at_zero_lag(self, bank_float):
        # resampler output against direct f_c sampling of the same signal:
        # after group-delay compensation the peak sits at lag 0
        f_c, f_a = Fraction(1000), Fraction(1001)
        sig = synth_signal(seed=10, n_tones=12, band=(50.0, 400.0))
        s = sample(sig, f_a, 8000)
        out = resample(s, f_c, bank_float)
        sl = out.valid_slice()
        direct = sample(sig, f_c, len(out), epoch=out.epoch)
        a = out.data[sl.start : sl.start + 4000]
        b = direct.data[sl.start : sl.start + 4000]
        lags = np.arange(-5, 6)
        xc = [np.dot(a[5 + l : 3995 + l], b[5:3995]) for l in lags]
        assert lags[int(np.argmax(xc))] == 0


class TestExport:
    def test_bank_and_response_files(self, bank19, tmp_path):
        bp = tmp_path / "bank.txt"
        export_bank(bank19, bp)
        lines = bp.read_text().strip().splitlines()
        assert len(lines) == 1 + 1024
        assert lines[0] == (
            "# coefficient bank N=56 P=1024 bits=19 window=kaiser beta=7.165970420377935 "
            "cutoff=1.0 passband=0.0833,0.9167"
        )
        row0 = [int(v) for v in lines[1].split()]
        assert row0 == list(bank19.table_int[0])
        rp = tmp_path / "resp.csv"
        export_response_csv(bank19, rp, phases=(0, 512), n_freq=64)
        header = rp.read_text().splitlines()[0].split(",")
        assert header == ["freq", "mag_db_phase0", "delay_err_phase0", "mag_db_phase512", "delay_err_phase512"]
