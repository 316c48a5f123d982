import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfosim import resampler as resampler_module
from scfosim.errors import DesignInfeasible, RatioOutOfRange, StreamTooShort
from scfosim.frontend import QuantizerSpec, QuantKind, SampleStream, quantize, sample
from scfosim.rational import phase_run, sample_index
from scfosim.resampler import (
    FIR_TILE,
    PLAN_BLOCK,
    _fir_rows,
    aligned_start,
    design_bank,
    fixed_in_step,
    fold_outputs,
    quantize_taps,
    resample,
    resample_range,
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


def fold_range(data, start, ratio, bank, lo, hi, in_step=None, origin=0):
    """Outputs lo .. hi-1 of the fold whose output 0 sits at ``start`` on an
    input grid whose sample ``origin`` is data[0], folded from exactly the
    inputs they read: their first read pointer to their last plus the taps."""
    P, N = bank.phases, bank.taps_per_phase
    position = start + lo * ratio
    first = sample_index(position, P)
    end = sample_index(start + (hi - 1) * ratio, P) + N
    assert origin <= first and end - origin <= len(data)  # data holds every window
    (out,) = fold_outputs([data[first - origin : end - origin]], first, position, ratio, bank, hi - lo, in_step)
    return out


def resampled_error(sig, out):
    """RMS and peak error of ``out`` against ``sig`` on its exact output grid
    (timestamps absorb the group delay), in units of the truth RMS, or
    absolute when the truth is silent."""
    truth = eval_tones(*sig.arrays(), SampleGrid(out.rate, 0, len(out), out.epoch))
    err = out.data - truth
    ref = np.sqrt(np.mean(truth**2)) or 1.0
    return np.sqrt(np.mean(err**2)) / ref, np.max(np.abs(err), initial=0.0) / ref


class TestDesign:
    def test_phase512_deviation_at_half_band(self, bank19):
        r = response(bank19, 512, 1001, 0.0, 1.0)
        i = int(np.argmin(np.abs(r.freq - 0.5)))
        assert abs(10 ** (r.mag_db[i] / 20.0) - 1.0) < 1e-4

    def test_design_bank_is_shared_and_read_only(self, bank19):
        shared = design_bank(56, 1024, 19)
        assert design_bank(56, 1024, 19) is shared is bank19
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

    @pytest.mark.parametrize("bits", [0, 64])
    def test_coeff_bits_outside_1_to_63_raise_value_error(self, bits):
        # 64 overflowed int64 in quantize_taps; 0 made a negative shift
        with pytest.raises(ValueError, match="coeff_bits"):
            design_bank(56, 1024, bits)

    @pytest.mark.parametrize(
        "N, P, passband, match",
        [
            (1, 1024, (0.0833, 0.9167), "at least 2 taps"),
            (56, 1000, (0.0833, 0.9167), "power of two"),
            (56, 1, (0.0833, 0.9167), "power of two"),
            (56, 1024, (0.5, 0.4), "passband"),
            (56, 1024, (0.1, 1.0), "passband"),
            (56, 1024, (-0.1, 0.9), "passband"),
        ],
        ids=["one-tap", "phases-not-a-power-of-two", "one-phase", "passband-reversed",
             "passband-reaching-nyquist", "passband-below-zero"],
    )
    def test_parameters_out_of_range_raise_value_error(self, N, P, passband, match):
        with pytest.raises(ValueError, match=match):
            design_bank(N, P, 19, passband=passband)

    @pytest.mark.parametrize("phase", [-1, 1024])
    def test_response_of_a_phase_outside_the_bank_raises(self, bank19, phase):
        with pytest.raises(ValueError, match="phase out of range"):
            response(bank19, phase)

    def test_bank_records_its_design(self, bank19):
        # the parameters a coefficient table is published with, and the float
        # table as the integer one at the binary point
        assert (bank19.taps_per_phase, bank19.phases, bank19.coeff_bits) == (56, 1024, 19)
        assert bank19.table.shape == bank19.table_int.shape == (1024, 56)
        assert np.array_equal(bank19.table, bank19.table_int / float(1 << 18))


def quantize_taps_by_row(taps, bits):
    """The row-by-row form of ``quantize_taps``, kept as its oracle."""
    scale = 1 << (bits - 1)
    top = scale - 1
    raw = np.atleast_2d(taps * scale)
    out = np.clip(np.rint(raw), -scale, top).astype(np.int64)
    for row, raw_row in zip(out, raw):
        residual = scale - int(row.sum())
        if residual == 0:
            continue
        err = raw_row - row
        step = 1 if residual > 0 else -1
        order = np.argsort(step * err)[::-1]
        moved = 0
        for idx in order:
            if moved == abs(residual) or step * err[idx] <= 0:
                break
            if -scale < row[idx] + step <= top:
                row[idx] += step
                moved += 1
    return out.reshape(np.shape(taps))


@pytest.mark.parametrize(
    "taps, phases, bits",
    [
        (56, 1024, 19), (40, 1024, 19), (48, 1024, 19), (64, 1024, 19), (56, 256, 19),
        (56, 4096, 19), (56, 1024, 12), (56, 1024, 8), (16, 64, 4), (8, 16, 3),
    ],
)
def test_quantize_taps_matches_the_row_loop(taps, phases, bits):
    table = design_bank(taps, phases, None, max_ripple_db=1e9).table
    assert np.array_equal(quantize_taps(table, bits), quantize_taps_by_row(table, bits))


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
        assert len(out) == 256 - 8
        assert np.array_equal(out.data, s.data[c : len(out) + c])

    def test_even_bank_exact_identity_at_half_phase(self, bank_float):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(512)
        # from position -1/2 every output selects the pure-delta tap set: an
        # exact delay of 27 samples, over every window inside the 512 samples
        out = fold_outputs([x], 0, Fraction(-1, 2), Fraction(1), bank_float, 512 - 55)[0]
        assert np.array_equal(out, x[27 : 27 + len(out)])


class TestResampling:
    def test_tone_absolute_frequency_preserved(self, bank_float):
        f_c, f_a = Fraction(1000), Fraction(1001)
        sig = ToneBankSignal((Tone(1.0, 300.0, 0.4),))
        s = sample(sig, f_a, 9000)
        out = resample(s, f_c, bank_float)
        seg = out.data[:8000]
        spec = np.abs(np.fft.rfft(seg * np.hanning(len(seg))))
        peak = np.argmax(spec) * float(f_c) / len(seg)
        assert abs(peak - 300.0) < 0.5  # absolute Hz, not 300*f_a/f_c

    def test_skip_event_count(self, bank19):
        n, _, _ = phase_run(Fraction(0), Fraction(1001, 1000), 1024, 100_000)
        skips = int(np.count_nonzero(np.diff(n, prepend=0) == 2))
        assert 99 <= skips <= 100

    def test_resample_error_in_band_tone(self, bank_float):
        f_c, f_a = Fraction(1000), Fraction(1001)
        sig = ToneBankSignal((Tone(1.0, 40.0, 1.0),))
        s = sample(sig, f_a, 6000)
        out = resample(s, f_c, bank_float)
        rms, _ = resampled_error(sig, out)
        assert rms < 1e-4

    def test_resample_error_follows_lut_granularity(self, bank_float):
        # with 1024 phases the dominant float-path error is the +/-1/(2P)
        # delay grid: rms ~ omega/(2P sqrt(3)) per unit amplitude
        f_c, f_a = Fraction(1000), Fraction(1001)
        for freq in (100.0, 200.0, 400.0):
            sig = ToneBankSignal((Tone(1.0, freq, 0.3),))
            s = sample(sig, f_a, 8000)
            out = resample(s, f_c, bank_float)
            rms, _ = resampled_error(sig, out)
            omega = 2 * np.pi * freq / float(f_a)
            predicted = omega / (2 * 1024 * np.sqrt(3))
            assert rms == pytest.approx(predicted, rel=0.35)

    def test_resample_error_zero_signal(self, bank_float):
        sig = ToneBankSignal(())
        s = stream_from(np.zeros(1000))
        out = resample(s, Fraction(1000), bank_float)
        rms, peak = resampled_error(sig, out)
        assert rms == 0.0 and peak == 0.0

    def test_fixed_point_of_a_zero_rms_stream_is_rejected(self, bank19):
        # a silent unquantized stream has no register grid to measure
        with pytest.raises(ValueError, match="zero RMS"):
            resample(stream_from(np.zeros(1000)), Fraction(1000), bank19, fixed_point=True)

    def test_guard_band_tone_reported_not_judged(self, bank_float):
        # beyond the passband edge the bank promises no accuracy, and the error shows it
        f_c, f_a = Fraction(1000), Fraction(1001)
        sig = ToneBankSignal((Tone(1.0, 497.0, 0.0),))
        s = sample(sig, f_a, 6000)
        out = resample(s, f_c, bank_float)
        rms, _ = resampled_error(sig, out)
        assert rms > 1e-4

    def test_stream_too_short(self, bank_float):
        with pytest.raises(StreamTooShort):
            resample(stream_from(np.zeros(40)), Fraction(1000), bank_float)

    def test_ratio_out_of_range(self, bank19):
        # the scheme assumes offsets well inside +/-50%
        for ratio in (Fraction(1, 2), Fraction(3, 2)):
            with pytest.raises(RatioOutOfRange):
                fold_outputs([np.zeros(200)], 0, Fraction(0), ratio, bank19, 1)
            with pytest.raises(RatioOutOfRange):
                resample(stream_from(np.zeros(1000), rate=1000 * ratio), Fraction(1000), bank19)

    @pytest.mark.parametrize("ratio", [Fraction(501, 1000), Fraction(1499, 1000)])
    def test_ratio_just_inside_the_bounds(self, bank19, ratio):
        out = resample(stream_from(np.ones(1000), rate=1000 * ratio), Fraction(1000), bank19).data
        # outputs up to the last full 56-tap window, each at the bank's DC gain
        assert abs(len(out) - (1000 - 55) / ratio) <= 1
        assert np.allclose(out, 1.0, atol=1e-3)

    def test_streaming_chunks_match_oneshot(self, bank19):
        # folds over blocks of 613 outputs are resample()'s one fold
        data = np.random.default_rng(5).standard_normal(7000)
        ratio = Fraction(1001, 1000)
        whole = resample(stream_from(data, rate=1001), Fraction(1000), bank19).data
        K = len(whole)
        blocks = [fold_range(data, Fraction(0), ratio, bank19, lo, min(lo + 613, K)) for lo in range(0, K, 613)]
        assert np.array_equal(np.concatenate(blocks), whole)

    @settings(max_examples=40, deadline=None)
    @given(
        fixed=st.booleans(),
        sizes=st.lists(
            st.one_of(st.integers(1, 3), st.integers(FIR_TILE - 2, FIR_TILE + 3)),
            min_size=1,
            max_size=12,
        ),
    )
    def test_random_chunks_match_oneshot(self, bank19, fixed, sizes):
        # one fold over outputs [0, K) is the folds over any split of it,
        # the outputs that read before sample 0 included
        in_step = 1 / 32 if fixed else None
        start, ratio = Fraction(-40, 3), Fraction(1001, 1000)
        K = sum(sizes)
        data = np.random.default_rng(9).standard_normal(K + 200)  # input samples -14 ..
        whole = fold_range(data, start, ratio, bank19, 0, K, in_step, origin=-14)
        bounds = np.cumsum([0] + sizes)
        pieces = [
            fold_range(data, start, ratio, bank19, lo, hi, in_step, origin=-14) for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        assert np.array_equal(np.concatenate(pieces), whole)

    @pytest.mark.parametrize(
        "outputs",
        [1, 2, FIR_TILE - 1, FIR_TILE, FIR_TILE + 1, FIR_TILE + 2, 2 * FIR_TILE, 2 * FIR_TILE + 1],
    )
    @pytest.mark.parametrize("fixed", [False, True])
    def test_fir_rows_is_a_left_fold(self, bank19, outputs, fixed):
        # two buffers on one plan: each output of each is its own left fold
        rng = np.random.default_rng(outputs)
        bufs = rng.standard_normal((2, outputs + 200))
        table = bank19.table
        if fixed:
            bufs = np.rint(bufs * 32).astype(np.int64)
            table = bank19.table_int
        rel = np.sort(rng.integers(0, bufs.shape[1] - 56, outputs))
        lut = rng.integers(0, 1024, outputs)
        got = _fir_rows(list(bufs), rel, table, lut)
        assert len(got) == 2
        for buf, out in zip(bufs, got):
            for j in range(outputs):
                acc = buf[rel[j]] * table[lut[j], 0]
                for m in range(1, 56):
                    acc = acc + buf[rel[j] + m] * table[lut[j], m]
                assert out[j] == acc

    @pytest.mark.parametrize("outputs", [1, 2, FIR_TILE + 1])
    def test_fir_rows_order_decides_a_sum(self, outputs):
        # a left fold loses every +1 to the 1e16 before -1e16 cancels it, in
        # either order of the two; a pairwise sum keeps some of them
        buf = np.ones(56)
        buf[0], buf[-1] = 1e16, -1e16
        bufs = [buf, buf[::-1].copy()]
        lefts = []
        for b in bufs:
            left = 0.0
            for v in b.tolist():
                left = left + v
            assert left == 0.0 and np.sum(b) != left
            lefts.append(left)
        zeros = np.zeros(outputs, dtype=np.int64)
        got = _fir_rows(bufs, zeros, np.ones((1, 56)), zeros)
        for out, left in zip(got, lefts):
            assert np.all(out == left)

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("ratio", [1 + Fraction(53, 50_000), 1 - Fraction(47, 50_000)])  # skips, repeats
    @pytest.mark.parametrize("count", [1, FIR_TILE - 1, FIR_TILE + 1, PLAN_BLOCK + 1])
    def test_one_plan_folds_each_input_as_a_single_fold(self, bank19, fixed, ratio, count):
        start = Fraction(-40, 3)
        n, _, _ = phase_run(start - ratio, ratio, bank19.phases, count)
        rng = np.random.default_rng(count)
        a, b = rng.standard_normal((2, n[-1] + 56 - n[0]))  # input samples n[0] ..
        in_step = fixed_in_step(stream_from(a)) if fixed else None
        pair = fold_outputs([a, b], n[0], start, ratio, bank19, count, in_step)
        singles = [fold_outputs([x], n[0], start, ratio, bank19, count, in_step)[0] for x in (a, b)]
        assert len(pair) == 2
        for got, want in zip(pair, singles):
            assert len(got) == count and np.array_equal(got, want)

    def test_streaming_one_output_per_call(self, bank19):
        data = np.random.default_rng(8).standard_normal(3000)
        ratio = Fraction(999, 1000)
        whole = resample(stream_from(data, rate=999), Fraction(1000), bank19).data
        ones = [fold_range(data, Fraction(0), ratio, bank19, k, k + 1) for k in range(len(whole))]
        assert len(whole) > 2900 and np.array_equal(np.concatenate(ones), whole)

    @pytest.mark.parametrize("step", [1, 7, None])
    def test_first_valid_output_does_not_depend_on_the_chunks(self, bank19, step):
        # from -40/3 the first 13 outputs read before sample 0, and output 13
        # is the first whose window starts at sample 0 or later; folds of
        # ``step`` outputs give the one fold's outputs, those 13 included
        data = np.random.default_rng(4).standard_normal(3000)  # input samples -14 ..
        ratio, start = Fraction(1001, 1000), Fraction(-40, 3)
        positions = (start + k * ratio for k in range(100))
        first = next(k for k, p in enumerate(positions) if round(p * 1024) + 512 >= 0)
        assert first == 13
        (whole,) = fold_outputs([data], -14, start, ratio, bank19, 200)
        n, _, _ = phase_run(start - ratio, ratio, bank19.phases, 200)
        assert n[first - 1] < 0 <= n[first]
        step = step or 200
        pieces = [fold_range(data, start, ratio, bank19, lo, lo + step, origin=-14) for lo in range(0, 200, step)]
        assert np.array_equal(np.concatenate(pieces)[:200], whole)

    @pytest.mark.parametrize("fixed", [False, True])
    # skips and repeats, with plan periods of 50,000 outputs, inside a plan
    # block, and of 100,003, longer than one
    @pytest.mark.parametrize("ratio", [1 + Fraction(53, 50_000), 1 - Fraction(47, 50_000), 1 + Fraction(1, 100_003)])
    # the first output to read sample 0 or later: in the first plan block, past the second's start
    @pytest.mark.parametrize("start", [Fraction(-40, 3), -PLAN_BLOCK - Fraction(301, 3)])
    def test_one_call_over_plan_blocks_matches_small_calls(self, bank19, fixed, ratio, start):
        K = 3 * PLAN_BLOCK + 1_000  # the one fold goes in four or five blocks
        n, _, _ = phase_run(start - ratio, ratio, bank19.phases, K)
        assert n[0] < 0  # the first outputs read before sample 0
        data = np.random.default_rng(6).standard_normal(n[-1] + 56 - n[0])  # input samples n[0] ..
        in_step = fixed_in_step(stream_from(data)) if fixed else None
        (whole,) = fold_outputs([data], n[0], start, ratio, bank19, K, in_step)
        pieces = [
            fold_range(data, start, ratio, bank19, lo, min(lo + 5_000, K), in_step, origin=n[0]) for lo in range(0, K, 5_000)
        ]
        assert np.array_equal(np.concatenate(pieces), whole)

    @pytest.mark.parametrize("fixed", [False, True])
    # a period of 50,000 outputs: four whole pieces on one plan, then a tail;
    # of 99,991, longer than a plan block: a plan and a call for each piece
    @pytest.mark.parametrize(
        "ratio, count, calls",
        [
            (1 + Fraction(53, 50_000), 230_000, [(50_000, 8), (30_000, 2)]),
            (1 + Fraction(1, 99_991), 3 * PLAN_BLOCK + 1_000, [(PLAN_BLOCK, 2)] * 3 + [(1_000, 2)]),
        ],
    )
    def test_one_fir_rows_call_per_plan(self, monkeypatch, bank19, fixed, ratio, count, calls):
        # each call folds every place of its plan for both inputs, and the
        # outputs are those of folds of 7,000 outputs of one input
        seen = []
        original = resampler_module._fir_rows

        def counted(bufs, rel, *rest):
            seen.append((len(rel), len(bufs)))
            return original(bufs, rel, *rest)

        monkeypatch.setattr(resampler_module, "_fir_rows", counted)
        start = Fraction(-40, 3)
        n, _, _ = phase_run(start - ratio, ratio, bank19.phases, count)
        a, b = np.random.default_rng(5).standard_normal((2, n[-1] + 56 - n[0]))  # input samples n[0] ..
        in_step = fixed_in_step(stream_from(a)) if fixed else None
        pair = fold_outputs([a, b], n[0], start, ratio, bank19, count, in_step)
        assert seen == calls
        for x, got in zip((a, b), pair):
            pieces = [
                fold_range(x, start, ratio, bank19, lo, min(lo + 7_000, count), in_step, origin=n[0])
                for lo in range(0, count, 7_000)
            ]
            assert np.array_equal(np.concatenate(pieces), got)

    # the float fold reads the stream in place, so only plan blocks sit beside
    # the output; the fixed-point fold also holds the int64 words of one plan's
    # blocks, here all but the tail of the stream
    @pytest.mark.parametrize("fixed, most", [(False, 1.5), (True, 2.5)])
    def test_resample_peaks_near_its_output_bytes(self, bank19, fixed, most):
        stream = stream_from(np.random.default_rng(1).standard_normal(1 << 20), rate=1001)
        tracemalloc.start()
        try:
            out = resample(stream, Fraction(1000), bank19, fixed_point=fixed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= most * out.data.nbytes

    def test_fixed_point_close_to_float(self, bank19):
        sig = synth_signal(seed=3, n_tones=12, band=(50.0, 400.0))
        s = sample(sig, Fraction(1001), 5000)
        out_f = resample(s, Fraction(1000), bank19)
        out_i = resample(s, Fraction(1000), bank19, fixed_point=True)
        err = out_f.data - out_i.data
        assert np.sqrt(np.mean(err**2)) < 1e-2  # 8-bit word register grid

    def test_fixed_point_with_a_float_bank_raises(self, bank_float):
        with pytest.raises(ValueError, match="fixed-point path needs a quantized bank"):
            fold_outputs([np.zeros(200)], 0, Fraction(0), Fraction(1001, 1000), bank_float, 1, in_step=1 / 32)
        s = stream_from(np.random.default_rng(2).standard_normal(200), rate=1001)
        with pytest.raises(ValueError, match="fixed-point path needs a quantized bank"):
            resample(s, Fraction(1000), bank_float, fixed_point=True)


def integer_plan(kind, outputs, rng):
    """Read pointers of ``outputs`` outputs: one run (every tile inside it),
    a skip or a repeat at output 100 of every tile, a repeat at 100 and a skip
    at 300 (a tile whose ends look like a run's), or sorted random draws."""
    k = np.arange(outputs)
    at = np.cumsum(k % FIR_TILE == 100), np.cumsum(k % FIR_TILE == 300)
    return {
        "run": k + 3,
        "skip": k + 3 + at[0],
        "repeat": k + 3 - at[0],
        "repeat-then-skip": k + 3 - at[0] + at[1],
        "random": np.sort(rng.integers(0, outputs + outputs // 8 + 2, outputs)),
    }[kind]


class TestIntegerSums:
    @pytest.mark.parametrize("outputs", [1, FIR_TILE - 1, FIR_TILE + 1, 2 * FIR_TILE + 1])
    @pytest.mark.parametrize("kind", ["run", "skip", "repeat", "repeat-then-skip", "random"])
    def test_integer_fir_rows_are_exact_sums(self, bank19, kind, outputs):
        # words near 2**38 times 19-bit taps: exact in int64, not in float64
        rng = np.random.default_rng([outputs, len(kind)])
        rel = integer_plan(kind, outputs, rng)
        if kind == "random" and outputs > FIR_TILE:
            steps = np.diff(rel)
            assert np.any(steps == 0) and np.any(steps > 1)
        lut = rng.integers(0, 1024, outputs)
        bufs = rng.integers(-(1 << 38), 1 << 38, (2, rel[-1] + 56))
        got = _fir_rows(list(bufs), rel, bank19.table_int, lut)
        windows = rel[:, None] + np.arange(56)
        rows = bank19.table_int[lut].astype(object)
        for buf, out in zip(bufs, got):
            assert out.dtype == np.int64
            want = (buf.astype(object)[windows] * rows).sum(axis=1)
            assert out.tolist() == want.tolist()

    @pytest.mark.parametrize("in_step", [0.0, -1.0, np.nan, np.inf])
    def test_a_register_step_that_is_not_positive_and_finite_raises(self, bank19, in_step):
        with pytest.raises(ValueError, match="positive finite"):
            fold_outputs([np.ones(200)], 0, Fraction(0), Fraction(1001, 1000), bank19, 1, in_step)

    @pytest.mark.parametrize("ratio", [1 + Fraction(53, 50_000), 1 - Fraction(47, 50_000)])  # skips, repeats
    def test_sums_that_could_wrap_int64_raise(self, bank19, ratio):
        # Q8 words here reach 125, and at 60 bits a row's |taps| sums to 2.78 * 2**59:
        # past 2**63, and unchecked, the sums wrap into outputs far from the float fold's
        data = np.random.default_rng(3).standard_normal(4_000)
        q8 = quantize(stream_from(data, rate=1000 * ratio), QuantizerSpec(QuantKind.Q8_UNIFORM, 0.5))
        with pytest.raises(ValueError, match="overflow int64"):
            resample(q8, Fraction(1000), design_bank(56, 1024, 60), fixed_point=True)
        fixed = resample(q8, Fraction(1000), bank19, fixed_point=True).data
        assert np.max(np.abs(fixed - resample(q8, Fraction(1000), bank19).data)) < 1e-4


class TestResampleRange:
    @pytest.mark.parametrize("ratio", [1 + Fraction(1, 10_000), 1 - Fraction(1, 10_000), Fraction(3, 5)])
    def test_its_source_is_asked_for_exactly_the_inputs_its_outputs_read(self, bank19, ratio):
        # blocks as the dual chain steps them: from output 72, 1,000 at a time;
        # each asks once, from the read pointer of its first output to that
        # of its last plus the taps
        blocks = [(72, 1_000), (1_072, 1_000), (2_072, 1_000)]
        calls = []

        def source(lo, n):
            calls.append((lo, n))
            return [np.zeros(n)]

        for first, count in blocks:
            (out,) = resample_range(source, ratio, bank19, first, count)
            assert len(out) == count
        want = []
        for first, count in blocks:
            n, _, _ = phase_run(aligned_start(bank19, ratio) + (first - 1) * ratio, ratio, bank19.phases, count)
            want.append((n[0], n[-1] + 56 - n[0]))
        assert calls == want

    @pytest.mark.parametrize("ratio", [Fraction(2), Fraction(1, 2), Fraction(3, 2)])
    def test_a_ratio_out_of_range_raises_before_the_source_is_asked(self, bank19, ratio):
        def source(lo, n):
            raise AssertionError(f"the source was asked for inputs {lo} .. {lo + n - 1}")

        with pytest.raises(RatioOutOfRange):
            resample_range(source, ratio, bank19, 0, 20_000)

    def test_outputs_that_read_negative_indices_are_exact_sums(self, bank19):
        # at ratio 3/5 output 0 sits at 27.5 * (3/5 - 1) = -11 on the input
        # grid; every output is the left fold of its taps over the source
        # samples under its window, bit for bit
        ratio, K = Fraction(3, 5), 300
        rate = 1000 * ratio
        tones = synth_signal(seed=6, n_tones=8, band=(50.0, 250.0)).arrays()
        (out,) = resample_range(lambda lo, n: [eval_tones(*tones, SampleGrid(rate, lo, n))], ratio, bank19, 0, K)
        n, lut, _ = phase_run(aligned_start(bank19, ratio) - ratio, ratio, bank19.phases, K)
        assert n[0] == -11
        x = eval_tones(*tones, SampleGrid(rate, n[0], n[-1] + 56 - n[0])).tolist()
        for k in range(K):
            taps, at = bank19.table[lut[k]].tolist(), n[k] - n[0]
            acc = taps[0] * x[at]
            for m in range(1, 56):
                acc = acc + taps[m] * x[at + m]
            assert out[k] == acc

    @settings(max_examples=30, deadline=None)
    @given(
        ratio=st.sampled_from([Fraction(3, 5), Fraction(1001, 1000), Fraction(7, 5)]),
        sizes=st.lists(
            st.one_of(st.integers(1, 3), st.integers(FIR_TILE - 2, FIR_TILE + 3)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_folds_over_any_split_equal_one_fold(self, bank19, ratio, sizes):
        data = np.random.default_rng(11).standard_normal(7_000)  # input samples -40 ..

        def source(lo, n):
            assert -40 <= lo and lo + n + 40 <= len(data)
            return [data[lo + 40 : lo + n + 40], -data[lo + 40 : lo + n + 40]]

        bounds = list(itertools.accumulate([0] + sizes))
        whole = resample_range(source, ratio, bank19, 0, bounds[-1])
        pieces = [resample_range(source, ratio, bank19, lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]
        for i, out in enumerate(whole):  # each input's outputs, the negated one's negated
            assert np.array_equal(np.concatenate([piece[i] for piece in pieces]), out)
        assert np.array_equal(whole[1], -whole[0])


class TestTransients:
    def test_error_outside_event_windows_bounded_by_ripple(self, bank_float):
        # ratio 1001/1000 sweeps phases and produces skip events. Outside
        # N-sample windows around the skips the float-path error stays at the
        # filter ripple scale.
        f_c, f_a = Fraction(100_000), Fraction(100_100)
        sig = synth_signal(seed=8, n_tones=10, band=(5_000.0, 44_000.0))
        s = sample(sig, f_a, 60_000)
        out = resample(s, f_c, bank_float)
        truth = eval_tones(*sig.arrays(), SampleGrid(out.rate, 0, len(out), out.epoch))
        err = np.abs(out.data - truth)
        n, _, _ = phase_run(Fraction(0), f_a / f_c, 1024, len(out))
        events = np.flatnonzero(np.diff(n, prepend=0) != 1)
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
        n, _, _ = phase_run(Fraction(0), Fraction(1001, 1000), 1024, 100_000)
        events = int(np.count_nonzero(np.diff(n, prepend=0) != 1))
        assert events * 3 / 100_000 <= 0.003 + 1e-12


class TestAlignment:
    def test_crosscorr_peak_at_zero_lag(self, bank_float):
        # resampler output against direct f_c sampling of the same signal:
        # after group-delay compensation the peak sits at lag 0
        f_c, f_a = Fraction(1000), Fraction(1001)
        sig = synth_signal(seed=10, n_tones=12, band=(50.0, 400.0))
        s = sample(sig, f_a, 8000)
        out = resample(s, f_c, bank_float)
        direct = eval_tones(*sig.arrays(), SampleGrid(f_c, 0, len(out), out.epoch))
        a = out.data[:4000]
        b = direct[:4000]
        lags = np.arange(-5, 6)
        xc = [np.dot(a[5 + l : 3995 + l], b[5:3995]) for l in lags]
        assert lags[int(np.argmax(xc))] == 0
