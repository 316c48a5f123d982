import multiprocessing
import os
import pickle
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from scfosim import chain as chain_module
from scfosim import rational as rational_module
from scfosim import resampler as resampler_module
from scfosim.chain import (
    BLOCK,
    F_C,
    SKIP,
    WELCH_BATCH,
    WELCH_CAP,
    WELCH_NFFT,
    WELCH_STRIDE,
    ChainSpec,
    _batches,
    _block_sums,
    _correlation,
    sensitivity_loss,
)
from scfosim.errors import ConfigInvalid
from scfosim.frontend import QuantKind, QuantizerSpec
from scfosim.resampler import PASSBAND, PLAN_BLOCK, design_bank
from scfosim.scenarios import run_scenario
from scfosim.signal import ToneBankSignal, synth_signal

Q4 = QuantizerSpec(QuantKind.Q4_OPTIMAL, 1.0)
CHAINS = {
    "q4-direct": ChainSpec(input_quant=Q4),
    "q4-resample-q8": ChainSpec(
        input_quant=Q4,
        offset=Fraction(1, 10_000),
        out_quant=QuantizerSpec(QuantKind.Q8_UNIFORM, 0.5),
        bank=design_bank(56, 1024, 19),
    ),
}



def requant_antennas(seed, snr=1.0):
    """requant-loss's two antennas at its default tone counts, a shared sky
    plus each antenna's own noise, and their input RMS."""
    band = (PASSBAND[0] * float(F_C) / 2, PASSBAND[1] * float(F_C) / 2)
    sky = synth_signal(seed, 16, band)
    noise_rms = float(np.sqrt(1.0 / snr))
    noise = [synth_signal(seed * 1009 + 101 + i, 16, band, noise_rms) for i in (0, 1)]
    return [ToneBankSignal(sky.tones + own.tones) for own in noise], float(np.sqrt(1.0 + noise_rms**2))


def correlate_in_blocks(a, b, block, cap, seg_len):
    """_correlation of one channel whose outputs ``a`` and ``b`` are cut into
    blocks of ``block`` outputs, each block's arrays reaching as far as its
    Welch batches over the leading ``cap`` outputs read, the cut
    sensitivity_loss makes."""
    welch_end = min(cap, len(a))
    sums = []
    for first in range(0, len(a), block):
        m = min(block, len(a) - first)
        end = max([first + m] + [e for _, e in _batches(first, first + m, welch_end)])
        sums.append(_block_sums(a[first:end], b[first:end], first, m, seg_len, welch_end))
    return _correlation(sums, len(a), seg_len)


def noisy_pair(total, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(total)
    return a, 0.5 * a + rng.standard_normal(total)


def coherence(sab, saa, sbb):
    return np.abs(sab) / np.sqrt(saa * sbb)


def test_a_block_is_whole_welch_batches():
    # so a block inside the cap computes only the last window's 3/4 past its end
    assert BLOCK % WELCH_STRIDE == 0
    assert WELCH_CAP % BLOCK == 0
    assert _batches(0, BLOCK, WELCH_CAP)[-1][1] == BLOCK + WELCH_NFFT - WELCH_NFFT // 4


def test_welch_batches_change_only_rounding():
    a, b = noisy_pair(200_000, 3)
    # one-shot Welch average of the leading 150,000 samples
    win = np.hanning(WELCH_NFFT)
    fa = np.fft.rfft(sliding_window_view(a[:150_000], WELCH_NFFT)[:: WELCH_NFFT // 4] * win)
    fb = np.fft.rfft(sliding_window_view(b[:150_000], WELCH_NFFT)[:: WELCH_NFFT // 4] * win)
    want = coherence(np.mean(fa * np.conj(fb), axis=0), np.mean(abs(fa) ** 2, axis=0), np.mean(abs(fb) ** 2, axis=0))
    assert len(fa) > WELCH_BATCH  # more than one batch
    _, _, got = correlate_in_blocks(a, b, 30_000, 150_000, 1_000)
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_spectra_of_less_than_one_window_raise():
    with pytest.raises(ValueError, match="no Welch segment"):
        correlate_in_blocks(np.ones(WELCH_NFFT - 1), np.ones(WELCH_NFFT - 1), BLOCK, WELCH_CAP, 100)


def welch_one_pass(a, b, cap):
    """The Welch coherence of every window of the leading ``cap`` samples,
    taken in one pass over them all, WELCH_BATCH windows per transform."""
    n, step, win = WELCH_NFFT, WELCH_NFFT // 4, np.hanning(WELCH_NFFT)
    seg_a = sliding_window_view(a[:cap], n)[::step]
    seg_b = sliding_window_view(b[:cap], n)[::step]
    sab = np.zeros(n // 2 + 1, dtype=np.complex128)
    saa, sbb = np.zeros(n // 2 + 1), np.zeros(n // 2 + 1)
    for lo in range(0, len(seg_a), WELCH_BATCH):
        fa = np.fft.rfft(seg_a[lo : lo + WELCH_BATCH] * win, axis=1)
        fb = np.fft.rfft(seg_b[lo : lo + WELCH_BATCH] * win, axis=1)
        sab += np.sum(fa * np.conj(fb), axis=0)
        saa += np.sum(np.abs(fa) ** 2, axis=0)
        sbb += np.sum(np.abs(fb) ** 2, axis=0)
    return coherence(sab / len(seg_a), saa / len(seg_a), sbb / len(seg_a))


@pytest.mark.parametrize(
    "total, cap, block",
    [
        (200_000, 150_000, 200_000),  # one block of everything, past the cap
        (200_000, 150_000, 777),
        (200_000, 150_000, WELCH_STRIDE),  # each batch starts a block
        (200_000, 150_000, 100_000),  # the cap falls inside a block
        (200_000, 150_000, 3_000),
        (5_000, 4_000, 1),
        (5_000, 150_000, 777),  # fewer samples than one batch of windows
    ],
)
def test_welch_spectra_do_not_depend_on_the_blocks(total, cap, block):
    a, b = noisy_pair(total, 4)
    _, _, got = correlate_in_blocks(a, b, block, cap, 1_000)
    assert np.array_equal(got, welch_one_pass(a, b, cap))


@pytest.mark.parametrize("block", [3 * 1_250, 777, 200_000])
def test_segment_sums_change_only_by_their_cut(block):
    # 200,000 outputs in segments of 1,250 (the last 1,000 a partial one);
    # a segment cut across blocks sums in pieces, one inside a block at once
    a, b = noisy_pair(200_000, 5)
    seg_len = 1_250
    total, segs, _ = correlate_in_blocks(a, b, block, WELCH_CAP, seg_len)
    pa, pb = a[: len(a) // seg_len * seg_len].reshape(-1, seg_len), b[: len(b) // seg_len * seg_len].reshape(-1, seg_len)
    want = np.array([x @ y for x, y in zip(pa, pb)]) / np.sqrt(np.array([x @ x for x in pa]) * np.array([y @ y for y in pb]))
    assert len(segs) == 160
    assert np.allclose(segs, want, rtol=1e-12, atol=0)
    if block % seg_len == 0:
        assert np.array_equal(segs, want)
    assert abs(total - (a @ b) / np.sqrt((a @ a) * (b @ b))) <= 1e-12


def test_chain_memory_does_not_grow_with_the_stream(monkeypatch):
    # every block runs in this process, so tracemalloc sees every array; the
    # Welch batch sums grow up to the cap, here the shorter stream's length
    serial(monkeypatch)
    monkeypatch.setattr(chain_module, "BLOCK", WELCH_STRIDE)
    monkeypatch.setattr(chain_module, "WELCH_CAP", 1 << 17)
    chains = CHAINS["q4-direct"], CHAINS["q4-resample-q8"]
    sensitivity_loss(*chains, 4_096, *requant_antennas(3))  # the caches, before either peak
    peaks = []
    for n_out in (1 << 17, 1 << 19):
        tracemalloc.start()
        try:
            sensitivity_loss(*chains, n_out, *requant_antennas(3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


def small_loss(monkeypatch, n=20_000, block=1 << 13):
    # blue and red over n outputs in 8 segments, in blocks of ``block``:
    # three at the defaults, so the child runs the second
    monkeypatch.setattr(chain_module, "BLOCK", block)
    return sensitivity_loss(CHAINS["q4-direct"], CHAINS["q4-resample-q8"], n, *requant_antennas(3), segments=8)


def serial(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])


def test_forked_loss_matches_the_serial_loss_bit_for_bit(monkeypatch, deadline):
    with deadline():
        forked = small_loss(monkeypatch)
    assert not multiprocessing.active_children()
    serial(monkeypatch)
    one_process = small_loss(monkeypatch)
    assert forked.n_samples == one_process.n_samples == 20_000
    for f in fields(one_process):
        got, want = getattr(forked, f.name), getattr(one_process, f.name)
        assert np.array_equal(got, want, equal_nan=True), f.name


def test_even_blocks_run_here_and_odd_blocks_in_the_child(monkeypatch, tmp_path, deadline):
    # a direct source's first sample is its block's first output
    log = tmp_path / "blocks.log"
    original = chain_module.eval_tones

    def logged(amps, freqs, phases, grid):
        if grid.rate == F_C:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {grid.start}\n")
        return original(amps, freqs, phases, grid)

    monkeypatch.setattr(chain_module, "eval_tones", logged)
    with deadline():
        small_loss(monkeypatch)
    runs = Counter((pid == str(os.getpid()), int(start) - SKIP) for pid, start in map(str.split, log.read_text().splitlines()))
    assert runs == {(True, 0): 2, (False, 1 << 13): 2, (True, 2 << 13): 2}  # both antennas of each block


def record_calls(monkeypatch, name, module=chain_module):
    """Record the arguments of each call of ``module``'s ``name``."""
    calls = []
    original = getattr(module, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_one_source_evaluation_feeds_each_chain_and_its_twin(monkeypatch):
    # per block and chain, one eval_tones call per antenna: blue's two at F_C,
    # red's one at each antenna's rate
    serial(monkeypatch)
    calls = record_calls(monkeypatch, "eval_tones")
    red = CHAINS["q4-resample-q8"]
    small_loss(monkeypatch, n=150_000, block=WELCH_STRIDE)
    rates = {F_C: "blue", F_C * (1 + red.offset): "red 0", F_C * (1 - red.offset): "red 1"}
    blocks = Counter(rates[g.rate] for *_, g in calls)
    count = -(-150_000 // WELCH_STRIDE)
    assert blocks == {"blue": 2 * count, "red 0": count, "red 1": count}


def test_each_source_evaluates_exactly_the_inputs_its_outputs_need(monkeypatch):
    # each block computes its own outputs, and inside the Welch cap the 768
    # past its end that its last batch reads; a resampled source spans about
    # (count - 1) * ratio inputs plus the taps (test_resampler.py pins it)
    serial(monkeypatch)
    calls = record_calls(monkeypatch, "eval_tones")
    red = CHAINS["q4-resample-q8"]
    small_loss(monkeypatch, n=150_000, block=WELCH_STRIDE)
    last = 150_000 // WELCH_STRIDE * WELCH_STRIDE  # the last block's first output
    assert 150_000 - last > 768  # its own batch ends at the last output
    blocks = [(first, WELCH_STRIDE + 768) for first in range(0, last, WELCH_STRIDE)] + [(last, 150_000 - last)]
    assert [(g.start - SKIP, g.count) for *_, g in calls if g.rate == F_C] == [b for b in blocks for _ in range(2)]
    for ratio in (1 + red.offset, 1 - red.offset):
        mine = [g for *_, g in calls if g.rate == F_C * ratio]
        assert len(mine) == len(blocks)
        assert all(abs(g.count - ((count - 1) * ratio + red.bank.taps_per_phase)) <= 1 for g, (_, count) in zip(mine, blocks))


@pytest.mark.parametrize("plan_block", [PLAN_BLOCK, 4_096])
def test_each_red_antenna_block_is_planned_once_where_its_period_fits(monkeypatch, plan_block):
    # the chain and its twin fold on one plan: per red antenna block one
    # resample_range call.  At 1 +- 1/10,000 the plan's period is 10,000
    # outputs: at the default PLAN_BLOCK a block goes in pieces of 60,000,
    # six periods, that share one plan of a single period; below the period,
    # one plan per PLAN_BLOCK
    serial(monkeypatch)
    monkeypatch.setattr(resampler_module, "PLAN_BLOCK", plan_block)
    plans = record_calls(monkeypatch, "phase_run", rational_module)
    folds = record_calls(monkeypatch, "resample_range")
    small_loss(monkeypatch, n=150_000, block=5 * WELCH_STRIDE)
    counts = [count for *_, count in folds]
    assert len(counts) == 4 and min(counts) > 60_000  # two blocks per antenna
    if plan_block == PLAN_BLOCK:
        assert [count for *_, count in plans] == [10_000] * len(counts)
    else:
        assert len(plans) == sum(-(-count // plan_block) for count in counts)


def test_both_antennas_yield_equal_blocks(monkeypatch):
    # the chain's Q8 requantizer sees each block of antenna 0, then the same
    # block of antenna 1: 2,500 outputs in blocks of 1,000, the first
    # reaching to the end for its Welch batch, although at ratios 1.01 and
    # 0.99 the blocks read unequal source spans
    serial(monkeypatch)
    calls = record_calls(monkeypatch, "quantize_array")
    monkeypatch.setattr(chain_module, "BLOCK", 1_000)
    red = replace(CHAINS["q4-resample-q8"], offset=Fraction(1, 100))
    sensitivity_loss(CHAINS["q4-direct"], red, 2_500, *requant_antennas(3), segments=4)
    q8 = [len(x) for x, spec, _ in calls if spec is red.out_quant]
    assert q8 == [2_500, 2_500, 1_000, 1_000, 500, 500]


@pytest.mark.parametrize("offset", [Fraction(1, 10_000), Fraction(1, 100)])
def test_the_samples_do_not_depend_on_the_blocks(monkeypatch, offset):
    # at ratios 1.01 and 0.99 a block of 6,000 outputs reads about 6,060 and
    # 5,940 source samples, so the antennas' source grids part block by
    # block; the Welch sums take whole batches of the same samples, and only
    # the cut of the segments' sums follows the blocks
    serial(monkeypatch)
    red = replace(CHAINS["q4-resample-q8"], offset=offset)
    runs = []
    for block in (6_000, BLOCK):
        monkeypatch.setattr(chain_module, "BLOCK", block)
        runs.append(sensitivity_loss(CHAINS["q4-direct"], red, 20_000, *requant_antennas(3), segments=8))
    split, whole = runs
    assert np.array_equal(split.per_freq, whole.per_freq)
    for name in ("loss_a", "loss_b", "stderr", "rho_float_a", "rho_float_b"):
        assert abs(getattr(split, name) - getattr(whole, name)) <= 1e-12, name


def fail_on(monkeypatch, in_child, action):
    """Run ``action`` before each source evaluation in the forked child (the
    odd blocks) or in this process (the even ones)."""
    here = os.getpid()
    original = chain_module.eval_tones

    def eval_tones(*args):
        if (os.getpid() != here) == in_child:
            action()
        return original(*args)

    monkeypatch.setattr(chain_module, "eval_tones", eval_tones)


def raise_config_invalid():
    raise ConfigInvalid("block", "rejected")


def test_a_block_error_in_the_child_reaches_the_caller_with_its_class(monkeypatch, deadline):
    fail_on(monkeypatch, in_child=True, action=raise_config_invalid)
    with deadline(), pytest.raises(ConfigInvalid, match="block: rejected"):
        small_loss(monkeypatch)
    assert not multiprocessing.active_children()


def test_error_before_the_first_read_still_ends_the_child(monkeypatch, deadline):
    # this process fails on its first block, before it reads the child's result
    fail_on(monkeypatch, in_child=False, action=raise_config_invalid)
    with deadline(), pytest.raises(ConfigInvalid):
        small_loss(monkeypatch)
    assert not multiprocessing.active_children()


def test_a_child_death_raises_eof(monkeypatch, deadline):
    fail_on(monkeypatch, in_child=True, action=lambda: os._exit(3))
    with deadline(), pytest.raises(EOFError):
        small_loss(monkeypatch)
    assert not multiprocessing.active_children()


def test_config_invalid_survives_pickling():
    exc = pickle.loads(pickle.dumps(ConfigInvalid("a", "b")))
    assert type(exc) is ConfigInvalid
    assert exc.field == "a"
    assert str(exc) == "a: b"


def test_both_chains_start_at_output_72_whatever_the_taps(monkeypatch, tmp_path):
    # the paired segment differences behind requant-loss's stderr pair the
    # same outputs of blue and red only if both chains start at one output
    serial(monkeypatch)
    sources = record_calls(monkeypatch, "eval_tones")
    folds = record_calls(monkeypatch, "resample_range")
    run_scenario("requant-loss", {"samples": 4_096, "taps": 64}, out_dir=tmp_path)
    blue = [g.start for *_, g in sources if g.rate == F_C]
    red = [first for *_, first, _ in folds]
    assert blue == [72] * 2  # antennas 0 and 1, each chain with its twin
    assert red == [72] * 2

