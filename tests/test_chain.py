import multiprocessing
import os
import pickle
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from scfosim import chain as chain_module
from scfosim.chain import SKIP, ChainSpec, SignalModel, _WelchCross, run_channel, sensitivity_loss
from scfosim.errors import ConfigInvalid
from scfosim.frontend import QuantKind, QuantizerSpec
from scfosim.resampler import cached_bank
from scfosim.scenarios import run_scenario

Q4 = QuantizerSpec(QuantKind.Q4_OPTIMAL, 1.0)
CHAINS = {
    "q4-direct": ChainSpec(input_quant=Q4),
    "q4-resample-q8": ChainSpec(
        input_quant=Q4,
        offset=Fraction(1, 10_000),
        out_quant=QuantizerSpec(QuantKind.Q8_UNIFORM, 0.5),
        bank=cached_bank(56, 1024, 19),
    ),
}


def test_welch_batches_change_only_rounding():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(40_000)
    b = 0.5 * a + rng.standard_normal(40_000)
    # one-shot Welch average of the leading 30,000 samples
    win = np.hanning(256)
    fa = np.fft.rfft(np.lib.stride_tricks.sliding_window_view(a[:30_000], 256)[::64] * win)
    fb = np.fft.rfft(np.lib.stride_tricks.sliding_window_view(b[:30_000], 256)[::64] * win)
    want = (np.mean(fa * np.conj(fb), axis=0), np.mean(abs(fa) ** 2, axis=0), np.mean(abs(fb) ** 2, axis=0))
    assert len(fa) > _WelchCross.BATCH  # more than one batch
    welch = _WelchCross(nfft=256, cap=30_000)
    for lo in range(0, 40_000, 3_000):
        welch.add(a[lo : lo + 3_000], b[lo : lo + 3_000])
    for got, ref in zip(welch.spectra(), want):
        assert np.allclose(got, ref, rtol=1e-12, atol=0)


def test_spectra_of_less_than_one_window_raise():
    welch = _WelchCross(nfft=256, cap=30_000)
    welch.add(np.ones(255), np.ones(255))
    with pytest.raises(ValueError, match="no Welch segment"):
        welch.spectra()


def welch_one_pass(a, b, nfft, cap):
    """The Welch sums of every segment of the leading ``cap`` samples, taken
    in one pass over them all, BATCH segments per transform."""
    n, step, win = nfft, nfft // 4, np.hanning(nfft)
    seg_a = sliding_window_view(a[:cap], n)[::step]
    seg_b = sliding_window_view(b[:cap], n)[::step]
    sab = np.zeros(n // 2 + 1, dtype=np.complex128)
    saa, sbb = np.zeros(n // 2 + 1), np.zeros(n // 2 + 1)
    for lo in range(0, len(seg_a), _WelchCross.BATCH):
        fa = np.fft.rfft(seg_a[lo : lo + _WelchCross.BATCH] * win, axis=1)
        fb = np.fft.rfft(seg_b[lo : lo + _WelchCross.BATCH] * win, axis=1)
        sab += np.sum(fa * np.conj(fb), axis=0)
        saa += np.sum(np.abs(fa) ** 2, axis=0)
        sbb += np.sum(np.abs(fb) ** 2, axis=0)
    return sab / len(seg_a), saa / len(seg_a), sbb / len(seg_a)


@pytest.mark.parametrize(
    "total, cap, size",
    [
        (50_000, 40_000, 50_000),  # one add of everything, past the cap
        (50_000, 40_000, 1),
        (50_000, 40_000, 777),  # the cap falls inside an add
        (50_000, 40_000, 3_000),
        (5_000, 40_000, 777),  # fewer samples than one batch of segments
    ],
)
def test_welch_spectra_do_not_depend_on_the_adds(total, cap, size):
    rng = np.random.default_rng(4)
    a = rng.standard_normal(total)
    b = 0.5 * a + rng.standard_normal(total)
    welch = _WelchCross(nfft=256, cap=cap)
    for lo in range(0, total, size):
        welch.add(a[lo : lo + size], b[lo : lo + size])
    for got, want in zip(welch.spectra(), welch_one_pass(a, b, 256, cap)):
        assert np.array_equal(got, want)


def test_chain_memory_does_not_grow_with_the_stream():
    # a channel runs in this process, so tracemalloc sees every array of it
    chain = CHAINS["q4-resample-q8"]
    run_channel(chain, SignalModel(sky_seed=3), 4_096, False)  # the caches, before either peak
    peaks = []
    for n_out in (1 << 17, 1 << 19):
        tracemalloc.start()
        try:
            run_channel(chain, SignalModel(sky_seed=3), n_out, False, chunk=1 << 14)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


def small_loss():
    # blue and red over 20,000 outputs in 8 segments
    return sensitivity_loss(CHAINS["q4-direct"], CHAINS["q4-resample-q8"], 20_000, SignalModel(sky_seed=3), segments=8)


def test_forked_loss_matches_the_serial_loss_bit_for_bit(monkeypatch, deadline):
    with deadline():
        forked = small_loss()
    assert not multiprocessing.active_children()
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    serial = small_loss()
    assert forked.n_samples == serial.n_samples == 20_000
    for f in fields(serial):
        got, want = getattr(forked, f.name), getattr(serial, f.name)
        assert np.array_equal(got, want, equal_nan=True), f.name


def test_each_process_quantizes_one_chain(monkeypatch, tmp_path, deadline):
    # this process runs blue's chain and red's twin, the child blue's twin and red's chain
    log = tmp_path / "channels.log"
    original = chain_module.run_channel

    def logged(chain, model, n_out, twin, segments):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {'red' if chain.bank else 'blue'} {'twin' if twin else 'chain'}\n")
        return original(chain, model, n_out, twin, segments)

    monkeypatch.setattr(chain_module, "run_channel", logged)
    with deadline():
        small_loss()
    runs = [line.split() for line in log.read_text().splitlines()]
    here = str(os.getpid())
    assert sorted((pid == here, color, what) for pid, color, what in runs) == [
        (False, "blue", "twin"), (False, "red", "chain"), (True, "blue", "chain"), (True, "red", "twin"),
    ]


def fail_on(monkeypatch, in_child, action):
    """Run ``action`` before each source chunk's eval_tones in the forked child
    (blue's twin and red's chain) or in this process (blue's chain and red's
    twin)."""
    here = os.getpid()
    original = chain_module.eval_tones

    def eval_tones(*args):
        if (os.getpid() != here) == in_child:
            action()
        return original(*args)

    monkeypatch.setattr(chain_module, "eval_tones", eval_tones)


def raise_config_invalid():
    raise ConfigInvalid("chunk", "rejected")


def test_a_channel_error_in_the_child_reaches_the_caller_with_its_class(monkeypatch, deadline):
    fail_on(monkeypatch, in_child=True, action=raise_config_invalid)
    with deadline(), pytest.raises(ConfigInvalid, match="chunk: rejected"):
        small_loss()
    assert not multiprocessing.active_children()


def test_error_before_the_first_read_still_ends_the_child(monkeypatch, deadline):
    # this process fails on its first chunk, before it reads the child's result
    fail_on(monkeypatch, in_child=False, action=raise_config_invalid)
    with deadline(), pytest.raises(ConfigInvalid):
        small_loss()
    assert not multiprocessing.active_children()


def test_a_child_death_raises_eof(monkeypatch, deadline):
    fail_on(monkeypatch, in_child=True, action=lambda: os._exit(3))
    with deadline(), pytest.raises(EOFError):
        small_loss()
    assert not multiprocessing.active_children()


def test_config_invalid_survives_pickling():
    exc = pickle.loads(pickle.dumps(ConfigInvalid("a", "b")))
    assert type(exc) is ConfigInvalid
    assert exc.field == "a"
    assert str(exc) == "a: b"


@pytest.mark.parametrize("twin", [False, True], ids=["chain", "twin"])
@pytest.mark.parametrize("name", sorted(CHAINS))
def test_a_channel_inside_one_chunk_does_not_depend_on_the_chunk(name, twin):
    # 3,000 outputs: each source stops inside the first chunk of either size
    runs = [
        run_channel(CHAINS[name], SignalModel(sky_seed=5), 3_000, twin, segments=4, chunk=chunk)
        for chunk in (4096, 1 << 19)
    ]
    for got, want in zip(*runs):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("twin", [False, True], ids=["chain", "twin"])
def test_antennas_whose_sources_stop_in_different_chunks(twin):
    # at ratios 1.01 and 0.99 a block of 6,000 outputs reads about 6,060 and
    # 5,940 source samples, so the two antennas' source grids part block by
    # block; the samples do not depend on the blocks
    chain = replace(CHAINS["q4-resample-q8"], offset=Fraction(1, 100))
    split = run_channel(chain, SignalModel(sky_seed=3), 20_000, twin, segments=8, chunk=6_000)
    whole = run_channel(chain, SignalModel(sky_seed=3), 20_000, twin, segments=8, chunk=1 << 19)
    # the same samples; only the grouping of the correlators' sums differs
    assert abs(split[0] - whole[0]) <= 1e-12
    assert len(split[1]) == 8
    assert np.allclose(split[1], whole[1], rtol=0, atol=1e-12)
    assert np.allclose(split[2], whole[2], rtol=0, atol=1e-12)


def record_calls(monkeypatch, name):
    """Record the arguments of each call of the chain module's ``name``."""
    calls = []
    original = getattr(chain_module, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(chain_module, name, recorded)
    return calls


def test_each_source_evaluates_exactly_the_inputs_its_outputs_need(monkeypatch):
    # each block of outputs evaluates its source once, over the span
    # resample_range asks for (test_resampler.py pins that span): about
    # (m - 1) * ratio inputs plus the taps
    calls = record_calls(monkeypatch, "eval_tones")
    chain = CHAINS["q4-resample-q8"]
    n_out, chunk = 3_000, 1_000
    run_channel(chain, SignalModel(sky_seed=3), n_out, False, segments=4, chunk=chunk)
    blocks = [(k, min(chunk, SKIP + n_out - k)) for k in range(SKIP, SKIP + n_out, chunk)]
    assert [m for _, m in blocks] == [1_000, 1_000, 1_000]
    for ratio in (1 + chain.offset, 1 - chain.offset):
        mine = [g for *_, g in calls if g.rate == chain_module.F_C * ratio]
        assert len(mine) == len(blocks)
        assert all(abs(g.count - (999 * ratio + chain.bank.taps_per_phase)) <= 1 for g in mine)
    # without a resampler, a block's outputs are its source samples
    calls.clear()
    run_channel(CHAINS["q4-direct"], SignalModel(sky_seed=3), n_out, False, segments=4, chunk=chunk)
    pairs = [(chain_module.F_C, k, m) for k, m in blocks for _ in range(2)]  # antenna 0, then 1
    assert [(g.rate, g.start, g.count) for *_, g in calls] == pairs


def test_both_antennas_yield_equal_blocks(monkeypatch):
    # the chain's Q8 requantizer sees each block of antenna 0, then the same
    # block of antenna 1: 2,500 outputs in blocks of 1,000, 1,000 and 500,
    # although at ratios 1.01 and 0.99 the blocks read unequal source spans
    calls = record_calls(monkeypatch, "quantize_array")
    chain = replace(CHAINS["q4-resample-q8"], offset=Fraction(1, 100))
    run_channel(chain, SignalModel(sky_seed=3), 2_500, False, segments=4, chunk=1_000)
    q8 = [len(x) for x, spec, _ in calls if spec is chain.out_quant]
    assert q8 == [1_000, 1_000, 1_000, 1_000, 500, 500]


def test_both_chains_start_at_output_72_whatever_the_taps(monkeypatch, tmp_path):
    # the paired segment differences behind requant-loss's stderr pair the
    # same outputs of blue and red only if both chains start at one output
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    sources = record_calls(monkeypatch, "eval_tones")
    ranges = record_calls(monkeypatch, "resample_range")
    run_scenario("requant-loss", {"samples": 4_096, "taps": 64}, out_dir=tmp_path)
    blue = [g.start for *_, g in sources if g.rate == chain_module.F_C]
    red = [first for _, _, _, first, _ in ranges]
    assert blue == [72] * 4  # antennas 0 and 1, the chain and its twin
    assert red == [72] * 4
