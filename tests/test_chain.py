import contextlib
import multiprocessing
import os
import pickle
import signal
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from scfosim.chain import ChainSpec, SignalModel, _AntennaSource, _WelchCross, run_dual_chain
from scfosim.errors import ConfigInvalid
from scfosim.frontend import QuantKind, QuantizerSpec

Q4 = QuantizerSpec(QuantKind.Q4_OPTIMAL, 1.0)
CHAINS = {
    "q4-direct": ChainSpec("q4-direct", input_quant=Q4),
    "q4-resample-q8": ChainSpec(
        "q4-resample-q8",
        input_quant=Q4,
        resample=True,
        offset=Fraction(1, 10_000),
        out_quant=QuantizerSpec(QuantKind.Q8_UNIFORM, 0.5),
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


@contextlib.contextmanager
def deadline(seconds=60):
    """Turn a hang (a child never joined, a pipe never read) into a failure."""

    def expire(*_):  # not TimeoutError: multiprocessing swallows OSErrors while joining
        raise AssertionError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def small_run(name):
    # 20,000 outputs in 4,096-sample chunks: the stream spans several chunks
    return run_dual_chain(CHAINS[name], SignalModel(sky_seed=3), 20_000, segments=8, chunk=4096)


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_forked_antenna_matches_the_serial_chain_bit_for_bit(name, monkeypatch):
    with deadline():
        forked = small_run(name)
    assert not multiprocessing.active_children()
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    serial = small_run(name)
    assert forked.n_samples == serial.n_samples == 20_000
    for f in fields(serial):
        got, want = getattr(forked, f.name), getattr(serial, f.name)
        assert np.array_equal(got, want, equal_nan=True), f.name


def fail_on(monkeypatch, in_child, action):
    """Run ``action`` in place of next_chunk in the forked child (the float
    twin's channel) or in this process (the chain's channel)."""
    here = os.getpid()
    original = _AntennaSource.next_chunk

    def next_chunk(self):
        if (os.getpid() != here) == in_child:
            action()
        return original(self)

    monkeypatch.setattr(_AntennaSource, "next_chunk", next_chunk)


def raise_config_invalid():
    raise ConfigInvalid("chunk", "rejected")


def test_forked_antenna_error_reaches_the_caller_with_its_class(monkeypatch):
    fail_on(monkeypatch, in_child=True, action=raise_config_invalid)
    with deadline(), pytest.raises(ConfigInvalid, match="chunk: rejected"):
        small_run("q4-resample-q8")
    assert not multiprocessing.active_children()


def test_error_before_the_first_read_still_ends_the_child(monkeypatch):
    # this process fails on its first chunk, before it reads the child's result
    fail_on(monkeypatch, in_child=False, action=raise_config_invalid)
    with deadline(), pytest.raises(ConfigInvalid):
        small_run("q4-resample-q8")
    assert not multiprocessing.active_children()


def test_forked_antenna_death_raises_eof(monkeypatch):
    fail_on(monkeypatch, in_child=True, action=lambda: os._exit(3))
    with deadline(), pytest.raises(EOFError):
        small_run("q4-resample-q8")
    assert not multiprocessing.active_children()


def test_config_invalid_survives_pickling():
    exc = pickle.loads(pickle.dumps(ConfigInvalid("a", "b")))
    assert type(exc) is ConfigInvalid
    assert exc.field == "a"
    assert str(exc) == "a: b"
