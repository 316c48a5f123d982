import numpy as np

from scfosim.chain import _WelchCross


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
