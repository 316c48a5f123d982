"""Streaming two-antenna processing chains for Monte-Carlo loss experiments.

A chain is sample -> (quantize) -> (resample) -> (requantize); its float
twin runs on the identical float samples so the loss 1 - rho/rho_float
isolates exactly the chain's quantization steps.  sensitivity_loss compares
two chains by that loss, with a standard error from per-segment losses.

Everything streams in blocks that count outputs: both antennas step through
the same blocks of ``chunk`` common-clock outputs, so each block pairs
equal arrays and memory follows the block, not the stream.  A resampling
block is one resampler.resample_range call, which synthesizes and quantizes
exactly the source samples its outputs read; no state passes from one block
to the next.  The correlators hold per-segment sums and the Welch spectra
hold one batch of segments (see _WelchCross), so the 1e8-sample runs the
acceptance suite demands take the memory of a short one.

Noise is modeled as dense random tone banks rather than RNG samples so the
same underlying waveform exists on every antenna's (offset) sample grid.

Blocking never changes a sample value: sources evaluate the exact-grid form of
eval_tones, whose blocks are anchored at absolute sample indices, and each
output is folded in the same strict tap order whatever the tile or block it
falls in (see resampler._fir_rows).  Every sample value is therefore
independent of ``chunk``; only the grouping of the correlators' partial sums
follows it.

One sensitivity_loss experiment has four channels: each of its two chains
and each chain's float twin, every channel over both antennas.  A channel
meets the others only in the final losses, so run_channel computes one
channel alone, and sensitivity_loss makes one fork over the four
(``map_forked``): this process runs the first chain and the second chain's
twin, and a forked child the first chain's twin and the second chain, so
each process quantizes one chain.  Every channel evaluates its own source
waveforms, so no sample crosses the fork; the child sends one message at the
end (each channel's total and per-segment rho and its Welch coherence).
Each channel adds the same arrays in the same order wherever it runs, so
every result is that of a one-process run.  Pin BLAS to one thread
(OPENBLAS_NUM_THREADS=1): a BLAS thread pool in each process oversubscribes
the cores and takes the gain back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .frontend import QuantizerSpec, quantize_array
from .resampler import PASSBAND, CoefficientBank, resample_range
from .signal import SampleGrid, combine, eval_tones, synth_signal

F_C = Fraction(1_000_000)  # the chains' common clock
WELCH_NFFT = 1024  # samples per window of the per-frequency loss spectra
WELCH_CAP = 1 << 20  # leading samples the loss spectra average over
# The first output correlated, the same for every chain.  Every output reads
# real samples (see resampler.resample_range), so none needs dropping; 72 is
# kept so the outputs of the default runs hold.
SKIP = 72


@dataclass(frozen=True)
class ChainSpec:
    """One processing-chain recipe applied symmetrically to both antennas."""

    input_quant: QuantizerSpec | None = None
    offset: Fraction = Fraction(0)  # f_a = F_C*(1 +/- offset) when resampling
    out_quant: QuantizerSpec | None = None
    bank: CoefficientBank | None = None  # None: sample at F_C, no resampling


@dataclass(frozen=True)
class SignalModel:
    """Shared sky plus independent per-antenna noise, all analytic tones."""

    sky_seed: int = 1
    n_sky_tones: int = 16
    n_noise_tones: int = 16
    snr: float = 1.0  # sky power over noise power per antenna

    def noise_seed(self, antenna: int) -> int:
        return self.sky_seed * 1009 + 101 + antenna


class _SegmentedCorrelator:
    """Per-segment (sum ab, sum a^2, sum b^2) for stderr estimation."""

    def __init__(self, seg_len: int):
        self.seg_len = seg_len
        self.segs = []
        self._cur = np.zeros(3)
        self._fill = 0

    def add(self, a: np.ndarray, b: np.ndarray) -> None:
        pos = 0
        while pos < len(a):
            take = min(self.seg_len - self._fill, len(a) - pos)
            sa = a[pos : pos + take]
            sb = b[pos : pos + take]
            self._cur += (float(sa @ sb), float(sa @ sa), float(sb @ sb))
            self._fill += take
            pos += take
            if self._fill == self.seg_len:
                self.segs.append(self._cur)
                self._cur = np.zeros(3)
                self._fill = 0

    def rho_total(self) -> float:
        rows = np.array(self.segs if self._fill == 0 else self.segs + [self._cur])
        sab, saa, sbb = rows.sum(axis=0)
        return float(sab / np.sqrt(saa * sbb))

    def rho_segments(self) -> np.ndarray:
        rows = np.array(self.segs)
        return rows[:, 0] / np.sqrt(rows[:, 1] * rows[:, 2])


class _WelchCross:
    """Averaged cross/auto spectra (hann, 75% overlap) over a leading cap.

    The segments are transformed in batches of BATCH as their samples arrive,
    through one buffer that holds a batch's samples of both antennas: add()
    fills it, and each time it is full folds its BATCH segments into the
    running sums and keeps only the 3/4-window overlap with the next batch;
    spectra() folds the last, partial batch.  So memory is one batch, however
    long the cap, and the batches are those of one pass over all the samples.
    """

    BATCH = 256

    def __init__(self, nfft: int = WELCH_NFFT, cap: int = WELCH_CAP):
        self.nfft = nfft
        self.cap = cap
        self._win = np.hanning(nfft)
        self._seen = 0  # samples taken, at most cap
        self._buf = np.empty((2, (self.BATCH - 1) * (nfft // 4) + nfft))
        self._fill = 0
        self._nseg = 0
        self._sab = np.zeros(nfft // 2 + 1, dtype=np.complex128)
        self._saa = np.zeros(nfft // 2 + 1)
        self._sbb = np.zeros(nfft // 2 + 1)

    def add(self, a: np.ndarray, b: np.ndarray) -> None:
        take = max(min(self.cap - self._seen, len(a)), 0)
        self._seen += take
        span = self._buf.shape[1]
        overlap = self.nfft - self.nfft // 4  # the next batch's first segment starts here
        pos = 0
        while pos < take:
            k = min(span - self._fill, take - pos)
            self._buf[0, self._fill : self._fill + k] = a[pos : pos + k]
            self._buf[1, self._fill : self._fill + k] = b[pos : pos + k]
            self._fill += k
            pos += k
            if self._fill == span:
                self._fold()
                self._buf[:, :overlap] = self._buf[:, span - overlap :]
                self._fill = overlap

    def _fold(self) -> None:
        """Add every segment of the buffer's ``_fill`` samples to the sums."""
        n, step = self.nfft, self.nfft // 4
        if self._fill < n:
            return
        segs = sliding_window_view(self._buf[:, : self._fill], n, axis=1)[:, ::step]
        fa = np.fft.rfft(segs[0] * self._win, axis=1)
        fb = np.fft.rfft(segs[1] * self._win, axis=1)
        self._saa += np.sum(np.abs(fa) ** 2, axis=0)
        self._sbb += np.sum(np.abs(fb) ** 2, axis=0)
        self._sab += np.sum(fa * np.conj(fb), axis=0)
        self._nseg += len(fa)

    def spectra(self):
        """The averaged (S_ab, S_aa, S_bb) over every segment of the samples
        taken; call after the last add()."""
        self._fold()
        self._fill = 0  # folded; a second call returns the same spectra
        if self._nseg == 0:
            raise ValueError(f"fewer than {self.nfft} samples: no Welch segment")
        return self._sab / self._nseg, self._saa / self._nseg, self._sbb / self._nseg


_forking = False  # whether a map_forked call is running in this process or its parent


def map_forked(fn, items):
    """``[fn(x) for x in items]`` with ``items[1::2]`` run in a forked child
    process while this one runs ``items[0::2]``; results come back in item
    order.

    Fork over independent cases whose results are a few numbers: the child
    pickles its results through a one-way pipe, so a result as large as a
    whole sample stream costs more to send than the fork saves.

    A map_forked call reached while another is running, in its parent or in
    its child, runs its items in place, so at most two processes ever run.
    A child's exception is re-raised here with its own class; a child that
    dies reads as EOFError.  On every exit path the child is terminated and
    joined.  Where the platform cannot fork, every item runs here.
    """
    import multiprocessing

    global _forking
    if _forking or len(items) < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(x) for x in items]
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_results, args=(send, fn, items[1::2]))
    _forking = True  # before the fork, so the child inherits it
    try:
        child.start()
        send.close()  # the child holds the only send end, so its death reads as EOFError
        even = [fn(x) for x in items[0::2]]
        ok, odd = recv.recv()  # before join: a result can outgrow the pipe buffer
    finally:
        _forking = False
        if child.pid is not None:  # it started
            child.terminate()
            child.join()
        recv.close()
    if not ok:
        raise odd
    out = list(items)
    out[0::2], out[1::2] = even, odd
    return out


def _send_results(send, fn, items):
    try:
        send.send((True, [fn(x) for x in items]))
    except Exception as exc:  # fn's, or the pickling of its results
        send.send((False, exc))


def run_channel(
    chain: ChainSpec,
    model: SignalModel,
    n_out: int,
    twin: bool,
    segments: int = 64,
    chunk: int = 1 << 19,
):
    """Correlate one chain's outputs over two antennas at the common clock
    F_C, or its float twin's if ``twin``, with the sky and noise in the bank's
    PASSBAND: the total and per-segment rho and the Welch coherence per
    frequency."""
    nyq = float(F_C) / 2.0
    band = (PASSBAND[0] * nyq, PASSBAND[1] * nyq)
    sky = synth_signal(model.sky_seed, model.n_sky_tones, band, rms=1.0)
    noise_rms = float(np.sqrt(1.0 / model.snr))
    sigma_in = float(np.sqrt(1.0 + noise_rms**2))
    blocks = [(k, min(chunk, SKIP + n_out - k)) for k in range(SKIP, SKIP + n_out, chunk)]

    def antenna(i):
        """Yield antenna i's outputs, one block at a time, each from exactly
        the source samples it reads."""
        noise = synth_signal(model.noise_seed(i), model.n_noise_tones, band, rms=noise_rms)
        sign = 1 if i == 0 else -1
        ratio = 1 + sign * Fraction(chain.offset) if chain.bank is not None else Fraction(1)
        tones = combine(sky, noise).arrays()

        def source(lo, n):
            """Source samples lo .. lo+n-1 at the antenna's rate, Q4-quantized
            unless ``twin``."""
            out = eval_tones(*tones, SampleGrid(F_C * ratio, lo, n))
            if chain.input_quant is not None and not twin:
                out = quantize_array(out, chain.input_quant, sigma_in)
            return out

        for k, m in blocks:
            out = resample_range(source, ratio, chain.bank, k, m) if chain.bank is not None else source(k, m)
            if chain.out_quant is not None and not twin:
                out = quantize_array(out, chain.out_quant, sigma_in)
            yield out

    corr, welch = _SegmentedCorrelator(max(n_out // segments, 1)), _WelchCross()
    for a, b in zip(antenna(0), antenna(1)):
        corr.add(a, b)
        welch.add(a, b)
        del a, b  # so each antenna's next block replaces its last, not joins it
    sab, saa, sbb = welch.spectra()
    return corr.rho_total(), corr.rho_segments(), np.abs(sab) / np.sqrt(saa * sbb)


@dataclass
class SensitivityLossReport:
    loss_a: float
    loss_b: float
    difference: float
    stderr: float
    n_samples: int
    per_freq: list  # rows of (freq_hz, loss_a, loss_b)
    rho_float_a: float
    rho_float_b: float


def sensitivity_loss(chain_a, chain_b, n: int, model, segments: int = 64) -> SensitivityLossReport:
    """Broadband and per-frequency sensitivity loss of two processing chains.

    Both chains see the same sky realization of ``model`` plus independent
    per-antenna noise; each chain is compared against its own float twin
    running on the identical samples, so loss_x = 1 - rho_x/rho_float_x
    isolates the quantization/resampling effects.  The reported standard error
    comes from per-segment loss differences.
    """
    def channel(item):
        chain, twin = item
        return run_channel(chain, model, n, twin, segments)

    # a's chain and b's twin here, a's twin and b's chain in a forked child,
    # so each process quantizes one chain; no sample crosses over
    channels = [(chain_a, False), (chain_a, True), (chain_b, True), (chain_b, False)]
    a, a_twin, b_twin, b = map_forked(channel, channels)

    def losses(chain, twin):
        """1 - chain/twin of the total rho, each segment's rho and each
        frequency's coherence."""
        return [1.0 - c / f for c, f in zip(chain, twin)]

    with np.errstate(divide="ignore", invalid="ignore"):  # a frequency the twin has no power at
        loss_a, seg_a, freq_a = losses(a, a_twin)
        loss_b, seg_b, freq_b = losses(b, b_twin)
    diff_segs = seg_b - seg_a  # both chains fill the same segments
    stderr = float(np.std(diff_segs, ddof=1) / np.sqrt(len(diff_segs)))
    freqs = np.fft.rfftfreq(WELCH_NFFT, d=1.0 / float(F_C))
    return SensitivityLossReport(
        loss_a=loss_a,
        loss_b=loss_b,
        difference=loss_b - loss_a,
        stderr=stderr,
        n_samples=n,
        per_freq=list(zip(freqs, freq_a, freq_b)),
        rho_float_a=a_twin[0],
        rho_float_b=b_twin[0],
    )
