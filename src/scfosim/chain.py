"""Streaming two-antenna processing chains for Monte-Carlo loss experiments.

A chain is sample -> (quantize) -> (resample) -> (requantize); its float
twin runs on the identical float samples so the loss 1 - rho/rho_float
isolates exactly the chain's quantization steps.  Everything streams in
chunks: the 1e8-sample runs the acceptance suite demands never hold a full
stream in memory.

Noise is modeled as dense random tone banks rather than RNG samples so the
same underlying waveform exists on every antenna's (offset) sample grid.

Chunking never changes a sample value: sources evaluate the exact-grid form of
eval_tones, whose blocks are anchored at absolute sample indices, and the
resamplers fold every output in the same strict tap order whatever the tile
or chunk it falls in (see resampler._fir_rows).  Every sample value is
therefore independent of ``chunk``; only the grouping of the correlators'
partial sums follows it.

A chain and its float twin meet only in the final loss, so each runs in its
own process over both antennas: this process computes the chain and
correlates its pair, and a forked child (``map_forked``) does the same for the
float twin.  Both evaluate the source waveforms, so no sample crosses the
fork; the child sends one message at the end (its total and per-segment rho
and its Welch coherence), and each process computes half of the Welch
spectra.  A chain and its twin give equal output lengths on each antenna, so
each correlator adds the same arrays in the same order as a one-process run,
and every result is the same.  Pin BLAS to one thread
(OPENBLAS_NUM_THREADS=1): a BLAS thread pool in each process oversubscribes
the cores and takes the gain back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .frontend import QuantizerSpec, quantize_array
from .resampler import PASSBAND, Resampler, cached_bank
from .signal import SampleGrid, combine, eval_tones, synth_signal

WELCH_NFFT = 1024  # samples per window of the per-frequency loss spectra


@dataclass(frozen=True)
class ChainSpec:
    """One processing-chain recipe applied symmetrically to both antennas."""

    name: str
    input_quant: QuantizerSpec | None = None
    resample: bool = False
    offset: Fraction = Fraction(0)  # f_a = f_c*(1 +/- offset) when resampling
    out_quant: QuantizerSpec | None = None
    bank_taps: int = 56
    bank_phases: int = 1024
    bank_bits: int | None = 19


@dataclass(frozen=True)
class SignalModel:
    """Shared sky plus independent per-antenna noise, all analytic tones."""

    sky_seed: int = 1
    n_sky_tones: int = 16
    n_noise_tones: int = 16
    snr: float = 1.0  # sky power over noise power per antenna
    band_frac: tuple[float, float] = PASSBAND

    def noise_seed(self, antenna: int) -> int:
        return self.sky_seed * 1009 + 101 + antenna


@dataclass
class DualChainResult:
    rho_chain: float
    rho_float: float
    loss: float
    seg_losses: np.ndarray
    freqs: np.ndarray
    loss_per_freq: np.ndarray
    n_samples: int


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

    The segment spectra are summed in batches of at most BATCH segments, so
    only one batch of FFTs is held at a time.
    """

    BATCH = 256

    def __init__(self, nfft: int = 1024, cap: int = 1 << 20):
        self.nfft = nfft
        self.cap = cap
        self._a = []
        self._b = []
        self._stored = 0

    def add(self, a: np.ndarray, b: np.ndarray) -> None:
        if self._stored >= self.cap:
            return
        take = min(self.cap - self._stored, len(a))
        self._a.append(np.asarray(a[:take]))
        self._b.append(np.asarray(b[:take]))
        self._stored += take

    def spectra(self):
        n, step = self.nfft, self.nfft // 4
        win = np.hanning(n)
        seg_a = sliding_window_view(np.concatenate(self._a), n)[::step]
        seg_b = sliding_window_view(np.concatenate(self._b), n)[::step]
        sab = np.zeros(n // 2 + 1, dtype=np.complex128)
        saa = np.zeros(n // 2 + 1)
        sbb = np.zeros(n // 2 + 1)
        for lo in range(0, len(seg_a), self.BATCH):
            fa = np.fft.rfft(seg_a[lo : lo + self.BATCH] * win, axis=1)
            fb = np.fft.rfft(seg_b[lo : lo + self.BATCH] * win, axis=1)
            sab += np.sum(fa * np.conj(fb), axis=0)
            saa += np.sum(np.abs(fa) ** 2, axis=0)
            sbb += np.sum(np.abs(fb) ** 2, axis=0)
        nseg = len(seg_a)
        return sab / nseg, saa / nseg, sbb / nseg


class _AntennaSource:
    """Chunked evaluation of one antenna's analytic waveform on its grid.

    Each chunk is the exact-grid form of eval_tones, whose values depend only
    on the absolute sample index, never on the chunk size.
    """

    def __init__(self, tones, rate: Fraction, chunk: int):
        self.amps, self.freqs, self.phases = tones
        self.rate = Fraction(rate)
        self.chunk = chunk
        self.next_index = 0

    def next_chunk(self) -> np.ndarray:
        grid = SampleGrid(self.rate, self.next_index, self.chunk)
        self.next_index += self.chunk
        return eval_tones(self.amps, self.freqs, self.phases, grid)


def map_forked(fn, items):
    """``[fn(x) for x in items]`` with the last item run in a forked child
    process while this one runs the rest.

    The child sends its one result over a one-way pipe.  A child's exception
    is re-raised here with its own class; a child that dies reads as EOFError.
    On every exit path the child is terminated and joined.  Where the platform
    cannot fork, every item runs here.
    """
    import multiprocessing

    if len(items) < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(x) for x in items]
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_result, args=(send, fn, items[-1]))
    child.start()
    send.close()  # the child holds the only send end, so its death reads as EOFError
    try:
        head = [fn(x) for x in items[:-1]]
        ok, last = recv.recv()  # before join: a result can outgrow the pipe buffer
    finally:
        child.terminate()
        recv.close()
        child.join()
    if not ok:
        raise last
    return head + [last]


def _send_result(send, fn, item):
    try:
        send.send((True, fn(item)))
    except Exception as exc:  # fn's, or the pickling of its result
        send.send((False, exc))


def run_dual_chain(
    chain: ChainSpec,
    model: SignalModel,
    n_out: int,
    f_c: Fraction = Fraction(1_000_000),
    segments: int = 64,
    welch_nfft: int = WELCH_NFFT,
    welch_cap: int = 1 << 20,
    chunk: int = 1 << 19,
) -> DualChainResult:
    """Run one chain and its float twin over two antennas; see ChainSpec."""
    f_c = Fraction(f_c)
    nyq = float(f_c) / 2.0
    band = (model.band_frac[0] * nyq, model.band_frac[1] * nyq)
    sky = synth_signal(model.sky_seed, model.n_sky_tones, band, rms=1.0)
    noise_rms = float(np.sqrt(1.0 / model.snr))
    sigma_in = float(np.sqrt(1.0 + noise_rms**2))

    def antenna(i, twin):
        """Yield antenna i's chain output (its float twin's if ``twin``), one
        source chunk at a time."""
        noise = synth_signal(model.noise_seed(i), model.n_noise_tones, band, rms=noise_rms)
        sign = 1 if i == 0 else -1
        ratio = 1 + sign * Fraction(chain.offset) if chain.resample else Fraction(1)
        source = _AntennaSource(combine(sky, noise).arrays(), f_c * ratio, chunk)
        if chain.resample:
            bank = cached_bank(chain.bank_taps, chain.bank_phases, chain.bank_bits)
            p0 = Fraction(chain.bank_taps - 1, 2) * (ratio - 1)  # aligns both output epochs
            resampler = Resampler(bank, ratio, p0)
        while True:
            out = source.next_chunk()
            if chain.input_quant is not None and not twin:
                out = quantize_array(out, chain.input_quant, sigma_in)
            if chain.resample:
                out = resampler.process(out)
            if chain.out_quant is not None and not twin:
                out = quantize_array(out, chain.out_quant, sigma_in)
            yield out

    skip = chain.bank_taps + 16  # discard filter-edge outputs uniformly
    seg_len = max(n_out // segments, 1)

    def channel(twin):
        """Correlate the two antennas' chain (or float-twin) outputs: the
        total and per-segment rho and the Welch coherence per frequency."""
        corr, welch = _SegmentedCorrelator(seg_len), _WelchCross(welch_nfft, welch_cap)
        streams = [antenna(0, twin), antenna(1, twin)]
        pend = [np.zeros(0), np.zeros(0)]
        skipped = [0, 0]
        done = 0
        while done < n_out:
            for i, stream in enumerate(streams):
                arr = next(stream)
                if skipped[i] < skip:
                    drop = min(skip - skipped[i], len(arr))
                    arr = arr[drop:]
                    skipped[i] += drop
                pend[i] = np.concatenate([pend[i], arr])
            m = min(len(pend[0]), len(pend[1]), n_out - done)
            if m == 0:
                continue
            corr.add(pend[0][:m], pend[1][:m])
            welch.add(pend[0][:m], pend[1][:m])
            pend = [p[m:] for p in pend]
            done += m
        sab, saa, sbb = welch.spectra()
        return corr.rho_total(), corr.rho_segments(), np.abs(sab) / np.sqrt(saa * sbb)

    # the chain here, its float twin in a forked child: no sample crosses over
    (rho_c, seg_c, coh_c), (rho_f, seg_f, coh_f) = map_forked(channel, [False, True])
    with np.errstate(divide="ignore", invalid="ignore"):
        loss_f = 1.0 - coh_c / coh_f
    return DualChainResult(
        rho_chain=rho_c,
        rho_float=rho_f,
        loss=1.0 - rho_c / rho_f,
        seg_losses=1.0 - seg_c / seg_f,  # both channels fill the same segments
        freqs=np.fft.rfftfreq(welch_nfft, d=1.0 / float(f_c)),
        loss_per_freq=loss_f,
        n_samples=n_out,
    )
