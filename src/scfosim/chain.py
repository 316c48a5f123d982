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

Each antenna is processed on its own and the two meet only at the
correlators, so each chain runs its two antennas in two processes: antenna 1
streams its chunks from a forked child (``forked_stream``).  No chunk value
depends on which process computed it, and the correlators add the same arrays
in the same order, so every result is the same as a one-process run.  Pin
BLAS to one thread (OPENBLAS_NUM_THREADS=1): a BLAS thread pool in each
process oversubscribes the cores and takes the gain back.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .frontend import QuantizerSpec, quantize_array
from .resampler import Resampler, cached_bank
from .signal import SampleGrid, combine, eval_tones, synth_signal


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
    band_frac: tuple[float, float] = (0.0833, 0.9167)

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


@contextlib.contextmanager
def forked_stream(make):
    """Iterate ``make()``'s values, computed in a forked child process.

    The child starts on entry, so it works while this process does.  It sends
    each value over a one-way pipe, and a send blocks until this process reads
    it, so the child runs at most one value ahead.  A child's exception is
    re-raised here with its own class; a child that dies reads as EOFError.
    On every exit path the child is terminated (it may be computing a surplus
    value) and joined.  Where the platform cannot fork, ``make()`` runs here.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        yield make()
        return
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_values, args=(send, make))
    child.start()
    send.close()  # the child holds the only send end, so its death reads as EOFError
    try:
        yield _received(recv)
    finally:
        child.terminate()
        recv.close()
        child.join()


def _send_values(send, make):
    try:
        for value in make():
            send.send((True, value))
        send.send((False, None))
    except Exception as exc:  # make's, or the pickling of a value
        send.send((False, exc))


def _received(recv):
    while True:
        ok, value = recv.recv()  # before join: one value can outgrow the pipe buffer
        if ok:
            yield value
        elif value is None:
            return
        else:
            raise value


def run_dual_chain(
    chain: ChainSpec,
    model: SignalModel,
    n_out: int,
    f_c: Fraction = Fraction(1_000_000),
    segments: int = 64,
    welch_nfft: int = 1024,
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

    def antenna(i):
        """Yield antenna i's (chain, float twin) outputs, one source chunk at a time."""
        noise = synth_signal(model.noise_seed(i), model.n_noise_tones, band, rms=noise_rms)
        sign = 1 if i == 0 else -1
        ratio = 1 + sign * Fraction(chain.offset) if chain.resample else Fraction(1)
        source = _AntennaSource(combine(sky, noise).arrays(), f_c * ratio, chunk)
        if chain.resample:
            bank = cached_bank(chain.bank_taps, chain.bank_phases, chain.bank_bits)
            p0 = Fraction(chain.bank_taps - 1, 2) * (ratio - 1)  # aligns both output epochs
            twin_c, twin_f = Resampler(bank, ratio, p0), Resampler(bank, ratio, p0)
        while True:
            raw = source.next_chunk()
            q = raw
            if chain.input_quant is not None:
                q = quantize_array(raw, chain.input_quant, sigma_in)
            out_c, out_f = (twin_c.process(q), twin_f.process(raw)) if chain.resample else (q, raw)
            if chain.out_quant is not None:
                out_c = quantize_array(out_c, chain.out_quant, sigma_in)
            yield out_c, out_f

    skip = chain.bank_taps + 16  # discard filter-edge outputs uniformly
    seg_len = max(n_out // segments, 1)
    corr_chain = _SegmentedCorrelator(seg_len)
    corr_float = _SegmentedCorrelator(seg_len)
    welch_chain = _WelchCross(welch_nfft, welch_cap)
    welch_float = _WelchCross(welch_nfft, welch_cap)

    pend = [[np.zeros(0)] * 2 for _ in range(2)]  # [antenna][0=chain,1=float]
    skipped = [[0, 0], [0, 0]]
    done = 0
    with forked_stream(lambda: antenna(1)) as far:  # forks before antenna 0's first chunk
        near = antenna(0)
        while done < n_out:
            for i, outs in enumerate((next(near), next(far))):
                for j, arr in enumerate(outs):
                    if skipped[i][j] < skip:
                        drop = min(skip - skipped[i][j], len(arr))
                        arr = arr[drop:]
                        skipped[i][j] += drop
                    pend[i][j] = np.concatenate([pend[i][j], arr])
            m = min(len(pend[i][j]) for i in (0, 1) for j in (0, 1))
            m = min(m, n_out - done)
            if m == 0:
                continue
            corr_chain.add(pend[0][0][:m], pend[1][0][:m])
            corr_float.add(pend[0][1][:m], pend[1][1][:m])
            welch_chain.add(pend[0][0][:m], pend[1][0][:m])
            welch_float.add(pend[0][1][:m], pend[1][1][:m])
            for i in (0, 1):
                for j in (0, 1):
                    pend[i][j] = pend[i][j][m:]
            done += m

    rho_c = corr_chain.rho_total()
    rho_f = corr_float.rho_total()
    seg_c = corr_chain.rho_segments()
    seg_f = corr_float.rho_segments()
    n_seg = min(len(seg_c), len(seg_f))
    seg_losses = 1.0 - seg_c[:n_seg] / seg_f[:n_seg]

    sab_c, saa_c, sbb_c = welch_chain.spectra()
    sab_f, saa_f, sbb_f = welch_float.spectra()
    rho_fc = np.abs(sab_c) / np.sqrt(saa_c * sbb_c)
    rho_ff = np.abs(sab_f) / np.sqrt(saa_f * sbb_f)
    with np.errstate(divide="ignore", invalid="ignore"):
        loss_f = 1.0 - rho_fc / rho_ff
    freqs = np.fft.rfftfreq(welch_nfft, d=1.0 / float(f_c))

    return DualChainResult(
        rho_chain=rho_c,
        rho_float=rho_f,
        loss=1.0 - rho_c / rho_f,
        seg_losses=seg_losses,
        freqs=freqs,
        loss_per_freq=loss_f,
        n_samples=done,
    )
