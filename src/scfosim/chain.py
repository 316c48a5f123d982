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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .frontend import QuantizerSpec, quantize_array
from .resampler import Resampler, design_bank
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


@functools.lru_cache(maxsize=8)
def _bank(taps: int, phases: int, bits):
    return design_bank(taps, phases, bits)


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

    @property
    def total(self) -> int:
        return len(self.segs) * self.seg_len + self._fill


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

    sources = []
    resamplers = []  # (chain_state, float_state) per antenna
    for i in (0, 1):
        noise = synth_signal(model.noise_seed(i), model.n_noise_tones, band, rms=noise_rms)
        tones = combine(sky, noise).arrays()
        sign = 1 if i == 0 else -1
        ratio = 1 + sign * Fraction(chain.offset) if chain.resample else Fraction(1)
        f_a = f_c * ratio
        sources.append(_AntennaSource(tones, f_a, chunk))
        if chain.resample:
            bank = _bank(chain.bank_taps, chain.bank_phases, chain.bank_bits)
            c = Fraction(chain.bank_taps - 1, 2)
            p0 = c * (ratio - 1)  # aligns both antennas' output epochs
            resamplers.append(
                (Resampler(bank, ratio, p0), Resampler(bank, ratio, p0))
            )
        else:
            resamplers.append(None)

    skip = chain.bank_taps + 16  # discard filter-edge outputs uniformly
    seg_len = max(n_out // segments, 1)
    corr_chain = _SegmentedCorrelator(seg_len)
    corr_float = _SegmentedCorrelator(seg_len)
    welch_chain = _WelchCross(welch_nfft, welch_cap)
    welch_float = _WelchCross(welch_nfft, welch_cap)

    pend = [[np.zeros(0)] * 2 for _ in range(2)]  # [antenna][0=chain,1=float]
    skipped = [[0, 0], [0, 0]]
    done = 0
    while done < n_out:
        for i in (0, 1):
            raw = sources[i].next_chunk()
            if chain.input_quant is not None:
                q = quantize_array(raw, chain.input_quant, sigma_in)
            else:
                q = raw
            if chain.resample:
                out_c = resamplers[i][0].process(q)
                out_f = resamplers[i][1].process(raw)
            else:
                out_c, out_f = q, raw
            if chain.out_quant is not None:
                out_c = quantize_array(out_c, chain.out_quant, sigma_in)
            for j, arr in ((0, out_c), (1, out_f)):
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
