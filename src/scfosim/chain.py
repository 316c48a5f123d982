"""Two-antenna processing chains for Monte-Carlo loss experiments.

A chain is sample -> (quantize) -> (resample) -> (requantize); its float
twin runs on the identical float samples so the loss 1 - rho/rho_float
isolates exactly the chain's quantization steps.  sensitivity_loss compares
two chains by that loss, with a standard error from per-segment losses.

An antenna is its tone bank (signal.ToneBankSignal): noise is modeled as
dense random tone banks rather than RNG samples so the same underlying
waveform exists on every antenna's (offset) sample grid.

Every output is a pure function of its index: sources evaluate the
exact-grid form of eval_tones, whose blocks are anchored at absolute sample
indices, and each resampled output is folded in the same strict tap order
from exactly the inputs it reads (resampler.resample_range, _fir_rows).  So
the correlated outputs, from SKIP on, are cut into blocks of BLOCK outputs,
and each block is an independent case of one map_forked call: this process
runs the even blocks and a forked child the odd ones.  Per chain and antenna
a block evaluates the source once and folds the quantized stream and its
float twin in one resample_range call, on one phase plan (_antenna_outputs).
It returns only sums (_block_sums): for each of the four channels, each
chain and each chain's twin over both antennas, the (ab, aa, bb) sums of
each piece of a correlation segment that it holds, and the Welch sums of
each batch of WELCH_BATCH = 64 windows that starts inside it.
_correlation then adds each segment's pieces from zeros in output order and
the batches in batch order.  No sample crosses the fork, and memory follows
the block, not the stream, so the 1e8-sample runs take the memory of a short
one.

BLOCK is a multiple of WELCH_STRIDE, so a block inside the Welch cap
computes only the WELCH_NFFT - WELCH_NFFT/4 outputs past its end that its
last batch's windows read.  The samples, and so the Welch spectra, do not
depend on BLOCK; only the cut of a segment's sums into pieces does.  Pin
BLAS to one thread (OPENBLAS_NUM_THREADS=1): a BLAS thread pool in each
process oversubscribes the cores and takes the fork's gain back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .frontend import QuantizerSpec, quantize_array
from .resampler import CoefficientBank, resample_range
from .signal import SampleGrid, eval_tones

F_C = Fraction(1_000_000)  # the chains' common clock
WELCH_NFFT = 1024  # samples per window of the per-frequency loss spectra
WELCH_CAP = 1 << 20  # leading samples the loss spectra average over
# Windows per Welch transform; windows step by WELCH_NFFT/4.  A batch of 64
# keeps its frames and spectra (~0.5 MB each) in a 2 MB L2 cache: one
# block's four channels took 0.057 s against 0.075 s in batches of 256.
WELCH_BATCH = 64
WELCH_STRIDE = WELCH_BATCH * WELCH_NFFT // 4  # from one batch's first output to the next's
# Outputs per block, a multiple of WELCH_STRIDE.  2^19 raised this process's
# peak memory at 1e6 samples by a sixth, from 59 to 69 MB.
BLOCK = 1 << 18
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


def _batches(first: int, stop: int, welch_end: int) -> list[tuple[int, int]]:
    """(start, end) of each Welch batch that starts among outputs first ..
    stop-1 and holds a whole window of the leading welch_end outputs: its
    windows are those of outputs start .. end-1."""
    span = WELCH_STRIDE + WELCH_NFFT - WELCH_NFFT // 4
    starts = range(-(-first // WELCH_STRIDE) * WELCH_STRIDE, min(stop, welch_end - WELCH_NFFT + 1), WELCH_STRIDE)
    return [(start, min(start + span, welch_end)) for start in starts]


def _block_sums(a: np.ndarray, b: np.ndarray, first: int, m: int, seg_len: int, welch_end: int):
    """One channel's sums over its outputs first .. first+m-1: ``a`` and
    ``b`` hold both antennas' outputs from ``first`` to at least the end of
    the block's last Welch batch (_batches).

    Returns (pieces, batches): (segment, (ab, aa, bb)) for each run of the
    outputs inside one correlation segment of seg_len outputs, and
    (S_ab, S_aa, S_bb, windows) summed over the Hann windows of each batch.
    """
    cuts = [first, *range((first // seg_len + 1) * seg_len, first + m, seg_len), first + m]
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        sa, sb = a[lo - first : hi - first], b[lo - first : hi - first]
        pieces.append((lo // seg_len, (float(sa @ sb), float(sa @ sa), float(sb @ sb))))
    win = np.hanning(WELCH_NFFT)
    batches = []
    for start, end in _batches(first, first + m, welch_end):
        fa, fb = (
            np.fft.rfft(sliding_window_view(x[start - first : end - first], WELCH_NFFT)[:: WELCH_NFFT // 4] * win)
            for x in (a, b)
        )
        sums = np.sum(fa * np.conj(fb), axis=0), np.sum(np.abs(fa) ** 2, axis=0), np.sum(np.abs(fb) ** 2, axis=0)
        batches.append((*sums, len(fa)))
    return pieces, batches


def _correlation(sums, n_out: int, seg_len: int):
    """The total rho, the rho of each whole segment and the Welch coherence
    per frequency of one channel over n_out outputs, from its _block_sums in
    block order: each segment's pieces are added from zeros in output order,
    and the batches in batch order."""
    rows = np.zeros((-(-n_out // seg_len), 3))
    bins = WELCH_NFFT // 2 + 1
    spectra = [np.zeros(bins, dtype=np.complex128), np.zeros(bins), np.zeros(bins)]
    windows = 0
    for pieces, batches in sums:
        for seg, piece in pieces:
            rows[seg] += piece
        for *batch, count in batches:
            for total, part in zip(spectra, batch):
                total += part
            windows += count
    if windows == 0:
        raise ValueError(f"fewer than {WELCH_NFFT} samples: no Welch segment")
    sab, saa, sbb = (total / windows for total in spectra)
    ab, aa, bb = rows.sum(axis=0)
    whole = rows[: n_out // seg_len]
    return ab / np.sqrt(aa * bb), whole[:, 0] / np.sqrt(whole[:, 1] * whole[:, 2]), np.abs(sab) / np.sqrt(saa * sbb)


def _antenna_outputs(chain: ChainSpec, tones, ratio: Fraction, first: int, count: int, sigma: float):
    """Outputs first .. first+count-1 of one antenna at ``ratio`` through
    ``chain`` and through its float twin, from one evaluation of the
    antenna's source tones over exactly the inputs those outputs read; a
    resampling chain folds both on one plan."""

    def source(lo, n):
        """The source samples lo .. lo+n-1 into the chain, and into its twin."""
        x = eval_tones(*tones, SampleGrid(F_C * ratio, lo, n))
        return [x if chain.input_quant is None else quantize_array(x, chain.input_quant, sigma), x]

    if chain.bank is None:  # the outputs are the source samples
        out, twin = source(first, count)
    else:
        out, twin = resample_range(source, ratio, chain.bank, first, count)
    if chain.out_quant is not None:
        out = quantize_array(out, chain.out_quant, sigma)
    return out, twin


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


def sensitivity_loss(chain_a, chain_b, n: int, antennas, sigma: float, segments: int = 64) -> SensitivityLossReport:
    """Broadband and per-frequency sensitivity loss of two processing chains.

    Both chains see the same two ``antennas``, tone banks that share a sky
    and differ in their own noise, and quantize at the input RMS ``sigma``.
    Each chain is compared against its own float twin running on the
    identical samples, so loss_x = 1 - rho_x/rho_float_x isolates the
    quantization/resampling effects.  The reported standard error comes from
    per-segment loss differences.  The n correlated outputs run in blocks,
    forked as the module docstring says.
    """
    tones = [antenna.arrays() for antenna in antennas]
    seg_len = max(n // segments, 1)
    welch_end = min(WELCH_CAP, n)

    def chain_sums(chain, first, m, count):
        """The _block_sums of ``chain`` and of its twin over one block."""
        ratios = [1 + sign * Fraction(chain.offset) if chain.bank is not None else Fraction(1) for sign in (1, -1)]
        (a, a_twin), (b, b_twin) = (
            _antenna_outputs(chain, t, ratio, SKIP + first, count, sigma) for t, ratio in zip(tones, ratios)
        )
        return [_block_sums(x, y, first, m, seg_len, welch_end) for x, y in ((a, b), (a_twin, b_twin))]

    def block(first):
        """The four channels' sums over correlated outputs first ..
        first+m-1: chain a, its twin, chain b, its twin."""
        m = min(BLOCK, n - first)
        count = max([m] + [end - first for _, end in _batches(first, first + m, welch_end)])
        # powers past the float range overflow here as in the reduction below
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return chain_sums(chain_a, first, m, count) + chain_sums(chain_b, first, m, count)

    blocks = map_forked(block, list(range(0, n, BLOCK)))

    def losses(chain, twin):
        """1 - chain/twin of the total rho, each segment's rho and each
        frequency's coherence."""
        return [1.0 - c / f for c, f in zip(chain, twin)]

    # a twin with no power, in total or at a frequency, gives a NaN or infinite loss
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, a_twin, b, b_twin = (_correlation([sums[i] for sums in blocks], n, seg_len) for i in range(4))
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
