"""Fractional-delay resampling between offset sample clocks.

A CoefficientBank holds P tap sets covering interpolation phases between
-0.5 and +0.5 samples (windowed-sinc prototype, optionally quantized to a
signed fixed-point width).  Resampling takes samples at f_a to samples at
f_c in the output-indexed polyphase form (Crochiere & Rabiner, Multirate
Digital Signal Processing, 1983): each output is an N-tap dot product of the
input window selected by the exact rational ramp rational.phase_run, with
the occasional repeat (advance 0) or skip (advance 2) of the read pointer
when the accumulated fraction crosses +/-0.5.

Index bookkeeping: output k has exact position p_k = p0 + k*ratio on the
input grid (ratio = f_a/f_c).  Its read pointer n_k and LUT index i_k come
from one grid decomposition (see rational.phase_run); the output is
sum_m h_i[m] * x[n_k + m], which evaluates the input at p_k + c where
c = (N-1)/2 is the prototype center.  Output timestamps absorb that group
delay, so a sample's time always names the analog instant it represents.

So an output is a pure function of its position and the inputs under its
window, and fold_outputs computes any range of outputs from exactly the
inputs that range reads, with no state carried between calls.  It folds
several inputs on one grid (the dual chain's quantized stream and its float
twin) on one phase plan, with one _fir_rows call per plan over every block
of every input on it (rational.phase_blocks), so each tile of a plan gathers
its tap rows once.  That one kernel goes FIR_TILE outputs at a time.  A
float sum is the strict left fold ((h_0 x_0 + h_1 x_1) + h_2 x_2) + ... over
m: a tile's products h_m x_m are copied into a taps x outputs array, and one
np.add.reduce over its tap axis adds row m after row m - 1.  An integer sum
(the fixed-point path) is exact in int64 in any order, so it is one
np.einsum per tile.  Tiling changes only which outputs are computed
together, never the value of any one output's sum, so a fold over outputs
[0, K) equals the folds over any split of that range, bit for bit.

resample_range holds the one rule for which inputs a range of outputs
reads: outputs first .. first+count-1 of an antenna whose output 0 sits at
aligned_start.  It folds such a range from exactly those inputs of the
antenna's source.  The scenarios' antennas and the dual chain's blocks are
calls of it, so every output they hold reads real samples.  resample() folds
a given stream from output 0 at its sample 0, and polyphase.demux_resample
is resample() cut to whole blocks of k outputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DesignInfeasible, RatioOutOfRange, StreamTooShort
from .frontend import QuantKind, SampleStream
from .rational import count_outputs, phase_blocks, sample_index


@dataclass(frozen=True)
class CoefficientBank:
    """P x N fractional-delay tap sets.

    ``table`` always holds the working (dequantized) float values; for
    fixed-point banks ``table_int`` carries the signed integers at scale
    2**(coeff_bits-1).  LUT index i stands for delay d = (i - P/2)/P, so
    the taps of phase i are h_i[m] = w(x) sinc(x) with x = m - c - d_i.
    """

    taps_per_phase: int
    phases: int
    coeff_bits: int | None
    table: np.ndarray
    table_int: np.ndarray | None

    @property
    def center(self) -> float:
        return (self.taps_per_phase - 1) / 2.0


def _kaiser_beta(n_taps: int, transition_nyq: float) -> tuple[float, float]:
    """Kaiser attenuation/beta estimate for a given transition width."""
    atten = 2.285 * (n_taps - 1) * np.pi * transition_nyq + 7.95
    if atten > 50:
        beta = 0.1102 * (atten - 8.7)
    elif atten > 21:
        beta = 0.5842 * (atten - 21) ** 0.4 + 0.07886 * (atten - 21)
    else:
        beta = 0.0
    return atten, beta


def _kaiser_window(x: np.ndarray, n_taps: int, beta: float) -> np.ndarray:
    arg = 1.0 - (2.0 * x / n_taps) ** 2
    w = np.where(arg > 0, np.i0(beta * np.sqrt(np.clip(arg, 0, None))), 0.0)
    return w / np.i0(beta)


def _sinc_exact(x: np.ndarray) -> np.ndarray:
    """np.sinc with exact 0/1 at integer arguments.

    The grid arguments m - c - d are exactly representable, and sin(pi*k)
    rounding noise would otherwise smear the pure-delay phases, which must
    come out as exact deltas.
    """
    y = np.sinc(x)
    on_grid = x == np.rint(x)
    y[on_grid] = np.where(x[on_grid] == 0.0, 1.0, 0.0)
    return y


def quantize_taps(taps: np.ndarray, bits: int) -> np.ndarray:
    """Round taps to signed ``bits`` integers (range (-1, 1)), preserving DC.

    Plain rounding lets the per-phase tap sum wander a few ULP; the residual
    is pushed onto the taps whose rounding error best absorbs it so phases
    sum to exactly 2**(bits-1) wherever the representable range allows
    (the pure-delta phase saturates at full scale minus one ULP).
    """
    scale = 1 << (bits - 1)
    top = scale - 1  # two's complement positive limit
    raw = np.atleast_2d(taps * scale)
    out = np.clip(np.rint(raw), -scale, top).astype(np.int64)
    residual = scale - out.sum(axis=1)
    step = np.sign(residual)
    # Per row, visit taps by falling step * rounding error; a tap is eligible
    # if moving it by step reduces its error and stays in range, and the
    # first |residual| eligible taps move.
    err = step[:, None] * (raw - out)
    order = np.argsort(err, axis=1)[:, ::-1]
    moved = np.take_along_axis(out, order, axis=1) + step[:, None]
    ok = (np.take_along_axis(err, order, axis=1) > 0) & (-scale < moved) & (moved <= top)
    take = ok & (np.cumsum(ok, axis=1) <= np.abs(residual)[:, None])
    rows, cols = np.nonzero(take)
    np.add.at(out, (rows, order[rows, cols]), step[rows])
    return out.reshape(np.shape(taps))


# Band the bank keeps flat, as fractions of Nyquist; scenario skies fill it.
PASSBAND = (0.0833, 0.9167)


@functools.lru_cache(maxsize=8)
def design_bank(
    N: int,
    P: int,
    coeff_bits: int | None = 19,
    passband: tuple[float, float] = PASSBAND,
    max_ripple_db: float = 0.05,
) -> CoefficientBank:
    """Design the P-phase fractional-delay bank.

    The prototype is a Kaiser-windowed sinc with the transition centered at
    Nyquist; beta is chosen from the gap between the passband edge and its
    image above Nyquist.  The design is verified against ``max_ripple_db``
    over the passband before being returned, once per process: every caller
    shares the bank, whose tables are read-only.
    """
    if N < 2:
        raise ValueError("need at least 2 taps")
    if coeff_bits is not None and not 1 <= coeff_bits <= 63:
        raise ValueError("coeff_bits must lie in 1..63, the signed int64 taps")
    if P < 2 or (P & (P - 1)):
        raise ValueError("P must be a power of two >= 2")
    if not (0.0 <= passband[0] < passband[1] < 1.0):
        raise ValueError("passband must lie inside (0, 1) normalized to Nyquist")
    _, beta = _kaiser_beta(N, 2.0 * (1.0 - passband[1]))
    c = (N - 1) / 2.0
    d = (np.arange(P) - P // 2) / P
    x = np.arange(N)[None, :] - c - d[:, None]
    table = _sinc_exact(x) * _kaiser_window(x, N, beta)
    table /= table.sum(axis=1, keepdims=True)  # exact unit DC gain per phase
    table_int = None
    if coeff_bits is not None:
        table_int = quantize_taps(table, coeff_bits)
        table_int.setflags(write=False)
        table = table_int / float(1 << (coeff_bits - 1))
    table.setflags(write=False)
    bank = CoefficientBank(
        taps_per_phase=N,
        phases=P,
        coeff_bits=coeff_bits,
        table=table,
        table_int=table_int,
    )
    worst = 0.0
    for phase in (0, P // 4, P // 2, (3 * P) // 4, P - 1):
        r = response(bank, phase, n_freq=257, f_lo=passband[0], f_hi=passband[1])
        worst = max(worst, float(np.max(np.abs(r.mag_db))))
    if worst > max_ripple_db:
        raise DesignInfeasible(
            f"passband ripple {worst:.4f} dB exceeds {max_ripple_db} dB "
            f"(N={N}, beta={beta:.3f})"
        )
    return bank


@dataclass
class ResponseCurve:
    freq: np.ndarray
    mag_db: np.ndarray
    delay_err_samples: np.ndarray


def response(
    bank: CoefficientBank,
    phase: int,
    n_freq: int = 1024,
    f_lo: float = 0.0,
    f_hi: float = 1.0,
) -> ResponseCurve:
    """Complex response of one phase on n_freq points of [f_lo, f_hi] (Nyquist units).

    delay_err is the measured phase delay minus the nominal c + d_phase, in
    samples; the f = 0 point carries the limit from the first nonzero bin.
    """
    if not 0 <= phase < bank.phases:
        raise ValueError("phase out of range")
    taps = bank.table[phase]
    N = bank.taps_per_phase
    freq = np.linspace(f_lo, f_hi, n_freq)
    w = np.pi * freq
    ph = np.exp(-1j * np.outer(w, np.arange(N)))
    H = ph @ taps
    mag_db = 20.0 * np.log10(np.abs(H))
    nominal = bank.center + (phase - bank.phases // 2) / bank.phases
    resid = np.angle(H * np.exp(1j * w * nominal))
    with np.errstate(divide="ignore", invalid="ignore"):
        delay_err = -resid / w
    zero = w == 0.0
    if np.any(zero) and n_freq > 1:
        first = np.flatnonzero(~zero)[0]
        delay_err[zero] = delay_err[first]
    return ResponseCurve(freq, mag_db, delay_err)


# Outputs per tile of _fir_rows: 512 timed faster than 256, 768, 1024 and 2048;
# a tile's 56 x 512 products (224 KiB) and their copy stay in cache.
FIR_TILE = 512
# Outputs per block of fold_outputs, at most: besides the outputs a float fold
# holds one plan, rel and lut (512 KiB each at most); the fixed-point fold also
# holds the rounded int64 words of every block on that plan at once, about as
# many bytes as those blocks' outputs.
PLAN_BLOCK = 1 << 16


def _fir_rows(bufs, rel: np.ndarray, table: np.ndarray, lut: np.ndarray, outs=None) -> list:
    """Output j of each buffer in ``bufs``: sum_m table[lut[j], m] * buf[rel[j] + m],
    written into the matching array of ``outs`` when given; ``rel`` is
    non-decreasing.

    The FIR kernel of fold_outputs.  The buffers share the plan (rel, lut),
    and outputs go in tiles of FIR_TILE whose tap rows are gathered once for
    all of them.  Float sums are strict left folds: per buffer, the tile's
    windows are gathered into an outputs x taps product and multiplied by
    those rows; the product is copied once into a C-ordered taps x outputs
    array, and one np.add.reduce over its first axis adds its contiguous rows
    in order, ((p_0 + p_1) + p_2) + ...  A one-output tile has no outputs
    axis to run along, and numpy would sum its lone column pairwise, so it is
    folded by np.add.accumulate, a left fold by definition.  The order never
    depends on the tile, on how many outputs a call yields or on the other
    buffers, so float outputs are bit-identical however the outputs are split
    and whatever is folded beside them (test_fir_rows_is_a_left_fold, every
    tile width numpy treats apart, and the block tests).  Integer sums are
    exact in any order, int64 wrapping mod 2**64 however it adds: one np.einsum
    per tile, reading windows in place where read pointers step by exactly 1.
    """
    wins = [sliding_window_view(buf, table.shape[1]) for buf in bufs]
    if outs is None:
        outs = [np.empty(len(rel), dtype=np.result_type(buf, table)) for buf in bufs]
    # breaks[j]: outputs up to j whose read pointer is not one past the last one's
    breaks = np.cumsum(np.diff(rel, prepend=rel[:1]) != 1) if any(o.dtype.kind == "i" for o in outs) else None
    for lo in range(0, len(rel), FIR_TILE):
        hi = min(lo + FIR_TILE, len(rel))
        rows, at = table[lut[lo:hi]], rel[lo:hi]
        for win, out in zip(wins, outs):
            if out.dtype.kind == "i":
                windows = win[at[0] : at[0] + hi - lo] if breaks[hi - 1] == breaks[lo] else win[at]
                np.einsum("jm,jm->j", windows, rows, out=out[lo:hi])
                continue
            prod = win[at]
            prod *= rows
            if hi - lo == 1:
                out[lo] = np.add.accumulate(prod[0])[-1]
            else:
                np.add.reduce(prod.T.copy(), axis=0, out=out[lo:hi])
    return outs


def _checked_ratio(ratio: Fraction) -> Fraction:
    """``ratio`` as a Fraction if the scheme's small offsets hold it."""
    ratio = Fraction(ratio)
    if not Fraction(1, 2) < ratio < Fraction(3, 2):
        raise RatioOutOfRange(f"ratio {ratio} outside (0.5, 1.5); the scheme assumes small offsets")
    return ratio


def aligned_start(bank: CoefficientBank, ratio: Fraction) -> Fraction:
    """Where output 0 sits on an antenna's input grid: c*(ratio - 1), with c
    the prototype center, so every antenna's outputs share one epoch, c/f_c."""
    return Fraction(bank.taps_per_phase - 1, 2) * (ratio - 1)


def fold_outputs(
    xs,
    first: int,
    position: Fraction,
    ratio: Fraction,
    bank: CoefficientBank,
    count: int,
    in_step: float | None = None,
) -> list:
    """Outputs 0 .. count-1 at exact input-grid positions position + k*ratio,
    folded from each input in ``xs``, a sequence of equal-length arrays whose
    x[0] is input sample ``first``; one output array per input.

    Each input must hold every window the outputs read: from the read pointer
    of output 0 (rational.sample_index) to that of output count-1 plus the
    tap count.  With ``in_step`` None the fold is float; given, inputs are
    rounded to integer multiples of in_step and folded exactly in int64
    against the bank's integer taps (the fixed-point path).  ``in_step`` must
    be positive and finite, and the largest register word times the largest
    row sum of |table_int| must fit in int64 (ValueError).  The outputs go in
    the blocks of one phase_blocks(..., PLAN_BLOCK) ramp, one _fir_rows call
    per plan (rel, lut, starts): the block at (lo, base) reads its inputs from
    sample base to base + rel[-1] plus the tap count, and the fixed-point
    path rounds the inputs of one plan's blocks at once.  Every block of every
    input on a plan shares its tap rows, and each output is still its own sum
    (a strict left fold in float, exact in int64), so an input's outputs are
    those of a fold of it alone, bit for bit, however they are split.
    """
    ratio = _checked_ratio(ratio)
    if in_step is not None:
        if bank.table_int is None:
            raise ValueError("fixed-point path needs a quantized bank")
        if not 0.0 < in_step < np.inf:
            raise ValueError(f"in_step {in_step} is not a positive finite register step")
        word = np.rint(max(max(np.max(x), -np.min(x)) for x in xs) / in_step)
        gain = int(np.abs(bank.table_int).sum(axis=1, dtype=np.uint64).max())
        if not (np.isfinite(word) and int(word) * gain < 1 << 63):
            raise ValueError(f"register words up to {word} times taps of row sum {gain} can overflow int64")
    N = bank.taps_per_phase
    outs = [np.empty(count, dtype=np.float64) for _ in xs]
    for rel, lut, starts in phase_blocks(Fraction(position) - ratio, ratio, bank.phases, count, PLAN_BLOCK):
        bufs = [x[base - first : base + rel[-1] - first + N] for _, base in starts for x in xs]
        blocks = [out[lo : lo + len(rel)] for lo, _ in starts for out in outs]
        if in_step is None:
            _fir_rows(bufs, rel, bank.table, lut, blocks)
        else:
            # each block's int64 sums go into its own bytes, then are scaled in place
            sums = [block.view(np.int64) for block in blocks]
            _fir_rows([np.rint(buf / in_step).astype(np.int64) for buf in bufs], rel, bank.table_int, lut, sums)
            for block_sums, block in zip(sums, blocks):
                np.multiply(block_sums, in_step / float(1 << (bank.coeff_bits - 1)), out=block)
    return outs


def fixed_in_step(stream: SampleStream) -> float:
    """Input register grid for the fixed-point path (8-bit word model)."""
    if stream.quant_scale is not None:
        if stream.quant is QuantKind.Q8_UNIFORM:
            return stream.quant_scale / 2.0
        return stream.quant_scale / 32.0
    rms = float(np.sqrt(np.mean(np.square(stream.data))))
    if rms == 0.0:
        raise ValueError("stream has zero RMS: no register grid")
    return rms / 32.0


def resample_range(source, ratio: Fraction, bank: CoefficientBank, first: int, count: int) -> list:
    """Outputs first .. first+count-1 of an antenna at ``ratio`` whose output 0
    sits at aligned_start(bank, ratio), folded from each input in
    ``source(lo, n)``: a list of equal-length arrays, each holding the
    antenna's input samples lo .. lo+n-1 through one stage (the dual chain's
    quantized stream and its float twin); one output array per input.

    The source is asked once, for exactly the inputs the outputs read: from
    the read pointer (rational.sample_index) of output ``first`` to that of
    the last output plus the tap count, and not at all when the ratio is out
    of range (RatioOutOfRange).  No state passes between calls, so a range
    gives the same outputs however it is split.
    """
    ratio = _checked_ratio(ratio)
    position = aligned_start(bank, ratio) + first * ratio
    lo = sample_index(position, bank.phases)
    end = sample_index(position + (count - 1) * ratio, bank.phases) + bank.taps_per_phase
    return fold_outputs(source(lo, end - lo), lo, position, ratio, bank, count)


def resample(
    stream: SampleStream,
    f_c: Fraction,
    bank: CoefficientBank,
    fixed_point: bool = False,
) -> SampleStream:
    """Whole-stream resampling of ``stream`` to rate f_c: one fold_outputs
    over every output whose window ends inside the stream, output 0 at its
    sample 0.

    ``fixed_point`` runs the integer path on the register grid
    fixed_in_step(stream).  The output epoch is group-delay true.
    """
    N = bank.taps_per_phase
    if len(stream) < N + 2:
        raise StreamTooShort(f"{len(stream)} samples cannot flush {N} taps")
    ratio = Fraction(stream.rate) / Fraction(f_c)
    count = count_outputs(-ratio, ratio, bank.phases, len(stream) - N)
    in_step = fixed_in_step(stream) if fixed_point else None
    (data,) = fold_outputs([np.asarray(stream.data, dtype=np.float64)], 0, Fraction(0), ratio, bank, count, in_step)
    return SampleStream(rate=f_c, epoch=stream.epoch + Fraction(N - 1, 2) / stream.rate, data=data)
