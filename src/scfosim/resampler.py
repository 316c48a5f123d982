"""Fractional-delay resampling between offset sample clocks.

A CoefficientBank holds P tap sets covering interpolation phases between
-0.5 and +0.5 samples (windowed-sinc prototype, optionally quantized to a
signed fixed-point width).  The streaming Resampler consumes samples at
f_a and produces samples at f_c: each output is an N-tap dot product of
the FIFO window selected by the exact rational phase accumulator, with the
occasional repeat (advance 0) or skip (advance 2) of the read pointer when
the accumulated fraction crosses +/-0.5.

Index bookkeeping: output k has exact position p_k = p0 + k*ratio on the
input grid (ratio = f_a/f_c).  The FIFO read pointer n_k and LUT index i_k
come from one grid decomposition (see rational.phase_run); the output is
sum_m h_i[m] * x[n_k + m], which evaluates the input at p_k + c where
c = (N-1)/2 is the prototype center.  Output timestamps absorb that group
delay, so a sample's time always names the analog instant it represents.

Fold order: every path computes that sum with one kernel, _fir_rows, as the
strict left fold ((h_0 x_0 + h_1 x_1) + h_2 x_2) + ... over m, tiled FIR_TILE
outputs at a time: a tile's products h_m x_m sit in an outputs x taps array
whose tap columns are added into the outputs one column after another.
Tiling changes only which outputs are computed together, never the order of
any one output's sum, so float outputs are bit-identical however the input is
chunked and whether the path is direct, whole-stream or demultiplexed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DesignInfeasible, ChainWasQuantized, StreamTooShort
from .frontend import QuantKind, QuantizerSpec, SampleStream, quantize
from .rational import PhaseAccumulator, count_outputs, phase_run, round_half_even
from .signal import SampleGrid, ToneBankSignal, eval_tones


@dataclass(frozen=True)
class CoefficientBank:
    """P x N fractional-delay tap sets plus design metadata.

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
    beta: float
    passband: tuple[float, float]

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
    for row, raw_row in zip(out, raw):
        residual = scale - int(row.sum())
        if residual == 0:
            continue
        err = raw_row - row
        step = 1 if residual > 0 else -1
        order = np.argsort(step * err)[::-1]
        moved = 0
        for idx in order:
            if moved == abs(residual) or step * err[idx] <= 0:
                break  # never move a tap against its own rounding error
            if -scale < row[idx] + step <= top:
                row[idx] += step
                moved += 1
    return out.reshape(np.shape(taps))


# Band the bank keeps flat, as fractions of Nyquist; scenario skies fill it.
PASSBAND = (0.0833, 0.9167)


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
    over the passband before being returned.
    """
    if N < 2:
        raise ValueError("need at least 2 taps")
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
        beta=float(beta),
        passband=(float(passband[0]), float(passband[1])),
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


@functools.lru_cache(maxsize=8)
def cached_bank(N: int, P: int, coeff_bits: int | None = 19) -> CoefficientBank:
    """``design_bank(N, P, coeff_bits)`` designed once per process and shared
    by every caller; both tables are read-only, so sharing is safe."""
    return design_bank(N, P, coeff_bits)


@dataclass
class ResponseCurve:
    freq: np.ndarray
    mag_db: np.ndarray
    delay_err_samples: np.ndarray
    phase: int
    nominal_delay: float


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
    return ResponseCurve(freq, mag_db, delay_err, phase, nominal)


# Outputs per tile of _fir_rows: one tile's taps x outputs products (56 x 1024
# float64, 448 KiB) stay in cache while they are summed.
FIR_TILE = 1024


def _fir_rows(buf: np.ndarray, rel: np.ndarray, table: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """Output j = sum_m table[lut[j], m] * buf[rel[j] + m], as a strict left fold.

    The one FIR kernel of every path (streaming, whole-stream, demultiplexed;
    float and fixed point).  Outputs go in tiles of FIR_TILE: the tile's
    windows are gathered into an outputs x taps product and multiplied by
    their tap rows, and the product's tap columns are then added one by one
    into the outputs, ((p_0 + p_1) + p_2) + ...  That order never depends on
    the tile or on how many outputs a call yields, which is what makes float
    outputs bit-identical across schedulings.  (np.add.reduce would not do:
    it sums pairwise once a row is long enough, and a one-output tile is.)
    Integer inputs fold exactly in int64.
    """
    N = table.shape[1]
    wins = sliding_window_view(buf, N)
    out = np.empty(len(rel), dtype=np.result_type(buf, table))
    for lo in range(0, len(rel), FIR_TILE):
        hi = min(lo + FIR_TILE, len(rel))
        prod = wins[rel[lo:hi]]
        prod *= table[lut[lo:hi]]
        acc = out[lo:hi]
        acc[:] = prod[:, 0]
        for m in range(1, N):
            acc += prod[:, m]
    return out


class Resampler:
    """Streaming f_a -> f_c resampler around one CoefficientBank.

    Feed input chunks with process(); each call returns the newly computable
    output samples.  One instance per stream; instances share their
    (immutable) bank freely.
    """

    def __init__(
        self,
        bank: CoefficientBank,
        ratio: Fraction,
        start_position: Fraction = Fraction(0),
        fixed_point: bool = False,
        in_step: float | None = None,
    ):
        self.bank = bank
        self.ratio = Fraction(ratio)
        # validates the +/-50% ratio assumption
        PhaseAccumulator(self.ratio, bank.phases, position=Fraction(start_position))
        self._pos = Fraction(start_position) - self.ratio  # position before output 0
        self.fixed_point = fixed_point
        self.in_step = in_step
        if fixed_point and bank.table_int is None:
            raise ValueError("fixed-point path needs a quantized bank")
        self._buf = np.zeros(0, dtype=np.int64 if fixed_point else np.float64)
        self._buf_base = 0  # absolute input index of _buf[0]
        self._received = 0
        self._emitted = 0
        self.first_valid_output: int | None = None

    def process(self, chunk: np.ndarray) -> np.ndarray:
        """Consume input samples, return all newly computable outputs."""
        data = np.asarray(chunk, dtype=np.float64)
        if self.fixed_point:
            if self.in_step is None:
                raise ValueError("fixed-point path needs in_step")
            data = np.rint(data / self.in_step).astype(np.int64)
        self._buf = np.concatenate([self._buf, data])
        self._received += len(data)
        return self._produce()

    def _produce(self) -> np.ndarray:
        N = self.bank.taps_per_phase
        P = self.bank.phases
        # outputs need window [n, n+N-1]; n <= H must hold
        H = self._received - N
        count = count_outputs(self._pos, self.ratio, P, H) if H >= 0 else 0
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        n_all, lut_all, self._pos = phase_run(self._pos, self.ratio, P, count)
        out = self._dot_windows(n_all, lut_all)
        if self.first_valid_output is None:
            valid = np.flatnonzero(n_all >= 0)
            if len(valid):
                self.first_valid_output = self._emitted + int(valid[0])
        self._emitted += len(out)
        self._trim(int(n_all[-1]))
        return out

    def _dot_windows(self, n_abs: np.ndarray, lut: np.ndarray) -> np.ndarray:
        rel = n_abs - self._buf_base
        if rel[0] < 0:
            # zero-pad the pre-stream region (those outputs are flagged invalid)
            pad = int(-rel[0])
            self._buf = np.concatenate([np.zeros(pad, dtype=self._buf.dtype), self._buf])
            self._buf_base -= pad
            rel = n_abs - self._buf_base
        if self.fixed_point:
            scale = self.in_step / float(1 << (self.bank.coeff_bits - 1))
            return _fir_rows(self._buf, rel, self.bank.table_int, lut) * scale
        return _fir_rows(self._buf, rel, self.bank.table, lut)

    def _trim(self, last_n: int) -> None:
        keep_from = last_n - self._buf_base  # oldest index any future window needs
        if keep_from > 0:
            self._buf = self._buf[keep_from:]
            self._buf_base += keep_from


def fixed_in_step(stream: SampleStream) -> float:
    """Input register grid for the fixed-point path (8-bit word model)."""
    if stream.quant_scale is not None:
        if stream.quant is QuantKind.Q8_UNIFORM:
            return stream.quant_scale / 2.0
        return stream.quant_scale / 32.0
    region = stream.data[stream.valid_slice()]
    return float(np.sqrt(np.mean(np.square(region)))) / 32.0


def finalize_stream(
    stream: SampleStream,
    f_c: Fraction,
    bank: CoefficientBank,
    data: np.ndarray,
    first_valid: int | None,
    start_position: Fraction,
    out_quant: QuantizerSpec | None,
    out_sigma: float | None,
) -> SampleStream:
    """Shared output assembly for the direct and demultiplexed paths:
    group-delay-true epoch, PPS propagation, optional requantization."""
    if len(data) == 0:
        raise StreamTooShort("stream too short to produce any resampled output")
    c = Fraction(bank.taps_per_phase - 1, 2)
    ratio = Fraction(stream.rate) / Fraction(f_c)
    epoch = stream.epoch + (Fraction(start_position) + c) / stream.rate
    valid_start = first_valid if first_valid is not None else len(data)
    pps = []
    for j in stream.pps_marks:
        target = (Fraction(j) - c - Fraction(start_position)) / ratio
        k = round_half_even(target.numerator, target.denominator)
        if 0 <= k < len(data):
            pps.append(k)
    out = SampleStream(
        rate=Fraction(f_c),
        epoch=epoch,
        data=data,
        zone=stream.zone,
        pps_marks=pps,
        valid_start=valid_start,
        valid_end=len(data),
        lineage=list(stream.lineage) + ["resample"],
    )
    return out if out_quant is None else quantize(out, out_quant, out_sigma)


def resample(
    stream: SampleStream,
    f_c: Fraction,
    bank: CoefficientBank,
    out_quant: QuantizerSpec | None = None,
    out_sigma: float | None = None,
    start_position: Fraction = Fraction(0),
    fixed_point: bool = False,
) -> SampleStream:
    """Whole-stream resampling of ``stream`` to rate f_c.

    ``out_quant`` requantizes the output (as the hardware does before the
    channelizer); by default the float values are kept for analysis.
    """
    f_c = Fraction(f_c)
    N = bank.taps_per_phase
    if len(stream) < N + 2:
        raise StreamTooShort(f"{len(stream)} samples cannot flush {N} taps")
    ratio = Fraction(stream.rate) / f_c
    in_step = fixed_in_step(stream) if fixed_point else None
    rs = Resampler(bank, ratio, start_position, fixed_point=fixed_point, in_step=in_step)
    pieces = []
    chunk = 1 << 20
    for lo in range(0, len(stream), chunk):
        pieces.append(rs.process(stream.data[lo : lo + chunk]))
    data = np.concatenate(pieces) if pieces else np.zeros(0)
    return finalize_stream(
        stream, f_c, bank, data, rs.first_valid_output, Fraction(start_position), out_quant, out_sigma
    )


def resample_error(in_sig: ToneBankSignal, out: SampleStream) -> dict:
    """Compare resampled data against the analytic ground truth.

    Output timestamps already absorb the filter group delay, so the truth is
    simply the signal evaluated on the exact output grid.  Errors are in
    linear units of the truth RMS.
    """
    if out.quant is not QuantKind.FLOAT or any(step.startswith("q") for step in out.lineage):
        raise ChainWasQuantized(f"chain {out.lineage} includes quantization")
    sl = out.valid_slice()
    count = sl.stop - sl.start
    truth = eval_tones(*in_sig.arrays(), SampleGrid(out.rate, sl.start, count, out.epoch))
    err = out.data[sl] - truth
    ref = np.sqrt(np.mean(truth**2))
    if ref == 0.0:
        return {"rms_err": float(np.sqrt(np.mean(err**2))), "max_err": float(np.max(np.abs(err), initial=0.0))}
    return {
        "rms_err": float(np.sqrt(np.mean(err**2)) / ref),
        "max_err": float(np.max(np.abs(err)) / ref),
    }


def export_bank(bank: CoefficientBank, path) -> None:
    """Text export, one phase per line (integer taps for fixed-point banks)."""
    with open(path, "w") as fh:
        fh.write(
            f"# coefficient bank N={bank.taps_per_phase} P={bank.phases} "
            f"bits={bank.coeff_bits} window=kaiser beta={bank.beta!r} "
            f"cutoff=1.0 passband={bank.passband[0]!r},{bank.passband[1]!r}\n"
        )
        if bank.table_int is not None:
            for row in bank.table_int:
                fh.write(" ".join(str(int(v)) for v in row) + "\n")
        else:
            for row in bank.table:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def export_response_csv(bank: CoefficientBank, path, phases=(0,), n_freq: int = 1024) -> None:
    """CSV columns: freq, then mag_db and delay_err per requested phase."""
    curves = [response(bank, p, n_freq) for p in phases]
    with open(path, "w") as fh:
        cols = ["freq"]
        for p in phases:
            cols += [f"mag_db_phase{p}", f"delay_err_phase{p}"]
        fh.write(",".join(cols) + "\n")
        for i in range(n_freq):
            row = [f"{curves[0].freq[i]:.9g}"]
            for c in curves:
                row += [f"{c.mag_db[i]:.9g}", f"{c.delay_err_samples[i]:.9g}"]
            fh.write(",".join(row) + "\n")
