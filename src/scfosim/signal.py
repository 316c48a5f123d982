"""Analytic broadband test signals built from banks of sinusoids.

A ToneBankSignal is the "analog" ground truth of every experiment: a sum of
sinusoids with randomized amplitudes, frequencies and phases, evaluated on
each antenna's exact rational sample grid (eval_tones with a SampleGrid).
Interference tones tied to antenna sample clocks (or to fixed RF
frequencies) are appended with inject().

Dense random banks double as band-limited noise: unlike RNG samples they
stay consistent when the same waveform is sampled on two different clock
grids, which the chain experiments rely on.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import EmptyBand, UnknownAntenna

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Tone:
    amplitude: float
    freq_hz: float
    phase_rad: float
    out_of_band: bool = False


@dataclass(frozen=True)
class ToneBankSignal:
    """Immutable sum-of-sinusoids signal."""

    tones: tuple[Tone, ...]
    seed: int
    band: tuple[float, float]

    def rms(self) -> float:
        """Analytic RMS: sqrt(sum a_k^2 / 2) (distinct tone frequencies)."""
        return float(np.sqrt(sum(tone.amplitude**2 for tone in self.tones) / 2.0))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(amplitudes, freqs, phases) as float64 arrays, for eval_tones."""
        amps = np.array([t.amplitude for t in self.tones], dtype=np.float64)
        freqs = np.array([t.freq_hz for t in self.tones], dtype=np.float64)
        phases = np.array([t.phase_rad for t in self.tones], dtype=np.float64)
        return amps, freqs, phases


class InterferenceKind(enum.Enum):
    SELF_CLOCK_DERIVED = "self-clock"
    CROSS_CLOCK_LEAK = "cross-clock"
    FIXED_RF = "fixed-rf"


@dataclass(frozen=True)
class InterferenceSpec:
    """One injected spectral line.

    For clock-derived kinds the tone frequency is ``clock_scale * f_a`` of
    the governing antenna (the injected one for SELF_CLOCK_DERIVED, the
    named ``source_antenna`` for CROSS_CLOCK_LEAK); for the fixed kinds it
    is the absolute ``freq_hz``.
    """

    kind: InterferenceKind
    amplitude: float
    clock_scale: Fraction | None = None
    freq_hz: float | None = None
    source_antenna: str | None = None
    phase_rad: float = 0.0


# Span of synth_signal's log-uniform tone amplitudes, strongest to weakest.
AMP_SPAN_DB = 20.0


def synth_signal(
    seed: int,
    n_tones: int,
    band: tuple[float, float],
    rms: float = 1.0,
) -> ToneBankSignal:
    """Reproducible random tone bank occupying ``band``, normalized to ``rms``.

    Frequencies are uniform in band via jittered strata so occupancy stays
    flat; amplitudes are log-uniform over AMP_SPAN_DB with a stride
    assignment that spreads strong and weak tones evenly across the band;
    phases uniform in [0, 2*pi).
    """
    if n_tones < 1:
        raise ValueError("n_tones must be >= 1")
    f_lo, f_hi = band
    if not (np.isfinite(f_lo) and np.isfinite(f_hi)) or f_hi < f_lo or f_hi < 0:
        raise EmptyBand(f"invalid band {band}")
    rng = np.random.default_rng(seed)
    if f_hi > f_lo:
        freqs = f_lo + (f_hi - f_lo) * (np.arange(n_tones) + rng.uniform(0, 1, n_tones)) / n_tones
    else:
        freqs = np.full(n_tones, f_lo)
    amps = 10.0 ** (-_strata(n_tones, rng) * AMP_SPAN_DB / 20.0)
    phases = rng.uniform(0.0, TWO_PI, n_tones)
    scale = rms / np.sqrt(np.sum(amps**2) / 2.0)
    tones = tuple(
        Tone(float(a * scale), float(f), float(p)) for a, f, p in zip(amps, freqs, phases)
    )
    return ToneBankSignal(tones=tones, seed=seed, band=(float(f_lo), float(f_hi)))


def _strata(n: int, rng: np.random.Generator) -> np.ndarray:
    """Jittered [0,1) strata visited with a coprime stride near 1/golden-ratio.

    Any short run of tones then samples the whole range, so per-sub-band
    power stays close to the band mean.
    """
    if n == 1:
        return rng.uniform(0.0, 1.0, 1)
    stride = 1
    for cand in range(int(0.618 * n), n):
        if np.gcd(cand, n) == 1:
            stride = cand
            break
    order = (np.arange(n) * stride) % n
    return (order + rng.uniform(0.0, 1.0, n)) / n


def combine(a: ToneBankSignal, b: ToneBankSignal) -> ToneBankSignal:
    """Union of two banks (linear superposition); keeps a's seed and band."""
    return replace(a, tones=a.tones + b.tones)


def inject(
    sig: ToneBankSignal,
    spec: InterferenceSpec,
    clocks: dict[str, Fraction],
    antenna: str,
) -> ToneBankSignal:
    """Append the interference tone of ``spec`` for stream ``antenna``.

    The frequency rule is evaluated on the exact rational clock and only then
    converted to a real.  Tones outside the signal band are tagged.
    """
    if spec.kind is InterferenceKind.SELF_CLOCK_DERIVED:
        ref = antenna
    elif spec.kind is InterferenceKind.CROSS_CLOCK_LEAK:
        ref = spec.source_antenna
    else:
        ref = None

    if ref is not None:
        if ref not in clocks:
            raise UnknownAntenna(f"antenna {ref!r} not in clock map {sorted(clocks)}")
        if spec.clock_scale is None:
            raise ValueError("clock-derived interference needs clock_scale")
        freq = float(Fraction(spec.clock_scale) * clocks[ref])
    else:
        if spec.freq_hz is None:
            raise ValueError(f"{spec.kind.value} interference needs freq_hz")
        freq = float(spec.freq_hz)

    f_lo, f_hi = sig.band
    tone = Tone(
        amplitude=float(spec.amplitude),
        freq_hz=freq,
        phase_rad=float(spec.phase_rad),
        out_of_band=not (f_lo <= freq <= f_hi),
    )
    return replace(sig, tones=sig.tones + (tone,))


class SampleGrid(NamedTuple):
    """Samples ``start .. start+count-1`` of the exact grid t_n = epoch + n / rate."""

    rate: Fraction
    start: int
    count: int
    epoch: Fraction = Fraction(0)


# Samples per block of the grid form of eval_tones.  Blocks start at absolute
# sample indices that are multiples of TONE_BLOCK, so a sample's value does not
# depend on how the stream is cut into chunks.
TONE_BLOCK = 1024


def eval_tones(
    amps: np.ndarray, freqs: np.ndarray, phases: np.ndarray, t, dtype=np.float64
) -> np.ndarray:
    """sum(a_k * sin(2*pi*f_k*t + phi_k)) over a tone bank.

    ``t`` is a SampleGrid or an array of float times (seconds).  Every stream
    is sampled through the grid form; the float form stays only because
    perfbench's tracing test calls it with float times.  The grid form never
    forms t_n in floats: with TONE_BLOCK = B it writes sample n_b + k of
    block b as
    sin(theta_b + w k) = sin(theta_b) cos(w k) + cos(theta_b) sin(w k), where
    theta_b = 2*pi*frac(f epoch + n_b f / rate) + phi is exact up to its final
    rounding and w k comes from per-call cos/sin tables.  A chunk is then one
    (blocks x 2 tones) @ (2 tones x B) product.
    """
    if isinstance(t, SampleGrid):
        return _grid_tones(amps, freqs, phases, t).astype(dtype, copy=False)
    return _eval_times(amps, freqs, phases, t, dtype)


def _eval_times(amps, freqs, phases, t, dtype=np.float64) -> np.ndarray:
    """Float-time form of eval_tones, one sin pass per tone; any shape of t."""
    tt = np.asarray(t, dtype=dtype)
    out = np.zeros(tt.shape, dtype=dtype)
    tmp = np.empty_like(out)
    for a, f, p in zip(amps, freqs, phases):
        np.multiply(tt, dtype(TWO_PI * f), out=tmp)
        tmp += dtype(p)
        np.sin(tmp, out=tmp)
        tmp *= dtype(a)
        out += tmp
    return out


def _grid_tones(amps, freqs, phases, grid: SampleGrid) -> np.ndarray:
    B = TONE_BLOCK
    rate = Fraction(grid.rate)
    first = int(grid.start) // B  # a Python int: the exact phase sums below outgrow int64
    # a one-row product would go to BLAS GEMV, which sums in another order than
    # GEMM; two rows or more keep every block's values independent of the chunk
    nblk = max(-(-(grid.start + grid.count) // B) - first, 2)
    k = np.arange(B, dtype=np.float64)
    table = np.empty((2 * len(freqs), B))
    coef = np.empty((nblk, 2 * len(freqs)))
    epoch = Fraction(grid.epoch)
    for i, (a, f, p) in enumerate(zip(amps, freqs, phases)):
        F = Fraction(float(f))
        cyc = F / rate  # cycles per sample, exact
        num, den = cyc.numerator, cyc.denominator
        # frac(k * cyc) for k < B: a 40-bit head times k is exact in float64
        head = Fraction((num % den) * 2**40 // den, 2**40)
        tail = float(Fraction(num % den, den) - head)
        w = TWO_PI * ((k * float(head)) % 1.0 + k * tail)
        table[2 * i] = np.cos(w)
        table[2 * i + 1] = np.sin(w)
        # theta_b = 2*pi*frac(F epoch + n_b cyc) + phi with n_b = (first + j) * B,
        # reduced exactly over the common denominator D of cyc and F epoch
        at0 = F * epoch
        D = math.lcm(den, at0.denominator)
        r0 = (first * B * num * (D // den) + at0.numerator * (D // at0.denominator)) % D
        step = B * num * (D // den) % D
        theta = TWO_PI * np.array([(r0 + j * step) % D / D for j in range(nblk)]) + float(p)
        coef[:, 2 * i] = float(a) * np.sin(theta)
        coef[:, 2 * i + 1] = float(a) * np.cos(theta)
    lo = grid.start - first * B
    return (coef @ table).ravel()[lo : lo + grid.count]
