"""Antenna digitizer model: band limiting, sampling, amplitude quantization.

The digitizer is ideal (no jitter, no interleaving spurs); artefacts enter
only as injected tones.  Sample k sits at the exact rational instant
epoch + k/f_a and is synthesized by the grid form of signal.eval_tones, the
same kernel the streaming chains use: each tone's phase is reduced in exact
rationals and no sample time is ever formed in floats, so there is no drift
however long the stream, and sample values do not depend on how the stream
is chunked.  Quantizers: Lloyd-Max optimal 16-level for a loaded Gaussian
(computed at startup by Lloyd iteration, not a transcribed table) and a
mid-rise uniform 256-level quantizer clipping at +/-4 sigma.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from scipy.special import erfinv, ndtr

from .errors import AlreadyQuantized, BandZoneMismatch
from .signal import SampleGrid, ToneBankSignal, eval_tones


class Zone(enum.Enum):
    ZONE1 = 1
    ZONE2 = 2


class QuantKind(enum.Enum):
    FLOAT = "float"
    Q4_OPTIMAL = "q4"
    Q8_UNIFORM = "q8"


@dataclass(frozen=True)
class QuantizerSpec:
    """Quantizer selection plus loading (input RMS relative to design sigma)."""

    kind: QuantKind
    loading: float = 1.0

    def __post_init__(self):
        if self.kind is not QuantKind.FLOAT and not self.loading > 0:
            raise ValueError("loading must be > 0")

    def step(self, sigma: float) -> float:
        """Q8_UNIFORM level spacing for input RMS ``sigma``: 256 levels span
        +/-4 design sigmas, the design sigma being sigma / loading."""
        return 8.0 * (sigma / self.loading) / 256.0


@dataclass
class SampleStream:
    """Timestamped samples on an exact rational clock.

    ``data`` holds level values (float64) or complex samples; quantized
    streams also carry ``quant_scale`` (the level scale: step size for
    Q8_UNIFORM, design sigma for Q4_OPTIMAL) so integer codes can be
    recovered.  ``valid`` marks the region unpolluted by filter edges.
    """

    rate: Fraction
    epoch: Fraction
    data: np.ndarray
    quant: QuantKind = QuantKind.FLOAT
    zone: Zone = Zone.ZONE1
    pps_marks: list[int] = field(default_factory=list)
    valid_start: int = 0
    valid_end: int | None = None
    quant_scale: float | None = None
    lineage: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.rate = Fraction(self.rate)
        self.epoch = Fraction(self.epoch)
        if self.valid_end is None:
            self.valid_end = len(self.data)
        marks = list(self.pps_marks)
        if any(b <= a for a, b in zip(marks, marks[1:])):
            raise ValueError("pps_marks must be strictly increasing")
        if marks and (marks[0] < 0 or marks[-1] >= len(self.data)):
            raise ValueError("pps_marks out of range")
        if self.quant is QuantKind.Q4_OPTIMAL:
            if len(np.unique(self.data)) > 16:
                raise ValueError("Q4 stream carries more than 16 distinct values")

    def __len__(self) -> int:
        return len(self.data)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.data)

    def valid_slice(self) -> slice:
        return slice(self.valid_start, self.valid_end)


def sample(
    sig: ToneBankSignal,
    f_a: Fraction,
    n: int,
    zone: Zone = Zone.ZONE1,
    epoch: Fraction = Fraction(0),
    band_slack: float = 0.0,
) -> SampleStream:
    """Digitize the analytic signal at rate f_a.

    For ZONE2 the declared signal band must lie within (f_a/2, f_a), with a
    fractional ``band_slack`` allowance; the stream is flagged so downstream
    stages know a digitizer down-conversion (f -> f_a - f, spectrally
    reversed) has occurred.  Injected out-of-band tones are exempt from the
    check on purpose: alias probes are part of the experiments.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    f_a = Fraction(f_a)
    epoch = Fraction(epoch)
    if zone is Zone.ZONE2:
        lo_lim = float(f_a) / 2.0 * (1.0 - band_slack)
        hi_lim = float(f_a) * (1.0 + band_slack)
        f_lo, f_hi = sig.band
        if f_lo < lo_lim or f_hi > hi_lim:
            raise BandZoneMismatch(
                f"band {sig.band} outside Nyquist zone 2 ({lo_lim}, {hi_lim}) of f_a={float(f_a)}"
            )
    data = np.empty(n, dtype=np.float64)
    tones = sig.arrays()
    chunk = 1 << 20  # whole TONE_BLOCKs, so no block is synthesized twice
    for start in range(0, n, chunk):
        count = min(chunk, n - start)
        data[start : start + count] = eval_tones(*tones, SampleGrid(f_a, start, count, epoch))
    return SampleStream(rate=f_a, epoch=epoch, data=data, zone=zone)


@functools.lru_cache(maxsize=None)
def lloyd_max_levels(n_levels: int = 16, tol: float = 1e-12, max_iter: int = 20000) -> np.ndarray:
    """Lloyd-Max optimal quantizer levels for a unit-variance Gaussian.

    Iterates thresholds-at-midpoints / levels-at-conditional-means until the
    levels move by less than ``tol``.
    """

    def pdf(x):
        return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)

    # start from uniform quantiles
    q = (np.arange(n_levels) + 0.5) / n_levels
    levels = np.sqrt(2.0) * erfinv(2.0 * q - 1.0)
    for _ in range(max_iter):
        thresholds = 0.5 * (levels[:-1] + levels[1:])
        edges = np.concatenate(([-np.inf], thresholds, [np.inf]))
        lo, hi = edges[:-1], edges[1:]
        mass = ndtr(hi) - ndtr(lo)
        pdf_lo = np.where(np.isfinite(lo), pdf(lo), 0.0)
        pdf_hi = np.where(np.isfinite(hi), pdf(hi), 0.0)
        new = (pdf_lo - pdf_hi) / mass
        new = 0.5 * (new - new[::-1])  # keep exactly symmetric
        delta = np.max(np.abs(new - levels))
        levels = new
        if delta < tol:
            break
    else:
        raise RuntimeError("Lloyd iteration did not converge")
    levels.setflags(write=False)
    return levels


def quantizer_levels(spec: QuantizerSpec, sigma: float) -> np.ndarray:
    """Reconstruction levels of ``spec`` for input RMS ``sigma``."""
    if spec.kind is QuantKind.Q4_OPTIMAL:
        return lloyd_max_levels(16) * (sigma / spec.loading)
    if spec.kind is QuantKind.Q8_UNIFORM:
        return (np.arange(-128, 128) + 0.5) * spec.step(sigma)
    raise ValueError("FLOAT has no levels")


def quantize_array(x: np.ndarray, spec: QuantizerSpec, sigma: float) -> np.ndarray:
    """Element-wise quantization of ``x`` to the levels of ``spec``.

    A Q4 sample's level index is the number of thresholds below it, the
    ``np.searchsorted`` index on every non-NaN input; NaN, which no source
    produces, maps to the lowest level.
    """
    if spec.kind is QuantKind.Q8_UNIFORM:
        step = spec.step(sigma)
        codes = np.clip(np.floor(x / step), -128, 127)
        return (codes + 0.5) * step
    levels = quantizer_levels(spec, sigma)
    idx = np.zeros(np.shape(x), dtype=np.intp)
    for t in 0.5 * (levels[:-1] + levels[1:]):
        idx += x > t
    return levels[idx]


def quantize(s: SampleStream, q: QuantizerSpec, sigma: float | None = None) -> SampleStream:
    """Quantize a float stream; measured RMS is used unless sigma is given.

    Passing an analytic sigma keeps chunked pipelines reproducible.
    """
    if s.quant is not QuantKind.FLOAT:
        raise AlreadyQuantized(f"stream already {s.quant.value}-quantized")
    if q.kind is QuantKind.FLOAT:
        return s
    if sigma is None:
        region = s.data[s.valid_slice()]
        sigma = float(np.sqrt(np.mean(np.square(region))))
    return replace(
        s,
        data=quantize_array(s.data, q, sigma),
        quant=q.kind,
        quant_scale=q.step(sigma) if q.kind is QuantKind.Q8_UNIFORM else sigma / q.loading,
        pps_marks=list(s.pps_marks),
        lineage=s.lineage + [q.kind.value],
    )


def quantizer_efficiency(spec: QuantizerSpec) -> float:
    """Weak-signal correlator efficiency of ``spec`` on Gaussian input.

    Classical closed form: eta = E[x q(x)]^2 / (sigma^2 E[q(x)^2]) with the
    expectations evaluated exactly from the Gaussian density (Stein's lemma
    turns E[x q(x)] into a sum of level jumps times the pdf at thresholds).
    """
    levels = quantizer_levels(spec, sigma=1.0)
    thresholds = 0.5 * (levels[:-1] + levels[1:])
    pdf = np.exp(-0.5 * thresholds**2) / np.sqrt(2.0 * np.pi)
    e_xq = np.sum(np.diff(levels) * pdf)
    edges = np.concatenate(([-np.inf], thresholds, [np.inf]))
    mass = ndtr(edges[1:]) - ndtr(edges[:-1])
    e_q2 = np.sum(levels**2 * mass)
    return float(e_xq**2 / e_q2)


@dataclass(frozen=True)
class FilterSpec:
    """Piecewise-linear magnitude response, dB vs Hz.

    Duplicate frequencies form a step; queries exactly at a step take the
    left segment.  Values at or below ``BLOCKED_DB`` mean amplitude zero.
    """

    points: tuple[tuple[float, float], ...]

    BLOCKED_DB = -300.0

    def __post_init__(self):
        hz = [p[0] for p in self.points]
        if sorted(hz) != hz or not self.points:
            raise ValueError("filter points must be sorted by frequency")

    def gain_db(self, f: float) -> float:
        pts = self.points
        if f <= pts[0][0]:
            return pts[0][1]
        for (f0, g0), (f1, g1) in zip(pts, pts[1:]):
            if f0 <= f <= f1:
                if f == f0:
                    return g0
                if f1 == f0:
                    return g0
                return g0 + (g1 - g0) * (f - f0) / (f1 - f0)
        return pts[-1][1]

    def gain(self, f: float) -> float:
        db = self.gain_db(f)
        return 0.0 if db <= self.BLOCKED_DB else 10.0 ** (db / 20.0)


def antialias(sig: ToneBankSignal, filt: FilterSpec) -> ToneBankSignal:
    """Analytic filtering of a tone bank: scale each tone by the magnitude
    response at its frequency; fully blocked tones are removed."""
    tones = []
    for tone in sig.tones:
        g = filt.gain(tone.freq_hz)
        if g == 0.0:
            continue
        tones.append(replace(tone, amplitude=tone.amplitude * g))
    return replace(sig, tones=tuple(tones))
