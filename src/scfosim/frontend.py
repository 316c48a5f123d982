"""Antenna digitizer model: band limiting, sampling, amplitude quantization.

The digitizer is ideal (no jitter, no interleaving spurs); artefacts enter
only as tones in the analytic bank.  A signal declares no band and no Nyquist
zone: sampling at f_a lands each tone at its alias on [0, f_a/2], a Zone-2
tone at f in (f_a/2, f_a) at f_a - f.  Sample k sits at the exact rational
instant epoch + k/f_a and is synthesized by the grid form of
signal.eval_tones, the same kernel the streaming chains use: each tone's
phase is reduced in exact rationals and no sample time is ever formed in
floats, so there is no drift however long the stream, and sample values do
not depend on how the stream is chunked.  Quantizers: Lloyd-Max optimal
16-level for a loaded Gaussian (computed at startup by Lloyd iteration, not
a transcribed table) and a mid-rise uniform 256-level quantizer clipping at
+/-4 sigma.  The Gaussian CDF is 0.5 * math.erfc(-x / sqrt(2)) and the
starting quantiles come from statistics.NormalDist, so the package imports
no scipy.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .errors import AlreadyQuantized
from .signal import SampleGrid, ToneBankSignal, eval_tones


class QuantKind(enum.Enum):
    Q4_OPTIMAL = "q4"
    Q8_UNIFORM = "q8"


@dataclass(frozen=True)
class QuantizerSpec:
    """Quantizer selection plus loading (input RMS relative to design sigma)."""

    kind: QuantKind
    loading: float = 1.0

    def __post_init__(self):
        if not self.loading > 0:
            raise ValueError("loading must be > 0")

    def scale(self, sigma: float) -> float:
        """Level scale for input RMS ``sigma``, the design sigma being
        sigma / loading: Q4_OPTIMAL's levels are Lloyd-Max levels times the
        design sigma, and Q8_UNIFORM's spacing lets 256 levels span +/-4
        design sigmas."""
        if self.kind is QuantKind.Q4_OPTIMAL:
            return sigma / self.loading
        return 8.0 * (sigma / self.loading) / 256.0


@dataclass
class SampleStream:
    """Timestamped samples on an exact rational clock.

    ``data`` holds level values (float64) or complex samples; ``quant`` is
    None for an unquantized stream.  Quantized streams also carry
    ``quant_scale`` (the level scale: step size for Q8_UNIFORM, design sigma
    for Q4_OPTIMAL) so integer codes can be recovered.  Every sample is valid:
    each stage that filters a stream returns only the samples its whole
    window covers.
    """

    rate: Fraction
    epoch: Fraction
    data: np.ndarray
    quant: QuantKind | None = None
    quant_scale: float | None = None

    def __post_init__(self):
        self.rate = Fraction(self.rate)
        self.epoch = Fraction(self.epoch)
        if self.quant is QuantKind.Q4_OPTIMAL:
            if len(np.unique(self.data)) > 16:
                raise ValueError("Q4 stream carries more than 16 distinct values")

    def __len__(self) -> int:
        return len(self.data)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.data)


def sample(sig: ToneBankSignal, f_a: Fraction, n: int, first: int = 0) -> SampleStream:
    """Digitize the analytic signal at rate f_a: samples first .. first+n-1
    of the grid k/f_a, so the stream's epoch is first/f_a.

    Every tone is sampled as it is, so a tone above f_a/2 lands at its alias:
    one in (f_a/2, f_a) at f_a - f, spectrally reversed, which is the Zone-2
    down-conversion.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    f_a = Fraction(f_a)
    return SampleStream(rate=f_a, epoch=first / f_a, data=eval_tones(*sig.arrays(), SampleGrid(f_a, first, n)))


LLOYD_TOL = 1e-12
LLOYD_MAX_ITER = 20000


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


@functools.lru_cache(maxsize=None)
def lloyd_max_levels(n_levels: int = 16) -> np.ndarray:
    """Lloyd-Max optimal quantizer levels for a unit-variance Gaussian.

    Iterates thresholds-at-midpoints / levels-at-conditional-means from the
    uniform quantiles until the levels move by less than ``LLOYD_TOL``.  On
    16 levels each step is cheaper in plain floats than in numpy.
    """
    levels = [NormalDist().inv_cdf((i + 0.5) / n_levels) for i in range(n_levels)]
    for _ in range(LLOYD_MAX_ITER):
        edges = [-math.inf] + [0.5 * (a + b) for a, b in zip(levels, levels[1:])] + [math.inf]
        cdf = [_norm_cdf(e) for e in edges]
        pdf = [_norm_pdf(e) for e in edges]  # 0 at +/-inf
        new = [(pdf[i] - pdf[i + 1]) / (cdf[i + 1] - cdf[i]) for i in range(n_levels)]
        new = [0.5 * (a - b) for a, b in zip(new, reversed(new))]  # keep exactly symmetric
        delta = max(abs(a - b) for a, b in zip(new, levels))
        levels = new
        if delta < LLOYD_TOL:
            break
    else:
        raise RuntimeError("Lloyd iteration did not converge")
    out = np.array(levels)
    out.setflags(write=False)
    return out


def quantizer_levels(spec: QuantizerSpec, sigma: float) -> np.ndarray:
    """Reconstruction levels of ``spec`` for input RMS ``sigma``."""
    scale = spec.scale(sigma)
    if spec.kind is QuantKind.Q4_OPTIMAL:
        return lloyd_max_levels(16) * scale
    return (np.arange(-128, 128) + 0.5) * scale


def quantize_array(x: np.ndarray, spec: QuantizerSpec, sigma: float) -> np.ndarray:
    """Element-wise quantization of ``x`` to the levels of ``spec``.

    A Q8 sample is (clip(floor(x / step), -128, 127) + 0.5) * step, worked in
    one array.  A Q4 sample's level index is the number of thresholds below
    it, the ``np.searchsorted`` index on every non-NaN input, counted in
    uint8 through one reused comparison buffer; NaN, which no source
    produces, maps to the lowest level.
    """
    if spec.kind is QuantKind.Q8_UNIFORM:
        step = spec.scale(sigma)
        out = np.divide(x, step)
        np.floor(out, out=out)
        np.clip(out, -128, 127, out=out)
        out += 0.5
        out *= step
        return out
    levels = quantizer_levels(spec, sigma)
    idx = np.zeros(np.shape(x), dtype=np.uint8)
    above = np.empty(np.shape(x), dtype=bool)
    for t in 0.5 * (levels[:-1] + levels[1:]):
        idx += np.greater(x, t, out=above)
    return levels[idx]


def quantize(s: SampleStream, q: QuantizerSpec) -> SampleStream:
    """Quantize a float stream at the RMS measured over its samples."""
    if s.quant is not None:
        raise AlreadyQuantized(f"stream already {s.quant.value}-quantized")
    sigma = float(np.sqrt(np.mean(np.square(s.data))))
    if sigma == 0.0:
        raise ValueError("stream has zero RMS: no quantizer scale")
    return replace(
        s,
        data=quantize_array(s.data, q, sigma),
        quant=q.kind,
        quant_scale=q.scale(sigma),
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
    cdf = np.array([0.0] + [_norm_cdf(t) for t in thresholds] + [1.0])
    mass = np.diff(cdf)
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
