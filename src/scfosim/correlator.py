"""Complex cross-correlation with finite integration and the
fringe-washing suppression it is measured against.

dB convention: the paper-style suppression figures are 10*log10(dw*T)
applied to the amplitude envelope 1/(dw*T); this convention reproduces the
quoted ~38 / ~28 / ~40 dB figures and is used for every suppression number
this module emits (a 20*log10 reading would show double).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    EnvelopeRegimeViolated,
    InsufficientOverlap,
    InsufficientSamples,
    RateMismatch,
)
from .frontend import SampleStream


@dataclass
class CorrelationReport:
    rho: complex
    T: float
    n_samples: int
    suppression_db: float
    start: int  # index of the window's first sample


def window_length(T: float, rate: Fraction) -> int:
    """Samples in an integration of ``T`` seconds at ``rate``: floor(T * rate),
    where a float T counts as the decimal it prints as (0.3 is 3/10 s, not
    the binary double just below it), so T = 0.3 at 1 MHz gives 300,000.
    Fewer than one sample raises InsufficientSamples."""
    exact_T = Fraction(repr(float(T))) if isinstance(T, float) else Fraction(T)
    n = math.floor(exact_T * Fraction(rate))
    if n < 1:
        raise InsufficientSamples(f"T = {T} s holds {n} samples at {rate} samples/s")
    return n


def correlate(a: SampleStream, b: SampleStream, T: float, start: int = 0) -> CorrelationReport:
    """Normalized correlation over exactly window_length(T, rate) samples.

    ``start`` picks the window's first sample, the streams' first by
    default; the window must lie inside both streams.  Complex windows
    (Zone 2) are summed as they are.  Real windows are correlated as their
    analytic signals, summed by Parseval over the rfft bins X, Y:
    sum x_a*conj(y_a) = (1/n) sum_k w_k X_k conj(Y_k) with w = 1 at DC and
    at an even n's Nyquist bin and 4 elsewhere, the one-sided weighting of
    the analytic spectrum (Marple 1999, "Computing the discrete-time analytic
    signal via FFT", IEEE Trans. SP 47(9)).
    """
    if Fraction(a.rate) != Fraction(b.rate):
        raise RateMismatch(f"{a.rate} != {b.rate}")
    n = window_length(T, a.rate)
    hi = min(len(a), len(b))
    if start < 0 or start + n > hi:
        raise InsufficientOverlap(f"window [{start}, {start + n}) outside the joint samples [0, {hi})")
    xa = a.data[start : start + n]
    xb = b.data[start : start + n]
    if a.is_complex != b.is_complex:
        raise ValueError("cannot correlate a real window with a complex one")
    if not a.is_complex:  # sqrt(w) * rfft, so every sum below carries w; 1/n cancels
        xa, xb = np.fft.rfft(xa), np.fft.rfft(xb)
        xa[1 : (n + 1) // 2] *= 2.0
        xb[1 : (n + 1) // 2] *= 2.0
    sab = np.vdot(xb, xa)
    denom = math.sqrt(np.vdot(xa, xa).real * np.vdot(xb, xb).real)
    rho = 0.0 + 0.0j if denom == 0.0 else complex(sab / denom)
    mag = abs(rho)
    supp = float("inf") if mag == 0.0 else -10.0 * math.log10(mag)
    return CorrelationReport(rho=rho, T=float(T), n_samples=n, suppression_db=supp, start=start)


def washing_suppression_db(delta_f: float, T: float) -> float:
    """Envelope suppression 10*log10(2*pi*delta_f*T) of the washing function.

    Valid in the envelope regime delta_f*T > 1/pi.
    """
    if delta_f * T <= 1.0 / math.pi:
        raise EnvelopeRegimeViolated(
            f"delta_f*T = {delta_f * T:.4g} <= 1/pi; no envelope regime yet"
        )
    return 10.0 * math.log10(2.0 * math.pi * delta_f * T)
