"""Complex cross-correlation with finite integration plus the metric suite:
fringe-washing suppression, coherence loss, and quantization sensitivity loss.

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
import scipy.signal

from .errors import (
    EnvelopeRegimeViolated,
    InsufficientOverlap,
    InsufficientSamples,
    RateMismatch,
)
from .frontend import SampleStream

_BLOCK = 4096


class CorrelationAccumulator:
    """Order-pinned correlation sums.

    Sums are accumulated per absolute 4096-sample block and folded left to
    right, so feeding the same data in any chunking yields bit-identical
    results (the associativity property the block tests rely on).
    """

    def __init__(self):
        self._carry_a = np.zeros(0, dtype=np.complex128)
        self._carry_b = np.zeros(0, dtype=np.complex128)
        self.sab = 0.0 + 0.0j
        self.saa = 0.0
        self.sbb = 0.0

    def add(self, a: np.ndarray, b: np.ndarray) -> None:
        if len(a) != len(b):
            raise ValueError("chunks must have equal length")
        a = np.concatenate([self._carry_a, np.asarray(a, dtype=np.complex128)])
        b = np.concatenate([self._carry_b, np.asarray(b, dtype=np.complex128)])
        whole = (len(a) // _BLOCK) * _BLOCK
        for lo in range(0, whole, _BLOCK):
            sl = slice(lo, lo + _BLOCK)
            self._fold(a[sl], b[sl])
        self._carry_a, self._carry_b = a[whole:], b[whole:]

    def _fold(self, a, b):
        self.sab += np.sum(a * np.conj(b))
        self.saa += float(np.sum(a.real**2 + a.imag**2))
        self.sbb += float(np.sum(b.real**2 + b.imag**2))

    def rho(self) -> complex:
        sab, saa, sbb = self.sab, self.saa, self.sbb
        if len(self._carry_a):
            sab = sab + np.sum(self._carry_a * np.conj(self._carry_b))
            saa = saa + float(np.sum(np.abs(self._carry_a) ** 2))
            sbb = sbb + float(np.sum(np.abs(self._carry_b) ** 2))
        denom = math.sqrt(saa * sbb)
        if denom == 0.0:
            return 0.0 + 0.0j
        return complex(sab / denom)


@dataclass
class CorrelationReport:
    rho: complex
    T: float
    n_samples: int
    suppression_db: float


def correlate(a: SampleStream, b: SampleStream, T: float, start: int | None = None) -> CorrelationReport:
    """Normalized correlation over exactly floor(T * rate) samples.

    A float T counts as the decimal it prints as (0.3 is 3/10 s, not the
    binary double just below it), so T = 0.3 at 1 MHz gives 300,000 samples.
    Real streams are converted to their analytic signals first, so one code
    path serves Zone-1 and Zone-2 scenarios.  ``start`` picks the window
    start (absolute index); by default the first jointly valid sample.
    """
    if Fraction(a.rate) != Fraction(b.rate):
        raise RateMismatch(f"{a.rate} != {b.rate}")
    exact_T = Fraction(repr(float(T))) if isinstance(T, float) else Fraction(T)
    n = int(exact_T * Fraction(a.rate))
    lo = max(a.valid_start, b.valid_start)
    hi = min(a.valid_end, b.valid_end)
    if start is None:
        start = lo
    if start < lo or start + n > hi:
        raise InsufficientOverlap(
            f"window [{start}, {start + n}) outside joint valid region [{lo}, {hi})"
        )
    xa = a.data[start : start + n]
    xb = b.data[start : start + n]
    if not np.iscomplexobj(xa):
        xa = scipy.signal.hilbert(xa)
    if not np.iscomplexobj(xb):
        xb = scipy.signal.hilbert(xb)
    acc = CorrelationAccumulator()
    acc.add(xa, xb)
    rho = acc.rho()
    mag = abs(rho)
    supp = float("inf") if mag == 0.0 else -10.0 * math.log10(mag)
    return CorrelationReport(rho=rho, T=float(T), n_samples=n, suppression_db=supp)


def washing_suppression_db(delta_f: float, T: float) -> float:
    """Envelope suppression 10*log10(2*pi*delta_f*T) of the washing function.

    Valid in the envelope regime delta_f*T > 1/pi.
    """
    if delta_f * T <= 1.0 / math.pi:
        raise EnvelopeRegimeViolated(
            f"delta_f*T = {delta_f * T:.4g} <= 1/pi; no envelope regime yet"
        )
    return 10.0 * math.log10(2.0 * math.pi * delta_f * T)


def coherence_loss(phi_pp: float) -> float:
    """1 - sinc(phi_pp) for a uniform phase swing of phi_pp radians pk-pk."""
    if phi_pp < 0:
        raise ValueError("phi_pp must be >= 0")
    if phi_pp == 0.0:
        return 0.0
    return 1.0 - math.sin(phi_pp) / phi_pp


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


def sensitivity_loss(
    sig_seed: int,
    chain_a,
    chain_b,
    n: int,
    f_c: Fraction = Fraction(1_000_000),
    model=None,
    segments: int = 64,
    tol: float | None = None,
) -> SensitivityLossReport:
    """Broadband and per-frequency sensitivity loss of two processing chains.

    Both chains see the same sky realization plus independent per-antenna
    noise; each chain is compared against its own float twin running on the
    identical samples, so loss_x = 1 - rho_x/rho_float_x isolates the
    quantization/resampling effects.  The reported standard error comes from
    per-segment loss differences.
    """
    from .chain import SignalModel, run_dual_chain

    if model is None:
        model = SignalModel(sky_seed=sig_seed)
    res_a = run_dual_chain(chain_a, model, n, f_c=f_c, segments=segments)
    res_b = run_dual_chain(chain_b, model, n, f_c=f_c, segments=segments)
    diff_segs = res_b.seg_losses - res_a.seg_losses
    stderr = float(np.std(diff_segs, ddof=1) / np.sqrt(len(diff_segs)))
    if tol is not None and stderr > tol:
        raise InsufficientSamples(f"Monte Carlo stderr {stderr:.3g} > tol {tol:.3g}")
    per_freq = [
        (fa, la, lb)
        for fa, la, lb in zip(res_a.freqs, res_a.loss_per_freq, res_b.loss_per_freq)
    ]
    return SensitivityLossReport(
        loss_a=res_a.loss,
        loss_b=res_b.loss,
        difference=res_b.loss - res_a.loss,
        stderr=stderr,
        n_samples=n,
        per_freq=per_freq,
        rho_float_a=res_a.rho_float,
        rho_float_b=res_b.rho_float,
    )
