"""Integrated Hilbert-transform SSB mixer and frequency shifter.

Removes the per-antenna digitizer down-conversion difference for Zone-2
streams: the real input is split into a delay path S and a Hilbert path H
(a matched odd-length pair), combined into the analytic signal, and rotated
by a quadrature oscillator whose phase comes from the exact rational
accumulator and whose sine/cosine values come from a quantized lookup
table, as the hardware would.  ``shift_hz`` is the signed amount by which
the spectrum moves up; the Zone-2 default f_c - f_a makes the common sky
content land at the same absolute frequency in every antenna.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DesignInfeasible
from .frontend import QuantKind, SampleStream
from .rational import phase_run
from .resampler import _kaiser_beta, _kaiser_window


@dataclass(frozen=True)
class MixerConfig:
    shift_hz: Fraction
    hilbert_taps: int = 127
    band: tuple[float, float] = (0.05, 0.95)
    phase_lut_bits: int = 10
    lut_word_bits: int = 20

    def __post_init__(self):
        if self.hilbert_taps % 2 == 0:
            raise ValueError("hilbert_taps must be odd")


def design_hilbert(n_taps: int, band: tuple[float, float]) -> dict:
    """Kaiser-windowed Hilbert transformer plus its delay-matched twin.

    h approximates -90 degrees at unity gain over ``band`` (normalized to
    Nyquist); s is the center-tap impulse of identical length, so the pair
    shares one group delay.  The design is verified: worst in-band image
    rejection below 60 dB raises DesignInfeasible.
    """
    if n_taps % 2 == 0 or n_taps < 7:
        raise ValueError("n_taps must be odd and >= 7")
    lo, hi = band
    if not (0.0 < lo < hi < 1.0):
        raise ValueError("band must lie inside (0, 1)")
    c = n_taps // 2
    r = np.arange(n_taps) - c
    h = np.zeros(n_taps)
    odd = (r % 2) != 0
    h[odd] = 2.0 / (np.pi * r[odd])
    transition = min(lo, 1.0 - hi)
    _, beta = _kaiser_beta(n_taps, 2.0 * transition)
    h *= _kaiser_window(r.astype(float), n_taps, beta)
    s = np.zeros(n_taps)
    s[c] = 1.0
    rejection = image_rejection_db(h, np.linspace(lo, hi, 101))
    if rejection.min() < 60.0:
        raise DesignInfeasible(
            f"worst in-band image rejection {rejection.min():.1f} dB < 60 dB "
            f"({n_taps} taps, band {band})"
        )
    return {"h": h, "s": s}


def hilbert_response(h: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Complex response of the Hilbert path re-centered on its group delay."""
    n = len(h)
    c = n // 2
    w = np.pi * np.asarray(freqs)
    ph = np.exp(-1j * np.outer(w, np.arange(n) - c))
    return ph @ h


def image_rejection_db(h: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Negative-frequency image rejection of the analytic pair (s, h).

    With D(w) = H(w)/(-j), a unit tone maps to |1+D|/2 at +w and |1-D|/2 at
    -w; the rejection is the ratio in dB.
    """
    d = hilbert_response(h, freqs) / (-1j)
    return 20.0 * np.log10(np.abs(1.0 + d) / np.abs(1.0 - d))


def quadrature_lut(bits_index: int, bits_word: int) -> np.ndarray:
    """Cosine table with 2**bits_index entries quantized to signed words."""
    size = 1 << bits_index
    scale = (1 << (bits_word - 1)) - 1
    table = np.rint(np.cos(2.0 * np.pi * np.arange(size) / size) * scale) / scale
    table.setflags(write=False)
    return table


def oscillator_indices(start: Fraction, inc: Fraction, bits_index: int, count: int) -> np.ndarray:
    """LUT indices of an exact rational phase ramp (cycles), vectorized.

    index_k = round(L * frac(start + k*inc)) mod L, ties to even: the ramp is
    rational.phase_run's exact grid decomposition, whose LUT index is offset
    by L/2, so the oscillator can never drift.
    """
    L = 1 << bits_index
    inc = Fraction(inc)
    _, lut, _ = phase_run(Fraction(start) - inc, inc, L, count)
    return (lut + L // 2) % L


def ssb_shift(stream: SampleStream, cfg: MixerConfig) -> SampleStream:
    """Analytic-signal frequency shift of a real stream at the common rate.

    Output sample i corresponds to input sample i (the S/H group delay is
    re-centered away), so epochs pass through; the valid region shrinks by
    half the Hilbert length at each edge.
    """
    if stream.is_complex:
        raise ValueError("ssb_shift expects a real input stream")
    pair = design_hilbert(cfg.hilbert_taps, cfg.band)
    h = pair["h"]
    c = cfg.hilbert_taps // 2
    x = stream.data
    conv = np.convolve(x, h)
    imag = conv[c : c + len(x)]
    analytic = x + 1j * imag

    table = quadrature_lut(cfg.phase_lut_bits, cfg.lut_word_bits)
    L = 1 << cfg.phase_lut_bits
    inc = Fraction(cfg.shift_hz) / Fraction(stream.rate)
    start = Fraction(cfg.shift_hz) * Fraction(stream.epoch)
    idx = oscillator_indices(start, inc, cfg.phase_lut_bits, len(x))
    osc = table[idx] + 1j * table[(idx - L // 4) % L]  # cos + j sin

    return SampleStream(
        rate=stream.rate,
        epoch=stream.epoch,
        data=analytic * osc,
        quant=QuantKind.FLOAT,
        zone=stream.zone,
        pps_marks=list(stream.pps_marks),
        valid_start=max(stream.valid_start, c),
        valid_end=min(stream.valid_end, len(x) - c),
        lineage=list(stream.lineage) + ["ssb"],
    )

