"""Integrated Hilbert-transform SSB mixer and frequency shifter.

Removes the per-antenna digitizer down-conversion difference for Zone-2
streams: the real input is split into a delay path S and a Hilbert path H
(a matched odd-length pair), combined into the analytic signal, and rotated
by a quadrature oscillator whose phase comes from the exact rational ramp
rational.phase_run and whose sine/cosine values come from a quantized
lookup table, as the hardware would.  ``shift_hz`` is the signed amount by
which the spectrum moves up; the Zone-2 shift f_c - f_a makes the common
sky content land at the same absolute frequency in every antenna.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .errors import DesignInfeasible, StreamTooShort
from .frontend import SampleStream
from .rational import phase_blocks
from .resampler import _kaiser_beta, _kaiser_window


# The mixer's hardware: a Hilbert pair of HILBERT_TAPS taps, flat over
# HILBERT_BAND (fractions of Nyquist), and an oscillator LUT of
# 2**PHASE_LUT_BITS entries of LUT_WORD_BITS-bit words.
HILBERT_TAPS = 127
HILBERT_BAND = (0.05, 0.95)
PHASE_LUT_BITS = 10
LUT_WORD_BITS = 20
# Samples per block of ssb_shift, at most: a block's analytic signal,
# oscillator indices and oscillator stay near 1 MB each, whatever the
# stream's length.
MIX_BLOCK = 1 << 16


@functools.lru_cache(maxsize=4)
def design_hilbert(n_taps: int, band: tuple[float, float]) -> np.ndarray:
    """Kaiser-windowed Hilbert transformer taps h, read-only, designed once per process.

    h approximates -90 degrees at unity gain over ``band`` (normalized to
    Nyquist); its delay-matched twin is the center tap, the input delayed by
    n_taps // 2 samples.  The design is verified: worst in-band image
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
    rejection = image_rejection_db(h, np.linspace(lo, hi, 101))
    if rejection.min() < 60.0:
        raise DesignInfeasible(
            f"worst in-band image rejection {rejection.min():.1f} dB < 60 dB "
            f"({n_taps} taps, band {band})"
        )
    h.setflags(write=False)
    return h


def hilbert_response(h: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Complex response of the Hilbert path re-centered on its group delay."""
    n = len(h)
    c = n // 2
    w = np.pi * np.asarray(freqs)
    ph = np.exp(-1j * np.outer(w, np.arange(n) - c))
    return ph @ h


def image_rejection_db(h: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Negative-frequency image rejection of the analytic pair, the
    centre-tap delay and h.

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


def ssb_shift(stream: SampleStream, shift_hz: Fraction) -> SampleStream:
    """Analytic-signal frequency shift of a real stream at the common rate.

    Only the samples that the whole Hilbert window covers come out, so the
    stream loses half the Hilbert length at each end.  Output sample i is
    input sample i + HILBERT_TAPS//2 (the S/H group delay is re-centered
    away), and the epoch moves on by that many samples.  The analytic signal,
    the oscillator and the mix are computed a block of at most MIX_BLOCK
    samples at a time, so only the output spans the stream.  The blocks are
    the pieces of the oscillator's one exact phase ramp (phase_blocks): its
    index k is round(L * frac(phase_k)) mod L, ties to even.  Each plan's
    oscillator is built once and mixes every block on that plan: every whole
    block shares one where its period fits in a block, else each has its own.
    """
    if stream.is_complex:
        raise ValueError("ssb_shift expects a real input stream")
    if len(stream) < HILBERT_TAPS:
        raise StreamTooShort(f"{len(stream)} samples fill no {HILBERT_TAPS}-tap Hilbert window")
    h = design_hilbert(HILBERT_TAPS, HILBERT_BAND)
    c = HILBERT_TAPS // 2
    table = quadrature_lut(PHASE_LUT_BITS, LUT_WORD_BITS)
    L = 1 << PHASE_LUT_BITS
    epoch = stream.epoch + c / stream.rate
    inc = Fraction(shift_hz) / stream.rate
    out = np.empty(len(stream) - 2 * c, dtype=np.complex128)
    for _, lut, starts in phase_blocks(Fraction(shift_hz) * epoch - inc, inc, L, len(out), MIX_BLOCK):
        idx = (lut + L // 2) % L  # phase_run's LUT index i stands for (i - L/2)/L
        osc = 1j * table[(idx - L // 4) % L]  # j sin
        osc += table[idx]  # + cos
        for lo, _ in starts:
            hi = lo + len(lut)
            analytic = 1j * np.convolve(stream.data[lo : hi + 2 * c], h, mode="valid")
            analytic += stream.data[lo + c : hi + c]
            # not in place: numpy rounds a one-element complex product in place
            # apart from the same product inside a longer array
            np.multiply(analytic, osc, out=out[lo:hi])
    return SampleStream(rate=stream.rate, epoch=epoch, data=out)
