"""Exact rational bookkeeping for clocks, frequency ratios and sample phase.

All clock relationships are held as ``fractions.Fraction`` so that no ratio
or position ever drifts: step j of a ramp sits exactly at
``position + (j+1) * ratio``.  Frequencies are Fractions in Hz; config files
carry them as "num/den" or decimal strings, which Fraction reads exactly
("0.1" is 1/10; no float parsing anywhere).

phase_run is the one ramp: it splits each position x on the 1/P grid into
the integer sample n (the read pointer) and the LUT index, both read off the
grid index g = round(x * P), ties to even as Python rounds a Fraction;
sample_index gives the n of one position, and count_outputs is its exact
inverse: how many steps stay within a given last input sample.

A ratio num/den moves a position by exactly num whole samples every den
steps, so its phase plan is periodic: after den steps g moves by num * P, n
by num, and the LUT index repeats.  Round-half-even settles a tie by g's
parity, so this holds only when num * P is even; when it is odd the plan
repeats after 2 * den steps instead (plan_period).  phase_run plans position
by position, and phase_blocks, which cuts a ramp into pieces, is the one
place a plan repeats: where a period fits a piece, every piece shares one.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import RatioOutOfRange


def count_outputs(position: Fraction, ratio: Fraction, frac_width: int, last_n: int) -> int:
    """How many of the positions ``position + (j+1)*ratio``, j = 0, 1, ... have
    integer sample n <= last_n on the 1/frac_width grid.

    n <= H holds exactly when the grid index g = round(x * P) is at
    most G = (H+1)*P - P/2 - 1, i.e. when x * P < G + 1/2, or x * P equals
    G + 1/2 with G even (that tie rounds down).  Since positions increase, the
    count is one exact floor of the number of ratio steps below that bound.
    """
    P = frac_width
    G = (last_n + 1) * P - P // 2 - 1
    steps = (Fraction(2 * G + 1, 2 * P) - Fraction(position)) / Fraction(ratio)
    count = math.floor(steps)
    if count == steps and G % 2:
        count -= 1  # the last position sits on G + 1/2, which rounds up to G + 1
    return max(count, 0)


def sample_index(position: Fraction, frac_width: int) -> int:
    """The integer sample n of ``position`` on the 1/frac_width grid: the read
    pointer phase_run gives that position."""
    return (round(Fraction(position) * frac_width) + frac_width // 2) // frac_width


def plan_period(ratio: Fraction, frac_width: int) -> int:
    """Steps after which a phase plan repeats: den, or 2 * den when num * P is odd."""
    return ratio.denominator * (1 + ratio.numerator * frac_width % 2)


def phase_run(
    position: Fraction, ratio: Fraction, frac_width: int, count: int
) -> tuple[np.ndarray, np.ndarray, Fraction]:
    """Grid decomposition of positions ``position + (j+1)*ratio`` for j < count.

    Returns int64 arrays (n, lut) where n is the integer sample index and lut
    the LUT index of each successive position, plus the exact final position.
    LUT index i stands for the fraction (i - P/2)/P of a sample past n, so a
    fraction of -1/2 addresses index 0, one just below +1/2 index P-1, and
    one within 1/(2P) of +1/2 folds onto index 0 of sample n + 1.
    Any ratio works, negative and zero included, whose plan fits int64.

    Work is chunked so the int64 intermediates (numerators times P over the
    common denominator of position and ratio) cannot overflow.  Where a chunk
    of one position could overflow, because the common denominator plus the
    ratio's step on it exceeds (2**63 - 1) / P, it raises RatioOutOfRange.
    """
    P = frac_width
    half = P // 2
    den = ratio.denominator
    base = Fraction(position)  # positions emitted are base + (j+1)*ratio
    step_num = ratio.numerator
    n_out = np.empty(count, dtype=np.int64)
    lut_out = np.empty(count, dtype=np.int64)
    done = 0
    while done < count:
        # rebase: position = whole + fnum/fden with 0 <= fnum < fden
        fden = math.lcm(base.denominator, den)
        fnum0 = base.numerator * (fden // base.denominator)
        whole, fnum0 = divmod(fnum0, fden)
        rnum = step_num * (fden // den)
        # chunk so every (fnum0 + j*rnum)*P, j <= chunk, stays inside int64
        limit = ((1 << 63) - 1) // P
        max_j = (limit - fden) // max(abs(rnum), 1)
        if max_j < 1:
            raise RatioOutOfRange(
                f"position {base} and ratio {ratio} share the denominator {fden}: "
                f"their phase plan on a 1/{P} grid overflows int64"
            )
        chunk = int(min(count - done, max_j))
        # numerators (fnum0 + j*rnum)*P over fden, rounded half-even in the
        # output slices: g and twice the remainder first, then n and lut
        a = np.arange(1, chunk + 1, dtype=np.int64)
        a *= rnum
        a += fnum0
        a *= P
        g, twice = n_out[done : done + chunk], lut_out[done : done + chunk]
        np.divmod(a, fden, out=(g, twice))
        twice *= 2
        # round up when twice > fden, or at a tie (twice == fden) when the
        # grid index whole * P + g is odd: twice + that parity > fden
        up = np.bitwise_and(g, 1, out=a)
        if whole * P & 1:
            up ^= 1
        up += twice
        g += up > fden
        g += half
        np.divmod(g, P, out=(g, twice))
        g += whole
        done += chunk
        base = Fraction(whole) + Fraction(fnum0 + chunk * rnum, fden)
    return n_out, lut_out, base


def phase_blocks(position: Fraction, ratio: Fraction, frac_width: int, count: int, most: int):
    """Yields (lo, base, rel, lut) for steps lo .. lo + len(rel) - 1 of
    phase_run(position, ratio, frac_width, count), in order, in pieces of at
    most ``most`` steps: step lo + j reads sample base + rel[j] at LUT index
    lut[j].

    Where a period fits in ``most``, one period is planned and repeated once,
    to the most whole periods that fit.  Every piece shares that rel and lut,
    read-only; only base moves, by lo * ratio, a whole number.
    Else each piece is planned from its own exact position.
    """
    period = plan_period(ratio, frac_width)
    step = most // period * period or most
    for lo in range(0, count, step):
        k = min(step, count - lo)
        if lo == 0 or step < period:  # planned from its own exact position
            rel, lut, position = phase_run(position, ratio, frac_width, min(k, period))
            base = int(rel[0])
            rel -= base
            if k > period:  # whole periods: the one period, repeated
                reps = -(-k // period)
                rel = (rel + int(period * ratio) * np.arange(reps, dtype=np.int64)[:, None]).ravel()
                lut = np.tile(lut, reps)
            rel.flags.writeable = lut.flags.writeable = False
            yield lo, base, rel[:k], lut[:k]
        else:
            yield lo, base + int(lo * ratio), rel[:k], lut[:k]
