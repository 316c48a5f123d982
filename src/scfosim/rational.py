"""Exact rational bookkeeping for clocks, frequency ratios and sample phase.

All clock relationships are held as ``fractions.Fraction`` so that no ratio
or accumulated position ever drifts: after n steps an accumulator's position
is exactly ``n * ratio`` as a rational number.  Frequencies are Fractions in
Hz (alias ``RationalFreq``); config files carry them as "num/den" or decimal
strings and both convert exactly (no float parsing anywhere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import NegativeFrequency, RatioOutOfRange, ZeroDenominator

# A frequency in Hz as an exact rational.  Plain Fraction is all the algebra
# clock bookkeeping needs.
RationalFreq = Fraction


def make_rational(num: int, den: int = 1) -> Fraction:
    """Build a validated non-negative frequency num/den Hz.

    Raises ZeroDenominator if den == 0 and NegativeFrequency if the overall
    value is negative (sign is normalized onto the numerator first).
    """
    if den == 0:
        raise ZeroDenominator("denominator must be nonzero")
    value = Fraction(num, den)
    if value < 0:
        raise NegativeFrequency(f"{num}/{den} is negative; frequencies must be >= 0")
    return value


def parse_rational(text: str) -> Fraction:
    """Exact conversion of a "num/den" or decimal string to a Fraction.

    Decimal strings convert via their exact decimal expansion ("0.1" becomes
    1/10, not the nearest float).
    """
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        if "/" in text and text.count("/") == 1:
            num, den = text.split("/")
            if den.strip() in ("0", "+0", "-0"):
                raise ZeroDenominator(f"zero denominator in {text!r}") from exc
        raise


def parse_frequency(text: str) -> Fraction:
    """Parse a frequency string, additionally enforcing non-negativity."""
    value = parse_rational(text)
    if value < 0:
        raise NegativeFrequency(f"{text!r} is negative")
    return value


def round_half_even(num: int, den: int) -> int:
    """Round num/den (den > 0) to the nearest integer, ties to even."""
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q % 2 == 1):
        return q + 1
    return q


@dataclass
class PhaseAccumulator:
    """Exact sample-position accumulator driving the interpolation LUT.

    ``ratio`` is f_a/f_c; ``position`` advances by exactly ``ratio`` per
    output step.  Each step yields an integer FIFO advance (1 normal,
    0 repeat when f_a < f_c, 2 skip when f_a > f_c) and a LUT index in
    [0, P).  Index i stands for the delay-phase d = (i - P/2)/P samples, so
    a fractional position of -0.5 addresses index 0 and a fraction just
    below +0.5 addresses P-1; fractions within 1/(2P) of +0.5 fold onto
    index 0 of the next sample.
    """

    ratio: Fraction
    frac_width: int = 1024
    position: Fraction = Fraction(0)
    _last_n: int | None = field(default=None, repr=False)

    def __post_init__(self):
        self.ratio = Fraction(self.ratio)
        self.position = Fraction(self.position)
        if not Fraction(1, 2) < self.ratio < Fraction(3, 2):
            raise RatioOutOfRange(
                f"ratio {self.ratio} outside (0.5, 1.5); the scheme assumes small offsets"
            )
        if self.frac_width < 1:
            raise ValueError("frac_width must be >= 1")

    def clone(self) -> "PhaseAccumulator":
        return PhaseAccumulator(self.ratio, self.frac_width, self.position, self._last_n)

    @property
    def frac(self) -> Fraction:
        """Fractional part of the position, mapped into [-1/2, +1/2)."""
        n = round_half_even(self.position.numerator, self.position.denominator)
        return self.position - n

    def grid_index(self) -> tuple[int, int]:
        """(integer sample, LUT index) of the current position on the 1/P grid."""
        p = self.position
        g = round_half_even(p.numerator * self.frac_width, p.denominator)
        half = self.frac_width // 2
        return (g + half) // self.frac_width, (g + half) % self.frac_width

    def step(self) -> tuple[int, int]:
        """Advance by one output sample; return (advance, lut_index)."""
        if self._last_n is None:
            self._last_n, _ = self.grid_index()
        self.position += self.ratio
        n, lut = self.grid_index()
        advance = n - self._last_n
        self._last_n = n
        return advance, lut

    def run(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized equivalent of ``count`` calls to step().

        Returns (advances, lut_indices) as int64 arrays and leaves the
        accumulator state exactly as after ``count`` single steps.
        """
        if self._last_n is None:
            self._last_n, _ = self.grid_index()
        n, lut, pos = phase_run(self.position, self.ratio, self.frac_width, count)
        adv = np.empty(count, dtype=np.int64)
        if count:
            adv[0] = n[0] - self._last_n
            np.subtract(n[1:], n[:-1], out=adv[1:])
            self._last_n = int(n[-1])
        self.position = pos
        return adv, lut


def accumulator_step(acc: PhaseAccumulator) -> tuple[int, int, PhaseAccumulator]:
    """Pure-functional single step: returns (advance, lut_index, new_acc)."""
    out = acc.clone()
    advance, lut = out.step()
    return advance, lut, out


def count_outputs(position: Fraction, ratio: Fraction, frac_width: int, last_n: int) -> int:
    """How many of the positions ``position + (j+1)*ratio``, j = 0, 1, ... have
    integer sample n <= last_n on the 1/frac_width grid.

    n <= H holds exactly when the grid index g = round_half_even(x * P) is at
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


def phase_run(
    position: Fraction, ratio: Fraction, frac_width: int, count: int
) -> tuple[np.ndarray, np.ndarray, Fraction]:
    """Grid decomposition of positions ``position + (j+1)*ratio`` for j < count.

    Returns int64 arrays (n, lut) where n is the integer sample index and lut
    the LUT index of each successive position, plus the exact final position.
    Work is chunked so the int64 intermediates cannot overflow even for
    extreme rational denominators.
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
        # chunk so (fnum0 + (j+1)*rnum)*P stays well inside int64
        limit = (1 << 62) // P
        max_j = (limit - fden) // max(abs(rnum), 1)
        chunk = int(min(count - done, max(max_j, 1)))
        # numerators (fnum0 + j*rnum)*P over fden, rounded half-even in place
        a = np.arange(1, chunk + 1, dtype=np.int64)
        a *= rnum
        a += fnum0
        a *= P
        g, twice = np.divmod(a, fden)
        twice *= 2
        g += (twice > fden) | ((twice == fden) & (g & 1))
        g += half
        n, lut = n_out[done : done + chunk], lut_out[done : done + chunk]
        np.divmod(g, P, out=(n, lut))
        n += whole
        done += chunk
        base = Fraction(whole) + Fraction(fnum0 + chunk * rnum, fden)
    return n_out, lut_out, base

