"""Time-demultiplexed realization of the resampler.

A k-way demux computes k output samples per demuxed clock, so it emits
whole blocks of k outputs only.  The scheduling changes; the arithmetic must
not: the load-bearing property is bit-exact equality with the direct-form
resampler, including around skip/repeat events, on both the float and the
fixed-point paths.  Every float output sum is one strict left fold over the
taps and every integer one is exact in any order (see resampler._fir_rows),
whichever outputs are computed together, so the demux stream is the direct
stream cut to whole blocks, and demux_resample computes it that way.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .errors import StreamTooShort, TapCountNotDivisible
from .frontend import SampleStream
from .resampler import CoefficientBank, resample


def demux_resample(
    stream: SampleStream,
    f_c: Fraction,
    bank: CoefficientBank,
    k: int,
    fixed_point: bool = False,
) -> SampleStream:
    """k-way demultiplexed resampling: resample() cut to whole blocks of k.

    The tap count N must be a multiple of k (TapCountNotDivisible).  The
    data end at the last whole block; a stream with no whole block raises
    StreamTooShort.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    N = bank.taps_per_phase
    if N % k != 0:
        raise TapCountNotDivisible(f"{N} taps not divisible by k={k}")
    out = resample(stream, f_c, bank, fixed_point)
    end = len(out) // k * k
    if end == 0:
        raise StreamTooShort(f"{len(out)} outputs fill no block of k={k}")
    return replace(out, data=out.data[:end])
