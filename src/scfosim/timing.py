"""Discrete-time model of the 1PPS / sample-clock relationship.

The White-Rabbit 1PPS averages exactly 1.0 s between ticks but jitters by a
few ns and is not phase-synchronous with the (generally non-integer-Hz)
sample clock, so the number of samples between ticks varies; every
comparison of tick times against the sample grid is done in exact rational
arithmetic.  Includes the multi-phase pulse synchronizer and the
delay-FIFO centroid alignment used at the correlator end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PulseTooNarrow, WindowTooShort


@dataclass(frozen=True)
class PpsModel:
    """1PPS source: exactly 1 s nominal period plus truncated-Gaussian jitter."""

    jitter_ns: float = 2.0
    seed: int = 0

    def tick_times(self, n_ticks: int) -> list[Fraction]:
        """Exact (rational) tick times for ticks 0..n_ticks-1.

        Jitter is Gaussian, truncated at +/-4 sigma; each float offset is an
        exact binary rational, so grid comparisons stay exact.
        """
        rng = np.random.default_rng(self.seed)
        sigma = self.jitter_ns * 1e-9
        ticks = []
        for i in range(n_ticks):
            j = rng.standard_normal()
            j = float(np.clip(j, -4.0, 4.0)) * sigma
            ticks.append(Fraction(i) + Fraction(j))
        return ticks


def pps_sample_indices(f_a: Fraction, pps: PpsModel, n_ticks: int) -> list[int]:
    """Index of the sample during which each (jittered) tick occurs.

    Sample k spans [k/f_a, (k+1)/f_a); the index is floor(t * f_a), taken
    on exact rationals.
    """
    if n_ticks < 2:
        raise ValueError("n_ticks must be >= 2")
    f_a = Fraction(f_a)
    out = []
    for t in pps.tick_times(n_ticks):
        num = t.numerator * f_a.numerator
        den = t.denominator * f_a.denominator
        out.append(num // den)
    return out


def synchronize_pps(
    tick_time: Fraction,
    clock: Fraction,
    n_phases: int = 8,
    pulse_width_cycles: Fraction = Fraction(1),
) -> dict:
    """Multi-phase capture of one 1PPS pulse into the ``clock`` domain.

    The pulse (``pulse_width_cycles`` long, default one clock cycle) is
    sampled on n_phases evenly spaced sub-phases; the detector run starts at
    the first sub-phase instant at or after the pulse edge, and the phase at
    the center of the run is chosen.  The pulse is then re-registered to
    phase 0 on the following cycle.  Deterministic for a given tick time.
    """
    if n_phases < 3:
        raise ValueError("n_phases must be >= 3")
    width = Fraction(pulse_width_cycles)
    run_len = int(width * n_phases)
    if run_len < 2:
        raise PulseTooNarrow(
            f"pulse spans {run_len} sub-phase(s); need >= 2 for unambiguous capture"
        )
    tick_time = Fraction(tick_time)
    clock = Fraction(clock)
    x = tick_time * clock  # tick position in cycles
    m0 = x.numerator // x.denominator
    frac = x - m0
    # first detecting sub-phase: ceil(n_phases * frac)
    num = frac.numerator * n_phases
    p0 = -((-num) // frac.denominator)
    center = p0 + (run_len - 1) // 2
    chosen_phase = center % n_phases
    center_cycle = m0 + center // n_phases
    return {
        "chosen_phase": int(chosen_phase),
        "resampled_index": int(center_cycle + 1),
        "first_phase": int(p0 % n_phases),
        "run_length": run_len,
    }


@dataclass
class AlignmentState:
    fifo_depth: int
    centroid_window: int
    offset_estimate: float


def align_fifo(antenna_ticks, kapb_ticks, window: int) -> AlignmentState:
    """Line up the antenna 1PPS centroid with the KAPB 1PPS.

    ``offset_estimate`` is the mean (antenna - kapb) tick index difference
    over ``window`` tick pairs; the FIFO depth moves by its nearest integer,
    leaving a centroid difference below half a sample.
    """
    if window < 2:
        raise WindowTooShort("need at least 2 ticks per list")
    if len(antenna_ticks) < window or len(kapb_ticks) < window:
        raise WindowTooShort(
            f"window {window} exceeds tick history ({len(antenna_ticks)}, {len(kapb_ticks)})"
        )
    a = np.asarray(antenna_ticks[:window], dtype=np.float64)
    k = np.asarray(kapb_ticks[:window], dtype=np.float64)
    offset = float(np.mean(a - k))
    depth = int(np.rint(offset))
    return AlignmentState(fifo_depth=depth, centroid_window=window, offset_estimate=offset)


def tick_trace_rows(f_a: Fraction, pps: PpsModel, n_ticks: int) -> list[dict]:
    """Rows for the tick-trace CSV: per tick, ideal/jittered time, sample
    index and inter-tick count."""
    f_a = Fraction(f_a)
    times = pps.tick_times(n_ticks)
    rows = []
    prev_idx = None
    for i, t in enumerate(times):
        idx = (t.numerator * f_a.numerator) // (t.denominator * f_a.denominator)
        rows.append(
            {
                "tick": i,
                "ideal_s": i,
                "jittered_s": float(t),
                "sample_index": int(idx),
                "inter_tick_count": (int(idx - prev_idx) if prev_idx is not None else ""),
            }
        )
        prev_idx = idx
    return rows

