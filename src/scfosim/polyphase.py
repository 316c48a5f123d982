"""Time-demultiplexed realization of the resampler and its equivalence proof.

A k-way demux computes k output samples per demuxed clock: the input
commutator barrel-rolls samples across k lanes, each slice owns one time
slot, and the k interpolation phases of a block are generated together from
one accumulator state (phi_j = phi_0 + j*ratio, all bookkeeping exact).
The scheduling changes; the arithmetic must not: the load-bearing property
is bit-exact equality with the direct-form resampler, including around
skip/repeat events, on both the float and the fixed-point paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import StreamTooShort, TapCountNotDivisible
from .frontend import QuantizerSpec, SampleStream
from .rational import PhaseAccumulator, count_outputs, phase_run
from .resampler import (
    CoefficientBank,
    _fir_rows,
    finalize_stream,
    fixed_in_step,
)


@dataclass
class SliceTable:
    """Per-slice accumulator outputs for one demuxed clock."""

    advances: np.ndarray
    lut_indices: np.ndarray
    fracs: list[Fraction]


@dataclass
class CommutatorState:
    """Barrel-roll bookkeeping: which lane receives the next input sample."""

    k: int
    roll_offset: int = 0
    blocks: int = field(default=0)

    def roll(self, consumed: int) -> None:
        self.roll_offset = (self.roll_offset + consumed) % self.k
        self.blocks += 1


def slice_phase_table(acc: PhaseAccumulator, k: int) -> SliceTable:
    """The k phases of one demuxed clock, derived from one accumulator state.

    Pure: ``acc`` is not advanced.  The result equals k sequential
    accumulator steps (phi_j = phi_0 + j*(ratio-1) after integer folding).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n, lut, _ = phase_run(acc.position, acc.ratio, acc.frac_width, k)
    prev = acc.grid_index()[0] if acc._last_n is None else acc._last_n
    adv = np.empty(k, dtype=np.int64)
    adv[0] = n[0] - prev
    np.subtract(n[1:], n[:-1], out=adv[1:])
    fracs = []
    pos = acc.position
    for _ in range(k):
        pos = pos + acc.ratio
        fracs.append(pos - round(pos))
    return SliceTable(advances=adv, lut_indices=lut, fracs=fracs)


def demux_resample(
    stream: SampleStream,
    f_c: Fraction,
    bank: CoefficientBank,
    k: int,
    out_quant: QuantizerSpec | None = None,
    out_sigma: float | None = None,
    start_position: Fraction = Fraction(0),
    fixed_point: bool = False,
    stats: dict | None = None,
) -> SampleStream:
    """k-way demultiplexed resampling; same output contract as resample().

    Inputs are distributed round-robin into k lanes (lane = absolute index
    mod k).  Each block consumes sum(advances) samples, so a skip or repeat
    landing mid-block shifts the commutator roll by the surplus or deficit;
    the per-slice phases come from one closed-form plan for all blocks, and
    every slice folds its N-tap window with the resampler's own kernel
    (resampler._fir_rows), so the sums run in the same order as on the
    direct path.
    """
    f_c = Fraction(f_c)
    N = bank.taps_per_phase
    P = bank.phases
    if k < 1:
        raise ValueError("k must be >= 1")
    if N % k != 0:
        raise TapCountNotDivisible(f"{N} taps not divisible by k={k}")
    if len(stream) < N + 2:
        raise StreamTooShort(f"{len(stream)} samples cannot flush {N} taps")
    ratio = Fraction(stream.rate) / f_c

    in_step = fixed_in_step(stream) if fixed_point else None
    if fixed_point:
        x = np.rint(stream.data / in_step).astype(np.int64)
    else:
        x = np.asarray(stream.data, dtype=np.float64)

    # closed-form phases for every block at once: positions p = p0 + (j+1)*ratio
    # whose window [n, n+N-1] fits the stream, in whole demuxed clocks only
    pos0 = Fraction(start_position) - ratio
    blocks = count_outputs(pos0, ratio, P, len(x) - N) // k
    K = blocks * k
    n_all, lut_all, _ = phase_run(pos0, ratio, P, K)

    # zero-pad the front so pre-stream window positions resolve; lane i mod k,
    # slot i div k of the commutator is x_pad[i], so the fold reads x_pad
    pad_left = max(0, int(-(n_all[0])) if K else 0)
    x_pad = np.concatenate([np.zeros(pad_left, dtype=x.dtype), x])

    commutator = CommutatorState(k=k)
    block_adv = np.empty(blocks, dtype=np.int64)
    if blocks:
        prev_head = PhaseAccumulator(ratio, P, position=pos0).grid_index()[0]
        heads = n_all[k - 1 :: k]
        block_adv[0] = heads[0] - prev_head
        np.subtract(heads[1:], heads[:-1], out=block_adv[1:])
    for consumed in block_adv:
        commutator.roll(int(consumed))

    rel = n_all + pad_left
    if fixed_point:
        scale = in_step / float(1 << (bank.coeff_bits - 1))
        data = _fir_rows(x_pad, rel, bank.table_int, lut_all) * scale
    else:
        data = _fir_rows(x_pad, rel, bank.table, lut_all)

    first_valid = None
    valid = np.flatnonzero(n_all >= 0)
    if len(valid):
        first_valid = int(valid[0])

    if stats is not None:
        stats.update(
            {
                "outputs": int(K),
                "multiplies": int(K) * N,
                "blocks": blocks,
                "k": k,
                "final_roll_offset": commutator.roll_offset,
            }
        )

    return finalize_stream(
        stream, f_c, bank, data, first_valid, Fraction(start_position), out_quant, out_sigma
    )


def verify_demux(
    bank: CoefficientBank,
    ratio: Fraction,
    n_samples: int,
    k: int,
    seed: int = 0,
    fixed_point: bool = False,
) -> dict:
    """Run direct and demuxed paths on the same random stream and compare.

    Returns {"passed": bool, "first_divergence": index or None, "checked": count}.
    """
    from .resampler import resample

    rng = np.random.default_rng(seed)
    data = rng.standard_normal(n_samples)
    f_c = Fraction(1_000_000)
    f_a = Fraction(ratio) * f_c
    stream = SampleStream(rate=f_a, epoch=Fraction(0), data=data)
    direct = resample(stream, f_c, bank, fixed_point=fixed_point)
    demux = demux_resample(stream, f_c, bank, k, fixed_point=fixed_point)
    m = min(len(direct), len(demux))
    a, b = direct.data[:m], demux.data[:m]
    equal = a == b
    if np.all(equal):
        return {"passed": True, "first_divergence": None, "checked": int(m)}
    first = int(np.flatnonzero(~equal)[0])
    return {"passed": False, "first_divergence": first, "checked": int(m)}
