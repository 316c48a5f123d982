"""The benchmark workloads: their inputs, the calls they time, and the checks
on every call's output.

A workload is a list of operations.  Each operation is one call into
``scfosim`` (the part that is timed) plus a check of that call's output
against the references recorded at the seed commit in ``reference.json``
(which the harness runs after the call, outside the timed region).  A check
returns the problems it found; an empty list means the output is correct.

Seeds: ``--seed 1`` gives every scenario its own default seed; ``--seed n``
shifts each default by ``n - 1``.  References exist for the seeds recorded in
``reference.json``.  For any other seed the checks fall back to properties
that hold for every seed: PASS/FAIL status of the checks that passed on every
recorded seed, exact output counts, the float twin's correlation, and the
demux/direct bit identity with an exact-rational spot check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"

DEFAULT_SEED = 1
SCENARIO_SEEDS = {
    "requant-loss": 1,
    "scfo-off-control": 2,
    "zone1-vs-zone2-alias": 3,
    "relaxed-antialias": 4,
    "zone2-shift": 5,
}
STREAM_SCENARIOS = (
    "scfo-off-control",
    "zone1-vs-zone2-alias",
    "relaxed-antialias",
    "zone2-shift",
    "offset-plan",
)

# requant-chain: correlated samples per chain.  The scenario's default is 1e8
# (about 735 s); 1e6 keeps one repetition near 7 s.
REQUANT_SAMPLES = 1_000_000
# Largest change to loss_blue, loss_red or difference that still counts as the
# reference result.  Adding 1e-8 noise to every synthesized sample moved them by
# at most 1.1e-11, one flipped Q4 or Q8 decision moves a loss by about 3e-7, and
# a phase plan one LUT step off moved loss_red by 1.3e-5 to 4.1e-5.
LOSS_TOL = 2e-6
# SNR 1 makes the float twin's correlation 1/2; a plan that misaligns the
# antennas drives it towards 0.  Recorded seeds stay within 2e-4 of 1/2.
RHO_FLOAT = 0.5
RHO_FLOAT_TOL = 2e-3

# hw-datapath: one seeded white-noise stream, resampled at a ratio above 1
# (skip events) and one below 1 (repeat events), on the float path and on the
# fixed-point path fed with Q8 codes.
HW_SAMPLES = 1 << 18
HW_RATIOS = {"skip": 1 + Fraction(53, 50000), "repeat": 1 - Fraction(47, 50000)}
HW_K = 8
HW_Q8_LOADING = 0.5
HW_F_C = Fraction(1_000_000)
HW_SPOT_CHECKS = 64
HW_SPOT_TOL = 1e-9  # relative to the largest output magnitude

# Much smaller inputs for the harness's own tests; no references apply.
TINY = {
    "requant-chain": 100_000,
    "stream-scenarios": {
        "scfo-off-control": {"T": 0.05},
        "zone1-vs-zone2-alias": {"T": 0.05},
        "relaxed-antialias": {"T": 0.05},
        "zone2-shift": {"n_fft": 1 << 15, "segments": 8},
        "offset-plan": {"n": 100},
    },
    "hw-datapath": 1 << 12,
}

# scfosim modules each workload imports during set-up
MODULES = {
    "requant-chain": ("scenarios",),
    "stream-scenarios": ("scenarios",),
    "hw-datapath": ("frontend", "resampler", "polyphase"),
}


@dataclass
class Op:
    """One timed call and the check of its output.

    ``call`` reaches scfosim through module attributes looked up at call
    time, so that the tracer's wrappers see the call.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


def scenario_seed(name: str, seed: int) -> int:
    return SCENARIO_SEEDS[name] + seed - DEFAULT_SEED


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_verdicts(out_dir: Path) -> list[str]:
    with open(out_dir / "summary.txt") as fh:
        return [line.rstrip("\n") for line in fh]


_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _last_digit(text: str) -> float:
    """Value of one unit in the last printed digit of ``text``."""
    mantissa, _, exponent = text.partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def same_verdict(line: str, ref: str) -> bool:
    """Equal text, with each printed number allowed one unit of its last digit."""
    if _NUMBER.sub("#", line) != _NUMBER.sub("#", ref):
        return False
    return all(
        abs(float(got) - float(want)) <= 1.000001 * _last_digit(want)
        for got, want in zip(_NUMBER.findall(line), _NUMBER.findall(ref))
    )


def compare_verdicts(lines: list[str], ref: list[str] | None, must_pass: list[bool]) -> list[str]:
    """Problems in a scenario's summary lines.

    With a reference every line must match it (``same_verdict``).  Without
    one, a line that passed on every recorded seed must still pass.
    """
    if ref is not None:
        if len(lines) != len(ref):
            return [f"{len(lines)} verdict lines, reference has {len(ref)}"]
        return [f"verdict {got!r} differs from reference {want!r}"
                for got, want in zip(lines, ref) if not same_verdict(got, want)]
    if len(lines) != len(must_pass):
        return [f"{len(lines)} verdict lines, recorded runs have {len(must_pass)}"]
    return [f"check passed on every recorded seed and now reads {line!r}"
            for line, need in zip(lines, must_pass) if need and not line.startswith("PASS ")]


def must_pass(verdicts_by_seed: list[list[str]]) -> list[bool]:
    """Per line: did it read PASS on every recorded seed?"""
    return [all(lines[i].startswith("PASS ") for lines in verdicts_by_seed)
            for i in range(len(verdicts_by_seed[0]))]


# ---------------------------------------------------------------------------
# requant-chain


def _requant_ops(seed, out_dir, bank, reference, tiny):
    from scfosim import scenarios

    samples = TINY["requant-chain"] if tiny else REQUANT_SAMPLES
    recorded = reference["requant-chain"]
    ref = None
    if not tiny and recorded["samples"] == samples:
        ref = recorded["seeds"].get(str(seed))
    cfg = {"samples": samples, "seed": scenario_seed("requant-loss", seed)}
    where = out_dir / "requant-loss"

    def check(result):
        with open(where / "requant_loss.csv") as fh:
            row = {k: float(v) for k, v in next(csv.DictReader(fh)).items()}
        need = must_pass([r["verdicts"] for r in recorded["seeds"].values()])
        problems = compare_verdicts(read_verdicts(where), ref and ref["verdicts"], need)
        if row["n_samples"] != samples:
            problems.append(f"n_samples {row['n_samples']:.0f} != {samples}")
        for key in ("loss_blue", "loss_red", "difference"):
            if ref is not None and not abs(row[key] - ref[key]) <= LOSS_TOL:
                problems.append(f"{key} {row[key]!r} differs from reference {ref[key]!r} by more than {LOSS_TOL}")
        report = result["report"]
        for name, rho in (("a", report.rho_float_a), ("b", report.rho_float_b)):
            if not abs(rho - RHO_FLOAT) <= RHO_FLOAT_TOL:
                problems.append(f"float twin rho_{name} = {rho!r}, expected {RHO_FLOAT} +/- {RHO_FLOAT_TOL}")
        return problems

    return [Op("requant-loss", lambda: scenarios.run_scenario("requant-loss", cfg, out_dir=where,
                                                               figures=False), check)]


# ---------------------------------------------------------------------------
# stream-scenarios


def _stream_ops(seed, out_dir, bank, reference, tiny):
    from scfosim import scenarios

    recorded = reference["stream-scenarios"]["seeds"]
    ref = None if tiny else recorded.get(str(seed))
    ops = []
    for name in STREAM_SCENARIOS:
        cfg = dict(TINY["stream-scenarios"][name]) if tiny else {}
        if name in SCENARIO_SEEDS:
            cfg["seed"] = scenario_seed(name, seed)
        where = out_dir / name
        want = ref and ref[name]

        def check(result, name=name, where=where, want=want):
            need = must_pass([lines[name] for lines in recorded.values()])
            return compare_verdicts(read_verdicts(where), want, need)

        ops.append(Op(name, lambda name=name, cfg=cfg, where=where:
                      scenarios.run_scenario(name, cfg or None, out_dir=where, figures=False), check))
    return ops


# ---------------------------------------------------------------------------
# hw-datapath


def exact_plan(start: Fraction, ratio: Fraction, phases: int, k: int) -> tuple[int, int]:
    """(first input sample, LUT index) of output k, from the documented rule:
    output k sits at p_k = start + k*ratio, rounded half-even onto the 1/P
    grid, and LUT index i stands for the delay (i - P/2)/P."""
    p = Fraction(start) + k * Fraction(ratio)
    q, r = divmod(p.numerator * phases, p.denominator)
    if 2 * r > p.denominator or (2 * r == p.denominator and q % 2):
        q += 1
    return divmod(q + phases // 2, phases)


def exact_count(ratio: Fraction, phases: int, taps: int, n_in: int) -> int:
    """Number of outputs whose whole window lies inside ``n_in`` inputs."""
    last = n_in - taps
    k = max(int(last / ratio) - 2, 0)
    while exact_plan(Fraction(0), ratio, phases, k)[0] <= last:
        k += 1
    while k > 0 and exact_plan(Fraction(0), ratio, phases, k - 1)[0] > last:
        k -= 1
    return k


def spot_indices(seed: int, ratio: Fraction, phases: int, count: int) -> list[int]:
    """Seeded random outputs plus the outputs on both sides of the first
    skip or repeat events."""
    rng = np.random.default_rng([seed, ratio.numerator, ratio.denominator])
    picks = {int(k) for k in rng.integers(0, count, HW_SPOT_CHECKS)}
    prev, events = exact_plan(Fraction(0), ratio, phases, 0)[0], 0
    for k in range(1, count):
        n = exact_plan(Fraction(0), ratio, phases, k)[0]
        if n - prev != 1:
            picks.update((k - 1, k))
            events += 1
            if events == 4:
                break
        prev = n
    return sorted(picks)


def spot_check(out: np.ndarray, x: np.ndarray, table: np.ndarray, ratio: Fraction, indices) -> list[str]:
    """Recompute chosen outputs as sum_m table[lut, m] * x[n + m]."""
    phases, taps = table.shape
    scale = max(float(np.max(np.abs(out))), 1e-300)
    problems = []
    for k in indices:
        n, lut = exact_plan(Fraction(0), ratio, phases, k)
        want = sum(float(table[lut, m]) * float(x[n + m]) for m in range(taps) if n + m >= 0)
        if not abs(out[k] - want) <= HW_SPOT_TOL * scale:
            problems.append(f"output {k} = {float(out[k])!r}, exact plan gives {want!r}")
            if len(problems) == 3:
                break
    return problems


def digest(data: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(data, dtype=np.float64).tobytes()).hexdigest()


def hw_inputs(seed: int, n: int):
    """Per ratio: the float stream and its Q8 copy, both from one RNG stream."""
    from scfosim.frontend import QuantizerSpec, QuantKind, SampleStream, quantize

    data = np.random.default_rng(seed).standard_normal(n)
    inputs = {}
    for label, ratio in HW_RATIOS.items():
        stream = SampleStream(rate=ratio * HW_F_C, epoch=Fraction(0), data=data)
        inputs[label] = {
            "float": stream,
            "fixed": quantize(stream, QuantizerSpec(QuantKind.Q8_UNIFORM, HW_Q8_LOADING)),
        }
    return inputs


def _hw_ops(seed, out_dir, bank, reference, tiny):
    from scfosim import polyphase, resampler

    n = TINY["hw-datapath"] if tiny else HW_SAMPLES
    recorded = reference["hw-datapath"]
    ref = None
    if not tiny and recorded["samples"] == n:
        ref = recorded["seeds"].get(str(seed))
    direct = {}  # case -> direct output, held until the demux check
    ops = []
    for label, paths in hw_inputs(seed, n).items():
        ratio = HW_RATIOS[label]
        for path, stream in paths.items():
            case = f"{label}/{path}"
            fixed = path == "fixed"

            def check_direct(out, case=case, stream=stream, ratio=ratio, fixed=fixed):
                data = direct[case] = out.data
                count = exact_count(ratio, bank.phases, bank.taps_per_phase, len(stream))
                if len(data) != count:
                    return [f"{len(data)} outputs, exact count is {count}"]
                if fixed:
                    step = stream.quant_scale / 2.0  # Q8 codes are odd multiples of half a step
                    x = np.rint(stream.data / step)
                    table = bank.table_int * (step / float(1 << (bank.coeff_bits - 1)))
                else:
                    x, table = stream.data, bank.table
                problems = spot_check(data, x, table, ratio, spot_indices(seed, ratio, bank.phases, count))
                if ref is not None and digest(data) != ref[case]:
                    problems.append("output bits differ from the reference digest")
                return problems

            def check_demux(out, case=case):
                want = direct.pop(case, None)
                if want is None:
                    return ["no direct output to compare with"]
                m = min(len(want), len(out.data))
                if m < len(want) - 2 * HW_K:
                    return [f"demux gave {len(out.data)} outputs, direct {len(want)}"]
                if not np.array_equal(out.data[:m], want[:m]):
                    first = int(np.flatnonzero(out.data[:m] != want[:m])[0])
                    return [f"demux differs from direct from output {first} on"]
                return []

            ops.append(Op(f"resample {case}", lambda s=stream, fp=fixed:
                          resampler.resample(s, HW_F_C, bank, fixed_point=fp), check_direct))
            ops.append(Op(f"demux_resample {case}", lambda s=stream, fp=fixed:
                          polyphase.demux_resample(s, HW_F_C, bank, HW_K, fixed_point=fp), check_demux))
    return ops


WORKLOADS = {
    "requant-chain": _requant_ops,
    "stream-scenarios": _stream_ops,
    "hw-datapath": _hw_ops,
}


def build(workload: str, seed: int, out_dir: Path, bank, reference: dict, tiny: bool = False) -> list[Op]:
    """The operations of ``workload`` for ``seed``; ``bank`` is design_bank(56, 1024, 19)."""
    return WORKLOADS[workload](seed, Path(out_dir), bank, reference, tiny)
