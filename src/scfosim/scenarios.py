"""Named end-to-end experiments wiring the modules into the claimed
demonstrations: clock-interference washout, Zone-1 vs Zone-2 aliasing,
relaxed anti-alias filtering, requantization loss, the all-offsets-zero
control, and offset-plan feasibility.

Scenarios run at desk scale: sample rates of ~1e6 samples/s with the
offset ratios and integration times chosen so the dimensionless washing
products dw*T match the regimes of interest (the physics depends only on
dw*T).  Every scenario writes one CSV per result table plus summary.txt
with one PASS/FAIL line per check; identical config and seed give
byte-identical CSV output.

Antennas meet only at the correlator, so the whole-stream scenarios build
their antennas in parallel processes (``_resampled_tone_streams``).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .chain import ChainSpec, SignalModel, forked_stream
from .correlator import correlate, sensitivity_loss, washing_suppression_db
from .errors import ConfigInvalid, Infeasible
from .frontend import QuantKind, QuantizerSpec, Zone, sample
from .mixer import MixerConfig, ssb_shift
from .rational import parse_rational
from .resampler import cached_bank, resample
from .signal import (
    InterferenceKind,
    InterferenceSpec,
    Tone,
    ToneBankSignal,
    inject,
    synth_signal,
)

BAND_TABLE = {
    "B1": Fraction(4_000_000_000),
    "B2": Fraction(4_000_000_000),
    "B3": Fraction(3_200_000_000),
    "B4": Fraction(5_400_000_000),
    "B5stream": Fraction(6_000_000_000),  # per-stream rate from the 30 GS/s master
}

OFFSET_GRID_HZ = {
    "B1": Fraction(100),
    "B2": Fraction(100),
    "B3": Fraction(100),
    "B4": Fraction(100),
    "B5stream": Fraction(1000),
}

OFFSET_LIMIT_HZ = Fraction(1_000_000)
OFFSET_LIMIT_EXTENDED_HZ = Fraction(10_000_000)


@dataclass
class AntennaChainSpec:
    """Per-antenna configuration; validation enforces the band rules.

    ``offset`` is the physical sample-clock offset in Hz against the band's
    nominal rate; desk-scale runs reuse the exact ratio offset/f_nominal.
    """

    antenna_id: str
    band: str = "B1"
    offset: Fraction = Fraction(0)
    zone: Zone = Zone.ZONE1
    quant: QuantizerSpec = field(default_factory=lambda: QuantizerSpec(QuantKind.FLOAT))
    interference: list[InterferenceSpec] = field(default_factory=list)
    extended_offsets: bool = False
    f_nominal: Fraction | None = None

    def __post_init__(self):
        if self.band not in BAND_TABLE:
            raise ConfigInvalid(f"antennas[{self.antenna_id}].band", f"unknown band {self.band!r}")
        if self.f_nominal is None:
            self.f_nominal = BAND_TABLE[self.band]
        self.offset = Fraction(self.offset)
        limit = OFFSET_LIMIT_EXTENDED_HZ if self.extended_offsets else OFFSET_LIMIT_HZ
        if abs(self.offset) > limit:
            raise ConfigInvalid(
                f"antennas[{self.antenna_id}].offset",
                f"|{self.offset}| Hz exceeds {limit} Hz"
                + ("" if self.extended_offsets else " (extended mode allows 10 MHz)"),
            )
        grid = OFFSET_GRID_HZ[self.band]
        if self.offset % grid != 0:
            raise ConfigInvalid(
                f"antennas[{self.antenna_id}].offset",
                f"{self.offset} Hz not a multiple of the {grid} Hz tuning grid for {self.band}",
            )

    @property
    def offset_ratio(self) -> Fraction:
        return Fraction(self.offset) / Fraction(self.f_nominal)

    def desk_rate(self, f_c: Fraction) -> Fraction:
        return Fraction(f_c) * (1 + self.offset_ratio)


@dataclass
class OffsetPlan:
    n_antennas: int
    min_pairwise_hz: float
    assignments: list[Fraction]

    def validate(self) -> bool:
        vals = sorted(self.assignments)
        return all(
            float(b - a) >= self.min_pairwise_hz - 1e-9 for a, b in zip(vals, vals[1:])
        )


def plan_offsets(n: int, min_pairwise: float, max_abs: float, resolution: float = 100.0) -> OffsetPlan:
    """Deterministic uniform ladder of n offsets on the resolution grid.

    Pairwise separations stay at or above ``min_pairwise``; all offsets fit
    in [-max_abs, +max_abs].
    """
    if n < 1:
        raise ConfigInvalid("n", f"{n} antennas; at least 1 is needed")
    res = Fraction(resolution).limit_denominator(10**9) if not isinstance(resolution, Fraction) else resolution
    if n * min_pairwise > 2 * max_abs + float(res):
        raise Infeasible(
            f"n*min_pairwise = {n * min_pairwise:.6g} Hz exceeds the available span "
            f"2*max_abs = {2 * max_abs:.6g} Hz (binding constraint: max_abs)"
        )
    step_units = max(int(math.ceil(min_pairwise / float(res))), 1)
    step = step_units * res
    assignments = [(i - n // 2) * step for i in range(n)]
    worst = max(abs(a) for a in assignments)
    if float(worst) > max_abs:
        raise Infeasible(
            f"ladder spans +/-{float(worst):.6g} Hz > max_abs {max_abs:.6g} Hz "
            "(binding constraint: max_abs)"
        )
    return OffsetPlan(n_antennas=n, min_pairwise_hz=min_pairwise, assignments=assignments)


# ---------------------------------------------------------------------------
# scenario plumbing


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # a bare number for numpy scalars too
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


class Summary:
    def __init__(self):
        self.lines: list[tuple[bool, str]] = []

    def check(self, ok: bool, text: str) -> bool:
        self.lines.append((bool(ok), text))
        return bool(ok)

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.lines)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for ok, text in self.lines:
                fh.write(("PASS " if ok else "FAIL ") + text + "\n")
            fh.write(("PASS" if self.passed else "FAIL") + " overall\n")

    def print(self) -> None:
        for ok, text in self.lines:
            print(("PASS " if ok else "FAIL ") + text)


def _kind(value) -> type:
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return numbers.Real  # int and float stand in for each other
    return type(value)


def merge_config(defaults: dict, override: dict | None) -> dict:
    """Defaults with each override laid over them; an override must be of
    its default's kind (a number, a string, a list or a nested object)."""
    if override is None:
        return defaults
    out = dict(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigInvalid(key, "unknown configuration field")
        if _kind(value) is not _kind(defaults[key]):
            raise ConfigInvalid(key, f"{value!r} is not of the kind of its default {defaults[key]!r}")
        if isinstance(value, dict):
            out[key] = merge_config(defaults[key], value)
        else:
            out[key] = value
    return out


def load_config(path) -> dict:
    """Config overrides from a JSON object file; an unreadable file is invalid."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigInvalid("config", f"cannot read {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config", f"{path} holds no JSON object")
    return cfg


def _frac(value) -> Fraction:
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, int):
        return Fraction(value)
    raise ConfigInvalid("rational", f"{value!r} must be an integer or 'num/den' string")


def _alias(freq: Fraction, rate: Fraction) -> Fraction:
    """Frequency at which a real tone at ``freq`` appears when sampled at
    ``rate``: folded onto [0, rate/2]."""
    r = freq % rate
    return min(r, rate - r)


# ---------------------------------------------------------------------------
# the experiments


def _antennas(cfg, zone=Zone.ZONE1, interference=(), offsets=None):
    """One antenna per offset (``cfg["offsets_hz"]`` by default), named
    m001, m002, ... on ``cfg["band"]`` with extended offsets allowed."""
    return [
        AntennaChainSpec(
            antenna_id=f"m{i + 1:03d}", band=cfg["band"], offset=_frac(off), zone=zone,
            interference=list(interference), extended_offsets=True,
        )
        for i, off in enumerate(cfg["offsets_hz"] if offsets is None else offsets)
    ]


def _clock_tone(cfg, amplitude: float) -> InterferenceSpec:
    """Each antenna's own clock tone at ``cfg["clock_tone_scale"]`` * f_a."""
    return InterferenceSpec(
        kind=InterferenceKind.SELF_CLOCK_DERIVED,
        amplitude=amplitude,
        clock_scale=_frac(cfg["clock_tone_scale"]),
    )


def _peak_hz(stream, n_fft: int, f_c: Fraction) -> float:
    """Frequency of the strongest bin of the Hann-windowed FFT of the first
    ``n_fft`` valid samples."""
    seg = stream.data[stream.valid_start : stream.valid_start + n_fft]
    spec = np.abs(np.fft.fft(seg * np.hanning(n_fft)))
    return np.fft.fftfreq(n_fft, d=1.0 / float(f_c))[int(np.argmax(spec))]


def _map_forked(fn, items):
    """``[fn(x) for x in items]`` with the last item run in a forked child
    process (``forked_stream``) while this one runs the rest."""
    if len(items) < 2:
        return [fn(x) for x in items]

    def last():
        yield fn(items[-1])

    with forked_stream(last) as rest:
        return [fn(x) for x in items[:-1]] + list(rest)


def _resampled_tone_streams(antennas, f_c, bank, n_in, sky=None, zone=Zone.ZONE1, shift=False, band=None):
    """Per antenna: inject interference into its sky (one signal for all, a
    list with one per antenna, or None for an empty bank), sample at the
    antenna's desk rate, resample back to the common clock; optionally apply
    the Zone-2 frequency-shift mixer.  Antennas are independent, so they run
    in parallel processes (``_map_forked``) with the same output bytes."""
    clocks = {spec.antenna_id: spec.desk_rate(f_c) for spec in antennas}
    if band is None:
        band = (0.0833 * float(f_c) / 2, 0.9167 * float(f_c) / 2)
    if sky is None:
        sky = ToneBankSignal(tones=(), seed=0, band=band)
    if not isinstance(sky, list):
        sky = [sky] * len(antennas)

    def one(item):
        spec, bank_sig = item
        for interference in spec.interference:
            bank_sig = inject(bank_sig, interference, clocks, spec.antenna_id)
        f_a = clocks[spec.antenna_id]
        ratio = f_a / f_c
        c = Fraction(bank.taps_per_phase - 1, 2)
        stream = sample(bank_sig, f_a, n_in, zone=zone, band_slack=0.02)
        out = resample(stream, f_c, bank, start_position=c * (ratio - 1))
        if shift:
            out = ssb_shift(out, MixerConfig(shift_hz=f_c - f_a))
        return out

    return _map_forked(one, list(zip(antennas, sky)))


def scenario_selfclock_washout(cfg: dict | None, out_dir: Path) -> dict:
    defaults = {
        "seed": 1,
        "f_c": "1000000/1",
        "band": "B1",
        "offsets_hz": ["4240000/1", "-4240000/1"],
        "clock_tone_scale": "3/4",
        "clock_tone_amplitude": 1.0,
        "sky_tones": 16,
        "targets_dwt": [100.0, 1000.0, 10000.0],
        "windows": 16,
        "window_jitter": 0.25,
        "sky_T": 0.5,
        "taps": 56,
        "phases": 1024,
        "coeff_bits": 19,
        "tolerance_db": 3.0,
        "sky_rho_min": 0.99,
    }
    cfg = merge_config(defaults, cfg)
    rng = np.random.default_rng(cfg["seed"])
    f_c = _frac(cfg["f_c"])
    bank = cached_bank(cfg["taps"], cfg["phases"], cfg["coeff_bits"])
    antennas = _antennas(cfg, interference=[_clock_tone(cfg, float(cfg["clock_tone_amplitude"]))])
    summary = Summary()

    # interference-only streams: each antenna samples its own clock tone
    # scale * f_a, which lands at its alias on [0, f_a/2] (1/4 f_a for the
    # default 3/4), so the tones differ by the difference of the aliases;
    # windows of varying start and length sample the washing statistics
    scale = _frac(cfg["clock_tone_scale"])
    landed = [_alias(scale * f_a, f_a) for f_a in (a.desk_rate(f_c) for a in antennas)]
    delta_f = abs(float(landed[0] - landed[1]))
    longest = max(cfg["targets_dwt"]) / (2 * math.pi * delta_f)
    n_in = int(1.45 * longest * float(f_c)) + 4096
    streams = _resampled_tone_streams(antennas, f_c, bank, n_in)

    rows = []
    results = {}
    for target in cfg["targets_dwt"]:
        T0 = target / (2 * math.pi * delta_f)
        products = []
        for w in range(cfg["windows"]):
            T_w = T0 * (1 + cfg["window_jitter"] * (2 * rng.uniform() - 1))
            n_w = int(T_w * float(f_c))
            lo = max(s.valid_start for s in streams)
            hi = min(s.valid_end for s in streams)
            start = int(rng.integers(lo, hi - n_w))
            rep = correlate(streams[0], streams[1], T=T_w, start=start)
            dwt = 2 * math.pi * delta_f * rep.n_samples / float(f_c)
            products.append(abs(rep.rho) * dwt)
            rows.append((target, w, start, rep.n_samples, abs(rep.rho), dwt, abs(rep.rho) * dwt))
        measured = float(np.mean(products))
        err_db = 10 * math.log10(max(measured, 1e-300))
        ok = abs(err_db) <= cfg["tolerance_db"]
        prediction = washing_suppression_db(delta_f, T0)
        summary.check(
            ok,
            f"dwT={target:g}: mean |rho|*dwT = {measured:.3f} within "
            f"{cfg['tolerance_db']} dB of the 1/(dwT) envelope "
            f"(predicted suppression {prediction:.2f} dB)",
        )
        results[target] = measured

    # sky correlation rides the same chains
    sky = synth_signal(cfg["seed"], cfg["sky_tones"], (0.0833 * float(f_c) / 2, 0.9167 * float(f_c) / 2))
    sky_n_in = int(cfg["sky_T"] * float(f_c) * 1.2) + 4096
    sky_streams = _resampled_tone_streams(_antennas(cfg), f_c, bank, sky_n_in, sky=sky)
    sky_rep = correlate(sky_streams[0], sky_streams[1], T=cfg["sky_T"])
    sky_rho = abs(sky_rep.rho)
    summary.check(
        sky_rho > cfg["sky_rho_min"],
        f"sky tone |rho| = {sky_rho:.5f} > {cfg['sky_rho_min']}",
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(
        out_dir / "washout_windows.csv",
        ["target_dwt", "window", "start", "n_samples", "rho_mag", "dwt", "product"],
        rows,
    )
    summary.write(out_dir / "summary.txt")
    return {"summary": summary, "results": results, "sky_rho": sky_rho, "delta_f": delta_f}


def scenario_scfo_off_control(cfg: dict | None, out_dir: Path) -> dict:
    defaults = {
        "seed": 2,
        "f_c": "1000000/1",
        "band": "B1",
        "clock_tone_scale": "3/4",
        "clock_tone_amplitude": 1.0,
        "noise_tones": 64,
        "noise_rms": 0.5,
        "T": 0.5,
        "taps": 56,
        "phases": 1024,
        "coeff_bits": 19,
        "tolerance": 0.01,
    }
    cfg = merge_config(defaults, cfg)
    f_c = _frac(cfg["f_c"])
    bank = cached_bank(cfg["taps"], cfg["phases"], cfg["coeff_bits"])
    # all offsets zero: the clock tones land at identical frequencies
    antennas = _antennas(
        cfg, interference=[_clock_tone(cfg, float(cfg["clock_tone_amplitude"]))], offsets=[0, 0]
    )
    n_in = int(cfg["T"] * float(f_c) * 1.3) + 4096
    band = (0.0833 * float(f_c) / 2, 0.9167 * float(f_c) / 2)
    noise = [
        synth_signal(cfg["seed"] * 977 + i, cfg["noise_tones"], band, rms=float(cfg["noise_rms"]))
        for i in range(len(antennas))
    ]
    streams = _resampled_tone_streams(antennas, f_c, bank, n_in, sky=noise)
    p_tone = float(cfg["clock_tone_amplitude"]) ** 2 / 2.0
    p_noise = float(cfg["noise_rms"]) ** 2
    rep = correlate(streams[0], streams[1], T=cfg["T"])
    predicted = p_tone / (p_tone + p_noise)
    measured = abs(rep.rho)
    ok = abs(measured - predicted) <= cfg["tolerance"] * predicted
    summary = Summary()
    summary.check(
        ok,
        f"SCFO off: common clock tone |rho| = {measured:.5f} within "
        f"{100 * cfg['tolerance']:.0f}% of SNR prediction {predicted:.5f}",
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(
        out_dir / "control.csv",
        ["rho_mag", "predicted", "T", "n_samples"],
        [(measured, predicted, rep.T, rep.n_samples)],
    )
    summary.write(out_dir / "summary.txt")
    return {"summary": summary, "rho": measured, "predicted": predicted}


def scenario_zone1_vs_zone2(cfg: dict | None, out_dir: Path) -> dict:
    """Out-of-band contamination: Zone 2 decorrelates all of it; Zone 1 keeps
    a correlating region between the passband edge and Nyquist."""
    defaults = {
        "seed": 3,
        "f_c": "1000000/1",
        "band": "B1",
        "offsets_hz": ["4240000/1", "-4240000/1"],
        "probe_amplitude": 1.0,
        "T": 0.4,
        "taps": 56,
        "phases": 1024,
        "coeff_bits": 19,
        "decorrelated_max": 0.05,
        "correlated_min": 0.99,
    }
    cfg = merge_config(defaults, cfg)
    f_c = _frac(cfg["f_c"])
    bank = cached_bank(cfg["taps"], cfg["phases"], cfg["coeff_bits"])
    summary = Summary()
    rows = []

    def antennas(zone, probe_hz):
        probe = InterferenceSpec(
            kind=InterferenceKind.FIXED_RF, amplitude=float(cfg["probe_amplitude"]), freq_hz=probe_hz
        )
        return _antennas(cfg, zone, [probe])

    n_in = int(cfg["T"] * float(f_c) * 1.3) + 4096

    # Zone 1, probe between passband edge and Nyquist: sampled untranslated at
    # the same absolute frequency in both antennas, so it correlates
    z1_corr = _resampled_tone_streams(
        antennas(Zone.ZONE1, 0.47 * float(f_c)), f_c, bank, n_in,
        band=(0.05 * float(f_c), 0.45 * float(f_c)),
    )
    rho = abs(correlate(z1_corr[0], z1_corr[1], T=cfg["T"]).rho)
    rows.append(("zone1_below_nyquist", 0.47 * float(f_c), rho))
    summary.check(
        rho > cfg["correlated_min"],
        f"Zone 1 out-of-band probe below Nyquist correlates: |rho| = {rho:.5f}",
    )

    # Zone 1, probe above the sample rate: alias frequency depends on f_a
    z1_alias = _resampled_tone_streams(
        antennas(Zone.ZONE1, 1.3 * float(f_c)), f_c, bank, n_in,
        band=(0.05 * float(f_c), 0.45 * float(f_c)),
    )
    rho = abs(correlate(z1_alias[0], z1_alias[1], T=cfg["T"]).rho)
    rows.append(("zone1_aliased", 1.3 * float(f_c), rho))
    summary.check(
        rho < cfg["decorrelated_max"],
        f"Zone 1 aliased probe decorrelates: |rho| = {rho:.5f}",
    )

    # Zone 2, probe below the zone: untranslated by sampling but shifted by
    # the antenna-dependent f_c - f_a, so it cannot correlate
    z2 = _resampled_tone_streams(
        antennas(Zone.ZONE2, 0.3 * float(f_c)), f_c, bank, n_in,
        zone=Zone.ZONE2, shift=True,
        band=(0.56 * float(f_c), 0.94 * float(f_c)),
    )
    rho = abs(correlate(z2[0], z2[1], T=cfg["T"]).rho)
    rows.append(("zone2_below_zone", 0.3 * float(f_c), rho))
    summary.check(
        rho < cfg["decorrelated_max"],
        f"Zone 2 out-of-band probe decorrelates: |rho| = {rho:.5f}",
    )

    # Zone 2 in-band sky content correlates after the per-antenna shift
    sky = ToneBankSignal(
        tones=(Tone(1.0, 0.7 * float(f_c), 0.7),), seed=cfg["seed"],
        band=(0.56 * float(f_c), 0.94 * float(f_c)),
    )
    z2_sky = _resampled_tone_streams(
        _antennas(cfg, Zone.ZONE2), f_c, bank, n_in, sky=sky, zone=Zone.ZONE2, shift=True,
        band=(0.56 * float(f_c), 0.94 * float(f_c)),
    )
    rho = abs(correlate(z2_sky[0], z2_sky[1], T=cfg["T"]).rho)
    rows.append(("zone2_sky", 0.7 * float(f_c), rho))
    summary.check(
        rho > cfg["correlated_min"],
        f"Zone 2 in-band sky correlates after shift removal: |rho| = {rho:.5f}",
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "zone_probes.csv", ["case", "probe_hz", "rho_mag"], rows)
    summary.write(out_dir / "summary.txt")
    return {"summary": summary, "rows": rows}


def scenario_relaxed_antialias(cfg: dict | None, out_dir: Path) -> dict:
    """A relaxed analog anti-alias filter lets an out-of-band tone alias into
    the band at reduced amplitude; with SCFO on the alias decorrelates, with
    SCFO off it correlates fully (the filter is then load-bearing)."""
    from .frontend import FilterSpec, antialias

    defaults = {
        "seed": 4,
        "f_c": "1000000/1",
        "band": "B1",
        "offsets_hz": ["4240000/1", "-4240000/1"],
        "filter_points": [[0.0, 0.0], [500000.0, 0.0], [750000.0, -20.0]],
        "probe_hz": 1300000.0,
        "probe_amplitude": 1.0,
        "T": 0.4,
        "taps": 56,
        "phases": 1024,
        "coeff_bits": 19,
        "decorrelated_max": 0.05,
    }
    cfg = merge_config(defaults, cfg)
    f_c = _frac(cfg["f_c"])
    bank = cached_bank(cfg["taps"], cfg["phases"], cfg["coeff_bits"])
    filt = FilterSpec(points=tuple((float(a), float(b)) for a, b in cfg["filter_points"]))
    expected_gain = filt.gain(float(cfg["probe_hz"]))
    n_in = int(cfg["T"] * float(f_c) * 1.3) + 4096
    probe = ToneBankSignal(
        tones=(Tone(float(cfg["probe_amplitude"]), float(cfg["probe_hz"]), 0.1),),
        seed=cfg["seed"], band=(0.05 * float(f_c), 0.45 * float(f_c)),
    )
    filtered = antialias(probe, filt)
    summary = Summary()
    rows = []

    def run(offsets):
        return _resampled_tone_streams(_antennas(cfg, offsets=offsets), f_c, bank, n_in, sky=filtered)

    on = run(cfg["offsets_hz"])
    rep_on = correlate(on[0], on[1], T=cfg["T"])
    rows.append(("scfo_on", abs(rep_on.rho), rep_on.suppression_db))
    summary.check(
        abs(rep_on.rho) < cfg["decorrelated_max"],
        f"SCFO on: aliased probe decorrelates, |rho| = {abs(rep_on.rho):.5f} "
        f"(suppression {rep_on.suppression_db:.1f} dB)",
    )

    off = run(["0/1", "0/1"])
    rep_off = correlate(off[0], off[1], T=cfg["T"])
    rows.append(("scfo_off", abs(rep_off.rho), rep_off.suppression_db))
    summary.check(
        abs(rep_off.rho) > 0.99,
        f"SCFO off: aliased probe correlates fully, |rho| = {abs(rep_off.rho):.5f}",
    )
    amp = float(np.sqrt(np.mean(on[0].data[on[0].valid_slice()] ** 2))) * np.sqrt(2)
    rows.append(("filter_gain", expected_gain, amp / float(cfg["probe_amplitude"])))
    summary.check(
        abs(amp / float(cfg["probe_amplitude"]) - expected_gain) < 0.1 * expected_gain + 1e-6,
        f"relaxed filter scales the probe by {expected_gain:.3f} "
        f"(measured {amp / float(cfg['probe_amplitude']):.3f})",
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "relaxed_antialias.csv", ["case", "value_a", "value_b"], rows)
    summary.write(out_dir / "summary.txt")
    return {"summary": summary, "rows": rows}


def scenario_zone2_shift(cfg: dict | None, out_dir: Path) -> dict:
    """Numerical version of the final-shift diagram: after per-antenna
    f_c - f_a shifts, the common sky tone lands at one frequency with a flat
    cross-spectrum phase slope, while the per-antenna clock tones stay split
    by the offset difference."""
    defaults = {
        "seed": 5,
        "f_c": "1000000/1",
        "band": "B1",
        "offsets_hz": ["4240000/1", "-4240000/1"],
        "sky_hz_frac": 0.7,
        "clock_tone_scale": "3/4",
        "n_fft": 1 << 18,
        "segments": 16,
        "taps": 56,
        "phases": 1024,
        "coeff_bits": 19,
        "residual_tol_hz": 0.05,
    }
    cfg = merge_config(defaults, cfg)
    f_c = _frac(cfg["f_c"])
    bank = cached_bank(cfg["taps"], cfg["phases"], cfg["coeff_bits"])
    summary = Summary()
    band2 = (0.56 * float(f_c), 0.94 * float(f_c))
    n_fft = int(cfg["n_fft"])
    n_in = int(n_fft * 1.35) + 8192

    sky = ToneBankSignal(
        tones=(Tone(1.0, cfg["sky_hz_frac"] * float(f_c), 0.5),),
        seed=cfg["seed"], band=band2,
    )
    sky_streams = _resampled_tone_streams(
        _antennas(cfg, Zone.ZONE2), f_c, bank, n_in, sky=sky, zone=Zone.ZONE2, shift=True, band=band2
    )
    # sky tone peak bins must coincide
    peaks = [_peak_hz(s, n_fft, f_c) for s in sky_streams]
    bin_hz = float(f_c) / n_fft
    expected = float(f_c) * (1.0 - cfg["sky_hz_frac"])
    summary.check(
        abs(peaks[0] - peaks[1]) <= bin_hz,
        f"common sky tone lands at one frequency: {peaks[0]:.1f} vs {peaks[1]:.1f} Hz",
    )
    summary.check(
        abs(peaks[0] - expected) <= 2 * bin_hz,
        f"sky tone at f_c - F = {expected:.1f} Hz (measured {peaks[0]:.1f} Hz)",
    )

    # flat cross-spectrum phase slope in time: no residual frequency offset
    segments = int(cfg["segments"])
    seg_len = n_fft // segments
    phases = []
    times = []
    lo = max(s.valid_start for s in sky_streams)
    for s_i in range(segments):
        sl = slice(lo + s_i * seg_len, lo + (s_i + 1) * seg_len)
        z = np.vdot(sky_streams[1].data[sl], sky_streams[0].data[sl])
        phases.append(np.angle(z))
        times.append((s_i + 0.5) * seg_len / float(f_c))
    phases = np.unwrap(np.array(phases))
    times = np.array(times)
    slope, intercept = np.polyfit(times, phases, 1)
    resid = phases - (slope * times + intercept)
    se = float(np.std(resid, ddof=2) / np.sqrt(np.sum((times - times.mean()) ** 2)))
    residual_hz = slope / (2 * np.pi)
    tol = max(3 * se / (2 * np.pi), cfg["residual_tol_hz"])
    summary.check(
        abs(residual_hz) <= tol,
        f"cross-spectrum phase slope flat: residual {residual_hz:.4f} Hz "
        f"(tolerance {tol:.4f} Hz)",
    )

    # clock tones land apart by the offset difference times the rule scale
    clock_antennas = _antennas(cfg, Zone.ZONE2, [_clock_tone(cfg, 1.0)])
    clock_streams = _resampled_tone_streams(
        clock_antennas, f_c, bank, n_in, zone=Zone.ZONE2, shift=True, band=band2
    )
    cpeaks = [_peak_hz(s, n_fft, f_c) for s in clock_streams]
    scale = _frac(cfg["clock_tone_scale"])
    rates = [a.desk_rate(f_c) for a in clock_antennas]
    # tone at scale*f_a samples to (1-scale)*f_a, then shifts by f_c - f_a
    landing = [float(f_c - Fraction(scale) * r) for r in rates]
    expected_sep = abs(landing[0] - landing[1])
    measured_sep = abs(cpeaks[0] - cpeaks[1])
    summary.check(
        abs(measured_sep - expected_sep) <= 2 * bin_hz,
        f"clock tones split by {measured_sep:.1f} Hz (expected {expected_sep:.1f} Hz)",
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(
        out_dir / "zone2_shift.csv",
        ["quantity", "antenna1", "antenna2"],
        [
            ("sky_peak_hz", peaks[0], peaks[1]),
            ("clock_peak_hz", cpeaks[0], cpeaks[1]),
            ("phase_slope_hz", residual_hz, se / (2 * np.pi)),
        ],
    )
    summary.write(out_dir / "summary.txt")
    return {"summary": summary, "sky_peaks": peaks, "clock_peaks": cpeaks, "residual_hz": residual_hz}


def scenario_requant_loss(cfg: dict | None, out_dir: Path) -> dict:
    """Desk-scale reproduction of the 4-bit vs 4-bit+resample+8-bit
    sensitivity-loss comparison; the acceptance target is the difference."""
    defaults = {
        "seed": 1,
        "samples": 100_000_000,
        "offset_ratio": "1/10000",
        "q4_loading": 1.0,
        "q8_loading": 0.5,
        "snr": 1.0,
        "sky_tones": 16,
        "noise_tones": 16,
        "segments": 64,
        "target_diff": 3.75e-4,
        "tolerance": 2.0e-4,
        "stderr_max": 5.0e-5,
        "taps": 56,
        "phases": 1024,
        "coeff_bits": 19,
    }
    cfg = merge_config(defaults, cfg)
    blue = ChainSpec(
        "q4-direct",
        input_quant=QuantizerSpec(QuantKind.Q4_OPTIMAL, float(cfg["q4_loading"])),
    )
    red = ChainSpec(
        "q4-resample-q8",
        input_quant=QuantizerSpec(QuantKind.Q4_OPTIMAL, float(cfg["q4_loading"])),
        resample=True,
        offset=_frac(cfg["offset_ratio"]),
        out_quant=QuantizerSpec(QuantKind.Q8_UNIFORM, float(cfg["q8_loading"])),
        bank_taps=cfg["taps"],
        bank_phases=cfg["phases"],
        bank_bits=cfg["coeff_bits"],
    )
    model = SignalModel(
        sky_seed=cfg["seed"],
        n_sky_tones=cfg["sky_tones"],
        n_noise_tones=cfg["noise_tones"],
        snr=float(cfg["snr"]),
    )
    rep = sensitivity_loss(
        cfg["seed"], blue, red, n=int(cfg["samples"]), model=model, segments=cfg["segments"]
    )
    summary = Summary()
    lo = cfg["target_diff"] - cfg["tolerance"]
    hi = cfg["target_diff"] + cfg["tolerance"]
    summary.check(
        lo <= rep.difference <= hi,
        f"requantization loss difference = {100 * rep.difference:.4f}% in "
        f"[{100 * lo:.4f}%, {100 * hi:.4f}%] (blue {100 * rep.loss_a:.4f}%, "
        f"red {100 * rep.loss_b:.4f}%)",
    )
    summary.check(
        rep.stderr < cfg["stderr_max"],
        f"Monte Carlo stderr = {100 * rep.stderr:.4f}% < {100 * cfg['stderr_max']:.4f}% "
        f"({rep.n_samples} correlated samples)",
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(
        out_dir / "requant_loss.csv",
        ["loss_blue", "loss_red", "difference", "stderr", "n_samples"],
        [(rep.loss_a, rep.loss_b, rep.difference, rep.stderr, rep.n_samples)],
    )
    write_csv(
        out_dir / "loss_vs_freq.csv",
        ["freq_hz", "loss_blue", "loss_red"],
        [(f, la, lb) for f, la, lb in rep.per_freq],
    )
    summary.write(out_dir / "summary.txt")
    return {"summary": summary, "report": rep}


def scenario_offset_plan(cfg: dict | None, out_dir: Path) -> dict:
    """Feasibility of pairwise-separated offset ladders, including the
    2000-antenna, 10 kHz minimum, +/-10 MHz case."""
    defaults = {
        "n": 2000,
        "min_pairwise": 10_000.0,
        "max_abs": 10_000_000.0,
        "resolution": 1000.0,
    }
    cfg = merge_config(defaults, cfg)
    summary = Summary()
    plan = plan_offsets(cfg["n"], cfg["min_pairwise"], cfg["max_abs"], cfg["resolution"])
    summary.check(
        plan.validate(),
        f"{cfg['n']} offsets on the {cfg['resolution']:g} Hz grid keep pairwise "
        f"separation >= {cfg['min_pairwise']:g} Hz",
    )
    span = max(abs(float(a)) for a in plan.assignments)
    summary.check(
        span <= cfg["max_abs"],
        f"ladder spans +/-{span:g} Hz within +/-{cfg['max_abs']:g} Hz",
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(
        out_dir / "offset_plan.csv",
        ["index", "offset_hz"],
        [(i, float(a)) for i, a in enumerate(plan.assignments)],
    )
    summary.write(out_dir / "summary.txt")
    return {"summary": summary, "plan": plan}


SCENARIOS = {
    "selfclock-washout": (
        scenario_selfclock_washout,
        "clock-derived interference washes out as 1/(dwT); sky correlates",
    ),
    "scfo-off-control": (
        scenario_scfo_off_control,
        "all offsets zero: the common clock tone correlates at the SNR prediction",
    ),
    "zone1-vs-zone2-alias": (
        scenario_zone1_vs_zone2,
        "out-of-band probes: Zone 2 decorrelates all, Zone 1 keeps a correlating region",
    ),
    "relaxed-antialias": (
        scenario_relaxed_antialias,
        "aliasing through a relaxed anti-alias filter decorrelates with SCFO on",
    ),
    "zone2-shift": (
        scenario_zone2_shift,
        "per-antenna frequency shifts align the sky tone and split the clock tones",
    ),
    "requant-loss": (
        scenario_requant_loss,
        "4-bit vs 4-bit+resample+8-bit sensitivity loss difference",
    ),
    "offset-plan": (
        scenario_offset_plan,
        "pairwise-separated offset ladder feasibility",
    ),
}


def run_scenario(name: str, cfg: dict | None = None, out_dir=None, figures: bool = False) -> dict:
    """Execute a named scenario; writes its CSVs and summary.txt into
    ``out_dir`` (default: a directory named after the scenario).

    No figures are drawn: ``figures`` is accepted only as False.
    """
    if name not in SCENARIOS:
        raise ConfigInvalid("scenario", f"unknown scenario {name!r}; see list-scenarios")
    if figures:
        raise ConfigInvalid("figures", "figure rendering is not available")
    func, _ = SCENARIOS[name]
    out_dir = Path(out_dir) if out_dir is not None else Path(name)
    return func(cfg, out_dir)
