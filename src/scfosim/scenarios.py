"""Named end-to-end experiments wiring the modules into the claimed
demonstrations: clock-interference washout, Zone-1 vs Zone-2 aliasing,
relaxed anti-alias filtering, requantization loss, the all-offsets-zero
control, and offset-plan feasibility.

Scenarios run at desk scale: sample rates of ~1e6 samples/s with the
offset ratios and integration times chosen so the dimensionless washing
products dw*T match the regimes of interest (the physics depends only on
dw*T).

``SCENARIOS`` maps each name to ``(body, description, defaults)``, and
``run_scenario`` is the one runner.  It calls ``body(cfg, summary)`` with the
defaults merged under the caller's overrides and an empty ``Summary``.  The
body raises ``ConfigInvalid`` for a value it cannot run, adds one PASS/FAIL
check per claim, and returns ``(tables, result)``: ``{"file.csv": (header,
rows)}`` and the values callers read besides the summary.  Then
``run_scenario`` writes each table and summary.txt into the output
directory, so a rejected config leaves none.  Identical config and seed give
byte-identical output.

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

from .chain import WELCH_NFFT, ChainSpec, SignalModel, map_forked
from .correlator import correlate, sensitivity_loss, washing_suppression_db, window_length
from .errors import ConfigInvalid, Infeasible, InsufficientSamples, ZeroDenominator
from .frontend import FilterSpec, QuantKind, QuantizerSpec, Zone, antialias, sample
from .mixer import MixerConfig, ssb_shift
from .rational import count_inputs, count_outputs, parse_rational
from .resampler import PASSBAND, cached_bank, resample
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

# Band of each Nyquist zone's sky content, as fractions of the common clock.
ZONE_BANDS = {Zone.ZONE1: (0.05, 0.45), Zone.ZONE2: (0.56, 0.94)}


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
    interference: list[InterferenceSpec] = field(default_factory=list)
    extended_offsets: bool = False

    def __post_init__(self):
        if self.band not in BAND_TABLE:
            raise ConfigInvalid(f"antennas[{self.antenna_id}].band", f"unknown band {self.band!r}")
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
        return self.offset / BAND_TABLE[self.band]

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
    if resolution <= 0:
        raise ConfigInvalid("resolution", f"{resolution} Hz; the offset grid step must be positive")
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


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    """The header line, then one line per row; floats (numpy scalars too) as
    bare numbers."""
    with open(path, "w") as fh:
        for row in [header, *rows]:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n")


class Summary:
    def __init__(self):
        self.lines: list[tuple[bool, str]] = []

    def check(self, ok: bool, text: str) -> None:
        self.lines.append((bool(ok), text))

    def verdicts(self) -> list[str]:
        """One PASS/FAIL line per check."""
        return [("PASS " if ok else "FAIL ") + text for ok, text in self.lines]

    def write(self, path: Path) -> None:
        overall = "PASS" if all(ok for ok, _ in self.lines) else "FAIL"
        with open(path, "w") as fh:
            fh.writelines(line + "\n" for line in self.verdicts() + [overall + " overall"])


def _kind(value) -> type:
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return numbers.Real  # int and float stand in for each other
    return type(value)


def merge_config(defaults: dict, override: dict | None) -> dict:
    """A copy of the defaults with each override laid over them; an override
    must be of its default's kind (a number, a string or a list), and an
    integer default takes only an integral number, stored as an int."""
    out = dict(defaults)
    for key, value in (override or {}).items():
        if key not in defaults:
            raise ConfigInvalid(key, "unknown configuration field")
        if _kind(value) is not _kind(defaults[key]):
            raise ConfigInvalid(key, f"{value!r} is not of the kind of its default {defaults[key]!r}")
        if type(defaults[key]) is int:
            if isinstance(value, float) and not value.is_integer():
                raise ConfigInvalid(key, f"{value!r} is not an integer")
            value = int(value)
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


def _frac(value, key: str) -> Fraction:
    """The exact rational in config field ``key``: an integer, or a
    'num/den' or decimal string."""
    if isinstance(value, (int, str)):
        try:
            return parse_rational(str(value))
        except (ValueError, ZeroDivisionError, ZeroDenominator) as exc:
            raise ConfigInvalid(key, f"{value!r} is not a rational number ({exc})") from exc
    raise ConfigInvalid(key, f"{value!r} must be an integer or 'num/den' string")


def _alias(freq: Fraction, rate: Fraction) -> Fraction:
    """Frequency at which a real tone at ``freq`` appears when sampled at
    ``rate``: folded onto [0, rate/2]."""
    r = freq % rate
    return min(r, rate - r)


def _band(fracs: tuple[float, float], rate) -> tuple[float, float]:
    """The band ``fracs`` (fractions of ``rate``) in Hz."""
    return (fracs[0] * float(rate), fracs[1] * float(rate))


SCENARIOS: dict[str, tuple] = {}


def _scenario(name: str, description: str, defaults: dict):
    """Register the decorated body as scenario ``name`` (contract: module docstring)."""

    def register(body):
        SCENARIOS[name] = (body, description, defaults)
        return body

    return register


def run_scenario(name: str, cfg: dict | None = None, out_dir=None, figures: bool = False) -> dict:
    """Execute a named scenario; writes its CSVs and summary.txt into
    ``out_dir`` (default: a directory named after the scenario) and returns
    the summary and the body's result values.

    No figures are drawn: ``figures`` is accepted only as False.
    """
    if name not in SCENARIOS:
        raise ConfigInvalid("scenario", f"unknown scenario {name!r}; see list-scenarios")
    if figures:
        raise ConfigInvalid("figures", "figure rendering is not available")
    body, _, defaults = SCENARIOS[name]
    summary = Summary()
    tables, result = body(merge_config(defaults, cfg), summary)
    out_dir = Path(out_dir) if out_dir is not None else Path(name)
    out_dir.mkdir(parents=True, exist_ok=True)
    for file_name, (header, rows) in tables.items():
        write_csv(out_dir / file_name, header, rows)
    summary.write(out_dir / "summary.txt")
    return {"summary": summary, **result}


# ---------------------------------------------------------------------------
# antenna streams


# Config of every scenario that resamples antenna streams onto the common clock.
_RESAMPLING = {"f_c": "1000000/1", "band": "B1", "taps": 56, "phases": 1024, "coeff_bits": 19}


def _clock_and_bank(cfg) -> tuple[Fraction, object]:
    """The common clock f_c and the cached coefficient bank of ``cfg``."""
    return _frac(cfg["f_c"], "f_c"), cached_bank(cfg["taps"], cfg["phases"], cfg["coeff_bits"])


def _antennas(cfg, zone=Zone.ZONE1, interference=(), offsets=None):
    """One antenna per offset (``cfg["offsets_hz"]`` by default), named
    m001, m002, ... on ``cfg["band"]`` with extended offsets allowed."""
    return [
        AntennaChainSpec(
            antenna_id=f"m{i + 1:03d}", band=cfg["band"], offset=_frac(off, f"offsets_hz[{i}]"),
            zone=zone, interference=list(interference), extended_offsets=True,
        )
        for i, off in enumerate(cfg["offsets_hz"] if offsets is None else offsets)
    ]


def _clock_tone(cfg, amplitude: float) -> InterferenceSpec:
    """Each antenna's own clock tone at ``cfg["clock_tone_scale"]`` * f_a."""
    return InterferenceSpec(
        kind=InterferenceKind.SELF_CLOCK_DERIVED,
        amplitude=amplitude,
        clock_scale=_frac(cfg["clock_tone_scale"], "clock_tone_scale"),
    )


def _valid_run(stream, start: int, n: int) -> np.ndarray:
    """Samples ``start .. start+n-1`` of ``stream``, which must end inside its
    valid region."""
    if start + n > stream.valid_end:
        raise InsufficientSamples(f"{n} samples from {start} pass the valid end {stream.valid_end}")
    return stream.data[start : start + n]


def _peak_hz(stream, n_fft: int, f_c: Fraction) -> float:
    """Frequency of the strongest bin of the Hann-windowed FFT of the first
    ``n_fft`` valid samples."""
    seg = _valid_run(stream, stream.valid_start, n_fft)
    spec = np.abs(np.fft.fft(seg * np.hanning(n_fft)))
    return np.fft.fftfreq(n_fft, d=1.0 / float(f_c))[int(np.argmax(spec))]


def _start_position(bank, ratio: Fraction) -> Fraction:
    """Where output 0 sits on an antenna's input grid: c*(ratio - 1), with c
    the prototype center, so every antenna's outputs share one epoch, c/f_c."""
    return Fraction(bank.taps_per_phase - 1, 2) * (ratio - 1)


def _outputs_holding(antennas, f_c, bank, n: int) -> int:
    """Common-clock outputs per antenna whose joint valid region holds ``n``
    samples: ``n`` plus each stage's edge losses.  The resampler's outputs
    before its first valid one read before sample 0 (they number the
    positions on samples below 0), and a Zone-2 shift loses its Hilbert
    half-length at each end."""
    lead = trail = 0
    for spec in antennas:
        ratio = spec.desk_rate(f_c) / f_c
        lead = max(lead, count_outputs(_start_position(bank, ratio) - ratio, ratio, bank.phases, -1))
        if spec.zone is Zone.ZONE2:
            trail = MixerConfig.hilbert_taps // 2
            lead = max(lead, trail)
    return lead + n + trail


def _resampled_tone_streams(antennas, f_c, bank, n_out, sky=None, band=None):
    """Per antenna: inject interference into its sky (one signal for all, a
    list with one per antenna, or None for an empty bank in ``band``), sample
    in the antenna's zone at its desk rate, resample back to the common clock,
    and shift a Zone-2 antenna by f_c - f_a.  Each antenna samples exactly the
    inputs (``rational.count_inputs``) from which the resampler computes
    ``n_out`` outputs; one more output can come along when it shares the last
    one's window.  Antennas are independent, so they run in parallel
    processes (``chain.map_forked``) with the same output bytes."""
    clocks = {spec.antenna_id: spec.desk_rate(f_c) for spec in antennas}
    if band is None:
        band = _band(PASSBAND, f_c / 2)
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
        start = _start_position(bank, ratio)
        n_in = count_inputs(start, ratio, bank.phases, bank.taps_per_phase, n_out)
        stream = sample(bank_sig, f_a, n_in, zone=spec.zone, band_slack=0.02)
        out = resample(stream, f_c, bank, start_position=start)
        if spec.zone is Zone.ZONE2:
            out = ssb_shift(out, MixerConfig(shift_hz=f_c - f_a))
        return out

    return map_forked(one, list(zip(antennas, sky)))


def _correlated_pair(antennas, f_c, bank, T, **streams):
    """Build an antenna pair whose joint valid region holds correlate's
    window of ``T`` seconds, ``window_length(T, f_c)`` samples, and at most
    one more (``_resampled_tone_streams`` options in ``streams``); returns
    the correlation report over that window and the two streams."""
    n_out = _outputs_holding(antennas, f_c, bank, window_length(T, f_c))
    pair = _resampled_tone_streams(antennas, f_c, bank, n_out, **streams)
    return correlate(pair[0], pair[1], T=T), pair


# ---------------------------------------------------------------------------
# the experiments


@_scenario(
    "selfclock-washout",
    "clock-derived interference washes out as 1/(dwT); sky correlates",
    {
        "seed": 1,
        **_RESAMPLING,
        "offsets_hz": ["4240000/1", "-4240000/1"],
        "clock_tone_scale": "3/4",
        "clock_tone_amplitude": 1.0,
        "sky_tones": 16,
        "targets_dwt": [100.0, 1000.0, 10000.0],
        "windows": 16,
        "window_jitter": 0.25,
        "sky_T": 0.5,
        "tolerance_db": 3.0,
        "sky_rho_min": 0.99,
    },
)
def _selfclock_washout(cfg, summary):
    if not cfg["targets_dwt"]:
        raise ConfigInvalid("targets_dwt", "at least one dw*T target is needed")
    for target in cfg["targets_dwt"]:
        if isinstance(target, bool) or not isinstance(target, numbers.Real) or not 0 < target < math.inf:
            raise ConfigInvalid("targets_dwt", f"{target!r} is not a positive finite dw*T")
    if cfg["windows"] < 1:
        raise ConfigInvalid("windows", f"{cfg['windows']} windows; at least 1 is needed")
    if not 0 <= cfg["window_jitter"] < 1:
        raise ConfigInvalid("window_jitter", f"{cfg['window_jitter']} is not a fraction in [0, 1)")
    rng = np.random.default_rng(cfg["seed"])
    f_c, bank = _clock_and_bank(cfg)
    tone = _clock_tone(cfg, float(cfg["clock_tone_amplitude"]))
    antennas = _antennas(cfg, interference=[tone])

    # interference-only streams: each antenna samples its own clock tone
    # scale * f_a, which lands at its alias on [0, f_a/2] (1/4 f_a for the
    # default 3/4), so the tones differ by the difference of the aliases;
    # windows of varying start and length sample the washing statistics
    landed = [_alias(tone.clock_scale * f_a, f_a) for f_a in (a.desk_rate(f_c) for a in antennas)]
    delta_f = abs(float(landed[0] - landed[1]))
    longest = max(cfg["targets_dwt"]) / (2 * math.pi * delta_f)
    # a float-derived input count on purpose: it sets the range the window
    # starts are drawn from, and each antenna yields its own output count from
    # it; the pair needs only the shorter, the joint valid end
    n_in = int(1.45 * longest * float(f_c)) + 4096
    n_out = min(
        count_outputs(_start_position(bank, r) - r, r, bank.phases, n_in - bank.taps_per_phase)
        for r in (a.desk_rate(f_c) / f_c for a in antennas)
    )
    streams = _resampled_tone_streams(antennas, f_c, bank, n_out)
    lo = max(s.valid_start for s in streams)
    hi = min(s.valid_end for s in streams)

    rows = []
    results = {}
    for target in cfg["targets_dwt"]:
        T0 = target / (2 * math.pi * delta_f)
        products = []
        for w in range(cfg["windows"]):
            T_w = T0 * (1 + cfg["window_jitter"] * (2 * rng.uniform() - 1))
            n_w = window_length(T_w, f_c)
            if hi - n_w <= lo:
                raise ConfigInvalid(
                    "window_jitter", f"a {n_w}-sample window does not fit the {hi - lo} valid samples"
                )
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
    sky = synth_signal(cfg["seed"], cfg["sky_tones"], _band(PASSBAND, f_c / 2))
    sky_rep, _ = _correlated_pair(_antennas(cfg), f_c, bank, cfg["sky_T"], sky=sky)
    sky_rho = abs(sky_rep.rho)
    summary.check(
        sky_rho > cfg["sky_rho_min"],
        f"sky tone |rho| = {sky_rho:.5f} > {cfg['sky_rho_min']}",
    )
    header = ["target_dwt", "window", "start", "n_samples", "rho_mag", "dwt", "product"]
    tables = {"washout_windows.csv": (header, rows)}
    return tables, {"results": results, "sky_rho": sky_rho, "delta_f": delta_f}


@_scenario(
    "scfo-off-control",
    "all offsets zero: the common clock tone correlates at the SNR prediction",
    {
        "seed": 2,
        **_RESAMPLING,
        "clock_tone_scale": "3/4",
        "clock_tone_amplitude": 1.0,
        "noise_tones": 64,
        "noise_rms": 0.5,
        "T": 0.5,
        "tolerance": 0.01,
    },
)
def _scfo_off_control(cfg, summary):
    f_c, bank = _clock_and_bank(cfg)
    # all offsets zero: the clock tones land at identical frequencies
    antennas = _antennas(
        cfg, interference=[_clock_tone(cfg, float(cfg["clock_tone_amplitude"]))], offsets=[0, 0]
    )
    noise = [
        synth_signal(cfg["seed"] * 977 + i, cfg["noise_tones"], _band(PASSBAND, f_c / 2),
                     rms=float(cfg["noise_rms"]))
        for i in range(len(antennas))
    ]
    rep, _ = _correlated_pair(antennas, f_c, bank, cfg["T"], sky=noise)
    p_tone = float(cfg["clock_tone_amplitude"]) ** 2 / 2.0
    p_noise = float(cfg["noise_rms"]) ** 2
    predicted = p_tone / (p_tone + p_noise)
    measured = abs(rep.rho)
    ok = abs(measured - predicted) <= cfg["tolerance"] * predicted
    summary.check(
        ok,
        f"SCFO off: common clock tone |rho| = {measured:.5f} within "
        f"{100 * cfg['tolerance']:.0f}% of SNR prediction {predicted:.5f}",
    )
    rows = [(measured, predicted, rep.T, rep.n_samples)]
    return {"control.csv": (["rho_mag", "predicted", "T", "n_samples"], rows)}, {
        "rho": measured, "predicted": predicted,
    }


# (case, zone, source, frequency / f_c, whether it correlates, check text): a
# probe is an RF tone injected into an empty sky, a sky one common tone.
_ZONE_CASES = (
    # Zone 1, between passband edge and Nyquist: sampled untranslated at the
    # same absolute frequency in both antennas
    ("zone1_below_nyquist", Zone.ZONE1, "probe", 0.47, True,
     "Zone 1 out-of-band probe below Nyquist correlates"),
    # Zone 1, above the sample rate: the alias frequency depends on f_a
    ("zone1_aliased", Zone.ZONE1, "probe", 1.3, False, "Zone 1 aliased probe decorrelates"),
    # Zone 2, below the zone: untranslated by sampling but shifted by the
    # antenna-dependent f_c - f_a
    ("zone2_below_zone", Zone.ZONE2, "probe", 0.3, False, "Zone 2 out-of-band probe decorrelates"),
    # Zone 2 in-band: the per-antenna shifts bring both copies to one frequency
    ("zone2_sky", Zone.ZONE2, "sky", 0.7, True, "Zone 2 in-band sky correlates after shift removal"),
)


@_scenario(
    "zone1-vs-zone2-alias",
    "out-of-band probes: Zone 2 decorrelates all, Zone 1 keeps a correlating region",
    {
        "seed": 3,
        **_RESAMPLING,
        "offsets_hz": ["4240000/1", "-4240000/1"],
        "probe_amplitude": 1.0,
        "T": 0.4,
        "decorrelated_max": 0.05,
        "correlated_min": 0.99,
    },
)
def _zone1_vs_zone2(cfg, summary):
    """Out-of-band contamination: Zone 2 decorrelates all of it; Zone 1 keeps
    a correlating region between the passband edge and Nyquist."""
    f_c, bank = _clock_and_bank(cfg)
    rows = []
    for case, zone, source, frac, correlates, text in _ZONE_CASES:
        hz = frac * float(f_c)
        band = _band(ZONE_BANDS[zone], f_c)
        if source == "sky":
            antennas = _antennas(cfg, zone)
            sky = ToneBankSignal(tones=(Tone(1.0, hz, 0.7),), seed=cfg["seed"], band=band)
        else:
            probe = InterferenceSpec(
                kind=InterferenceKind.FIXED_RF, amplitude=float(cfg["probe_amplitude"]), freq_hz=hz
            )
            antennas, sky = _antennas(cfg, zone, [probe]), None
        rep, _ = _correlated_pair(antennas, f_c, bank, cfg["T"], sky=sky, band=band)
        rho = abs(rep.rho)
        rows.append((case, hz, rho))
        ok = rho > cfg["correlated_min"] if correlates else rho < cfg["decorrelated_max"]
        summary.check(ok, f"{text}: |rho| = {rho:.5f}")
    return {"zone_probes.csv": (["case", "probe_hz", "rho_mag"], rows)}, {"rows": rows}


@_scenario(
    "relaxed-antialias",
    "aliasing through a relaxed anti-alias filter decorrelates with SCFO on",
    {
        "seed": 4,
        **_RESAMPLING,
        "offsets_hz": ["4240000/1", "-4240000/1"],
        "filter_points": [[0.0, 0.0], [500000.0, 0.0], [750000.0, -20.0]],
        "probe_hz": 1300000.0,
        "probe_amplitude": 1.0,
        "T": 0.4,
        "decorrelated_max": 0.05,
    },
)
def _relaxed_antialias(cfg, summary):
    """A relaxed analog anti-alias filter lets an out-of-band tone alias into
    the band at reduced amplitude; with SCFO on the alias decorrelates, with
    SCFO off it correlates fully (the filter is then load-bearing)."""
    f_c, bank = _clock_and_bank(cfg)
    try:
        filt = FilterSpec(points=tuple((float(a), float(b)) for a, b in cfg["filter_points"]))
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid("filter_points", f"not [Hz, dB] pairs sorted by Hz ({exc})") from exc
    expected_gain = filt.gain(float(cfg["probe_hz"]))
    probe = ToneBankSignal(
        tones=(Tone(float(cfg["probe_amplitude"]), float(cfg["probe_hz"]), 0.1),),
        seed=cfg["seed"], band=_band(ZONE_BANDS[Zone.ZONE1], f_c),
    )
    filtered = antialias(probe, filt)
    rows = []

    def run(offsets):
        return _correlated_pair(_antennas(cfg, offsets=offsets), f_c, bank, cfg["T"], sky=filtered)

    rep_on, on = run(cfg["offsets_hz"])
    rows.append(("scfo_on", abs(rep_on.rho), rep_on.suppression_db))
    summary.check(
        abs(rep_on.rho) < cfg["decorrelated_max"],
        f"SCFO on: aliased probe decorrelates, |rho| = {abs(rep_on.rho):.5f} "
        f"(suppression {rep_on.suppression_db:.1f} dB)",
    )

    rep_off, _ = run(["0/1", "0/1"])
    rows.append(("scfo_off", abs(rep_off.rho), rep_off.suppression_db))
    summary.check(
        abs(rep_off.rho) > 0.99,
        f"SCFO off: aliased probe correlates fully, |rho| = {abs(rep_off.rho):.5f}",
    )
    window = on[0].data[rep_on.start : rep_on.start + rep_on.n_samples]
    amp = float(np.sqrt(np.mean(window**2))) * np.sqrt(2)
    gain = amp / float(cfg["probe_amplitude"])
    rows.append(("filter_gain", expected_gain, gain))
    summary.check(
        abs(gain - expected_gain) < 0.1 * expected_gain + 1e-6,
        f"relaxed filter scales the probe by {expected_gain:.3f} (measured {gain:.3f})",
    )
    return {"relaxed_antialias.csv": (["case", "value_a", "value_b"], rows)}, {"rows": rows}


@_scenario(
    "zone2-shift",
    "per-antenna frequency shifts align the sky tone and split the clock tones",
    {
        "seed": 5,
        **_RESAMPLING,
        "offsets_hz": ["4240000/1", "-4240000/1"],
        "sky_hz_frac": 0.7,
        "clock_tone_scale": "3/4",
        "n_fft": 1 << 18,
        "segments": 16,
        "residual_tol_hz": 0.05,
    },
)
def _zone2_shift(cfg, summary):
    """Numerical version of the final-shift diagram: after per-antenna
    f_c - f_a shifts, the common sky tone lands at one frequency with a flat
    cross-spectrum phase slope, while the per-antenna clock tones stay split
    by the offset difference."""
    segments, n_fft = cfg["segments"], cfg["n_fft"]
    if segments < 3:
        raise ConfigInvalid("segments", f"{segments}; the phase-slope fit needs at least 3")
    if n_fft < segments:
        raise ConfigInvalid("n_fft", f"{n_fft}; needs one sample per segment")
    f_c, bank = _clock_and_bank(cfg)
    tone = _clock_tone(cfg, 1.0)
    clock_antennas = _antennas(cfg, Zone.ZONE2, [tone])
    band2 = _band(ZONE_BANDS[Zone.ZONE2], f_c)
    n_out = _outputs_holding(clock_antennas, f_c, bank, n_fft)

    sky = ToneBankSignal(
        tones=(Tone(1.0, cfg["sky_hz_frac"] * float(f_c), 0.5),),
        seed=cfg["seed"], band=band2,
    )
    sky_streams = _resampled_tone_streams(_antennas(cfg, Zone.ZONE2), f_c, bank, n_out, sky=sky)
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
    seg_len = n_fft // segments
    lo = max(s.valid_start for s in sky_streams)
    a, b = (_valid_run(s, lo, segments * seg_len).reshape(segments, seg_len) for s in sky_streams)
    phases = np.unwrap([np.angle(np.vdot(y, x)) for x, y in zip(a, b)])
    times = (np.arange(segments) + 0.5) * seg_len / float(f_c)
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
    clock_streams = _resampled_tone_streams(clock_antennas, f_c, bank, n_out, band=band2)
    cpeaks = [_peak_hz(s, n_fft, f_c) for s in clock_streams]
    # tone at scale*f_a samples to (1-scale)*f_a, then shifts by f_c - f_a
    landing = [float(f_c - tone.clock_scale * a.desk_rate(f_c)) for a in clock_antennas]
    expected_sep = abs(landing[0] - landing[1])
    measured_sep = abs(cpeaks[0] - cpeaks[1])
    summary.check(
        abs(measured_sep - expected_sep) <= 2 * bin_hz,
        f"clock tones split by {measured_sep:.1f} Hz (expected {expected_sep:.1f} Hz)",
    )

    rows = [
        ("sky_peak_hz", peaks[0], peaks[1]),
        ("clock_peak_hz", cpeaks[0], cpeaks[1]),
        ("phase_slope_hz", residual_hz, se / (2 * np.pi)),
    ]
    return {"zone2_shift.csv": (["quantity", "antenna1", "antenna2"], rows)}, {
        "sky_peaks": peaks, "clock_peaks": cpeaks, "residual_hz": residual_hz,
    }


@_scenario(
    "requant-loss",
    "4-bit vs 4-bit+resample+8-bit sensitivity loss difference",
    {
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
    },
)
def _requant_loss(cfg, summary):
    """Desk-scale reproduction of the 4-bit vs 4-bit+resample+8-bit
    sensitivity-loss comparison; the acceptance target is the difference."""
    if cfg["segments"] < 2:
        raise ConfigInvalid("segments", f"{cfg['segments']}; a standard error needs at least 2")
    if cfg["samples"] < max(cfg["segments"], WELCH_NFFT):
        raise ConfigInvalid("samples", f"{cfg['samples']}; needs one per segment and at least {WELCH_NFFT}")
    q4 = QuantizerSpec(QuantKind.Q4_OPTIMAL, float(cfg["q4_loading"]))
    blue = ChainSpec("q4-direct", input_quant=q4)
    red = ChainSpec(
        "q4-resample-q8",
        input_quant=q4,
        resample=True,
        offset=_frac(cfg["offset_ratio"], "offset_ratio"),
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
        cfg["seed"], blue, red, n=cfg["samples"], model=model, segments=cfg["segments"]
    )
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
    tables = {
        "requant_loss.csv": (
            ["loss_blue", "loss_red", "difference", "stderr", "n_samples"],
            [(rep.loss_a, rep.loss_b, rep.difference, rep.stderr, rep.n_samples)],
        ),
        "loss_vs_freq.csv": (["freq_hz", "loss_blue", "loss_red"], rep.per_freq),
    }
    return tables, {"report": rep}


@_scenario(
    "offset-plan",
    "pairwise-separated offset ladder feasibility",
    {
        "n": 2000,
        "min_pairwise": 10_000.0,
        "max_abs": 10_000_000.0,
        "resolution": 1000.0,
    },
)
def _offset_plan(cfg, summary):
    """Feasibility of pairwise-separated offset ladders, including the
    2000-antenna, 10 kHz minimum, +/-10 MHz case."""
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
    rows = [(i, float(a)) for i, a in enumerate(plan.assignments)]
    return {"offset_plan.csv": (["index", "offset_hz"], rows)}, {"plan": plan}
