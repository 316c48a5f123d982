"""Named end-to-end experiments wiring the modules into the claimed
demonstrations: clock-interference washout, Zone-1 vs Zone-2 aliasing,
relaxed anti-alias filtering, requantization loss, the all-offsets-zero
control, and offset-plan feasibility.

Scenarios run at desk scale: sample rates of ~1e6 samples/s with the
offset ratios and integration times chosen so the dimensionless washing
products dw*T match the regimes of interest (the physics depends only on
dw*T).

``SCENARIOS`` maps each name to ``(body, description, defaults)``, and
``run_scenario`` is the one runner.  Each default is ``(value, rule)``:
``merge_config`` lays the caller's overrides over the values and checks
every field against its rule, so a value outside it raises ``ConfigInvalid``
naming the field before the body runs.  ``run_scenario`` then calls
``body(cfg, summary)`` with the merged config and an empty ``Summary``.  The
body raises ``ConfigInvalid`` only for a check between fields, adds one
PASS/FAIL check per claim, and returns ``(tables, result)``: ``{"file.csv":
(header, rows)}`` and the values a caller reads besides the summary, which
only requant-loss has (its ``report``); every other body returns ``{}``.
Then ``run_scenario`` writes each table and summary.txt into the output
directory, so a rejected config leaves none.  Identical config and seed give
byte-identical output under one BLAS thread count; BLAS splits a dot
product's sum across its threads, so 1 and 2 threads can differ in a CSV's
last digits.

A scenario's cases are independent, so each whole-stream body with more
than one case forks over its cases (``chain.map_forked``): each process
builds and correlates its own antenna pairs and sends back only the numbers
the body reads, never a stream, whose pickling through the pipe would cost
more than the fork saves.  scfo-off-control has one pair, so it forks over
its two antennas instead (``_resampled_tone_streams``), and requant-loss
forks over blocks of its correlated outputs (``chain.sensitivity_loss``):
each block is a pure function of its output range and sends back only its
correlation and Welch sums.  A map_forked call reached inside another runs
in place, so at most two processes run, and every output byte is that of a
run in one process.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from fractions import Fraction
from pathlib import Path

import numpy as np

from .chain import F_C, WELCH_NFFT, ChainSpec, map_forked, sensitivity_loss
from .correlator import correlate, washing_suppression_db, window_length
from .errors import ConfigInvalid, Infeasible
from .frontend import FilterSpec, QuantKind, QuantizerSpec, SampleStream, antialias, sample
from .mixer import HILBERT_TAPS, ssb_shift
from .rational import count_outputs
from .resampler import PASSBAND, aligned_start, design_bank, resample_range
from .signal import Tone, ToneBankSignal, synth_signal

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

OFFSET_LIMIT_HZ = Fraction(10_000_000)

# Band of Zone-2 sky content, as fractions of the common clock.
ZONE2_BAND = (0.56, 0.94)


class Zone(enum.Enum):
    """An antenna's Nyquist zone: a Zone-2 antenna is shifted by f_c - f_a."""

    ZONE1 = 1
    ZONE2 = 2


def plan_offsets(n: int, min_pairwise: float, max_abs: float, resolution: float) -> list[Fraction]:
    """Deterministic uniform ladder of n >= 1 offsets on the resolution grid
    (> 0), in ascending order.

    Pairwise separations stay at or above ``min_pairwise``; all offsets fit
    in [-max_abs, +max_abs].  The plan is exact: every bound is compared as a
    Fraction, so no float overflows or rounds.
    """
    res = Fraction(resolution).limit_denominator(10**9) if not isinstance(resolution, Fraction) else resolution
    if n * Fraction(min_pairwise) > 2 * Fraction(max_abs) + res:
        raise Infeasible(
            f"n*min_pairwise = {n * min_pairwise:.6g} Hz exceeds the available span "
            f"2*max_abs = {2 * max_abs:.6g} Hz (binding constraint: max_abs)"
        )
    step = max(math.ceil(Fraction(min_pairwise) / res), 1) * res
    offsets = [(i - n // 2) * step for i in range(n)]
    worst = max(abs(a) for a in offsets)
    if worst > max_abs:
        raise Infeasible(
            f"ladder spans +/-{float(worst):.6g} Hz > max_abs {max_abs:.6g} Hz "
            "(binding constraint: max_abs)"
        )
    return offsets


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


# A field's rule is (kind, test, words).  The kind fixes which JSON value the
# field takes: "real" a number, "int" an integral one (held as an int),
# "rational" an integer or a 'num/den' or decimal string (tested as a
# Fraction), "text" a string, and [kind] a list of such; every number must be
# finite as a float.  ``test`` must hold of the value read as its kind;
# ``words`` say what the value must be.

POSITIVE = ("real", lambda x: x > 0, "a positive number")
NON_NEGATIVE = ("real", lambda x: x >= 0, "a non-negative number")
FRACTION = ("real", lambda x: 0 <= x < 1, "a fraction in [0, 1)")
POWER_OF_TWO = ("int", lambda n: n >= 2 and not n & (n - 1), "a power of two >= 2")
RATIONAL = ("rational", lambda q: True, "a rational number")
OFFSET_PAIR = (["rational"], lambda qs: len(qs) == 2, "a list of 2 rational offsets in Hz")
HZ_DB_PAIRS = ([["real"]], lambda ps: ps and all(len(p) == 2 for p in ps) and ps == sorted(ps, key=lambda p: p[0]),
               "a non-empty list of [Hz, dB] pairs sorted by Hz")


def _integer(least: int, most: int | None = None) -> tuple:
    """The rule of an integer in [least, most], or >= least with no most."""
    words = f"an integer >= {least}" if most is None else f"an integer in [{least}, {most}]"
    return ("int", lambda n: least <= n and (most is None or n <= most), words)


def _within(lo: float, hi: float, kind: str = "real") -> tuple:
    """The rule of a ``kind`` value in the closed interval [lo, hi]."""
    return (kind, lambda x: lo <= x <= hi, f"a {'number' if kind == 'real' else kind} in [{lo}, {hi}]")


def _frac(value) -> Fraction:
    """The exact rational of a rational field's value: "num/den" or a decimal
    string, read exactly ("0.1" is 1/10)."""
    return Fraction(str(value))


def _read(kind, value):
    """``value`` read as ``kind`` (see the rules above), or None where it is
    not one."""
    if isinstance(kind, list):
        items = [_read(kind[0], item) for item in value] if isinstance(value, list) else [None]
        return None if None in items else items
    if kind == "text":
        return value if isinstance(value, str) else None
    takes = (numbers.Integral, str) if kind == "rational" else numbers.Real
    if isinstance(value, bool) or not isinstance(value, takes):  # a bool is no number
        return None
    try:
        read = _frac(value) if kind == "rational" else value
        if not math.isfinite(read):
            return None
    except (ValueError, ZeroDivisionError, OverflowError):  # OverflowError: beyond any float
        return None
    if kind == "int":
        return int(read) if read == int(read) else None
    return read


def merge_config(defaults: dict, override: dict | None) -> dict:
    """The default values with each override laid over them, every field
    checked against its rule; an "int" field holds an int, any other field
    its JSON value as given."""
    override = override or {}
    for key in override:
        if key not in defaults:
            raise ConfigInvalid(key, "unknown configuration field")
    out = {}
    for key, (default, (kind, test, words)) in defaults.items():
        value = override.get(key, default)
        read = _read(kind, value)
        if read is None or not test(read):
            raise ConfigInvalid(key, f"{value!r} is not {words}")
        out[key] = read if kind == "int" else value
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


# The coefficient bank's fields (a signed tap has 1 to 63 bits of an int64),
# and the config of every scenario that resamples onto the common clock.
_BANK = {"taps": (56, _integer(2)), "phases": (1024, POWER_OF_TWO), "coeff_bits": (19, _integer(1, 63))}
_RESAMPLING = {
    "f_c": ("1000000/1", ("rational", lambda q: q > 0, "a positive rational")),
    "band": ("B1", ("text", lambda band: band in BAND_TABLE, f"one of {', '.join(BAND_TABLE)}")),
    **_BANK,
}


def _clock_and_bank(cfg) -> tuple[Fraction, object]:
    """The common clock f_c and the cached coefficient bank of ``cfg``."""
    return _frac(cfg["f_c"]), design_bank(cfg["taps"], cfg["phases"], cfg["coeff_bits"])


def _desk_rates(cfg, offsets=None) -> list[Fraction]:
    """Each antenna's exact desk rate f_c * (1 + offset / f_band), where
    f_band is the nominal rate of ``cfg["band"]`` and the offsets in Hz are
    ``cfg["offsets_hz"]`` by default.  An offset past OFFSET_LIMIT_HZ or off
    the band's tuning grid is invalid."""
    band, f_c = cfg["band"], _frac(cfg["f_c"])
    grid = OFFSET_GRID_HZ[band]
    rates = []
    for offset in map(_frac, cfg["offsets_hz"] if offsets is None else offsets):
        if abs(offset) > OFFSET_LIMIT_HZ:
            raise ConfigInvalid("offsets_hz", f"|{offset}| Hz exceeds {OFFSET_LIMIT_HZ} Hz")
        if offset % grid != 0:
            raise ConfigInvalid("offsets_hz", f"{offset} Hz not a multiple of the {grid} Hz tuning grid for {band}")
        rates.append(f_c * (1 + offset / BAND_TABLE[band]))
    return rates


def _peak_hz(stream, n_fft: int, f_c: Fraction) -> float:
    """Frequency of the strongest bin of the Hann-windowed FFT of the first
    ``n_fft`` samples."""
    seg = stream.data[:n_fft]
    spec = np.abs(np.fft.fft(seg * np.hanning(n_fft)))
    return np.fft.fftfreq(n_fft, d=1.0 / float(f_c))[int(np.argmax(spec))]


def _resampled_tone_streams(rates, zone, f_c, bank, n, sky, clock_tone=None):
    """Per antenna at desk rate f_a in ``rates``: take its sky (one signal for
    all, or a list with one per antenna) plus, given ``clock_tone`` =
    (amplitude, scale), its own clock tone at scale * f_a, sample it at f_a,
    resample back to the common clock, and shift a ``zone`` 2 antenna by
    f_c - f_a.  Each antenna holds exactly ``n`` samples: its outputs are one
    resampler.resample_range, which samples exactly the inputs they read, and
    a Zone-2 antenna resamples the Hilbert half-length more at each end,
    which its shift drops.

    Antennas are independent, so reached outside a fork they run in two
    processes (``chain.map_forked``) with the same output bytes; inside a
    body's case-level fork they run in place, by map_forked's nesting rule.
    The forked antenna sends its whole stream back, so a body with more than
    one pair forks over its cases, not here."""
    if not isinstance(sky, list):
        sky = [sky] * len(rates)

    def one(item):
        f_a, bank_sig = item
        if clock_tone is not None:
            amplitude, scale = clock_tone
            # exact until the one float(): the tone sits at the rational scale * f_a
            bank_sig = ToneBankSignal(bank_sig.tones + (Tone(amplitude, float(scale * f_a), 0.0),))

        def source(lo, count):
            return [sample(bank_sig, f_a, count, first=lo).data]

        edge = HILBERT_TAPS // 2 if zone is Zone.ZONE2 else 0
        (data,) = resample_range(source, f_a / f_c, bank, 0, n + 2 * edge)
        out = SampleStream(rate=f_c, epoch=Fraction(bank.taps_per_phase - 1, 2) / f_c, data=data)
        return ssb_shift(out, f_c - f_a) if zone is Zone.ZONE2 else out

    return map_forked(one, list(zip(rates, sky)))


def _correlated_pair(rates, zone, f_c, bank, T, **streams):
    """Build an antenna pair that holds exactly correlate's window of ``T``
    seconds, ``window_length(T, f_c)`` samples (``_resampled_tone_streams``
    options in ``streams``); returns the correlation report over that window
    and the two streams."""
    pair = _resampled_tone_streams(rates, zone, f_c, bank, window_length(T, f_c), **streams)
    return correlate(pair[0], pair[1], T=T), pair


# ---------------------------------------------------------------------------
# the experiments


@_scenario(
    "selfclock-washout",
    "clock-derived interference washes out as 1/(dwT); sky correlates",
    {
        "seed": (1, _integer(0)),
        **_RESAMPLING,
        "offsets_hz": (["4240000/1", "-4240000/1"], OFFSET_PAIR),
        "clock_tone_scale": ("3/4", RATIONAL),
        "clock_tone_amplitude": (1.0, POSITIVE),
        "sky_tones": (16, _integer(1)),
        "targets_dwt": ([100.0, 1000.0, 10000.0], (  # washing_suppression_db's regime: dwT > 2 is delta_f*T > 1/pi
            ["real"], lambda xs: xs and min(xs) > 2, "a non-empty list of numbers > 2")),
        "windows": (16, _integer(1)),
        "window_jitter": (0.25, FRACTION),
        "sky_T": (0.5, POSITIVE),
        "tolerance_db": (3.0, POSITIVE),
        "sky_rho_min": (0.99, FRACTION),
    },
)
def _selfclock_washout(cfg, summary):
    rng = np.random.default_rng(cfg["seed"])
    f_c, bank = _clock_and_bank(cfg)
    scale = _frac(cfg["clock_tone_scale"])
    rates = _desk_rates(cfg)

    # interference-only streams: each antenna samples its own clock tone
    # scale * f_a, which lands at its alias on [0, f_a/2] (1/4 f_a for the
    # default 3/4), so the tones differ by the difference of the aliases;
    # windows of varying start and length sample the washing statistics
    landed = [_alias(scale * f_a, f_a) for f_a in rates]
    if landed[0] == landed[1]:
        raise ConfigInvalid(
            "clock_tone_scale",
            f"{cfg['clock_tone_scale']!r} lands both clock tones at {float(landed[0])} Hz, so dw = 0",
        )
    delta_f = abs(float(landed[0] - landed[1]))
    longest = max(cfg["targets_dwt"]) / (2 * math.pi * delta_f)
    # a float-derived input count on purpose: it sets the range the window
    # starts are drawn from, as the fewer outputs of the two antennas that n_in
    # inputs hold
    n_in = int(1.45 * longest * float(f_c)) + 4096
    n_out = min(
        count_outputs(aligned_start(bank, r) - r, r, bank.phases, n_in - bank.taps_per_phase)
        for r in (f_a / f_c for f_a in rates)
    )
    tone = (float(cfg["clock_tone_amplitude"]), scale)
    streams = _resampled_tone_streams(rates, Zone.ZONE1, f_c, bank, n_out, ToneBankSignal(()), clock_tone=tone)

    # every window's (T_w, start) first, in the order the windows are drawn,
    # then the windows correlated in two processes
    windows = []
    for target in cfg["targets_dwt"]:
        T0 = target / (2 * math.pi * delta_f)
        for w in range(cfg["windows"]):
            T_w = T0 * (1 + cfg["window_jitter"] * (2 * rng.uniform() - 1))
            n_w = window_length(T_w, f_c)
            if n_w >= n_out:
                raise ConfigInvalid("window_jitter", f"a {n_w}-sample window does not fit the {n_out} samples")
            windows.append((target, w, T_w, int(rng.integers(0, n_out - n_w))))

    def measure(window):
        _, _, T_w, start = window
        rep = correlate(streams[0], streams[1], T=T_w, start=start)
        return rep.n_samples, abs(rep.rho)

    rows = []
    for (target, w, _, start), (n_samples, rho_mag) in zip(windows, map_forked(measure, windows)):
        dwt = 2 * math.pi * delta_f * n_samples / float(f_c)
        rows.append((target, w, start, n_samples, rho_mag, dwt, rho_mag * dwt))
    per_target = cfg["windows"]
    for i, target in enumerate(cfg["targets_dwt"]):
        T0 = target / (2 * math.pi * delta_f)
        measured = float(np.mean([row[-1] for row in rows[i * per_target : (i + 1) * per_target]]))
        err_db = 10 * math.log10(max(measured, 1e-300))
        ok = abs(err_db) <= cfg["tolerance_db"]
        prediction = washing_suppression_db(delta_f, T0)
        summary.check(
            ok,
            f"dwT={target:g}: mean |rho|*dwT = {measured:.3f} within "
            f"{cfg['tolerance_db']} dB of the 1/(dwT) envelope "
            f"(predicted suppression {prediction:.2f} dB)",
        )

    # sky correlation rides the same chains
    sky = synth_signal(cfg["seed"], cfg["sky_tones"], _band(PASSBAND, f_c / 2))
    sky_rep, _ = _correlated_pair(rates, Zone.ZONE1, f_c, bank, cfg["sky_T"], sky=sky)
    sky_rho = abs(sky_rep.rho)
    summary.check(
        sky_rho > cfg["sky_rho_min"],
        f"sky tone |rho| = {sky_rho:.5f} > {cfg['sky_rho_min']}",
    )
    header = ["target_dwt", "window", "start", "n_samples", "rho_mag", "dwt", "product"]
    tables = {"washout_windows.csv": (header, rows)}
    return tables, {}


@_scenario(
    "scfo-off-control",
    "all offsets zero: the common clock tone correlates at the SNR prediction",
    {
        "seed": (2, _integer(0)),
        **_RESAMPLING,
        "clock_tone_scale": ("3/4", RATIONAL),
        "clock_tone_amplitude": (1.0, POSITIVE),
        "noise_tones": (64, _integer(1)),
        "noise_rms": (0.5, NON_NEGATIVE),
        "T": (0.5, POSITIVE),
        "tolerance": (0.01, POSITIVE),
    },
)
def _scfo_off_control(cfg, summary):
    f_c, bank = _clock_and_bank(cfg)
    scale = _frac(cfg["clock_tone_scale"])
    rates = _desk_rates(cfg, offsets=[0, 0])  # the clock tones land at identical frequencies
    f_a, passband = rates[0], _band(PASSBAND, f_c / 2)
    landed = float(_alias(scale * f_a, f_a))
    if not passband[0] <= landed <= passband[1]:
        raise ConfigInvalid("clock_tone_scale", f"{cfg['clock_tone_scale']!r} lands the clock tone at {landed} Hz, "
                            f"outside the passband {passband} Hz")
    tone = (float(cfg["clock_tone_amplitude"]), scale)
    noise = [
        synth_signal(cfg["seed"] * 977 + i, cfg["noise_tones"], passband, rms=float(cfg["noise_rms"]))
        for i in range(len(rates))
    ]
    rep, _ = _correlated_pair(rates, Zone.ZONE1, f_c, bank, cfg["T"], sky=noise, clock_tone=tone)
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
    return {"control.csv": (["rho_mag", "predicted", "T", "n_samples"], rows)}, {}


# (case, zone, source, frequency / f_c, whether it correlates, check text):
# each sky is one tone, a probe of amplitude ``probe_amplitude`` and phase 0
# or a unit sky tone of phase 0.7.
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
        "seed": (3, _integer(0)),
        **_RESAMPLING,
        "offsets_hz": (["4240000/1", "-4240000/1"], OFFSET_PAIR),
        "probe_amplitude": (1.0, POSITIVE),
        "T": (0.4, POSITIVE),
        "decorrelated_max": (0.05, POSITIVE),
        "correlated_min": (0.99, FRACTION),
    },
)
def _zone1_vs_zone2(cfg, summary):
    """Out-of-band contamination: Zone 2 decorrelates all of it; Zone 1 keeps
    a correlating region between the passband edge and Nyquist."""
    f_c, bank = _clock_and_bank(cfg)
    rates, T, amplitude = _desk_rates(cfg), cfg["T"], float(cfg["probe_amplitude"])

    def measure(case):
        """|rho| of one case's antenna pair."""
        _, zone, source, frac, _, _ = case
        hz = frac * float(f_c)
        tone = Tone(1.0, hz, 0.7) if source == "sky" else Tone(amplitude, hz, 0.0)
        return abs(_correlated_pair(rates, zone, f_c, bank, T, sky=ToneBankSignal((tone,)))[0].rho)

    # cases 0 and 2 run here, 1 and 3 in a forked child: a Zone-1 and a Zone-2 case in each
    rows = []
    for (case, _, _, frac, correlates, text), rho in zip(_ZONE_CASES, map_forked(measure, _ZONE_CASES)):
        rows.append((case, frac * float(f_c), rho))
        ok = rho > cfg["correlated_min"] if correlates else rho < cfg["decorrelated_max"]
        summary.check(ok, f"{text}: |rho| = {rho:.5f}")
    return {"zone_probes.csv": (["case", "probe_hz", "rho_mag"], rows)}, {}


@_scenario(
    "relaxed-antialias",
    "aliasing through a relaxed anti-alias filter decorrelates with SCFO on",
    {
        "seed": (4, _integer(0)),
        **_RESAMPLING,
        "offsets_hz": (["4240000/1", "-4240000/1"], OFFSET_PAIR),
        "filter_points": ([[0.0, 0.0], [500000.0, 0.0], [750000.0, -20.0]], HZ_DB_PAIRS),
        "probe_hz": (1300000.0, POSITIVE),
        "probe_amplitude": (1.0, POSITIVE),
        "T": (0.4, POSITIVE),
        "decorrelated_max": (0.05, POSITIVE),
    },
)
def _relaxed_antialias(cfg, summary):
    """A relaxed analog anti-alias filter lets an out-of-band tone alias into
    the band at reduced amplitude; with SCFO on the alias decorrelates, with
    SCFO off it correlates fully (the filter is then load-bearing)."""
    f_c, bank = _clock_and_bank(cfg)
    filt = FilterSpec(points=tuple((float(a), float(b)) for a, b in cfg["filter_points"]))
    expected_gain = filt.gain(float(cfg["probe_hz"]))
    probe = ToneBankSignal((Tone(float(cfg["probe_amplitude"]), float(cfg["probe_hz"]), 0.1),))
    filtered = antialias(probe, filt)
    T = cfg["T"]

    def measure(rates):
        """The pair's correlation report and the RMS of antenna 0's window."""
        rep, pair = _correlated_pair(rates, Zone.ZONE1, f_c, bank, T, sky=filtered)
        window = pair[0].data[rep.start : rep.start + rep.n_samples]
        return rep, float(np.sqrt(np.mean(window**2)))

    # SCFO on here, SCFO off in a forked child
    (rep_on, rms_on), (rep_off, _) = map_forked(measure, [_desk_rates(cfg), _desk_rates(cfg, ["0/1", "0/1"])])
    rows = [("scfo_on", abs(rep_on.rho), rep_on.suppression_db)]
    summary.check(
        abs(rep_on.rho) < cfg["decorrelated_max"],
        f"SCFO on: aliased probe decorrelates, |rho| = {abs(rep_on.rho):.5f} "
        f"(suppression {rep_on.suppression_db:.1f} dB)",
    )

    rows.append(("scfo_off", abs(rep_off.rho), rep_off.suppression_db))
    summary.check(
        abs(rep_off.rho) > 0.99,
        f"SCFO off: aliased probe correlates fully, |rho| = {abs(rep_off.rho):.5f}",
    )
    gain = rms_on * np.sqrt(2) / float(cfg["probe_amplitude"])
    rows.append(("filter_gain", expected_gain, gain))
    summary.check(
        abs(gain - expected_gain) < 0.1 * expected_gain + 1e-6,
        f"relaxed filter scales the probe by {expected_gain:.3f} (measured {gain:.3f})",
    )
    return {"relaxed_antialias.csv": (["case", "value_a", "value_b"], rows)}, {}


@_scenario(
    "zone2-shift",
    "per-antenna frequency shifts align the sky tone and split the clock tones",
    {
        "seed": (5, _integer(0)),
        **_RESAMPLING,
        "offsets_hz": (["4240000/1", "-4240000/1"], OFFSET_PAIR),
        "sky_hz_frac": (0.7, _within(*ZONE2_BAND)),
        # in Zone 2, as the clock tones' expected landing f_c - scale * f_a assumes
        "clock_tone_scale": ("3/4", _within(*ZONE2_BAND, "rational")),
        "n_fft": (1 << 18, _integer(1)),
        "segments": (16, _integer(3)),  # the phase-slope fit needs 3
        "residual_tol_hz": (0.05, NON_NEGATIVE),
    },
)
def _zone2_shift(cfg, summary):
    """Numerical version of the final-shift diagram: after per-antenna
    f_c - f_a shifts, the common sky tone lands at one frequency with a flat
    cross-spectrum phase slope, while the per-antenna clock tones stay split
    by the offset difference."""
    segments, n_fft = cfg["segments"], cfg["n_fft"]
    if n_fft < segments:
        raise ConfigInvalid("n_fft", f"{n_fft}; needs one sample per segment")
    f_c, bank = _clock_and_bank(cfg)
    scale = _frac(cfg["clock_tone_scale"])
    rates = _desk_rates(cfg)
    # tone at scale*f_a samples to (1-scale)*f_a, then shifts by f_c - f_a
    landing = [float(f_c - scale * f_a) for f_a in rates]
    expected_sep = abs(landing[0] - landing[1])
    bin_hz = float(f_c) / n_fft
    if 0 < expected_sep <= 2 * bin_hz:  # the split check's tolerance would pass any measurement
        raise ConfigInvalid("n_fft", f"{n_fft}; its {bin_hz:.1f} Hz bins cannot resolve the "
                                     f"{expected_sep:.1f} Hz clock-tone split")
    seg_len = n_fft // segments

    def measure(case):
        """The pair's two peak frequencies and, for the sky pair, the
        unwrapped cross phase of each of its segments."""
        source, clock_tone = case
        streams = _resampled_tone_streams(rates, Zone.ZONE2, f_c, bank, n_fft, source, clock_tone=clock_tone)
        peaks = [_peak_hz(s, n_fft, f_c) for s in streams]
        if clock_tone is not None:
            return peaks, None
        a, b = (s.data[: segments * seg_len].reshape(segments, seg_len) for s in streams)
        return peaks, np.unwrap([np.angle(np.vdot(y, x)) for x, y in zip(a, b)])

    # the sky pair here, the clock-tone pair in a forked child
    sky = ToneBankSignal((Tone(1.0, cfg["sky_hz_frac"] * float(f_c), 0.5),))
    (peaks, phases), (cpeaks, _) = map_forked(measure, [(sky, None), (ToneBankSignal(()), (1.0, scale))])

    # sky tone peak bins must coincide
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
    return {"zone2_shift.csv": (["quantity", "antenna1", "antenna2"], rows)}, {}


@_scenario(
    "requant-loss",
    "4-bit vs 4-bit+resample+8-bit sensitivity loss difference",
    {
        "seed": (1, _integer(0)),
        # at most 2**36, 262,144 chain blocks, about 690 times the default: past
        # 2**63 not even the list of blocks fits a C index, and far less takes years
        "samples": (100_000_000, _integer(WELCH_NFFT, 1 << 36)),
        # the red chain's ratios 1 +/- it stay inside (1/2, 3/2), and its
        # int64 phase plan (rational.phase_run) holds the denominator up to 2**26 phases
        "offset_ratio": ("1/10000", ("rational", lambda q: abs(q) < Fraction(1, 2) and q.denominator <= 1 << 32,
                                     "a rational in (-1/2, 1/2) with a denominator of at most 2**32")),
        "q4_loading": (1.0, POSITIVE),
        "q8_loading": (0.5, POSITIVE),
        "snr": (1.0, POSITIVE),
        "sky_tones": (16, _integer(1)),
        "noise_tones": (16, _integer(1)),
        "segments": (64, _integer(2)),  # a standard error needs 2
        "target_diff": (3.75e-4, NON_NEGATIVE),
        "tolerance": (2.0e-4, POSITIVE),
        "stderr_max": (5.0e-5, POSITIVE),
        **_BANK,
    },
)
def _requant_loss(cfg, summary):
    """Desk-scale reproduction of the 4-bit vs 4-bit+resample+8-bit
    sensitivity-loss comparison; the acceptance target is the difference."""
    if cfg["samples"] < cfg["segments"]:
        raise ConfigInvalid("samples", f"{cfg['samples']}; needs one per segment")
    q4 = QuantizerSpec(QuantKind.Q4_OPTIMAL, float(cfg["q4_loading"]))
    blue = ChainSpec(input_quant=q4)
    red = ChainSpec(
        input_quant=q4,
        offset=_frac(cfg["offset_ratio"]),
        out_quant=QuantizerSpec(QuantKind.Q8_UNIFORM, float(cfg["q8_loading"])),
        bank=design_bank(cfg["taps"], cfg["phases"], cfg["coeff_bits"]),  # designed before the fork
    )
    # a shared sky plus each antenna's own noise, sky power over noise power snr
    band = _band(PASSBAND, F_C / 2)
    sky = synth_signal(cfg["seed"], cfg["sky_tones"], band)
    noise_rms = float(np.sqrt(1.0 / float(cfg["snr"])))
    noise = [synth_signal(cfg["seed"] * 1009 + 101 + i, cfg["noise_tones"], band, noise_rms) for i in (0, 1)]
    antennas = [ToneBankSignal(sky.tones + own.tones) for own in noise]
    sigma = float(np.sqrt(1.0 + noise_rms**2))  # the input RMS, sky and noise
    rep = sensitivity_loss(blue, red, cfg["samples"], antennas, sigma, cfg["segments"])
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
        "n": (2000, _integer(1)),
        "min_pairwise": (10_000.0, POSITIVE),
        "max_abs": (10_000_000.0, NON_NEGATIVE),
        # plan_offsets reads a resolution to a denominator of at most 10**9
        "resolution": (1000.0, ("real", lambda x: x >= 1e-9, "a number >= 1e-9")),
    },
)
def _offset_plan(cfg, summary):
    """Feasibility of pairwise-separated offset ladders, including the
    2000-antenna, 10 kHz minimum, +/-10 MHz case."""
    offsets = plan_offsets(cfg["n"], cfg["min_pairwise"], cfg["max_abs"], cfg["resolution"])
    summary.check(
        all(float(b - a) >= cfg["min_pairwise"] - 1e-9 for a, b in zip(offsets, offsets[1:])),
        f"{cfg['n']} offsets on the {cfg['resolution']:g} Hz grid keep pairwise "
        f"separation >= {cfg['min_pairwise']:g} Hz",
    )
    span = max(abs(float(a)) for a in offsets)
    summary.check(
        span <= cfg["max_abs"],
        f"ladder spans +/-{span:g} Hz within +/-{cfg['max_abs']:g} Hz",
    )
    rows = [(i, float(a)) for i, a in enumerate(offsets)]
    return {"offset_plan.csv": (["index", "offset_hz"], rows)}, {}
