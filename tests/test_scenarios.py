import csv
import json
import multiprocessing
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest

from scfosim import scenarios as scenarios_module
from scfosim.chain import map_forked
from scfosim.errors import ConfigInvalid, Infeasible, InsufficientSamples, RatioOutOfRange
from scfosim.frontend import SampleStream, sample
from scfosim.resampler import design_bank, resample
from scfosim.scenarios import (
    BAND_TABLE,
    OFFSET_GRID_HZ,
    OFFSET_LIMIT_HZ,
    ZONE2_BAND,
    Zone,
    _correlated_pair,
    _desk_rates,
    _frac,
    _peak_hz,
    _resampled_tone_streams,
    SCENARIOS,
    Summary,
    merge_config,
    plan_offsets,
    run_scenario,
)
from scfosim.signal import Tone, ToneBankSignal, synth_signal

F_C = Fraction(1_000_000)
# the desk rates of the default antenna pair: B1 at +/-4.24 MHz, on a 1 MHz common clock
RATES = _desk_rates({"band": "B1", "f_c": "1000000/1", "offsets_hz": ["4240000/1", "-4240000/1"]})


def test_washout_delta_f_is_the_measured_clock_tone_split(tmp_path):
    # reduced size; offsets, tone scale and rates are the scenario defaults
    cfg = {"targets_dwt": [100.0], "windows": 2, "sky_T": 0.02}
    run_scenario("selfclock-washout", cfg, out_dir=tmp_path)
    f_c = Fraction(1_000_000)
    # each window's dwt = 2 pi delta_f n_samples / f_c
    with open(tmp_path / "washout_windows.csv") as fh:
        delta_f = [float(row["dwt"]) * float(f_c) / (2 * np.pi * int(row["n_samples"])) for row in csv.DictReader(fh)]
    n_fft = 1 << 16
    bank = design_bank(56, 1024, 19)
    no_sky = ToneBankSignal(())
    streams = _resampled_tone_streams(RATES, Zone.ZONE1, f_c, bank, n_fft, no_sky, clock_tone=(1.0, Fraction(3, 4)))
    peaks = []
    for s in streams:
        spec = np.abs(np.fft.rfft(s.data * np.hanning(n_fft)))
        peaks.append(np.argmax(spec) * float(f_c) / n_fft)
    # the 3/4 f_a tones alias to 1/4 f_a: 1/4 of the 2120 Hz clock split
    assert delta_f == pytest.approx([530.0, 530.0], rel=1e-12)
    assert all(abs(abs(peaks[0] - peaks[1]) - d) <= 2 * float(f_c) / n_fft for d in delta_f)


def test_peak_reads_only_valid_samples():
    # the peak of the first n_fft samples: a 0.1 f_c tone, then a stronger 0.3 f_c one
    k = np.arange(4096)
    data = np.where(k < 1000, np.cos(2 * np.pi * 0.1 * k), 3 * np.cos(2 * np.pi * 0.3 * k))
    stream = SampleStream(rate=F_C, epoch=Fraction(0), data=data)
    assert _peak_hz(stream, 1000, F_C) == pytest.approx(0.1 * float(F_C))
    assert _peak_hz(stream, 4096, F_C) == pytest.approx(0.3 * float(F_C), abs=float(F_C) / 4096)


def test_map_forked_matches_serial_bit_for_bit(deadline):
    sky = synth_signal(3, 8, (0.05 * float(F_C), 0.45 * float(F_C)))
    bank = design_bank(56, 1024, 19)

    def one(f_a):
        return resample(sample(sky, f_a, 50_000), F_C, bank)

    with deadline():
        forked = map_forked(one, RATES)
    serial = [one(f_a) for f_a in RATES]
    assert not multiprocessing.active_children()
    assert len(forked) == 2
    for got, want in zip(forked, serial):
        assert got.data.dtype == want.data.dtype
        assert np.array_equal(got.data, want.data)
        assert (got.rate, got.epoch) == (want.rate, want.epoch)


def zone_sky(zone):
    """One tone inside the zone: 0.3 f_c in Zone 1, 0.7 f_c in Zone 2."""
    return ToneBankSignal((Tone(1.0, (0.3 if zone is Zone.ZONE1 else 0.7) * float(F_C), 0.5),))


@pytest.mark.parametrize("zone", [Zone.ZONE1, Zone.ZONE2], ids=["zone1", "zone2"])
def test_correlated_pair_holds_its_window_and_little_more(zone):
    # exactly the window: every sample of both streams is correlated
    bank = design_bank(56, 1024, 19)
    rep, pair = _correlated_pair(RATES, zone, F_C, bank, 0.02, sky=zone_sky(zone))
    assert (rep.start, rep.n_samples) == (0, 20_000)
    assert [len(s) for s in pair] == [20_000, 20_000]
    assert abs(rep.rho) > 0.99


@pytest.mark.parametrize("zone", [Zone.ZONE1, Zone.ZONE2], ids=["zone1", "zone2"])
def test_a_shorter_stream_is_a_prefix_of_a_longer_one(zone):
    # stopping the input early changes no sample, through the Zone-2 shift too
    bank = design_bank(56, 1024, 19)
    short = _resampled_tone_streams(RATES, zone, F_C, bank, 5_000, sky=zone_sky(zone))
    long = _resampled_tone_streams(RATES, zone, F_C, bank, 9_000, sky=zone_sky(zone))
    for s, l in zip(short, long):
        assert (len(s), len(l)) == (5_000, 9_000)
        assert s.epoch == l.epoch
        assert np.array_equal(s.data, l.data[:5_000])


@pytest.mark.parametrize("band", list(BAND_TABLE))
def test_the_zone2_band_lies_in_zone_2_at_every_desk_rate(band):
    # why sampling checks no band: _desk_rates caps |f_a/f_c - 1| at
    # OFFSET_LIMIT_HZ over the band's rate (0.3125% on B3, the lowest), so
    # even at those extremes the Zone-2 band times f_c lies inside (f_a/2, f_a)
    cfg = {"band": band, "f_c": "1000000/1"}
    with pytest.raises(ConfigInvalid, match="offsets_hz"):
        _desk_rates(cfg, [OFFSET_LIMIT_HZ + OFFSET_GRID_HZ[band]])  # one grid step past the limit
    lo, hi = (Fraction(frac) * F_C for frac in ZONE2_BAND)
    for f_a in _desk_rates(cfg, [OFFSET_LIMIT_HZ, -OFFSET_LIMIT_HZ]):
        assert f_a / 2 < lo and hi < f_a


@pytest.mark.parametrize("wrong", [1, 0], ids=["forked-antenna", "own-antenna"])
def test_antenna_errors_reach_the_caller_with_their_class(wrong, deadline):
    # an antenna at twice the common clock folds at ratio 2, which raises
    # RatioOutOfRange, whether it is the antenna run in the child or the one run here
    rates = list(RATES)
    rates[wrong] = 2 * F_C
    with deadline(), pytest.raises(RatioOutOfRange):
        _resampled_tone_streams(rates, Zone.ZONE2, F_C, design_bank(56, 1024, 19), 20_000, sky=zone_sky(Zone.ZONE2))
    assert not multiprocessing.active_children()


def test_map_forked_runs_the_odd_items_in_one_child(deadline):
    with deadline():
        got = map_forked(square_where, list(range(5)))
    assert not multiprocessing.active_children()
    assert [x for _, x in got] == [0, 1, 4, 9, 16]  # in item order
    here, child = os.getpid(), got[1][0]
    assert [pid for pid, _ in got] == [here, child, here, child, here] and child != here


def test_map_forked_raises_when_the_child_dies(deadline):
    def die_in_child(x):
        if x == 1:
            os._exit(3)
        return x

    with deadline(), pytest.raises(EOFError):
        map_forked(die_in_child, [0, 1])
    assert not multiprocessing.active_children()


def square_where(x):
    return os.getpid(), x * x


def squares_where(x):
    """This item's process, and its inner map_forked's results."""
    return os.getpid(), map_forked(square_where, [x, x + 1, x + 2])


def test_an_inner_map_forked_runs_in_the_process_that_reaches_it(deadline):
    with deadline():
        (here, inner_here), (child, inner_child) = map_forked(squares_where, [1, 10])
    assert not multiprocessing.active_children()
    assert here == os.getpid() != child
    # no second child here, no grandchild there, and the serial results
    assert inner_here == [(here, x * x) for x in (1, 2, 3)]
    assert inner_child == [(child, x * x) for x in (10, 11, 12)]
    # once the outer call is over, the next call forks again
    with deadline():
        assert map_forked(square_where, [0, 1])[1][0] != os.getpid()


def raise_in_child(monkeypatch):
    """Make every antenna pair built in a forked child raise InsufficientSamples."""
    here = os.getpid()
    original = scenarios_module._resampled_tone_streams

    def streams(*args, **kwargs):
        if os.getpid() != here:
            raise InsufficientSamples("raised in the child")
        return original(*args, **kwargs)

    monkeypatch.setattr(scenarios_module, "_resampled_tone_streams", streams)


# Each scenario that forks over its cases, at a reduced size.
CASE_FORKED = {
    "zone1-vs-zone2-alias": {"T": 0.05},
    "relaxed-antialias": {"T": 0.05},
    "zone2-shift": {"n_fft": 1 << 15, "segments": 8},
    "selfclock-washout": {"targets_dwt": [100.0], "windows": 4, "sky_T": 0.02},
    "requant-loss": {"samples": 300_000},  # over its two blocks of outputs
}


@pytest.mark.parametrize("name", ["zone1-vs-zone2-alias", "relaxed-antialias", "zone2-shift"])
def test_a_case_error_in_the_child_reaches_the_caller_with_its_class(name, monkeypatch, tmp_path, deadline):
    raise_in_child(monkeypatch)
    with deadline(), pytest.raises(InsufficientSamples, match="raised in the child"):
        run_scenario(name, CASE_FORKED[name], out_dir=tmp_path / "out")
    assert not multiprocessing.active_children()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", list(CASE_FORKED))
def test_a_case_forked_scenario_writes_what_one_process_writes(name, monkeypatch, tmp_path, deadline):
    with deadline():
        run_scenario(name, CASE_FORKED[name], out_dir=tmp_path / "forked")
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    run_scenario(name, CASE_FORKED[name], out_dir=tmp_path / "serial")
    files = sorted(f.name for f in (tmp_path / "serial").iterdir())
    assert sorted(f.name for f in (tmp_path / "forked").iterdir()) == files
    for file_name in files:
        assert (tmp_path / "forked" / file_name).read_bytes() == (tmp_path / "serial" / file_name).read_bytes()


@pytest.mark.parametrize(
    "name, cfg, forks",
    [
        # over its cases, which build their antennas in place
        ("zone1-vs-zone2-alias", CASE_FORKED["zone1-vs-zone2-alias"], 1),
        ("relaxed-antialias", CASE_FORKED["relaxed-antialias"], 1),
        ("zone2-shift", CASE_FORKED["zone2-shift"], 1),
        # its antennas, then its windows, then its sky pair's antennas
        ("selfclock-washout", CASE_FORKED["selfclock-washout"], 3),
        # one window alone is correlated with no fork
        ("selfclock-washout", {"targets_dwt": [100.0], "windows": 1, "sky_T": 0.02}, 2),
        ("scfo-off-control", {"T": 0.05}, 1),  # its one pair's antennas
        ("requant-loss", CASE_FORKED["requant-loss"], 1),  # its blocks of outputs
    ],
    ids=["zone1-vs-zone2-alias", "relaxed-antialias", "zone2-shift", "selfclock-washout",
         "selfclock-washout-one-window", "scfo-off-control", "requant-loss"],
)
def test_no_more_than_two_scenario_processes_run(name, cfg, forks, monkeypatch, tmp_path, deadline):
    # every fork, in whichever process, logs who forked and how many children it had
    log = tmp_path / "forks.log"
    fork = os.fork

    def logged_fork():
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {len(multiprocessing.active_children())}\n")
        return fork()

    monkeypatch.setattr(os, "fork", logged_fork)
    with deadline():
        run_scenario(name, cfg, out_dir=tmp_path / "out")
    # only this process forked, each time with no child alive
    assert log.read_text().splitlines() == [f"{os.getpid()} 0"] * forks


LABEL_COLUMNS = {"case", "quantity"}


@pytest.mark.parametrize(
    "name", ["scfo-off-control", "zone1-vs-zone2-alias", "relaxed-antialias", "zone2-shift", "offset-plan"]
)
def test_stream_scenario_passes_at_defaults_and_writes_numbers(name, tmp_path):
    run_scenario(name, None, out_dir=tmp_path)
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines), lines
    tables = sorted(tmp_path.glob("*.csv"))
    assert tables
    for table in tables:
        with open(table) as fh:
            for row in csv.DictReader(fh):
                for column, cell in row.items():
                    if column not in LABEL_COLUMNS:
                        float(cell)  # raises on a cell such as np.float64(...)


def test_requant_loss_past_the_float_range_warns_in_no_block(tmp_path, deadline):
    # 300,000 outputs are two blocks, so one block runs in a forked child;
    # their overflowing powers read as NaN losses, with no RuntimeWarning
    with deadline(), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run_scenario("requant-loss", {"samples": 300_000, "q8_loading": 1e-300}, out_dir=tmp_path)
    assert (tmp_path / "summary.txt").read_text().splitlines()[-1] == "FAIL overall"


def test_requant_loss_writes_its_verdicts_and_numbers(tmp_path):
    run_scenario("requant-loss", {"samples": 200_000}, out_dir=tmp_path)
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    assert len(lines) == 3, lines  # two verdicts, then the overall line
    assert lines[0].split(" ", 1)[1].startswith("requantization loss difference = ")
    assert lines[1].split(" ", 1)[1].startswith("Monte Carlo stderr = ")
    assert lines[2].split(" ", 1)[1] == "overall"
    assert all(line.split(" ", 1)[0] in ("PASS", "FAIL") for line in lines), lines
    for table in ("requant_loss.csv", "loss_vs_freq.csv"):
        with open(tmp_path / table) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            for cell in row.values():
                float(cell)
    with open(tmp_path / "requant_loss.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert int(row["n_samples"]) == 200_000


def default_values(name):
    return {key: value for key, (value, _) in SCENARIOS[name][2].items()}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_every_default_is_a_value_with_a_rule_it_passes(name):
    for key, entry in SCENARIOS[name][2].items():
        value, (kind, test, words) = entry  # a field without a rule fails here
        assert kind in ("real", "int", "rational", "text", ["rational"], ["real"], [["real"]]), key
        assert callable(test) and words, key
    # merge_config checks every default against its own rule
    assert merge_config(SCENARIOS[name][2], None) == default_values(name)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_every_default_is_settable_from_a_config_file(name):
    # the default values written out as a config file come back unchanged
    values = default_values(name)
    assert merge_config(SCENARIOS[name][2], json.loads(json.dumps(values))) == values


@pytest.mark.parametrize(
    "name, field, value",
    [
        ("scfo-off-control", "T", 0.0),
        ("scfo-off-control", "T", float("nan")),
        ("scfo-off-control", "T", float("inf")),
        ("scfo-off-control", "T", True),
        ("offset-plan", "max_abs", 10**400),
        ("scfo-off-control", "noise_rms", -0.5),
        ("selfclock-washout", "windows", 0),
        ("selfclock-washout", "windows", 1.5),
        ("requant-loss", "coeff_bits", 64),
        ("requant-loss", "phases", 768),
        ("selfclock-washout", "window_jitter", 1.0),
        ("zone2-shift", "sky_hz_frac", 0.95),
        ("zone2-shift", "f_c", "0/1"),
        ("zone2-shift", "f_c", "1e400"),
        ("requant-loss", "offset_ratio", "-1/2"),
        ("zone2-shift", "clock_tone_scale", 0.75),
        ("zone2-shift", "clock_tone_scale", "1/2"),
        ("zone2-shift", "offsets_hz", ["1/1", "2/1", "3/1"]),
        ("selfclock-washout", "targets_dwt", [100.0, 0.0]),
        ("relaxed-antialias", "filter_points", [[1.0, 0.0], [0.0, 0.0]]),
        ("zone2-shift", "band", "B9"),
        ("offset-plan", "resolution", 1e-12),
    ],
    ids=[
        "positive", "nan", "infinity", "bool", "integer-beyond-any-float", "non-negative",
        "integer-at-least", "integer-not-integral", "integer-at-most", "power-of-two", "fraction",
        "closed-interval", "positive-rational", "rational-beyond-any-float", "rational-below-one-half",
        "rational-not-a-float", "rational-interval", "two-rationals", "positive-list",
        "hz-db-pairs-sorted", "known-band", "resolution-at-least-a-nanohertz",
    ],
)
def test_a_value_outside_its_rule_raises_naming_the_field(name, field, value):
    with pytest.raises(ConfigInvalid) as exc:
        merge_config(SCENARIOS[name][2], {field: value})
    assert exc.value.field == field


def test_an_integer_field_holds_an_int_and_others_their_value_as_given():
    cfg = merge_config(SCENARIOS["zone2-shift"][2], {"n_fft": 4096.0, "residual_tol_hz": 1, "f_c": 2000000})
    assert type(cfg["n_fft"]) is int and cfg["n_fft"] == 4096
    assert type(cfg["residual_tol_hz"]) is int
    assert cfg["f_c"] == 2000000 and cfg["offsets_hz"] == ["4240000/1", "-4240000/1"]


class TestFrac:
    """Clock frequencies come out of config values exact, through _frac."""

    def test_band1_clock_exact(self):
        for value in ("4000000000", 4_000_000_000):
            assert _frac(value) == Fraction(4_000_000_000) and float(_frac(value)) == 4.0e9

    def test_gcd_reduction(self):
        f = _frac("2/4")
        assert f.numerator == 1 and f.denominator == 2

    def test_non_integer_hz_exact(self):
        f = _frac(" 3000000000.1 ")
        assert f * 10 == 30_000_000_001
        assert f - 3_000_000_000 == Fraction(1, 10)

    def test_slash_form(self):
        assert _frac("30000000001/10") == Fraction(30_000_000_001, 10)

    def test_decimal_exact(self):
        # exact decimal expansion, not float rounding
        assert _frac("3000000000.1") == Fraction(30_000_000_001, 10)
        assert _frac("0.1") == Fraction(1, 10)

    @pytest.mark.parametrize("text", ["1/0", "1/+0", "5/-0"])
    def test_zero_denominator_is_an_invalid_field(self, text):
        with pytest.raises(ConfigInvalid) as exc:
            merge_config(SCENARIOS["zone2-shift"][2], {"f_c": text})
        assert exc.value.field == "f_c"


class ReadKeys(dict):
    """A config that records which keys are read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# Each scenario at the reduced size that the tests here and the benchmark's own tests run.
REDUCED = {
    "selfclock-washout": {"targets_dwt": [100.0], "windows": 2, "sky_T": 0.02},
    "scfo-off-control": {"T": 0.05},
    "zone1-vs-zone2-alias": {"T": 0.05},
    "relaxed-antialias": {"T": 0.05},
    "zone2-shift": {"n_fft": 1 << 15, "segments": 8},
    "requant-loss": {"samples": 200_000},
    "offset-plan": {"n": 100},
}
# No body reads these, but the benchmark (perfbench's SCENARIO_SEEDS) passes
# each scenario a seed, so they stay until it stops.
UNREAD = {("zone1-vs-zone2-alias", "seed"), ("relaxed-antialias", "seed"), ("zone2-shift", "seed")}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_every_declared_field_is_read(name):
    body, _, defaults = SCENARIOS[name]
    cfg = ReadKeys(merge_config(defaults, REDUCED[name]))
    body(cfg, Summary())
    unread = {(name, key) for key in defaults if key not in cfg.read}
    assert unread == {entry for entry in UNREAD if entry[0] == name}


def test_figures_are_refused(tmp_path):
    with pytest.raises(ConfigInvalid):
        run_scenario("offset-plan", None, out_dir=tmp_path, figures=True)
    assert not (tmp_path / "summary.txt").exists()


@pytest.mark.parametrize(
    "cfg, field",
    [
        ({"offsets_hz": ["10000100/1", "0/1"]}, "offsets_hz"),
        ({"offsets_hz": ["4240050/1", "0/1"]}, "offsets_hz"),
        ({"band": "B5stream", "offsets_hz": ["1500/1", "0/1"]}, "offsets_hz"),
        ({"band": "B9"}, "band"),
    ],
    ids=["offset-above-10-mhz", "offset-off-the-100-hz-grid", "offset-off-the-1-khz-grid", "unknown-band"],
)
def test_an_antenna_off_its_band_names_the_field_and_writes_nothing(cfg, field, tmp_path):
    # an offset is checked against its band in the body, an unknown band by the
    # band field's rule; either way before any output
    out_dir = tmp_path / "out"
    with pytest.raises(ConfigInvalid) as exc:
        run_scenario("zone2-shift", cfg, out_dir=out_dir)
    assert exc.value.field == field
    assert not out_dir.exists()


def test_ladder_wider_than_max_abs_is_infeasible():
    # 2 x 150 Hz fits 2 x 100 Hz plus one grid step, but on the 100 Hz grid
    # the 150 Hz separation becomes 200 Hz, and the ladder reaches -200 Hz
    with pytest.raises(Infeasible, match="ladder spans"):
        plan_offsets(2, 150.0, 100.0, 100.0)
    assert plan_offsets(2, 100.0, 100.0, 100.0) == [-100, 0]


@pytest.mark.slow
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_passes_at_its_full_defaults(name, tmp_path):
    # ~45 s and ~0.7 GB peak for selfclock-washout, minutes for requant-loss (1e8 samples)
    run_scenario(name, out_dir=tmp_path)
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    assert len(lines) >= 2 and all(line.startswith("PASS ") for line in lines), lines
