import contextlib
import csv
import json
import multiprocessing
import os
import signal
from fractions import Fraction

import numpy as np
import pytest

from scfosim.chain import map_forked
from scfosim.errors import BandZoneMismatch, ConfigInvalid, InsufficientSamples
from scfosim.frontend import SampleStream, Zone, sample
from scfosim.resampler import cached_bank, design_bank, resample
from scfosim.scenarios import (
    ZONE_BANDS,
    AntennaChainSpec,
    _antennas,
    _clock_tone,
    _correlated_pair,
    _outputs_holding,
    _peak_hz,
    _resampled_tone_streams,
    SCENARIOS,
    merge_config,
    run_scenario,
)
from scfosim.signal import Tone, ToneBankSignal, synth_signal

F_C = Fraction(1_000_000)


def test_washout_delta_f_is_the_measured_clock_tone_split(tmp_path):
    # reduced size; offsets, tone scale and rates are the scenario defaults
    cfg = {"targets_dwt": [100.0], "windows": 2, "sky_T": 0.02}
    result = run_scenario("selfclock-washout", cfg, out_dir=tmp_path)
    defaults = {"band": "B1", "offsets_hz": ["4240000/1", "-4240000/1"], "clock_tone_scale": "3/4"}
    antennas = _antennas(defaults, interference=[_clock_tone(defaults, 1.0)])
    f_c = Fraction(1_000_000)
    n_fft = 1 << 16
    bank = design_bank(56, 1024, 19)
    streams = _resampled_tone_streams(antennas, f_c, bank, _outputs_holding(antennas, f_c, bank, n_fft))
    peaks = []
    for s in streams:
        seg = s.data[s.valid_start : s.valid_start + n_fft]
        spec = np.abs(np.fft.rfft(seg * np.hanning(n_fft)))
        peaks.append(np.argmax(spec) * float(f_c) / n_fft)
    # the 3/4 f_a tones alias to 1/4 f_a: 1/4 of the 2120 Hz clock split
    assert result["delta_f"] == 530.0
    assert abs(abs(peaks[0] - peaks[1]) - result["delta_f"]) <= 2 * float(f_c) / n_fft


def test_peak_reads_only_valid_samples():
    tone = np.cos(2 * np.pi * 0.1 * np.arange(4096))
    stream = SampleStream(rate=F_C, epoch=Fraction(0), data=tone, valid_start=100, valid_end=1100)
    assert _peak_hz(stream, 1000, F_C) == pytest.approx(0.1 * float(F_C))
    with pytest.raises(InsufficientSamples):
        _peak_hz(stream, 1024, F_C)  # 24 samples past the valid end


@contextlib.contextmanager
def deadline(seconds=60):
    """Turn a hang (a child never joined, a pipe never read) into a failure."""

    def expire(*_):  # not TimeoutError: multiprocessing swallows OSErrors while joining
        raise AssertionError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def antenna_pair(zone=Zone.ZONE1):
    return [
        AntennaChainSpec(f"m{i + 1:03d}", "B1", Fraction(off), zone=zone, extended_offsets=True)
        for i, off in enumerate((4_240_000, -4_240_000))
    ]


def test_map_forked_matches_serial_bit_for_bit():
    sky = synth_signal(3, 8, (0.05 * float(F_C), 0.45 * float(F_C)))
    bank = cached_bank(56, 1024, 19)

    def one(spec):
        f_a = spec.desk_rate(F_C)
        start = Fraction(bank.taps_per_phase - 1, 2) * (f_a / F_C - 1)
        return resample(sample(sky, f_a, 50_000), F_C, bank, start_position=start)

    antennas = antenna_pair()
    with deadline():
        forked = map_forked(one, antennas)
    serial = [one(spec) for spec in antennas]
    assert not multiprocessing.active_children()
    assert len(forked) == 2
    for got, want in zip(forked, serial):
        assert got.data.dtype == want.data.dtype
        assert np.array_equal(got.data, want.data)
        assert (got.rate, got.epoch, got.valid_start, got.valid_end) == (
            want.rate, want.epoch, want.valid_start, want.valid_end
        )


def zone_sky(zone):
    """One tone inside the zone's band: 0.3 f_c in Zone 1, 0.7 f_c in Zone 2."""
    hz = (0.3 if zone is Zone.ZONE1 else 0.7) * float(F_C)
    band = tuple(frac * float(F_C) for frac in ZONE_BANDS[zone])
    return ToneBankSignal((Tone(1.0, hz, 0.5),), seed=0, band=band)


@pytest.mark.parametrize("zone", [Zone.ZONE1, Zone.ZONE2], ids=["zone1", "zone2"])
def test_correlated_pair_holds_its_window_and_little_more(zone):
    bank = cached_bank(56, 1024, 19)
    rep, pair = _correlated_pair(antenna_pair(zone), F_C, bank, 0.02, sky=zone_sky(zone))
    lo = max(s.valid_start for s in pair)
    hi = min(s.valid_end for s in pair)
    assert rep.n_samples == 20_000
    assert rep.start == lo
    assert hi - (lo + rep.n_samples) in (0, 1)  # one more output may share the last window
    assert abs(rep.rho) > 0.99


@pytest.mark.parametrize("zone", [Zone.ZONE1, Zone.ZONE2], ids=["zone1", "zone2"])
def test_a_shorter_stream_is_a_prefix_of_a_longer_one(zone):
    # stopping the input early changes no valid sample, through the Zone-2 shift too
    bank = cached_bank(56, 1024, 19)
    antennas = antenna_pair(zone)
    short = _resampled_tone_streams(antennas, F_C, bank, 5_000, sky=zone_sky(zone))
    long = _resampled_tone_streams(antennas, F_C, bank, 9_000, sky=zone_sky(zone))
    for s, l in zip(short, long):
        assert s.valid_start == l.valid_start
        assert np.array_equal(s.data[s.valid_slice()], l.data[s.valid_slice()])


@pytest.mark.parametrize("wrong", [1, 0], ids=["forked-antenna", "own-antenna"])
def test_antenna_errors_reach_the_caller_with_their_class(wrong):
    # a Zone-2 antenna whose sky band lies in Zone 1 raises BandZoneMismatch,
    # whether it is the antenna run in the child or the one run here
    zone2 = ToneBankSignal((Tone(1.0, 0.7 * float(F_C), 0.5),), seed=0, band=(0.56e6, 0.94e6))
    zone1 = ToneBankSignal((Tone(1.0, 0.3 * float(F_C), 0.5),), seed=0, band=(0.05e6, 0.45e6))
    skies = [zone2, zone2]
    skies[wrong] = zone1
    with deadline(), pytest.raises(BandZoneMismatch):
        _resampled_tone_streams(antenna_pair(Zone.ZONE2), F_C, cached_bank(56, 1024, 19), 20_000, sky=skies)
    assert not multiprocessing.active_children()


def test_map_forked_raises_when_the_child_dies():
    def die_in_child(x):
        if x == 1:
            os._exit(3)
        return x

    with deadline(), pytest.raises(EOFError):
        map_forked(die_in_child, [0, 1])
    assert not multiprocessing.active_children()


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


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_every_default_is_settable_from_a_config_file(name):
    # the defaults written out as a config file come back unchanged
    defaults = SCENARIOS[name][2]
    assert merge_config(defaults, json.loads(json.dumps(defaults))) == defaults


def test_figures_are_refused(tmp_path):
    with pytest.raises(ConfigInvalid):
        run_scenario("offset-plan", None, out_dir=tmp_path, figures=True)
    assert not (tmp_path / "summary.txt").exists()


@pytest.mark.slow
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_passes_at_its_full_defaults(name, tmp_path):
    # ~45 s and ~0.7 GB peak for selfclock-washout, minutes for requant-loss (1e8 samples)
    run_scenario(name, out_dir=tmp_path)
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    assert len(lines) >= 2 and all(line.startswith("PASS ") for line in lines), lines
