import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from scfosim.cli import main
from scfosim.scenarios import SCENARIOS, run_scenario

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_list_scenarios_prints_every_name(capsys):
    assert main(["list-scenarios"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert names == list(SCENARIOS)
    assert len(names) == 7


def test_run_writes_what_run_scenario_writes(tmp_path, capsys):
    assert main(["run", "offset-plan", "--out", str(tmp_path / "cli")]) == 0
    run_scenario("offset-plan", out_dir=tmp_path / "api")
    summary = (tmp_path / "cli" / "summary.txt").read_text()
    assert summary == (tmp_path / "api" / "summary.txt").read_text()
    # the printed verdicts are the summary's check lines
    assert capsys.readouterr().out.splitlines() == summary.splitlines()[:-1]


@pytest.mark.parametrize(
    "name, config",
    [
        ("no-such-scenario", None),
        ("offset-plan", '{"no_such_field": 1}'),
        ("offset-plan", "not json"),
        ("offset-plan", "[1, 2]"),
        ("offset-plan", "absent"),
        ("offset-plan", '{"n": 0}'),
        ("scfo-off-control", '{"T": "x"}'),
        ("zone2-shift", '{"f_c": "abc"}'),
        ("zone2-shift", '{"f_c": "1/0"}'),
        ("zone2-shift", '{"f_c": "0"}'),
        ("zone2-shift", '{"f_c": "-1000000"}'),
        ("scfo-off-control", '{"f_c": "0"}'),
        ("scfo-off-control", '{"f_c": "-1000000"}'),
        ("zone2-shift", '{"offsets_hz": ["4240000/1", "4.2e6.1"]}'),
        ("zone2-shift", '{"offsets_hz": ["10000100/1", "0/1"]}'),
        ("zone2-shift", '{"offsets_hz": ["4240050/1", "0/1"]}'),
        ("zone2-shift", '{"clock_tone_scale": "3/0"}'),
        ("requant-loss", '{"offset_ratio": "1//10000"}'),
        ("offset-plan", '{"resolution": 0}'),
        ("offset-plan", '{"resolution": -1000.0}'),
        ("offset-plan", '{"resolution": 1e-12}'),
        ("requant-loss", '{"segments": 0}'),
        ("requant-loss", '{"segments": 1}'),
        ("requant-loss", '{"samples": 0}'),
        ("requant-loss", '{"samples": 1000}'),
        ("requant-loss", '{"samples": 1e30}'),
        ("requant-loss", '{"samples": 68719476737}'),
        ("selfclock-washout", '{"windows": 0}'),
        ("selfclock-washout", '{"targets_dwt": []}'),
        ("selfclock-washout", '{"targets_dwt": ["x"]}'),
        ("selfclock-washout", '{"targets_dwt": [100.0, -1.0]}'),
        ("selfclock-washout", '{"window_jitter": 1.5}'),
        ("selfclock-washout", '{"window_jitter": -0.1}'),
        ("selfclock-washout", '{"targets_dwt": [100.0], "windows": 4, "window_jitter": 0.9}'),
        ("zone2-shift", '{"segments": 0}'),
        ("zone2-shift", '{"segments": 2}'),
        ("zone2-shift", '{"n_fft": 0}'),
        ("zone2-shift", '{"n_fft": 8}'),
        ("requant-loss", '{"segments": 2.5}'),
        ("offset-plan", '{"n": 2.5}'),
        ("relaxed-antialias", '{"filter_points": [[0.0]]}'),
        ("relaxed-antialias", '{"filter_points": [[500000.0, 0.0], [0.0, 0.0]]}'),
        ("zone2-shift", '{"taps": 1}'),
        ("zone2-shift", '{"phases": 1000}'),
        ("zone2-shift", '{"coeff_bits": 0}'),
        ("requant-loss", '{"taps": 1, "samples": 2000}'),
        ("requant-loss", '{"sky_tones": 0, "samples": 2000}'),
        ("requant-loss", '{"q4_loading": 0, "samples": 2000}'),
        ("scfo-off-control", '{"noise_tones": 0}'),
        ("scfo-off-control", '{"noise_rms": -1}'),
        ("selfclock-washout", '{"sky_tones": 0}'),
        ("selfclock-washout", '{"offsets_hz": ["4240000/1"]}'),
        ("selfclock-washout", '{"offsets_hz": ["4240000/1", "-4240000/1", "0/1"]}'),
        ("zone1-vs-zone2-alias", '{"offsets_hz": ["4240000/1"]}'),
        ("relaxed-antialias", '{"offsets_hz": ["4240000/1"]}'),
        ("zone2-shift", '{"offsets_hz": ["4240000/1", "-4240000/1", "0/1"]}'),
        ("requant-loss", '{"coeff_bits": 64}'),
        ("scfo-off-control", '{"coeff_bits": 64}'),
        ("requant-loss", '{"offset_ratio": "1/2"}'),
        ("requant-loss", '{"offset_ratio": "-3/5"}'),
        ("requant-loss", '{"samples": 20000, "segments": 4, "offset_ratio": "1/9007199254740991"}'),
        ("scfo-off-control", '{"clock_tone_amplitude": 0.0, "noise_rms": 0.0}'),
        ("relaxed-antialias", '{"probe_amplitude": 0.0}'),
        ("zone1-vs-zone2-alias", '{"probe_amplitude": 0.0}'),
        ("selfclock-washout", '{"clock_tone_amplitude": 0.0}'),
        ("selfclock-washout", '{"clock_tone_scale": "0/1"}'),
        ("selfclock-washout", '{"offsets_hz": ["0/1", "0/1"]}'),
        ("zone2-shift", '{"sky_hz_frac": 0.3}'),
        ("zone2-shift", '{"sky_hz_frac": 1.5}'),
        ("selfclock-washout", '{"sky_T": 0.0}'),
        ("scfo-off-control", '{"T": 0.0}'),
        ("zone1-vs-zone2-alias", '{"T": -0.4}'),
        ("relaxed-antialias", '{"T": 0.0}'),
        ("scfo-off-control", '{"T": Infinity}'),
        ("scfo-off-control", '{"tolerance": NaN}'),
        ("offset-plan", '{"max_abs": Infinity}'),
        ("scfo-off-control", '{"clock_tone_scale": "0/1"}'),
        ("scfo-off-control", '{"clock_tone_scale": "1/1"}'),
        ("selfclock-washout", '{"seed": -1}'),
        ("scfo-off-control", '{"seed": -1}'),
        ("requant-loss", '{"seed": -1, "samples": 2000}'),
        ("scfo-off-control", '{"tolerance": -0.01}'),
        ("offset-plan", '{"min_pairwise": -5.0}'),
        ("offset-plan", '{"max_abs": -1.0}'),
        ("relaxed-antialias", '{"probe_hz": 0.0}'),
        ("relaxed-antialias", '{"probe_hz": -5.0}'),
        ("zone1-vs-zone2-alias", '{"decorrelated_max": -1}'),
        ("requant-loss", '{"samples": 2000, "segments": 4000}'),
        ("zone2-shift", '{"clock_tone_scale": "0/1"}'),
        ("zone2-shift", '{"clock_tone_scale": "1/4"}'),
        ("selfclock-washout", '{"targets_dwt": [1.0]}'),
        ("selfclock-washout", '{"targets_dwt": [2.0]}'),
        ("selfclock-washout", '{"targets_dwt": [1.0, 100.0]}'),
        ("zone2-shift", '{"n_fft": 3, "segments": 3}'),
    ],
    ids=[
        "unknown-scenario", "unknown-field", "not-json", "not-an-object", "missing-file",
        "no-antennas", "wrong-kind", "f_c-not-rational", "f_c-zero-denominator",
        "zero-f_c", "negative-f_c", "control-zero-f_c", "control-negative-f_c",
        "offset-not-rational", "offset-above-10-mhz", "offset-off-the-100-hz-grid",
        "clock-scale-zero-denominator", "offset-ratio-not-rational",
        "zero-resolution", "negative-resolution", "resolution-below-a-nanohertz",
        "no-segments", "one-segment", "no-samples",
        "fewer-samples-than-a-spectrum-window", "samples-past-any-index", "samples-past-the-bound",
        "no-windows", "no-targets",
        "target-not-a-number", "negative-target", "jitter-above-one", "negative-jitter",
        "jittered-window-longer-than-the-streams",
        "no-fit-segments", "two-fit-segments", "no-fft-points", "fewer-fft-points-than-segments",
        "fractional-segments", "fractional-antennas", "filter-point-not-a-pair", "filter-points-unsorted",
        "one-tap", "phases-not-a-power-of-two", "no-coefficient-bits", "requant-one-tap",
        "no-sky-tones", "zero-q4-loading", "no-noise-tones", "negative-noise-rms",
        "washout-no-sky-tones",
        "washout-one-offset", "washout-three-offsets", "zone-probes-one-offset",
        "relaxed-one-offset", "zone2-shift-three-offsets", "requant-64-bit-taps",
        "control-64-bit-taps", "offset-ratio-half", "offset-ratio-below-minus-half",
        "offset-ratio-past-the-int64-phase-plan",
        "control-no-clock-tone", "relaxed-no-probe", "zone-probes-no-probe",
        "washout-no-clock-tone", "washout-clock-tone-at-dc", "washout-equal-offsets",
        "sky-below-zone-2", "sky-above-zone-2", "washout-no-sky-time", "control-no-time",
        "zone-probes-negative-time", "relaxed-no-time",
        "control-infinite-time", "control-nan-tolerance", "infinite-max-abs",
        "control-clock-tone-at-dc", "control-clock-tone-at-the-sample-rate",
        "washout-negative-seed", "control-negative-seed", "requant-negative-seed",
        "control-negative-tolerance", "negative-min-pairwise", "negative-max-abs",
        "relaxed-probe-at-dc", "relaxed-negative-probe", "zone-probes-negative-decorrelated-max",
        "fewer-samples-than-segments", "zone2-clock-tone-at-dc", "zone2-clock-tone-in-zone-1",
        "target-before-the-envelope-regime", "target-at-the-envelope-regime-edge",
        "one-target-before-the-envelope-regime", "fft-bins-wider-than-the-clock-tone-split",
    ],
)
def test_usage_errors_exit_2(tmp_path, capsys, name, config):
    argv = ["run", name, "--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "cfg.json"
        if config != "absent":
            path.write_text(config)
        argv += ["--config", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("scfosim: ")
    assert not (tmp_path / "out").exists()


def test_an_integral_float_fills_an_integer_field(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text('{"n": 20.0}')
    assert main(["run", "offset-plan", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "summary.txt").read_text().startswith("PASS 20 offsets")


@pytest.mark.parametrize(
    "config",
    [
        {"n": 1, "min_pairwise": 1e308, "max_abs": 1e308, "resolution": 1e-9},
        {"n": 3, "min_pairwise": 1e300, "max_abs": 1e308, "resolution": 1e-9},
    ],
    ids=["one-offset-at-the-float-limit", "three-offsets-past-the-float-step-count"],
)
def test_feasible_plans_near_the_float_limit_exit_0(tmp_path, config):
    # min_pairwise / resolution overflows a float; the exact plan does not
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "offset-plan", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    n, step = config["n"], config["min_pairwise"]  # a whole number of resolutions
    rows = (tmp_path / "out" / "offset_plan.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == [(i - n // 2) * step for i in range(n)]


@pytest.mark.parametrize(
    "config",
    [{"samples": 5000, "snr": 1e-300}, {"samples": 5000, "q8_loading": 1e-300}],
    ids=["no-sky-power", "q8-step-near-zero"],
)
def test_powers_past_the_float_range_fail_their_checks_and_exit_0(tmp_path, config):
    # a twin whose powers overflow has rho 0 or NaN: the losses read NaN
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "requant-loss", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "summary.txt").read_text().splitlines()[-1] == "FAIL overall"
    header, row = (tmp_path / "out" / "requant_loss.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["difference"] == "nan"


def test_bad_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2


def test_domain_error_exits_1(tmp_path, capsys):
    config = tmp_path / "infeasible.json"
    config.write_text(json.dumps({"n": 5000, "max_abs": 1000.0}))
    assert main(["run", "offset-plan", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert "Infeasible" in capsys.readouterr().err


def test_every_declared_script_exists_and_runs(capsys):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        entry = getattr(importlib.import_module(module), attr)
        assert entry(["list-scenarios"]) == 0, name
    assert capsys.readouterr().out


def test_package_imports_no_scipy():
    # scipy.special and scipy.signal take most of a cold start; the package
    # uses neither, so no scipy module may load with the CLI, the scenarios
    # or the hardware datapath
    probe = (
        "import sys, scfosim.cli, scfosim.scenarios, scfosim.frontend, scfosim.resampler, "
        "scfosim.polyphase; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
