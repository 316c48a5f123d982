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
        ("zone2-shift", '{"offsets_hz": ["4240000/1", "4.2e6.1"]}'),
        ("zone2-shift", '{"clock_tone_scale": "3/0"}'),
        ("requant-loss", '{"offset_ratio": "1//10000"}'),
        ("offset-plan", '{"resolution": 0}'),
        ("offset-plan", '{"resolution": -1000.0}'),
        ("requant-loss", '{"segments": 0}'),
        ("requant-loss", '{"segments": 1}'),
        ("requant-loss", '{"samples": 0}'),
        ("requant-loss", '{"samples": 1000}'),
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
    ],
    ids=[
        "unknown-scenario", "unknown-field", "not-json", "not-an-object", "missing-file",
        "no-antennas", "wrong-kind", "f_c-not-rational", "f_c-zero-denominator",
        "offset-not-rational", "clock-scale-zero-denominator", "offset-ratio-not-rational",
        "zero-resolution", "negative-resolution", "no-segments", "one-segment", "no-samples",
        "fewer-samples-than-a-spectrum-window", "no-windows", "no-targets",
        "target-not-a-number", "negative-target", "jitter-above-one", "negative-jitter",
        "jittered-window-longer-than-the-streams",
        "no-fit-segments", "two-fit-segments", "no-fft-points", "fewer-fft-points-than-segments",
        "fractional-segments", "fractional-antennas", "filter-point-not-a-pair", "filter-points-unsorted",
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


def test_cli_import_leaves_scipy_signal_out():
    # scipy.signal alone takes ~0.85 s to import, paid by every CLI call
    probe = "import sys, scfosim.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
