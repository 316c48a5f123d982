import csv

import numpy as np
import pytest

import workloads as wl
from scfosim.resampler import design_bank

OPS = {"requant-chain": 1, "stream-scenarios": 5, "hw-datapath": 8}


@pytest.fixture(scope="module")
def bank():
    return design_bank(56, 1024, 19)


@pytest.fixture(scope="module")
def reference():
    return wl.load_reference()


@pytest.mark.parametrize("workload", sorted(OPS))
def test_workload_completes_tiny_with_checks(workload, bank, reference, tmp_path):
    ops = wl.build(workload, 1, tmp_path, bank, reference, tiny=True)
    assert len(ops) == OPS[workload]
    for op in ops:
        assert op.check(op.call()) == [], op.name


def test_requant_reference_mismatch_is_reported(bank, reference, tmp_path, monkeypatch):
    (op,) = wl.build("requant-chain", 1, tmp_path, bank, reference, tiny=True)
    result = op.call()
    where = tmp_path / "requant-loss"
    with open(where / "requant_loss.csv") as fh:
        row = {k: float(v) for k, v in next(csv.DictReader(fh)).items()}
    recorded = {k: row[k] for k in ("loss_blue", "loss_red", "difference")}
    recorded["verdicts"] = wl.read_verdicts(where)
    # pretend the tiny size is the benchmark size, with this run as its reference
    monkeypatch.setattr(wl, "REQUANT_SAMPLES", wl.TINY["requant-chain"])
    fake = dict(reference, **{"requant-chain": {"samples": wl.REQUANT_SAMPLES, "seeds": {"1": recorded}}})
    (same,) = wl.build("requant-chain", 1, tmp_path, bank, fake)
    assert same.check(result) == []

    fake["requant-chain"]["seeds"]["1"] = dict(recorded, loss_red=recorded["loss_red"] + 1e-5)
    (shifted,) = wl.build("requant-chain", 1, tmp_path, bank, fake)
    problems = shifted.check(result)
    assert len(problems) == 1 and problems[0].startswith("loss_red")


def test_hw_checks_catch_a_wrong_output(bank, reference, tmp_path):
    direct, demux = wl.build("hw-datapath", 2, tmp_path, bank, reference, tiny=True)[:2]
    out = direct.call()
    assert direct.check(out) == []
    bad = demux.call()
    bad.data[100] += 1e-6
    assert demux.check(bad) == ["demux differs from direct from output 100 on"]
    out.data *= 1 + 1e-6
    assert direct.check(out)


def test_hw_spot_check_matches_program(bank):
    ratio = wl.HW_RATIOS["repeat"]
    x = np.random.default_rng(5).standard_normal(3000)
    from scfosim.frontend import SampleStream
    from scfosim.resampler import resample

    out = resample(SampleStream(rate=ratio * wl.HW_F_C, epoch=0, data=x), wl.HW_F_C, bank).data
    assert len(out) == wl.exact_count(ratio, bank.phases, bank.taps_per_phase, len(x))
    picks = wl.spot_indices(5, ratio, bank.phases, len(out))
    assert wl.spot_check(out, x, bank.table, ratio, picks) == []
    shifted = np.roll(out, 1)
    assert wl.spot_check(shifted, x, bank.table, ratio, picks)


def test_exact_plan_rounds_half_even():
    # both positions sit exactly half a grid step above a grid point:
    # 1025.5 rounds up to 1026, 1024.5 rounds down to 1024
    assert wl.exact_plan(0, 1 + wl.Fraction(3, 2048), 1024, 1) == (1, 514)
    assert wl.exact_plan(0, 1 + wl.Fraction(1, 2048), 1024, 1) == (1, 512)


def test_same_verdict_allows_one_unit_of_the_last_digit():
    ref = "PASS |rho| = 0.66663 within 1% of 0.66667 (1e+07 Hz)"
    assert wl.same_verdict(ref, ref)
    assert wl.same_verdict(ref.replace("0.66663", "0.66664"), ref)
    assert not wl.same_verdict(ref.replace("0.66663", "0.66665"), ref)
    assert not wl.same_verdict(ref.replace("PASS", "FAIL"), ref)
    assert not wl.same_verdict(ref.replace("within", "outside"), ref)
    assert wl.same_verdict(ref.replace("1e+07", "2e+07"), ref)
    assert not wl.same_verdict(ref.replace("1e+07", "3e+07"), ref)


def test_unrecorded_seed_checks_status_of_always_passing_lines():
    recorded = [["PASS a 1", "FAIL b 2", "FAIL overall"], ["PASS a 3", "PASS b 4", "PASS overall"]]
    need = wl.must_pass(recorded)
    assert need == [True, False, False]
    assert wl.compare_verdicts(["PASS a 9", "FAIL b 9", "FAIL overall"], None, need) == []
    assert wl.compare_verdicts(["FAIL a 9", "PASS b 9", "FAIL overall"], None, need)
    assert wl.compare_verdicts(["PASS a 9"], None, need)


def test_reference_covers_the_benchmark_sizes(reference):
    assert reference["requant-chain"]["samples"] == wl.REQUANT_SAMPLES
    assert reference["hw-datapath"]["samples"] == wl.HW_SAMPLES
    seeds = reference["requant-chain"]["seeds"]
    assert str(wl.DEFAULT_SEED) in seeds and len(seeds) > 1
    assert seeds.keys() == reference["stream-scenarios"]["seeds"].keys() == reference["hw-datapath"]["seeds"].keys()
    for lines in reference["stream-scenarios"]["seeds"].values():
        assert all(line.startswith("PASS ") for name in wl.STREAM_SCENARIOS for line in lines[name])

