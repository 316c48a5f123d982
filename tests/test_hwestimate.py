import pytest

from scfosim.hwestimate import DEFAULT_DEVICE, DeviceTable, HwConfig, estimate


class TestGoldenValues:
    def test_band5_multipliers_and_memories(self):
        cfg = HwConfig(taps=56, demux=8, streams=4, complex_output=True, share_coeff_luts=True)
        r = estimate(cfg)
        assert r["fir_multipliers"] == 3584
        assert r["mixer_multipliers"] == 64
        assert r["multipliers"] == 3648
        assert r["coeff_memories"] == 1792
        assert r["m20k"] == 1856

    def test_band5_logic_elements(self):
        r = estimate(HwConfig())
        assert r["adder_les"] == 132_608
        assert r["shift_register_les"] == 14_336
        assert 160_000 <= r["les"] <= 180_000

    def test_band5_utilization(self):
        r = estimate(HwConfig())
        u = r["utilization"]
        assert u["multipliers"] * 100 == pytest.approx(58.0, abs=1.0)
        assert u["m20k"] * 100 == pytest.approx(32.0, abs=1.0)
        assert u["les"] * 100 == pytest.approx(11.0, abs=1.0)

    def test_small_real_case(self):
        cfg = HwConfig(
            taps=9, demux=3, streams=1, complex_output=False, share_coeff_luts=False
        )
        r = estimate(cfg)
        assert r["fir_multipliers"] == 27
        assert r["mixer_multipliers"] == 0


class TestInvariants:
    def test_linearity_in_streams(self):
        a = estimate(HwConfig(streams=2))
        b = estimate(HwConfig(streams=4))
        assert b["fir_multipliers"] == 2 * a["fir_multipliers"]
        assert b["m20k"] == 2 * a["m20k"]

    def test_demux_neutral_arithmetic(self):
        # multipliers scale with k, the clock scales with 1/k: per-output work invariant
        works = {estimate(HwConfig(demux=k))["ops_per_output_sample"] for k in (1, 2, 4, 8)}
        assert len(works) == 1

    def test_power_not_modeled(self):
        r = estimate(HwConfig())
        assert "W" in r["power"]
        assert "not modeled" in r["power"]
        assert not any(isinstance(v, (int, float)) and "power" in k.lower() for k, v in r.items() if k != "power")


class TestDeviceTable:
    def test_default(self):
        assert DEFAULT_DEVICE.multipliers == 6290
        assert DEFAULT_DEVICE.m20k == 5851

    def test_custom_device(self):
        dev = DeviceTable("BIGFPGA", 10000, 8000, 2_000_000)
        r = estimate(HwConfig(), device=dev)
        assert r["device"] == "BIGFPGA"
