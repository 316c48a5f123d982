"""Parameterized FPGA resource arithmetic for the demuxed complex resampler.

Multiplier, coefficient-memory and logic-element counts follow the
back-of-envelope ledger for the worst-case band (4 x 6 GS/s streams, 56-tap
complex FIRs, k=8 demux): N*k*2 tap multipliers per complex stream, shared
S/H coefficient LUTs, one sine/cosine LUT per mixer multiplier, and an
adder/shift-register/misc logic model.  Power is deliberately not modeled:
the source figure is an NDA-bounded 20-50 W range and is reported as a
citation string only.

The adders-per-FIR default equals the tap count; the source text pairs "~56
adders" with a 48-tap FIR in one sentence, so the knob is explicit.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceTable:
    name: str
    multipliers: int
    m20k: int
    les: int


# footprint-compatible part the utilization figures are quoted against
DEFAULT_DEVICE = DeviceTable(name="GX1650", multipliers=6290, m20k=5851, les=1_624_000)

POWER_NOTE = "20-50 W per antenna (vendor estimate range, NDA-bounded; not modeled)"


@dataclass(frozen=True)
class HwConfig:
    taps: int = 56
    demux: int = 8
    streams: int = 4
    complex_output: bool = True
    share_coeff_luts: bool = True
    sample_bits: int = 8
    coeff_lut_entries: int = 1024
    coeff_word_bits: int = 20
    mixer_mults_per_stream: int | None = None  # default: 2*k complex, 0 real
    adder_avg_bits: float = 37.0
    adders_per_fir: int | None = None  # default: taps
    pipeline_factor: float = 2.0
    misc_les: int = 20_000

    def __post_init__(self):
        if self.taps < 1 or self.demux < 1 or self.streams < 1:
            raise ValueError("taps, demux and streams must be >= 1")


def estimate(cfg: HwConfig, device: DeviceTable = DEFAULT_DEVICE) -> dict:
    """Resource counts and utilization fractions for ``cfg`` on ``device``."""
    n, k, s = cfg.taps, cfg.demux, cfg.streams
    cx = 2 if cfg.complex_output else 1
    fir_mults = n * k * cx * s
    per_stream_mixer = cfg.mixer_mults_per_stream
    if per_stream_mixer is None:
        per_stream_mixer = 2 * k if cfg.complex_output else 0
    mixer_mults = per_stream_mixer * s
    multipliers = fir_mults + mixer_mults

    coeff_mems = n * k * (1 if cfg.share_coeff_luts else 2) * s
    mixer_luts = mixer_mults
    m20k = coeff_mems + mixer_luts

    adders = cfg.adders_per_fir if cfg.adders_per_fir is not None else n
    adder_les = int(round(adders * cfg.adder_avg_bits * k * s * cfg.pipeline_factor))
    shift_les = n * cfg.sample_bits * k * s
    les = adder_les + shift_les + cfg.misc_les

    return {
        "fir_multipliers": fir_mults,
        "mixer_multipliers": mixer_mults,
        "multipliers": multipliers,
        "coeff_memories": coeff_mems,
        "mixer_luts": mixer_luts,
        "m20k": m20k,
        "adder_les": adder_les,
        "shift_register_les": shift_les,
        "misc_les": cfg.misc_les,
        "les": les,
        "utilization": {
            "multipliers": multipliers / device.multipliers,
            "m20k": m20k / device.m20k,
            "les": les / device.les,
        },
        "ops_per_output_sample": fir_mults // k,  # demux moves scheduling, not work
        "device": device.name,
        "power": POWER_NOTE,
    }

