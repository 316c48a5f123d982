from fractions import Fraction

import numpy as np

from scfosim.resampler import design_bank
from scfosim.scenarios import (
    _resampled_tone_streams,
    _washout_antennas,
    scenario_selfclock_washout,
)


def test_washout_delta_f_is_the_measured_clock_tone_split(tmp_path):
    # reduced size; offsets, tone scale and rates are the scenario defaults
    cfg = {"targets_dwt": [100.0], "windows": 2, "sky_T": 0.02}
    result = scenario_selfclock_washout(cfg, tmp_path, figures=False)
    antennas = _washout_antennas(
        {
            "band": "B1",
            "offsets_hz": ["4240000/1", "-4240000/1"],
            "clock_tone_scale": "3/4",
            "clock_tone_amplitude": 1.0,
        }
    )
    f_c = Fraction(1_000_000)
    n_fft = 1 << 16
    streams = _resampled_tone_streams(antennas, f_c, design_bank(56, 1024, 19), n_fft + 4096)
    peaks = []
    for s in streams:
        seg = s.data[s.valid_start : s.valid_start + n_fft]
        spec = np.abs(np.fft.rfft(seg * np.hanning(n_fft)))
        peaks.append(np.argmax(spec) * float(f_c) / n_fft)
    # the 3/4 f_a tones alias to 1/4 f_a: 1/4 of the 2120 Hz clock split
    assert result["delta_f"] == 530.0
    assert abs(abs(peaks[0] - peaks[1]) - result["delta_f"]) <= 2 * float(f_c) / n_fft
