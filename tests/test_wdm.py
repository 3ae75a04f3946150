import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsolink.comms import ReceiverModel, ber_curve, power_penalty
from fsolink.errors import CurveCrossingError, ParameterError, ScanRangeError
from fsolink.wdm import (
    C_VACUUM,
    OpticalSpectrum,
    two_path_efficiency,
    vodl_scan,
    wdm_link_run,
)

CENTER = C_VACUUM / 1.55e-6
TWO_100G = OpticalSpectrum.two_lines(CENTER, 100e9)


def theta_scan_oracle(spectrum, delay_s, n_theta=200001):
    """Independent oracle: interfere each line over a dense common-phase scan
    locked to the spectral centroid carrier."""
    offsets = spectrum.lines_hz - spectrum.centroid_hz
    # the actuator tracks the centroid carrier; theta = 0 after that lock
    thetas = np.linspace(- math.pi, math.pi, n_theta)
    # evaluate the centroid-locked operating point directly
    eff = np.mean(np.cos(np.pi * offsets * delay_s) ** 2)  # lines of equal weight
    return float(eff)


class TestTwoPathEfficiency:
    def test_zero_delay_perfect(self):
        assert two_path_efficiency(TWO_100G, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_half_power_at_5_ps(self):
        # 1.5 mm of path at the nominal c = 3e8 m/s is 5 ps of delay
        got = two_path_efficiency(TWO_100G, 5e-12)
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_half_power_at_1p5_mm_matches_oracle(self):
        tau = 1.5e-3 / C_VACUUM
        oracle = (1 + math.cos(math.pi * 100e9 * tau)) / 2
        got = two_path_efficiency(TWO_100G, tau)
        assert got == pytest.approx(oracle, abs=1e-9)
        assert got == pytest.approx(0.5, abs=1e-3)  # c rounding only

    def test_null_at_10_ps(self):
        assert two_path_efficiency(TWO_100G, 1e-11) == pytest.approx(0.0, abs=1e-9)

    def test_null_at_3_mm_matches_oracle(self):
        tau = 3.0e-3 / C_VACUUM
        oracle = (1 + math.cos(math.pi * 100e9 * tau)) / 2
        assert two_path_efficiency(TWO_100G, tau) == pytest.approx(oracle, abs=1e-9)
        assert two_path_efficiency(TWO_100G, tau) == pytest.approx(0.0, abs=1e-3)

    def test_closed_form_matches_line_sum_oracle(self):
        for mm in (0.3, 0.9, 1.5, 2.2, 2.9):
            tau = mm * 1e-3 / C_VACUUM
            closed = (1 + math.cos(math.pi * 100e9 * tau)) / 2
            assert two_path_efficiency(TWO_100G, tau) == pytest.approx(closed, abs=1e-9)
            assert theta_scan_oracle(TWO_100G, tau) == pytest.approx(closed, abs=1e-9)

    @given(st.floats(min_value=-40e-12, max_value=40e-12))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_in_delay(self, tau):
        assert two_path_efficiency(TWO_100G, tau) == pytest.approx(
            two_path_efficiency(TWO_100G, -tau), rel=1e-12
        )

    @given(st.floats(min_value=-50e-12, max_value=50e-12))
    @settings(max_examples=60, deadline=None)
    def test_bounded_unit_interval(self, tau):
        assert 0.0 <= two_path_efficiency(TWO_100G, tau) <= 1.0

    def test_unity_only_at_full_coherence(self):
        band = OpticalSpectrum(band_center_hz=CENTER, band_width_hz=2e12)
        assert two_path_efficiency(band, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert two_path_efficiency(band, 2e-12) < 1.0


def per_delay_efficiency(spectrum, delay_s):
    """Reference: the former scalar two-path efficiency, one delay per call."""
    if spectrum.lines_hz is not None:
        offsets = spectrum.lines_hz - spectrum.centroid_hz
        g = complex(np.sum(np.exp(2j * np.pi * offsets * delay_s)) / offsets.size).real
    else:
        g = complex(np.sinc(spectrum.band_width_hz * delay_s)).real
    return float(min(1.0, max(0.0, 0.5 * (1.0 + g))))


def per_delay_scan(spectrum, true_mismatch_s, scan_range_m, scan_step_m):
    """Reference: the former scan, one efficiency call per delay and a walk
    out from the peak to each side of the half-peak run."""
    n = int(math.floor(scan_range_m / scan_step_m))
    delays_m = np.arange(-n, n + 1) * scan_step_m
    taus = delays_m / C_VACUUM - true_mismatch_s
    eff = np.array([per_delay_efficiency(spectrum, t) for t in taus])
    k = int(np.argmax(eff))
    above = eff >= eff[k] / 2.0
    if above.all():
        return eff, float(delays_m[k]), math.inf
    left = k
    while left > 0 and above[left - 1]:
        left -= 1
    right = k
    while right < eff.size - 1 and above[right + 1]:
        right += 1
    return eff, float(delays_m[k]), float(delays_m[right] - delays_m[left])


SCAN_SPECTRA = {
    "16nm-band": OpticalSpectrum.rectangular_wavelength(1560e-9, 16e-9),
    "1-line": OpticalSpectrum(lines_hz=np.array([CENTER])),
    "2-line": TWO_100G,
    "3-line": OpticalSpectrum(lines_hz=CENTER + np.array([-70e9, 10e9, 130e9])),
    "9-line": OpticalSpectrum(lines_hz=CENTER + 100e9 * np.arange(-4, 5)),
}


class TestVodlScan:
    @pytest.mark.parametrize("name", list(SCAN_SPECTRA))
    # +-5.995 mm puts the peak's half-power run against an end of the scan
    @pytest.mark.parametrize("mismatch_mm", [0.0, 0.7, -1.3, 5.995, -5.995])
    def test_one_pass_matches_the_per_delay_scan(self, name, mismatch_mm):
        spectrum = SCAN_SPECTRA[name]
        mismatch_s = mismatch_mm * 1e-3 / C_VACUUM
        scan = vodl_scan(spectrum, mismatch_s, 6e-3, 0.01e-3)  # the scenario's default scan
        eff, peak, width = per_delay_scan(spectrum, mismatch_s, 6e-3, 0.01e-3)
        assert scan.efficiency.tobytes() == eff.tobytes()
        assert (scan.peak_delay_m, scan.half_width_m) == (peak, width)
        for tau in (0.0, mismatch_s, 2.1e-12, -7.7e-12):
            assert two_path_efficiency(spectrum, tau) == per_delay_efficiency(spectrum, tau)

    def test_monochromatic_flat(self):
        mono = OpticalSpectrum(lines_hz=np.array([CENTER]))
        scan = vodl_scan(mono, 0.4e-3 / C_VACUUM, 3e-3, 0.05e-3)
        np.testing.assert_allclose(scan.efficiency, 1.0, atol=1e-9)
        assert math.isinf(scan.half_width_m)

    def test_peak_location_within_one_step(self):
        step = 0.02e-3
        true_mm = 0.73e-3
        band = OpticalSpectrum(band_center_hz=CENTER, band_width_hz=500e9)
        scan = vodl_scan(band, true_mm / C_VACUUM, 4e-3, step)
        assert abs(scan.peak_delay_m - true_mm) <= step

    def test_width_halves_when_band_doubles(self):
        # oracle: |gamma| of a rectangular band is sinc(B tau); its half-peak
        # width in path length is 2 c / B, so doubling B halves the width
        def scan(width_hz):
            band = OpticalSpectrum(band_center_hz=CENTER, band_width_hz=width_hz)
            return vodl_scan(band, 0.0, 6e-3, 0.002e-3)

        narrow, wide = scan(250e9), scan(500e9)
        assert narrow.half_width_m == pytest.approx(2 * wide.half_width_m, rel=0.05)
        assert wide.half_width_m == pytest.approx(2 * C_VACUUM / 500e9, rel=0.05)

    def test_16_nm_band_efficient_at_matched_delay(self):
        band = OpticalSpectrum.rectangular_wavelength(1560e-9, 16e-9)
        scan = vodl_scan(band, 0.0, 0.5e-3, 0.002e-3)
        assert scan.efficiency.max() >= 0.99

    def test_range_must_bracket(self):
        with pytest.raises(ScanRangeError):
            vodl_scan(TWO_100G, 10e-3 / C_VACUUM, 2e-3, 0.01e-3)


def replayed_link_penalties(spectrum, delay_s, model, rop_grid_dbm, efficiency_db,
                            target_ber):
    """Reference: the former fading replay.  Each line's BER curve is the
    fading sequence replayed at the line's loss below the grid, the
    reference the same sequence without it; the penalty is the distance
    between their log-interpolated crossings of target_ber, None where
    either curve misses it."""
    grid = np.asarray(rop_grid_dbm, dtype=np.float64)
    single = ber_curve(grid, model, efficiency_db)
    penalties = []
    # each line's efficiency under the centroid-locked actuator
    offsets = spectrum.lines_hz - np.mean(spectrum.lines_hz)
    for eff in np.cos(np.pi * offsets * delay_s) ** 2:
        loss_db = -10.0 * math.log10(max(eff, 1e-300))
        ber = ber_curve(grid - loss_db, model, efficiency_db)
        try:
            penalties.append(power_penalty((grid, ber), (grid, single), target_ber))
        except CurveCrossingError:
            penalties.append(None)
    return penalties


class TestWdmLink:
    def test_matched_delay_no_penalty(self):
        result = wdm_link_run(TWO_100G, 0.0)
        np.testing.assert_array_equal(result.line_efficiency, 1.0)
        for pen in result.penalty_vs_single_db:
            assert pen == 0.0 and math.copysign(1.0, pen) == 1.0  # never -0.0

    @given(st.floats(min_value=-9e-12, max_value=9e-12))
    @settings(max_examples=60, deadline=None)
    def test_penalty_is_the_combining_loss(self, tau):
        result = wdm_link_run(TWO_100G, tau)
        assert len(result.penalty_vs_single_db) == 2
        for eff, pen in zip(result.line_efficiency, result.penalty_vs_single_db):
            assert isinstance(pen, float)
            assert pen == pytest.approx(-10.0 * math.log10(eff), rel=1e-12, abs=0.0)

    def test_mismatch_propagates_as_power_shift(self):
        tau = 5e-12  # 1.5 mm at the nominal c
        result = wdm_link_run(TWO_100G, tau)
        np.testing.assert_allclose(result.line_efficiency, 0.5, atol=1e-6)
        for pen in result.penalty_vs_single_db:
            assert pen == pytest.approx(10.0 * math.log10(2.0), abs=1e-5)

    def test_single_line_degenerate_case(self):
        mono = OpticalSpectrum(lines_hz=np.array([CENTER]))
        result = wdm_link_run(mono, 5e-12)
        assert result.line_efficiency[0] == pytest.approx(1.0, abs=1e-12)
        assert result.penalty_vs_single_db == [0.0]

    def test_line_on_a_combining_null_reports_its_loss(self):
        # a 10 ps mismatch puts both 100 GHz lines on a combining null
        result = wdm_link_run(TWO_100G, 10e-12)
        assert np.all(result.line_efficiency < 1e-20)
        assert all(pen > 300.0 for pen in result.penalty_vs_single_db)

    def test_closed_form_matches_the_fading_replay(self):
        # 480 random fading sequences over both formats, with and without a
        # 1e-6 error floor, at two targets; the replay's error is its
        # interpolation between 0.5 dB grid points
        rng = np.random.default_rng(9)
        grid = np.arange(-45.0, -15.0 + 0.25, 0.5)
        crossed = 0
        for k in range(480):
            fmt, floor_duty, target = (("ook", "dpsk")[k % 2], (0.0, 2e-6)[k // 2 % 2],
                                       (1e-4, 1e-5)[k // 4 % 2])
            model = ReceiverModel(format=fmt, floor_duty=floor_duty)
            eta_db = rng.normal(0.0, rng.uniform(0.0, 3.0), int(rng.integers(8, 201)))
            tau = rng.uniform(0.0, 8e-12)
            closed = wdm_link_run(TWO_100G, tau).penalty_vs_single_db
            replay = replayed_link_penalties(TWO_100G, tau, model, grid, eta_db, target)
            for c, r in zip(closed, replay):
                if r is not None:
                    crossed += 1
                    assert abs(c - r) <= 0.01, (k, c, r)
        assert crossed >= 800  # of the 960 lines


class TestSpectrumValidation:
    def test_requires_exactly_one_description(self):
        with pytest.raises(ParameterError):
            OpticalSpectrum()
        with pytest.raises(ParameterError):
            OpticalSpectrum(lines_hz=np.array([1e14]), band_center_hz=1e14, band_width_hz=1e9)

    @pytest.mark.parametrize("lines", [[], np.array([]), [math.nan]])
    def test_empty_line_list_rejected(self, lines):
        with pytest.raises(ParameterError, match="line"):
            OpticalSpectrum(lines_hz=lines)

    @pytest.mark.parametrize("call, name", [
        (lambda: OpticalSpectrum(band_center_hz=math.nan, band_width_hz=1.0), "band_center_hz"),
        (lambda: vodl_scan(OpticalSpectrum.two_lines(CENTER, 1e11), 0.0, 1e-3, math.nan),
         "scan_step_m"),
        (lambda: two_path_efficiency(TWO_100G, math.nan), "delay_s"),
        (lambda: wdm_link_run(TWO_100G, math.inf), "delay_s"),
    ], ids=["band", "scan", "two-path-delay", "link-delay"])
    def test_nan_scalar_names_the_argument(self, call, name):
        with pytest.raises(ParameterError, match=name):
            call()

    @pytest.mark.parametrize("call, name", [
        (lambda: OpticalSpectrum.rectangular_wavelength(0.0, 16e-9), "center_m"),
        (lambda: OpticalSpectrum.rectangular_wavelength("1", 16e-9), "center_m"),
        (lambda: OpticalSpectrum.rectangular_wavelength(True, 16e-9), "center_m"),
        (lambda: OpticalSpectrum.rectangular_wavelength(1560e-9, math.nan), "width_m"),
        (lambda: OpticalSpectrum.rectangular_wavelength(1560e-9, -1e-9), "width_m"),
        (lambda: OpticalSpectrum.two_lines(-CENTER, 1e11), "center_hz"),
        (lambda: OpticalSpectrum.two_lines(math.inf, 1e11), "center_hz"),
        (lambda: OpticalSpectrum.two_lines(CENTER, "1"), "spacing_hz"),
        (lambda: OpticalSpectrum.two_lines(CENTER, True), "spacing_hz"),
        (lambda: OpticalSpectrum.two_lines(CENTER, -1e11), "spacing_hz"),
        (lambda: OpticalSpectrum.rectangular_wavelength(1e200, 1e-9), "center_m"),
        (lambda: OpticalSpectrum.rectangular_wavelength(1e-300, 1e-9), "center_m"),
        (lambda: OpticalSpectrum.two_lines(1.9e14, 1e39), "spacing_hz"),
        (lambda: OpticalSpectrum.two_lines(1.9e14, 3.8e14), "spacing_hz"),
    ], ids=["zero-center", "string-center", "bool-center", "nan-width", "negative-width",
            "negative-center", "infinite-center", "string-spacing", "bool-spacing",
            "negative-spacing", "center-squared-overflows", "center-squared-underflows",
            "spacing-far-beyond-center", "lower-line-at-zero"])
    def test_named_constructor_argument_checked_first(self, call, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=f"^{name}: "):
                call()

    def test_per_line_needs_lines(self):
        band = OpticalSpectrum(band_center_hz=CENTER, band_width_hz=1e12)
        with pytest.raises(ParameterError, match="discrete-line"):
            wdm_link_run(band, 1e-12)
