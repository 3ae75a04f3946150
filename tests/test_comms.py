import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsolink.comms import (
    PowerTrace,
    ReceiverModel,
    ber_curve,
    ber_floor_from_phase_jumps,
    ber_instant,
    cumulated_ber,
    frame_rate_invariance_check,
    monte_carlo_cumulated_ber,
    power_penalty,
    select_windows,
    sync_loss_stats,
)
from fsolink.errors import CurveCrossingError, ParameterError

OOK = ReceiverModel(format="ook", sensitivity_dbm=-39.0)
ROP = np.linspace(-44, -30, 120)
BER = ber_instant(ROP, OOK)


class TestBerInstant:
    def test_anchor_at_sensitivity(self):
        assert abs(ber_instant(-39.0, OOK) / 1e-9 - 1) < 0.05

    def test_limit_of_vanishing_power(self):
        assert abs(ber_instant(-300.0, OOK) - 0.5) < 1e-6

    def test_floor_shows_at_high_power(self):
        model = ReceiverModel(sensitivity_dbm=-39.0, floor_duty=4e-7)
        # floor = duty / 2 = 2e-7, visible once the Gaussian term dies
        assert abs(ber_instant(-9.0, model) / 2e-7 - 1) < 0.05
        assert abs(ber_instant(0.0, model) / 2e-7 - 1) < 0.05

    def test_dpsk_is_ook_shifted_3_db(self):
        dpsk = ReceiverModel(format="dpsk", sensitivity_dbm=-39.0)
        rop = np.linspace(-46, -30, 40)
        np.testing.assert_allclose(
            ber_instant(rop, dpsk), ber_instant(rop + 3.0, OOK), rtol=1e-12
        )

    @given(st.floats(min_value=-60.0, max_value=0.0), st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=80, deadline=None)
    def test_monotone_non_increasing_in_power(self, rop, step):
        assert ber_instant(rop + step, OOK) <= ber_instant(rop, OOK) + 1e-15

    def test_bounded(self):
        model = ReceiverModel(sensitivity_dbm=-39.0, floor_duty=1e-3)
        rop = np.linspace(-80, 10, 200)
        ber = ber_instant(rop, model)
        assert np.all(ber <= 0.5) and np.all(ber >= 0.5 * 1e-3 - 1e-18)


class TestCumulatedBer:
    def test_constant_power_equals_instant(self):
        trace = PowerTrace.from_rop(np.full(10, -38.0))
        assert cumulated_ber(trace.rop_dbm, OOK) == pytest.approx(ber_instant(-38.0, OOK), rel=1e-12)

    def test_two_frame_arithmetic_mean(self):
        # frames engineered to BER 1e-3 and 1e-9 exactly, mean 5.0000005e-4
        from scipy.special import erfcinv

        def rop_for(ber):
            q = math.sqrt(2.0) * erfcinv(2 * ber)
            return -39.0 + 20 * math.log10(q / 6.0)

        trace = np.array([rop_for(1e-3), rop_for(1e-9)])
        assert cumulated_ber(trace, OOK) == pytest.approx(5.0000005e-4, rel=1e-6)

    def test_monte_carlo_oracle_within_3_sigma(self):
        rng = np.random.default_rng(10)
        rop = -39.0 + rng.uniform(-4, 3, 20)
        exact = cumulated_ber(rop, OOK)
        est, se = monte_carlo_cumulated_ber(rop, OOK, bits_per_frame=10**7, seed=3)
        assert abs(est - exact) <= 3 * se

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        rop = rng.uniform(-43, -30, 15)
        assert cumulated_ber(rop, OOK) == pytest.approx(
            cumulated_ber(rop[::-1].copy(), OOK), rel=1e-14
        )

    def test_bounded_by_extremes(self):
        rop = np.array([-42.0, -38.0, -35.0])
        c = cumulated_ber(rop, OOK)
        bers = ber_instant(rop, OOK)
        assert bers.min() <= c <= bers.max()


class TestFrameRateInvariance:
    def test_invariant_across_rates(self):
        rng = np.random.default_rng(1)
        trace = PowerTrace.from_rop(rng.uniform(-42, -30, 50), frame_rate_hz=1500.0)
        ok, dev, flagged = frame_rate_invariance_check(trace, OOK, [1500.0, 3.0, 1.0])
        assert ok and dev <= 1e-12 and not flagged

    def test_single_frame_trivially_invariant(self):
        trace = PowerTrace.from_rop([-35.0])
        ok, dev, _ = frame_rate_invariance_check(trace, OOK, [10.0, 1.0])
        assert ok and dev == 0.0

    def test_slow_loop_flagged(self):
        trace = PowerTrace.from_rop(
            np.full(5, -35.0), frame_rate_hz=1500.0, correction_bandwidth_hz=100.0
        )
        ok, _, flagged = frame_rate_invariance_check(trace, OOK, [1500.0])
        assert flagged and not ok

    @pytest.mark.parametrize("bandwidth", [math.nan, 0.0, -1.0, math.inf, True, "1"])
    def test_bad_correction_bandwidth_names_the_field(self, bandwidth):
        # a NaN bandwidth compares false against the frame rate and would
        # claim the invariance it is there to exclude
        with pytest.raises(ParameterError, match="correction_bandwidth_hz"):
            PowerTrace.from_rop(np.full(5, -35.0), frame_rate_hz=1500.0,
                                correction_bandwidth_hz=bandwidth)


class TestSyncLoss:
    def test_clean_trace_no_outage(self):
        trace = PowerTrace.from_rop(np.full(30, -30.0), frame_rate_hz=3.0)
        assert sync_loss_stats(trace, OOK) == 0.0

    def test_counting_with_zero_reacquire(self):
        # k isolated bad frames at rate F cost k/F seconds of outage
        rop = np.full(60, -30.0)
        rop[10] = rop[30] = rop[50] = -55.0  # deep fades, BER ~ 0.5
        trace = PowerTrace.from_rop(rop, frame_rate_hz=3.0)
        got = sync_loss_stats(trace, OOK, reacquire_s=0.0)
        duration = 60 / 3.0
        assert got == pytest.approx(3 / 3.0 * 60.0 / duration, rel=1e-9)

    def test_reacquire_extends_outage(self):
        rop = np.full(60, -30.0)
        rop[10] = -55.0
        trace = PowerTrace.from_rop(rop, frame_rate_hz=3.0)
        base = sync_loss_stats(trace, OOK, reacquire_s=0.0)
        extended = sync_loss_stats(trace, OOK, reacquire_s=0.1)
        assert extended == pytest.approx(base + 0.1 / 20.0 * 60.0, rel=1e-6)

    def test_short_trace_rejected(self):
        trace = PowerTrace.from_rop(np.full(5, -30.0), frame_rate_hz=1500.0)
        with pytest.raises(ParameterError):
            sync_loss_stats(trace, OOK)

    def test_one_sample_lasts_one_frame_period(self):
        # one sample at 3 Hz is 1/3 s of trace, short of 1 s like two samples
        trace = PowerTrace.from_rop([-60.0], frame_rate_hz=3.0)
        with pytest.raises(ParameterError, match="1 s of trace"):
            sync_loss_stats(trace, OOK)


class TestPowerPenalty:
    def grid_and_curve(self, shift_db=0.0):
        rop = np.linspace(-44, -30, 120)
        return rop, ber_instant(rop - shift_db, OOK)

    def test_identical_curves_zero(self):
        rop, ber = self.grid_and_curve()
        assert power_penalty((rop, ber), (rop, ber), 1e-4) == 0.0

    def test_constructed_shift_recovered(self):
        rop, ref = self.grid_and_curve()
        _, shifted = self.grid_and_curve(2.0)
        assert abs(power_penalty((rop, shifted), (rop, ref), 1e-4) - 2.0) < 0.05

    def test_non_crossing_reports_side(self):
        rop, ref = self.grid_and_curve()
        flat = np.full_like(ref, 1e-2)
        with pytest.raises(CurveCrossingError) as err:
            power_penalty((rop, flat), (rop, ref), 1e-4)
        assert err.value.side == "curve"
        with pytest.raises(CurveCrossingError) as err:
            power_penalty((rop, ref), (rop, flat), 1e-4)
        assert err.value.side == "reference"


class TestWrapFloor:
    def test_trivial_values(self):
        assert ber_floor_from_phase_jumps(0.0) == 0.0
        assert ber_floor_from_phase_jumps(4e-7) == pytest.approx(2e-7, rel=1e-12)

    def test_matches_model_asymptote(self):
        duty = 3e-6
        model = ReceiverModel(sensitivity_dbm=-39.0, floor_duty=duty)
        assert abs(
            ber_instant(-39.0 + 30.0, model) / ber_floor_from_phase_jumps(duty) - 1
        ) < 0.05

    def test_range_checked(self):
        with pytest.raises(ParameterError):
            ber_floor_from_phase_jumps(1.5)


def per_setpoint_ber_curve(rop_grid_dbm, model, efficiency_db):
    """Reference: the former per-setpoint loop, one ber_instant call and one
    mean over the frames for each setpoint."""
    grid = np.asarray(rop_grid_dbm, dtype=np.float64)
    eta = np.asarray(efficiency_db, dtype=np.float64)
    eta = eta - np.mean(eta)
    return np.array([float(np.mean(ber_instant(r + eta, model))) for r in grid])


def per_window_select(efficiency_db, window_len, stride):
    """Reference: the former per-window loop of select_windows."""
    eff = np.asarray(efficiency_db, dtype=np.float64)
    if eff.size <= window_len:
        return {"best": (0, eff.size), "worst": (0, eff.size)}
    starts = range(0, eff.size - window_len + 1, stride)
    spans = [np.ptp(eff[s : s + window_len]) for s in starts]
    best = starts[int(np.argmin(spans))]
    worst = starts[int(np.argmax(spans))]
    return {"best": (best, best + window_len), "worst": (worst, worst + window_len)}


class TestBerCurve:
    # frame counts on both sides of numpy's pairwise-summation blocks (8, 128)
    @pytest.mark.parametrize("n_frames", [1, 3, 8, 9, 127, 128, 129, 4097])
    @pytest.mark.parametrize("fmt", ["ook", "dpsk"])
    @pytest.mark.parametrize("duty", [0.0, 1e-3])
    def test_one_pass_matches_the_per_setpoint_loop(self, n_frames, fmt, duty):
        model = ReceiverModel(format=fmt, sensitivity_dbm=-39.0, floor_duty=duty)
        rng = np.random.default_rng(n_frames)
        eta_db = rng.normal(-3.0, 2.5, n_frames)
        rop = np.arange(-45.0, -15.0 + 0.25, 0.5)  # the scenario's default sweep
        got = ber_curve(rop, model, efficiency_db=eta_db)
        assert got.tobytes() == per_setpoint_ber_curve(rop, model, eta_db).tobytes()

    def test_fading_curve_lies_above_static(self):
        rng = np.random.default_rng(2)
        eta_db = rng.normal(0.0, 2.0, 200)
        rop = np.linspace(-44, -26, 40)
        curve = ber_curve(rop, OOK, efficiency_db=eta_db)
        static = ber_instant(rop, OOK)
        # Jensen: averaging a convex BER-vs-dB curve over fades costs power
        mid = slice(5, 30)
        assert np.all(curve[mid] >= static[mid])


@pytest.mark.parametrize("call, name", [
    (lambda: ReceiverModel(sensitivity_dbm="x"), "sensitivity_dbm"),
    (lambda: sync_loss_stats(PowerTrace.from_rop(np.full(5, -30.0), frame_rate_hz=3.0), OOK,
                             reacquire_s=math.nan), "reacquire_s"),
    (lambda: select_windows(np.zeros(50), math.nan, 1), "window_len"),
    (lambda: PowerTrace.from_rop(np.full(5, -30.0), frame_rate_hz=0.0), "frame_rate_hz"),
    (lambda: power_penalty((ROP, BER), (ROP, BER), 0.0), "target_ber"),
    (lambda: monte_carlo_cumulated_ber(np.full(3, -38.0), OOK, bits_per_frame=0),
     "bits_per_frame"),
], ids=["sensitivity", "reacquire", "window", "frame-rate", "target_ber", "bits_per_frame"])
def test_bad_scalar_names_the_argument(call, name):
    with pytest.raises(ParameterError, match=name):
        call()


class TestSelectWindows:
    def test_flat_and_fading_stretches(self):
        # frames 0-39 flat, 40-79 fading by up to 9 dB, 80-119 mildly fading
        eff_db = np.concatenate([np.full(40, -3.0), -3.0 - 9.0 * np.abs(np.sin(np.arange(40))),
                                 -3.0 - 0.5 * np.abs(np.sin(np.arange(40)))])
        windows = select_windows(eff_db, 20, 10)
        assert windows["best"] == (0, 20)  # first of the tied flat windows
        assert 20 < windows["worst"][0] < 80 and windows["worst"][1] - windows["worst"][0] == 20

    def test_short_trace_is_one_window(self):
        assert select_windows(np.zeros(5), 5, 1) == {"best": (0, 5), "worst": (0, 5)}

    @pytest.mark.parametrize("trace", ["random", "tied", "flat"])
    def test_one_pass_matches_the_per_window_loop(self, trace):
        rng = np.random.default_rng(5)
        eff_db = {"random": rng.normal(-6.0, 2.0, 200),
                  # a few levels, so many windows share their span
                  "tied": rng.integers(-3, 1, 200).astype(np.float64),
                  "flat": np.full(200, -4.0)}[trace]
        for window_len in (3, 17, 60, 199, 200, 250):
            for stride in range(1, 31):
                assert select_windows(eff_db, window_len, stride) == \
                    per_window_select(eff_db, window_len, stride), (window_len, stride)

    def test_rejects_empty_stride(self):
        with pytest.raises(ParameterError):
            select_windows(np.zeros(50), 10, 0)
