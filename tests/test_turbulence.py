import itertools
import math
import threading

import numpy as np
import pytest

from fsolink._streams import substream
from fsolink.errors import ParameterError
from fsolink.field import angular_spectrum_propagate, apply_aperture, plane_wave, total_power
from fsolink.turbulence import (
    AtmosphereProfile,
    PhaseScreen,
    TurbulenceLayer,
    _psd_cyclic,
    _SpectralScreen,
    build_time_series,
    default_profile,
    kolmogorov_structure_function,
    measure_structure_function,
    synth_phase_screen,
)


class TestVonKarmanPsd:
    # the synthesis spectrum, in cyclic frequency f = kappa / (2 pi)
    def test_kolmogorov_power_law_in_limit(self):
        # slope check with the outer/inner cutoffs pushed out of the way
        ratio = _psd_cyclic(20.0, 0.0, 0.1, 1e9, 1e-9) / _psd_cyclic(10.0, 0.0, 0.1, 1e9, 1e-9)
        assert abs(ratio / 2 ** (-11.0 / 3.0) - 1) < 1e-6

    def test_outer_scale_saturation_at_zero(self):
        r0, L0 = 0.077, 25.0
        value = _psd_cyclic(0.0, 0.0, r0, L0, 5e-3)
        expected = 0.023 * r0 ** (-5 / 3) * (1.0 / L0) ** (-11.0 / 3.0)
        assert abs(value / expected - 1) < 1e-12

    def test_midband_value_against_direct_evaluation(self):
        # independent scalar evaluation of the closed form, |f| = 10 cycles/m
        r0, L0, l0, fx, fy = 0.077, 25.0, 5e-3, 6.0, 8.0
        f0 = 1.0 / L0
        fm = 5.92 / (2 * math.pi * l0)
        expected = (
            0.023 * r0 ** (-5.0 / 3.0)
            * (fx**2 + fy**2 + f0**2) ** (-11.0 / 6.0)
            * math.exp(-(fx**2 + fy**2) / fm**2)
        )
        assert abs(_psd_cyclic(fx, fy, r0, L0, l0) / expected - 1) < 1e-12

    def test_positive_and_finite(self):
        f = np.geomspace(1e-3, 1e4, 50) / (2 * math.pi)
        vals = _psd_cyclic(f, 0.0, 0.077, 25.0, 5e-3)
        assert np.all(vals > 0) and np.all(np.isfinite(vals))


class TestScreenSynthesis:
    def test_same_seed_bit_identical(self):
        a = synth_phase_screen(128, 1 / 128, 0.1, seed=11, subharmonic_levels=3)
        b = synth_phase_screen(128, 1 / 128, 0.1, seed=11, subharmonic_levels=3)
        np.testing.assert_array_equal(a.phase, b.phase)

    def test_different_seed_differs(self):
        a = synth_phase_screen(128, 1 / 128, 0.1, seed=11)
        b = synth_phase_screen(128, 1 / 128, 0.1, seed=12)
        assert not np.array_equal(a.phase, b.phase)

    def test_structure_function_matches_inertial_range(self):
        # oracle: ensemble structure function vs 6.88 (r/r0)^(5/3); the
        # near-Kolmogorov regime needs a huge outer scale and deep
        # augmentation, as in the acceptance run but on a smaller grid
        n, r0 = 256, 0.077
        screens = (
            synth_phase_screen(n, 1.0 / n, r0, 1e5, 1e-3, seed=s, subharmonic_levels=9).phase
            for s in range(60)
        )
        lags = np.unique(np.round(np.geomspace(4, n // 4, 8)).astype(int))
        r, d = measure_structure_function(screens, 1.0 / n, lags)
        np.testing.assert_allclose(d, kolmogorov_structure_function(r, r0), rtol=0.10)

    def test_structure_function_scales_with_r0(self):
        n = 128
        lags = np.array([4, 8, 16])

        def ensemble_d(r0):
            screens = (
                synth_phase_screen(n, 1.0 / n, r0, 1e5, 1e-3, seed=s, subharmonic_levels=8).phase
                for s in range(50)
            )
            return measure_structure_function(screens, 1.0 / n, lags)[1]

        ratio = ensemble_d(0.05) / ensemble_d(0.10)
        np.testing.assert_allclose(ratio, 2 ** (5.0 / 3.0), rtol=0.10)

    def test_zero_mean_within_statistical_tolerance(self):
        screen = synth_phase_screen(256, 1 / 256, 0.077, seed=5, subharmonic_levels=3)
        assert abs(screen.phase.mean()) < 0.2 * screen.phase.std()

    def test_undersampled_r0_warns(self):
        with pytest.warns(RuntimeWarning, match="fewer than 4 samples"):
            synth_phase_screen(64, 0.01, 0.02, seed=0)


class TestFrozenFlow:
    @pytest.mark.parametrize("shift", [(0.0, 0.0), (0.0137, -0.402), (3.3, 1.9)])
    def test_render_matches_full_grid_ramp(self, shift):
        # reference: the 2-D translation ramp and the subharmonic tables
        # evaluated at render time
        gen = _SpectralScreen(128, 1 / 128, 0.1, 25.0, 5e-3, np.random.default_rng(5),
                              subharmonic_levels=3)
        sx, sy = shift
        f = np.fft.fftfreq(gen.n, d=gen.spacing_m)
        ramp = np.exp(-2j * np.pi * (f[None, :] * sx + f[:, None] * sy))
        ref = np.fft.fftshift(np.fft.ifft2(gen._coeff * ramp).real) * gen.n**2
        x = (np.arange(gen.n) - gen.n // 2) * gen.spacing_m
        cx = np.exp(2j * np.pi * np.outer(x, gen._sub_f[:, 0]))
        cy = np.exp(2j * np.pi * np.outer(x, gen._sub_f[:, 1]))
        amp = gen._sub_c * np.exp(-2j * np.pi * (gen._sub_f[:, 0] * sx + gen._sub_f[:, 1] * sy))
        ref += ((cy * amp) @ cx.T).real
        out = gen.phase_at(shift)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestAtmosphereProfile:
    def test_layer_r0_composition(self):
        profile = default_profile(total_r0_m=0.077)
        total = sum(profile.layer_r0_m(i) ** (-5.0 / 3.0) for i in range(len(profile.layers)))
        assert abs(total - 0.077 ** (-5.0 / 3.0)) / total < 1e-12

    def test_recombined_layer_screens_match_total_r0(self):
        # oracle: ensemble structure function of the summed layer screens
        # against the closed form at the composite Fried parameter
        n, r0_total, n_layers = 128, 0.077, 5
        r0_layer = r0_total * n_layers ** (3.0 / 5.0)
        lags = np.array([4, 8, 16, 32])

        def composite(seed):
            total = np.zeros((n, n))
            for i in range(n_layers):
                total = total + synth_phase_screen(
                    n, 1.0 / n, r0_layer, 1e5, 1e-3,
                    seed=1000 * seed + i, subharmonic_levels=8,
                ).phase
            return total

        screens = (composite(s) for s in range(50))
        r, d = measure_structure_function(screens, 1.0 / n, lags)
        np.testing.assert_allclose(d, kolmogorov_structure_function(r, r0_total), rtol=0.10)

    def test_weights_must_sum_to_one(self):
        layers = (
            TurbulenceLayer(0.7, 500.0),
            TurbulenceLayer(0.7, 500.0),
        )
        with pytest.raises(ParameterError):
            AtmosphereProfile(layers=layers, total_r0_m=0.1)


class TestTimeSeries:
    def test_zero_turbulence_frames_identical(self, grid128):
        profile = default_profile(total_r0_m=math.inf)
        frames = list(
            build_time_series(profile, grid=grid128, n_frames=3, frame_rate_hz=1500.0, seed=1)
        )
        powers = [total_power(f) for f in frames]
        np.testing.assert_array_equal(frames[0].samples, frames[1].samples)
        np.testing.assert_array_equal(frames[0].samples, frames[2].samples)
        assert abs(powers[0] - powers[2]) < 1e-12 * powers[0]

    def test_prefix_determinism(self, grid128):
        profile = default_profile()
        one = next(iter(build_time_series(profile, grid=grid128, n_frames=1,
                                          frame_rate_hz=1500.0, seed=9)))
        many = list(build_time_series(profile, grid=grid128, n_frames=4,
                                      frame_rate_hz=1500.0, seed=9))
        np.testing.assert_array_equal(one.samples, many[0].samples)

    def test_temporal_decorrelation_trend(self, grid128):
        # Greenwood-style sanity: mean field correlation falls with frame lag
        profile = default_profile()
        frames = [
            f.samples
            for f in build_time_series(profile, grid=grid128, n_frames=30,
                                       frame_rate_hz=1500.0, seed=2)
        ]
        def corr(lag):
            acc = []
            for i in range(len(frames) - lag):
                a, b = frames[i], frames[i + lag]
                acc.append(
                    abs(np.vdot(a, b)) / math.sqrt(np.vdot(a, a).real * np.vdot(b, b).real)
                )
            return np.mean(acc)

        # short lags only: the cyclic DFT part of the screens revisits
        # itself once the wind has carried a full grid extent
        values = [corr(lag) for lag in (1, 2, 4, 8, 16)]
        assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


def sequential_time_series(profile, grid, n_frames, frame_rate_hz, seed,
                           rx_aperture_m=0.5, absorb_edges=False):
    """Reference: the series rendered and applied on the calling thread,
    layer by layer, with the product written as samples * exp(i phase)."""
    tx = plane_wave(grid)
    gens = [
        _SpectralScreen(tx.n, tx.spacing_m, profile.layer_r0_m(i), profile.outer_scale_m,
                        profile.inner_scale_m, rng=substream(seed, "layer", i),
                        subharmonic_levels=profile.subharmonic_levels)
        for i in range(len(profile.layers))
    ]
    azimuths = [math.radians(lay.wind_azimuth_deg) for lay in profile.layers]
    for k in range(n_frames):
        t = k / frame_rate_hz
        u = tx
        for i, layer in enumerate(profile.layers):
            shift = (
                profile.wind_speed_mps * t * math.cos(azimuths[i]),
                profile.wind_speed_mps * t * math.sin(azimuths[i]),
            )
            screen = PhaseScreen(gens[i].phase_at(shift), tx.spacing_m)
            u = u.with_samples(u.samples * np.exp(1j * screen.phase))
            u = angular_spectrum_propagate(u, layer.distance_to_next_m, absorb_edges=absorb_edges)
        yield apply_aperture(u, rx_aperture_m)


class TestRenderingWorker:
    @pytest.mark.parametrize("absorb_edges", [False, True])
    @pytest.mark.parametrize("grid_name", ["grid64", "grid128"])
    def test_frames_match_sequential_loop(self, request, grid_name, absorb_edges):
        grid = request.getfixturevalue(grid_name)
        args = (default_profile(), grid, 6, 1500.0, 4)
        threaded = build_time_series(*args, absorb_edges=absorb_edges)
        reference = sequential_time_series(*args, absorb_edges=absorb_edges)
        for a, b in itertools.zip_longest(threaded, reference):
            assert a.samples.tobytes() == b.samples.tobytes()

    @pytest.mark.parametrize("end", ["close", "drop"])
    def test_ending_after_one_frame_joins_the_worker(self, grid128, end):
        before = threading.active_count()
        frames = build_time_series(default_profile(), grid=grid128, n_frames=6, seed=4)
        next(frames)
        assert threading.active_count() == before + 1
        if end == "close":
            frames.close()
        else:
            del frames
        assert threading.active_count() == before

    def test_worker_error_raised_from_the_frame_that_needs_it(self, grid128, monkeypatch):
        profile = default_profile()
        render = _SpectralScreen.phase_at
        calls = itertools.count()
        faulty_call = 1 * len(profile.layers) + 2  # layer 2 of frame 1

        def phase_at(self, shift_xy=(0.0, 0.0)):
            phase = render(self, shift_xy)
            if next(calls) == faulty_call:
                phase[0, 0] = np.nan
            return phase

        monkeypatch.setattr(_SpectralScreen, "phase_at", phase_at)
        before = threading.active_count()
        frames = build_time_series(profile, grid=grid128, n_frames=6, seed=4)
        assert np.all(np.isfinite(next(frames).samples))
        with pytest.raises(ParameterError, match="non-finite"):
            next(frames)
        assert threading.active_count() == before
