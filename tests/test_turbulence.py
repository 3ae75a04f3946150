import itertools
import math
import re
import sys
import threading
import types
import warnings

import numpy as np
import pytest

from fsolink import field, turbulence
from fsolink._streams import substream
from fsolink.errors import ParameterError
from fsolink.field import (ComplexFieldGrid, GridSpec, angular_spectrum_propagate,
                           apply_aperture, total_power)
from fsolink.modes import ModeBasis, decompose, smf_coupling_efficiency
from fsolink.turbulence import (
    AtmosphereProfile,
    PhaseScreen,
    TurbulenceLayer,
    _psd_cyclic,
    _SpectralScreen,
    _SpectralTemplate,
    _phase_factor,
    _spectral_template,
    build_time_series,
    default_profile,
    kolmogorov_structure_function,
    measure_structure_function,
    synth_phase_screen,
)
from oracles import plane_wave


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


def drawn_coefficients(n, spacing_m, r0_m, L0_m, l0_m, rng):
    """The DFT lattice coefficients _SpectralScreen draws, with no augmentation
    rings: the first draws of its generator, in fftfreq order."""
    f = np.fft.fftfreq(n, d=spacing_m)
    psd = _psd_cyclic(f[None, :], f[:, None], r0_m, L0_m, l0_m)
    psd[0, 0] = 0.0
    noise = rng.standard_normal((2, n, n))
    return (noise[0] + 1j * noise[1]) * np.sqrt(psd) / (n * spacing_m), f


def full_grid_screen_state(n, spacing_m, r0_m, L0_m, l0_m, rng, subharmonic_levels):
    """Reference: a screen's state as a constructor with no shared template
    builds it: the PSD over the whole lattice per screen, the mirror by
    rolling the whole reversed grid, and each augmentation cell integrated
    and drawn in its own loop step."""
    df = 1.0 / (n * spacing_m)
    f1 = np.fft.fftfreq(n, d=spacing_m)
    psd = np.zeros((n, n)) if math.isinf(r0_m) else _psd_cyclic(f1[None, :], f1[:, None],
                                                                 r0_m, L0_m, l0_m)
    psd[0, 0] = 0.0
    if subharmonic_levels > 0:
        psd[np.ix_((-1, 0, 1), (-1, 0, 1))] = 0.0
    noise = rng.standard_normal((2, n, n))
    coeff = (noise[0] + 1j * noise[1]) * np.sqrt(psd) * df
    h = n // 2
    mirror = np.roll(coeff[::-1, ::-1], 1, axis=(0, 1)).conj()
    sign = np.where((np.arange(n)[:, None] + np.arange(h + 1)) % 2, -0.5, 0.5)
    state = {
        "_half": (coeff[:, : h + 1] + mirror[:, : h + 1]) * sign,
        "_nyq_row": (coeff[h, : h + 1] * sign[h], mirror[h, : h + 1] * sign[h]),
        "_nyq_col": (coeff[:, h] * sign[:, h], mirror[:, h] * sign[:, h]),
        "_f1": f1, "n": n, "spacing_m": spacing_m,
    }
    sub_f, sub_c = [], []
    for level in range(subharmonic_levels if not math.isinf(r0_m) else 0):
        width = df / 3.0**level
        for iy in (-1, 0, 1):
            for ix in (-1, 0, 1):
                if ix == 0 and iy == 0:
                    continue
                q = ((np.arange(17) + 0.5) / 17 - 0.5) * width
                gx, gy = np.meshgrid(ix * width + q, iy * width + q, indexing="ij")
                p = _psd_cyclic(gx, gy, r0_m, L0_m, l0_m)
                power = p.mean() * width * width
                f_rms = math.sqrt(float((p * (gx**2 + gy**2)).mean() / p.mean()))
                direction = math.atan2(iy, ix)
                sub_f.append((f_rms * math.cos(direction), f_rms * math.sin(direction)))
                g = rng.standard_normal(2)
                sub_c.append((g[0] + 1j * g[1]) * math.sqrt(power))
    state["_sub_f"] = np.asarray(sub_f, dtype=np.float64).reshape(-1, 2)
    state["_sub_c"] = np.asarray(sub_c, dtype=np.complex128)
    x = (np.arange(n) - h) * spacing_m
    cx = np.exp(2j * np.pi * np.outer(x, state["_sub_f"][:, 0]))
    state["_sub_cx"] = np.concatenate([cx.real, -cx.imag], axis=1)
    state["_sub_cy"] = np.exp(2j * np.pi * np.outer(x, state["_sub_f"][:, 1]))
    return state


class TestSpectralTemplate:
    @pytest.mark.parametrize("r0_m", [0.1, math.inf])
    @pytest.mark.parametrize("levels", [0, 3, 9])
    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_screens_match_full_grid_constructor(self, n, levels, r0_m):
        # one template serves several screens, each the same bits as a
        # screen built from scratch on its own substream
        template = _SpectralTemplate(n, 1.0 / n, r0_m, 25.0, 5e-3, levels)
        for layer in range(3):
            screen = _SpectralScreen(template, substream(9, "layer", layer))
            state = full_grid_screen_state(n, 1.0 / n, r0_m, 25.0, 5e-3,
                                           substream(9, "layer", layer), levels)
            reference = object.__new__(_SpectralScreen)
            reference.__dict__.update(state)
            for name in ("_half", "_sub_f", "_sub_c"):
                a, b = getattr(screen, name), state[name]
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            for name in ("_nyq_row", "_nyq_col"):
                for a, b in zip(getattr(screen, name), state[name]):
                    assert a.tobytes() == b.tobytes(), name
            for shift in [(0.0, 0.0), (0.0137, -0.402), (3.3, 1.9)]:
                assert screen.phase_at(shift).tobytes() == reference.phase_at(shift).tobytes()

    GOOD = (64, 1.0 / 64, 0.1, 25.0, 5e-3, 1)

    def test_cache_returns_one_template_per_parameter_set(self):
        template = _spectral_template(*self.GOOD)
        assert _spectral_template(*self.GOOD) is template
        assert _spectral_template(64, 1.0 / 64, 0.1, 25.0, 5e-3, 2) is not template

    @pytest.mark.parametrize("position, bad, name", [
        (5, True, "subharmonic_levels"), (5, 1.0, "subharmonic_levels"),
        (0, True, "n"), (0, 64.0, "n")])
    def test_cache_does_not_confuse_equal_keys_of_another_type(self, position, bad, name):
        # True == 1 and 1.0 == 1 hash alike; the arguments are checked before
        # the cache is consulted, so neither finds the template of a valid one
        _spectral_template(*self.GOOD)
        args = list(self.GOOD)
        args[position] = bad
        with pytest.raises(ParameterError, match=f"^{name}: expected a"):
            _spectral_template(*args)

    NAMES = ("n", "spacing_m", "r0_m", "L0_m", "l0_m", "subharmonic_levels")

    @pytest.mark.parametrize("bad", [math.nan, -1.0, 0.0, "1", None, [1], np.array(1.0)])
    @pytest.mark.parametrize("position", range(6))
    def test_cache_keeps_every_argument_error(self, position, bad):
        _spectral_template(*self.GOOD)  # a warm cache answers no bad argument
        size = turbulence._cached_template.cache_info().currsize
        args = list(self.GOOD)
        args[position] = bad
        with pytest.raises(ParameterError, match=f"^{self.NAMES[position]}: "):
            _spectral_template(*args)
        assert turbulence._cached_template.cache_info().currsize == size

    def test_screens_and_series_share_the_cached_template(self, grid64):
        turbulence._cached_template.cache_clear()
        for seed in (1, 2):
            synth_phase_screen(64, 1.0 / 64, 0.1, seed=seed, subharmonic_levels=3)
        list(build_time_series(default_profile(), grid64, n_frames=1, seed=1))
        list(build_time_series(default_profile(), grid64, n_frames=1, seed=2))
        info = turbulence._cached_template.cache_info()
        assert (info.misses, info.hits) == (2, 2)

    def test_cells_whose_power_underflows_sit_at_their_centres(self):
        # r0^(-5/3) underflows to zero: no cell carries power, none divides by it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            template = _SpectralTemplate(16, 1.0 / 16, 1e300, 25.0, 5e-3, 2)
        assert not template.sub_amp.any()
        centres = [(ix / 3**level, iy / 3**level)  # df = 1 / (16 * 1/16) = 1
                   for level in range(2) for iy in (-1, 0, 1) for ix in (-1, 0, 1) if ix or iy]
        np.testing.assert_allclose(template.sub_f, centres, rtol=1e-15, atol=1e-15)

    def test_template_tables_are_read_only(self):
        template = _SpectralTemplate(16, 1.0 / 16, 0.1, 25.0, 5e-3, 3)
        for table in (template.f1, template.amp, template.sign, template.sub_f,
                      template.sub_amp, template.sub_cx, template.sub_cy):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0


class TestFrozenFlow:
    @pytest.mark.parametrize("shift", [(0.0, 0.0), (0.0137, -0.402), (3.3, 1.9)])
    def test_render_matches_full_grid_ramp(self, shift):
        # reference: the full complex lattice times the 2-D translation ramp
        # through ifft2, plus the subharmonic tables evaluated at render time
        gen = _SpectralScreen(_SpectralTemplate(128, 1 / 128, 0.1, 25.0, 5e-3, 3),
                              np.random.default_rng(5))
        coeff, f = drawn_coefficients(128, 1 / 128, 0.1, 25.0, 5e-3, np.random.default_rng(5))
        coeff[np.ix_((-1, 0, 1), (-1, 0, 1))] = 0.0  # handed to the augmentation rings
        sx, sy = shift
        ramp = np.exp(-2j * np.pi * (f[None, :] * sx + f[:, None] * sy))
        ref = np.fft.fftshift(np.fft.ifft2(coeff * ramp).real) * gen.n**2
        x = (np.arange(gen.n) - gen.n // 2) * gen.spacing_m
        cx = np.exp(2j * np.pi * np.outer(x, gen._sub_f[:, 0]))
        cy = np.exp(2j * np.pi * np.outer(x, gen._sub_f[:, 1]))
        amp = gen._sub_c * np.exp(-2j * np.pi * (gen._sub_f[:, 0] * sx + gen._sub_f[:, 1] * sy))
        ref += ((cy * amp) @ cx.T).real
        out = gen.phase_at(shift)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("shift", [(0.0, 0.0), (0.0213, -0.0371), (-0.4444, 0.9876)])
    def test_render_matches_direct_dft(self, shift):
        # oracle: Re sum_k C_k exp(2 pi i f_k . (x - s)) summed pixel by pixel
        # over the fftfreq lattice, whose Nyquist row and column have no
        # mirror; fractional-pixel shifts on a 16 grid
        n, dx = 16, 0.05
        args = (0.1, 25.0, 5e-3)
        gen = _SpectralScreen(_SpectralTemplate(n, dx, *args, 0), substream(3, "phase-screen"))
        coeff, f = drawn_coefficients(n, dx, *args, rng=substream(3, "phase-screen"))
        x = (np.arange(n) - n // 2) * dx
        sx, sy = shift
        wave_x = np.exp(2j * np.pi * np.outer(f, x - sx))  # (kx, x)
        wave_y = np.exp(2j * np.pi * np.outer(f, x - sy))  # (ky, y)
        ref = np.empty((n, n))
        for iy in range(n):
            for ix in range(n):
                ref[iy, ix] = np.sum(coeff * np.outer(wave_y[:, iy], wave_x[:, ix])).real
        out = gen.phase_at(shift)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.sqrt(np.mean(ref**2))


class TestPhaseFactor:
    """The half-angle form of exp(i phi) against numpy's complex exp."""

    @staticmethod
    def check(phi):
        phi = np.asarray(phi, dtype=np.float64)
        factor = _phase_factor(phi.copy())
        assert np.abs(factor - np.exp(1j * phi)).max() <= 4.5e-16
        assert np.abs(np.abs(factor) - 1.0).max() <= 4.5e-16
        return factor

    def test_signed_zero_keeps_the_sign_of_the_imaginary_part(self):
        factor = self.check([0.0, -0.0])
        assert factor.real.tolist() == [1.0, 1.0] and not np.signbit(factor.real).any()
        assert np.signbit(factor.imag).tolist() == [False, True]

    def test_multiples_of_pi_where_the_tangent_is_largest(self):
        self.check(np.pi * np.arange(-41.0, 42.0))

    @pytest.mark.parametrize("phi", [1e-300, -1e-300, 1e5, -1e5])
    def test_tiny_and_large_phases(self, phi):
        self.check([phi])

    @pytest.mark.parametrize("rms", [1.0, 10.0, 100.0])
    def test_random_phases(self, rms):
        self.check(np.random.default_rng(int(rms)).standard_normal((256, 256)) * rms)


class TestAtmosphereProfile:
    def test_layer_r0_composition(self):
        profile = default_profile(total_r0_m=0.077)
        total = len(profile.layers) * profile.layer_r0_m ** (-5.0 / 3.0)
        assert abs(total - 0.077 ** (-5.0 / 3.0)) / total < 1e-12

    def test_hand_built_layers_share_cn2_equally(self):
        profile = AtmosphereProfile(layers=[TurbulenceLayer(500.0)] * 4, total_r0_m=0.1)
        assert profile.layer_r0_m == 0.1 * 0.25 ** (-3.0 / 5.0)
        assert AtmosphereProfile((TurbulenceLayer(1.0),), math.inf).layer_r0_m == math.inf
        with pytest.raises(ParameterError, match="layer"):
            AtmosphereProfile(layers=(), total_r0_m=0.1)

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

    @pytest.mark.parametrize("call, name", [
        (lambda: default_profile(total_r0_m=math.nan), "total_r0_m"),
        (lambda: default_profile(wind_speed_mps=math.nan), "wind_speed_mps"),
        (lambda: default_profile(elevation_deg=math.nan), "elevation_deg"),
        (lambda: default_profile(subharmonic_levels=-2), "subharmonic_levels"),
        (lambda: default_profile(top_altitude_m=0.0), "top_altitude_m"),
        (lambda: synth_phase_screen(64, 0.01, 0.1, l0_m=0.0), "l0_m"),
        (lambda: synth_phase_screen(64, 0.01, 0.1, L0_m=1e-3, l0_m=5e-3), "l0_m"),
        (lambda: synth_phase_screen(64, 0.01, 0.1, subharmonic_levels=-1), "subharmonic_levels"),
    ], ids=["total_r0_m", "wind_speed_mps", "elevation_deg", "subharmonic_levels",
            "top_altitude_m", "screen-inner-scale", "screen-scales-swapped",
            "screen-subharmonic_levels"])
    def test_nan_default_profile_argument_named(self, call, name):
        with pytest.raises(ParameterError, match=name):
            call()

    @pytest.mark.parametrize("call, name", [
        (lambda: TurbulenceLayer(-1.0), "distance_to_next_m"),
        (lambda: TurbulenceLayer(math.inf), "distance_to_next_m"),
        (lambda: TurbulenceLayer(50.0, math.nan), "wind_azimuth_deg"),
        (lambda: TurbulenceLayer(50.0, math.inf), "wind_azimuth_deg"),
        (lambda: TurbulenceLayer(50.0, "10"), "wind_azimuth_deg"),
        (lambda: TurbulenceLayer(50.0, True), "wind_azimuth_deg"),
        (lambda: AtmosphereProfile(layers=[1, 2], total_r0_m=0.1), "layers"),
        (lambda: AtmosphereProfile(layers=[TurbulenceLayer(50.0), {"distance_to_next_m": 1.0}],
                                   total_r0_m=0.1), "layers"),
        (lambda: AtmosphereProfile(layers=5, total_r0_m=0.1), "layers"),
    ], ids=["negative-distance", "infinite-distance", "nan-azimuth", "infinite-azimuth",
            "string-azimuth", "bool-azimuth", "int-layers", "dict-layer", "non-iterable-layers"])
    def test_layer_fault_named_where_it_is_built(self, call, name):
        with pytest.raises(ParameterError, match=f"^{name}: "):
            call()

    @pytest.mark.parametrize("call", [
        lambda: synth_phase_screen(64, 0.01, 1e-200),
        lambda: next(build_time_series(default_profile(total_r0_m=1e-200), GridSpec(64, 0.64))),
        lambda: kolmogorov_structure_function([0.1], 1e-200),
    ], ids=["screen", "series", "structure-function"])
    def test_fried_parameter_whose_psd_scale_overflows_named(self, call):
        # r0^(-5/3) overflows below about 1.1e-185 m
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ParameterError, match="^r0_m: "):
                call()
        assert np.isfinite(kolmogorov_structure_function([0.1], 1e-180)).all()

    @pytest.mark.parametrize("call", [
        lambda: synth_phase_screen(64, 0.01, 1e-184),
        lambda: synth_phase_screen(64, 0.01, 0.1, L0_m=1e90),
        lambda: next(build_time_series(default_profile(outer_scale_m=1e90), GridSpec(64, 0.64))),
        # a finite peak of about 1.3e306 whose 17 x 17 cell sums overflow
        lambda: synth_phase_screen(64, 0.01, 1e-184, L0_m=2.0, subharmonic_levels=3),
    ], ids=["screen-r0", "screen-L0", "series-L0", "screen-cell-sum"])
    def test_psd_peak_that_overflows_named(self, call):
        # r0^(-5/3) alone is finite here; 0.023 r0^(-5/3) L0^(11/3) is not,
        # or is too large to sum over an augmentation cell
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ParameterError, match="^r0_m, L0_m: "):
                call()
            synth_phase_screen(64, 0.01, 0.1, L0_m=1e83)
            # no turbulence has no PSD, so any outer scale is accepted
            assert not synth_phase_screen(64, 0.01, math.inf, L0_m=1e90).phase.any()


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

    def test_wind_speed_bound_is_the_float_range_of_the_translation_phase(self):
        # the largest accepted wind speed renders finite frames with no
        # RuntimeWarning (an error under this suite); the next float up is
        # rejected before a screen is drawn
        grid = GridSpec(64, 1.0, 1.55e-6)

        def frames(wind, n_frames=3):
            return build_time_series(default_profile(wind_speed_mps=wind), grid=grid,
                                     n_frames=n_frames, frame_rate_hz=1.0, seed=1)

        lo, hi = 1e300, 1e308
        while math.nextafter(lo, math.inf) < hi:
            mid = (lo + hi) / 2
            try:
                next(frames(mid))
                lo = mid
            except ParameterError:
                hi = mid
        # 2 pi / (2 dx) times the last frame's shift, 2 s of wind at azimuth 0
        assert lo == pytest.approx(sys.float_info.max / (2 * math.pi * 32.0 * 2.0), rel=1e-12)
        assert all(np.isfinite(f.samples).all() for f in frames(lo))
        with pytest.raises(ParameterError, match="wind_speed_mps"):
            next(frames(hi))
        with pytest.raises(ParameterError, match="wind_speed_mps"):
            next(frames(1e307))
        next(frames(1e307, n_frames=1))  # a single frame is never shifted


def sequential_time_series(profile, grid, n_frames, frame_rate_hz, seed,
                           rx_aperture_m=0.5, absorb_edges=False):
    """Reference: the series rendered and applied on the calling thread,
    layer by layer from the plane wave, with the product written as the
    half-angle form of exp(i phase) times the samples, and every screen
    drawn up front over a template of its own."""
    tx = plane_wave(grid)
    gens = [
        _SpectralScreen(
            _SpectralTemplate(tx.n, tx.spacing_m, profile.layer_r0_m, profile.outer_scale_m,
                              profile.inner_scale_m, profile.subharmonic_levels),
            substream(seed, "layer", i),
        )
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
            tan = np.tan(screen.phase / 2)
            factor = np.empty(tan.shape, dtype=np.complex128)
            factor.real = (1 - tan * tan) / (1 + tan * tan)
            factor.imag = 2 * tan / (1 + tan * tan)
            u = ComplexFieldGrid(factor * u.samples, u.extent_m, u.wavelength_m)
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

    @pytest.mark.parametrize("absorb_edges", [False, True])
    @pytest.mark.parametrize("layers", ["default", "one layer", "zero first step"])
    def test_frames_match_sequential_loop_for_each_first_step(
            self, grid64, layers, absorb_edges):
        # with one layer the first step is the only one, and a zero step
        # only absorbs the edges, or does nothing
        if layers == "default":
            profile = default_profile()
        elif layers == "one layer":
            profile = default_profile(n_layers=1)
        else:
            profile = AtmosphereProfile((TurbulenceLayer(0.0, 30.0), TurbulenceLayer(800.0, 120.0)),
                                        total_r0_m=0.22)
        args = (profile, grid64, 4, 1500.0, 4)
        threaded = list(build_time_series(*args, absorb_edges=absorb_edges))
        reference = list(sequential_time_series(*args, absorb_edges=absorb_edges))
        assert [f.samples.tobytes() for f in threaded] == [f.samples.tobytes() for f in reference]

    @pytest.mark.parametrize("n_layers", [1, 5])
    def test_each_first_step_is_taken_on_the_worker(self, grid64, monkeypatch, n_layers):
        # on every CPU, whatever numpy's tan dispatch: the worker takes each
        # frame's first step and the calling thread the others, all in place
        # in the factors' memory, and the frame is the last step's array
        caller = threading.get_ident()
        worker, calling = [], []

        def step(u, *args, **kwargs):
            out = real_step(u, *args, **kwargs)
            on_worker = threading.get_ident() != caller
            (worker if on_worker else calling).append((on_worker, kwargs.get("in_place"), out))
            return out

        real_step = turbulence._propagation_step
        monkeypatch.setattr(turbulence, "_propagation_step", step)
        frames = []
        for frame in build_time_series(default_profile(n_layers=n_layers), grid64, 3, seed=4):
            frames.append((frame, calling[:]))
            calling.clear()
        assert len(frames) == 3 and len(worker) == 3  # the worker renders no frame beyond the last
        for (frame, steps), first in zip(frames, worker):
            steps = [first] + steps  # the worker takes its steps in frame order
            assert [s[:2] for s in steps] == [(True, True)] + [(False, True)] * (n_layers - 1)
            assert np.shares_memory(frame.samples, steps[-1][2])

    def test_each_over_long_step_warns_once_per_frame(self):
        # the first step, taken on the worker, warns from the calling thread
        grid = GridSpec(64, 0.2, 1.55e-6)
        profile = default_profile()
        bound = grid.n * grid.spacing_m**2 / grid.wavelength_m
        over_long = sum(layer.distance_to_next_m > bound for layer in profile.layers)
        assert profile.layers[0].distance_to_next_m > bound and over_long < len(profile.layers)
        counts = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in build_time_series(profile, grid, n_frames=3, seed=4, rx_aperture_m=0.1):
                counts.append(sum("sampling bound violated" in str(w.message) for w in caught))
                caught.clear()
        assert counts == [over_long] * 3

    @pytest.mark.parametrize("n, extent_m, wavelength_m", [
        (48, 1.0, 1.55e-6), (64, 0.0, 1.55e-6), (64, 1.0, -1.0)])
    def test_bad_grid_geometry_raises_parameter_error(self, n, extent_m, wavelength_m):
        grid = types.SimpleNamespace(n=n, extent_m=extent_m, wavelength_m=wavelength_m)
        with pytest.raises(ParameterError):
            next(build_time_series(default_profile(), grid, n_frames=1))

    def test_two_series_at_once_give_the_frames_of_two_sequential_runs(self, grid64):
        # from a cold cache, so both threads may build the template at once
        turbulence._cached_template.cache_clear()
        barrier = threading.Barrier(2)
        frames = {}

        def run(seed):
            barrier.wait()
            frames[seed] = [f.samples.tobytes() for f in
                            build_time_series(default_profile(), grid64, 4, 1500.0, seed)]

        threads = [threading.Thread(target=run, args=(seed,)) for seed in (4, 5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for seed in (4, 5):
            alone = sequential_time_series(default_profile(), grid64, 4, 1500.0, seed)
            assert frames[seed] == [f.samples.tobytes() for f in alone]

    def test_no_frames_draw_no_screen_and_start_no_thread(self, grid64, monkeypatch):
        drawn = []
        draw = _SpectralScreen.__init__

        def counted(screen, template, rng):
            drawn.append(threading.get_ident())
            draw(screen, template, rng)

        monkeypatch.setattr(_SpectralScreen, "__init__", counted)
        before = threading.active_count()
        assert list(build_time_series(default_profile(), grid=grid64, n_frames=0, seed=4)) == []
        assert drawn == [] and threading.active_count() == before
        frames = build_time_series(default_profile(), grid=grid64, n_frames=2, seed=4)
        next(frames)
        assert drawn == [threading.get_ident()] * len(default_profile().layers)
        frames.close()

    def test_lazy_draws_survive_frequent_thread_switches(self, grid64):
        # the calling thread appends each layer's screen while the worker
        # renders the layers before it; switch threads as often as possible
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            args = (default_profile(), grid64, 3, 1500.0, 4)
            for a, b in itertools.zip_longest(build_time_series(*args),
                                              sequential_time_series(*args)):
                assert a.samples.tobytes() == b.samples.tobytes()
        finally:
            sys.setswitchinterval(interval)

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

    def test_field_chain_runs_on_the_calling_thread(self, grid64, monkeypatch):
        # in the worker's factor buffers, through none of the public field
        # operations, which perfbench/tracing.py still patches here by name
        called = []
        for name in ("angular_spectrum_propagate", "apply_aperture", "apply_phase_screen"):
            assert getattr(turbulence, name) is getattr(field, name)
            monkeypatch.setattr(turbulence, name,
                                lambda *args, _name=name, **kwargs: called.append(_name))
        frames = list(build_time_series(default_profile(), grid=grid64, n_frames=3, seed=4))
        assert len(frames) == 3 and called == []

    @pytest.mark.parametrize("diameter_m, name", [(0.0, "diameter_m"), (2.0, "exceeds grid extent")])
    def test_bad_aperture_raises_before_any_rendering(self, grid64, diameter_m, name):
        before = threading.active_count()
        for n_frames in (0, 2):
            frames = build_time_series(default_profile(), grid64, n_frames, rx_aperture_m=diameter_m)
            with pytest.raises(ParameterError, match=name):
                next(frames)
        assert threading.active_count() == before

    def test_fields_are_checked_once_where_they_enter(self, grid64, monkeypatch):
        # a series' first field is checked; every frame and analysis derives from it
        basis = ModeBasis.build(grid64, 0.5)
        checks = []
        check = ComplexFieldGrid.__post_init__

        def counted(field):
            checks.append(field)
            check(field)

        monkeypatch.setattr(ComplexFieldGrid, "__post_init__", counted)
        for frame in build_time_series(default_profile(), grid=grid64, n_frames=3, seed=4):
            decompose(frame, basis)
            smf_coupling_efficiency(frame, 0.2)
        assert len(checks) == 1

    def test_worker_error_raised_from_the_frame_that_needs_it(self, grid128, monkeypatch):
        profile = default_profile()
        render = _SpectralScreen.phase_at
        calls = itertools.count()
        faulty_call = 1 * len(profile.layers) + 2  # layer 2 of frame 1

        def phase_at(self, shift_xy=(0.0, 0.0)):
            if next(calls) == faulty_call:
                raise RuntimeError("render of layer 2, frame 1 failed")
            return render(self, shift_xy)

        monkeypatch.setattr(_SpectralScreen, "phase_at", phase_at)
        before = threading.active_count()
        frames = build_time_series(profile, grid=grid128, n_frames=6, seed=4)
        assert np.all(np.isfinite(next(frames).samples))
        with pytest.raises(RuntimeError, match="layer 2, frame 1"):
            next(frames)
        assert threading.active_count() == before
