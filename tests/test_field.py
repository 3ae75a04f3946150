import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from fsolink.errors import DimensionError, InvalidFieldError, ParameterError
from fsolink.field import (
    ComplexFieldGrid,
    GridSpec,
    _edge_absorber,
    _gaussian_profile,
    _transfer_function,
    angular_spectrum_propagate,
    apply_aperture,
    apply_phase_screen,
    plane_wave,
    read_field_bin,
    total_power,
    uniform_disc_field,
    write_field_bin,
)
from fsolink.modes import smf_coupling_efficiency
from fsolink.turbulence import PhaseScreen
from oracles import gaussian_field

LAM = 1.55e-6


def second_moment_radius(field):
    """Beam radius from the intensity second moment: w = 2 sqrt(<x^2>)."""
    x = field.grid.coords()
    intensity = np.abs(field.samples) ** 2
    return 2.0 * math.sqrt(np.sum(intensity * x[None, :] ** 2) / np.sum(intensity))


class TestPropagation:
    def test_plane_wave_any_distance_keeps_amplitude(self, grid128):
        pw = plane_wave(grid128)
        out = angular_spectrum_propagate(pw, 250.0)
        np.testing.assert_allclose(np.abs(out.samples), 1.0, atol=1e-12)
        # global phase only: all samples share one phase
        phases = np.angle(out.samples / out.samples[0, 0])
        np.testing.assert_allclose(phases, 0.0, atol=1e-9)

    def test_zero_distance_is_bit_identical(self, random_smooth_field):
        out = angular_spectrum_propagate(random_smooth_field, 0.0)
        assert out is random_smooth_field

    def test_gaussian_width_at_rayleigh_range(self):
        w0 = 0.01
        zr = math.pi * w0**2 / LAM
        grid = GridSpec(512, 0.6, LAM)
        beam = gaussian_field(grid, w0)
        out = angular_spectrum_propagate(beam, zr)
        # oracle: analytic w(z) = w0 sqrt(1 + (z/zr)^2); measured second moment
        assert abs(second_moment_radius(out) / (w0 * math.sqrt(2.0)) - 1) < 0.01

    def test_gaussian_width_and_axis_intensity_through_two_rayleigh(self):
        w0 = 0.01
        zr = math.pi * w0**2 / LAM
        grid = GridSpec(512, 0.6, LAM)
        beam = gaussian_field(grid, w0)
        center = grid.n // 2
        i0 = abs(beam.samples[center, center]) ** 2
        for frac in (0.25, 0.5, 1.0, 1.5, 2.0):
            out = angular_spectrum_propagate(beam, frac * zr)
            w_theory = w0 * math.sqrt(1 + frac**2)
            assert abs(second_moment_radius(out) / w_theory - 1) < 0.01
            axis = abs(out.samples[center, center]) ** 2
            assert abs(axis / (i0 / (1 + frac**2)) - 1) < 0.01

    def test_power_conserved_to_1e_minus_6(self, random_smooth_field):
        p0 = total_power(random_smooth_field)
        out = angular_spectrum_propagate(random_smooth_field, 800.0)
        assert abs(total_power(out) - p0) / p0 <= 1e-6

    def test_semigroup_property(self):
        grid = GridSpec(256, 0.6, LAM)
        beam = gaussian_field(grid, 0.02)
        once = angular_spectrum_propagate(beam, 90.0)
        twice = angular_spectrum_propagate(angular_spectrum_propagate(beam, 40.0), 50.0)
        diff = total_power(ComplexFieldGrid(once.samples - twice.samples, once.extent_m, LAM))
        assert diff / total_power(once) <= 1e-6

    def test_sampling_bound_warning(self):
        grid = GridSpec(64, 0.064, LAM)
        beam = gaussian_field(grid, 0.005)
        with pytest.warns(RuntimeWarning, match="sampling bound"):
            angular_spectrum_propagate(beam, 1e4)

    def test_sampling_bound_warns_on_every_call(self):
        # the second call hits the cached transfer function and still warns
        grid = GridSpec(64, 0.064, LAM)
        beam = gaussian_field(grid, 0.005)
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="sampling bound"):
                angular_spectrum_propagate(beam, 1e4)

    def test_cached_transfer_function_is_fresh_and_read_only(self):
        args = (128, 1.0 / 128, LAM, 700.0)
        cached = _transfer_function(*args)
        again = _transfer_function(*args)
        fresh = _transfer_function.__wrapped__(*args)
        assert again is cached
        assert np.array_equal(cached, fresh)
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0

    def test_matches_shifted_reference(self, random_smooth_field):
        # reference: the transfer function applied to the ifftshift-ed field
        f = random_smooth_field
        d = 700.0
        h = _transfer_function.__wrapped__(f.n, f.spacing_m, f.wavelength_m, d)
        ref = np.fft.fftshift(np.fft.ifft2(np.fft.fft2(np.fft.ifftshift(f.samples)) * h))
        out = angular_spectrum_propagate(f, d).samples
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_negative_distance_rejected(self, grid64):
        with pytest.raises(ParameterError):
            angular_spectrum_propagate(plane_wave(grid64), -1.0)

    def test_edge_absorber_sheds_power(self, grid128):
        # documented trade: enabling the absorber breaks exact conservation
        pw = plane_wave(grid128)
        p0 = total_power(pw)
        absorbed = angular_spectrum_propagate(pw, 100.0, absorb_edges=True)
        assert total_power(absorbed) < p0 * 0.999
        plain = angular_spectrum_propagate(pw, 100.0)
        assert abs(total_power(plain) - p0) / p0 <= 1e-6

    def test_edge_absorber_cached_read_only(self):
        window = _edge_absorber(64)
        assert window is _edge_absorber(64) and not window.flags.writeable
        np.testing.assert_array_equal(window, _edge_absorber.__wrapped__(64))

    @pytest.mark.parametrize("call, name", [
        (lambda g: GridSpec(64, math.nan), "extent_m"),
        (lambda g: GridSpec(64, 1.0, math.nan), "wavelength_m"),
        (lambda g: angular_spectrum_propagate(plane_wave(g), math.nan), "distance_m"),
        (lambda g: apply_aperture(plane_wave(g), math.nan), "diameter_m"),
        (lambda g: smf_coupling_efficiency(plane_wave(g), math.nan), "waist_m"),
    ], ids=["grid-extent", "grid-wavelength", "propagate", "aperture", "gaussian"])
    def test_nan_scalar_names_the_argument(self, grid64, call, name):
        with pytest.raises(ParameterError, match=name):
            call(grid64)


class TestPhaseScreenApplication:
    def test_zero_screen_identity(self, random_smooth_field):
        screen = PhaseScreen(np.zeros((128, 128)), random_smooth_field.spacing_m)
        out = apply_phase_screen(random_smooth_field, screen)
        np.testing.assert_array_equal(out.samples, random_smooth_field.samples)

    def test_pi_screen_negates(self, random_smooth_field):
        screen = PhaseScreen(np.full((128, 128), math.pi), random_smooth_field.spacing_m)
        out = apply_phase_screen(random_smooth_field, screen)
        np.testing.assert_allclose(out.samples, -random_smooth_field.samples, atol=1e-15)
        assert abs(total_power(out) - total_power(random_smooth_field)) < 1e-12

    def test_random_screen_preserves_magnitudes(self, random_smooth_field):
        rng = np.random.default_rng(3)
        screen = PhaseScreen(rng.uniform(-20, 20, (128, 128)), random_smooth_field.spacing_m)
        out = apply_phase_screen(random_smooth_field, screen)
        np.testing.assert_allclose(
            np.abs(out.samples), np.abs(random_smooth_field.samples), rtol=1e-14
        )

    @pytest.mark.parametrize("n", [64, 256])
    def test_product_rounds_as_the_expression(self, n):
        # one size below numpy's temporary-elision threshold, one above it;
        # the factor is the first operand either way
        rng = np.random.default_rng(n)
        field = ComplexFieldGrid(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1.0, LAM
        )
        phase = rng.uniform(-20, 20, (n, n))
        out = apply_phase_screen(field, PhaseScreen(phase, field.spacing_m))
        expected = np.exp(1j * phase) * field.samples
        assert out.samples.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_phase_rejected(self, grid64, bad):
        # any object with phase and spacing_m is read, not only a PhaseScreen
        phase = np.zeros((64, 64))
        phase[3, 5] = bad
        screen = SimpleNamespace(phase=phase, spacing_m=grid64.spacing_m)
        with pytest.raises(InvalidFieldError):
            apply_phase_screen(plane_wave(grid64), screen)

    @pytest.mark.parametrize("shape", [(64, 32), (64,), (64, 64, 1)])
    def test_phase_shape_must_be_the_field_shape(self, grid64, shape):
        # a row, a half-width or a stacked phase would otherwise broadcast
        screen = SimpleNamespace(phase=np.zeros(shape), spacing_m=grid64.spacing_m)
        with pytest.raises(DimensionError, match="phase: expected shape"):
            apply_phase_screen(plane_wave(grid64), screen)

    def test_geometry_mismatch_rejected(self, random_smooth_field):
        screen = PhaseScreen(np.zeros((64, 64)), random_smooth_field.spacing_m)
        with pytest.raises(DimensionError):
            apply_phase_screen(random_smooth_field, screen)


class TestAperture:
    def test_inscribed_disc_power_ratio(self, grid128):
        pw = plane_wave(grid128)
        clipped = apply_aperture(pw, grid128.extent_m)
        ratio = total_power(clipped) / total_power(pw)
        # pi/4 within one grid-cell quantization of the rim
        rim_cells = math.pi * grid128.n / grid128.n**2
        assert abs(ratio - math.pi / 4) < rim_cells

    def test_idempotent_on_masked_field(self, grid128):
        first = apply_aperture(plane_wave(grid128), 0.5)
        second = apply_aperture(first, 0.5)
        np.testing.assert_array_equal(first.samples, second.samples)

    def test_cached_mask_follows_diameter(self, grid128):
        pw = plane_wave(grid128)
        r = grid128.radius_grid()
        for d in (0.5, 0.3, 0.5):
            out = apply_aperture(pw, d).samples
            np.testing.assert_array_equal(out, np.where(r <= d / 2, pw.samples, 0.0))

    def test_narrow_gaussian_barely_clipped(self):
        grid = GridSpec(256, 1.0, LAM)
        beam = gaussian_field(grid, 0.05)
        # oracle: encircled energy of a Gaussian, loss = exp(-2 R^2 / w^2)
        expected_loss = math.exp(-2 * 0.25**2 / 0.05**2)
        assert expected_loss < 1e-6
        out = apply_aperture(beam, 0.5)
        assert (total_power(beam) - total_power(out)) / total_power(beam) < 1e-6

    def test_bad_diameters_rejected(self, grid128):
        with pytest.raises(ParameterError):
            apply_aperture(plane_wave(grid128), 0.0)
        with pytest.raises(ParameterError):
            apply_aperture(plane_wave(grid128), 2 * grid128.extent_m)


class TestTotalPower:
    def test_zero_field(self, grid64):
        zero = ComplexFieldGrid(np.zeros((64, 64)), grid64.extent_m, grid64.wavelength_m)
        assert total_power(zero) == 0.0

    def test_unit_gaussian(self, grid128):
        assert abs(total_power(gaussian_field(grid128, 0.1)) - 1.0) < 1e-6

    @pytest.mark.parametrize("waist_m, power_w", [(0.02, 1.0), (0.1, 2.5), (0.3, 1e-3)])
    def test_separable_gaussian_matches_radial_form(self, grid128, waist_m, power_w):
        # the library's fibre mode outer(g, g) against the oracle's exp(-r^2/w^2)
        g = _gaussian_profile(grid128, waist_m)
        out = np.outer(g, g) * np.sqrt(power_w)
        ref = gaussian_field(grid128, waist_m, power_w).samples
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_quadratic_scaling(self, random_smooth_field):
        f = random_smooth_field
        doubled = ComplexFieldGrid(2.0 * f.samples, f.extent_m, f.wavelength_m)
        assert abs(total_power(doubled) / total_power(f) - 4.0) < 1e-12


class TestGridValidation:
    def test_grid_must_be_power_of_two_min_64(self):
        with pytest.raises(ParameterError):
            GridSpec(100, 1.0)
        with pytest.raises(ParameterError):
            GridSpec(32, 1.0)
        with pytest.raises(ParameterError):
            ComplexFieldGrid(np.zeros((48, 48)), 1.0, LAM)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            ComplexFieldGrid(np.zeros((64, 128)), 1.0, LAM)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.inf)],
                             ids=["nan", "inf", "-inf", "imag-inf"])
    def test_non_finite_sample_rejected(self, bad):
        samples = np.ones((64, 64), dtype=complex)
        samples[3, 5] = bad
        with pytest.raises(InvalidFieldError):
            ComplexFieldGrid(samples, 1.0, LAM)


class TestSnapshots:
    def test_binary_roundtrip(self, tmp_path, random_smooth_field):
        path = tmp_path / "field.bin"
        write_field_bin(random_smooth_field, path)
        back = read_field_bin(path)
        np.testing.assert_array_equal(back.samples, random_smooth_field.samples)
        assert back.extent_m == random_smooth_field.extent_m
        assert back.wavelength_m == random_smooth_field.wavelength_m

    def test_non_finite_file_rejected(self, tmp_path):
        # written by hand: write_field_bin can no longer be given such a field
        raw = np.zeros((64, 64, 2), dtype="<f8")
        raw[5, 7, 1] = math.nan
        path = tmp_path / "nan.bin"
        path.write_bytes(struct.pack("<Qdd", 64, 1.0, LAM) + raw.tobytes())
        with pytest.raises(InvalidFieldError):
            read_field_bin(path)

    @pytest.mark.parametrize("body, expected", [
        (b"\0" * 100, 24 + 16 * 64 * 64),
        (b"\0" * (16 * 64 * 64 + 8), 24 + 16 * 64 * 64),
    ], ids=["100-bytes", "one-element-too-many"])
    def test_wrong_length_file_names_path_and_sizes(self, tmp_path, body, expected):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<Qdd", 64, 1.0, LAM) + body)
        got = 24 + len(body)
        with pytest.raises(InvalidFieldError, match=rf"bad\.bin: .*{expected} bytes, got {got}"):
            read_field_bin(path)

    def test_file_shorter_than_header_names_path_and_sizes(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(struct.pack("<Qdd", 64, 1.0, LAM)[:20])
        with pytest.raises(InvalidFieldError, match=r"short\.bin: .*24 bytes .*got 20"):
            read_field_bin(path)
