import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fsolink.errors import DimensionError, ParameterError, ZeroPowerError
from fsolink.field import (ComplexFieldGrid, GridSpec, gaussian_field, total_power,
                           uniform_disc_field)
from fsolink.modes import (
    MODE_ORDER,
    ModeBasis,
    ModeStatistics,
    decompose,
    fit_basis_waist,
    hg_mode_field,
    mode_statistics,
    modes_up_to_group,
    optimize_smf_waist,
    smf_coupling_efficiency,
)

LAM = 1.55e-6


@pytest.fixture(scope="module")
def grid():
    return GridSpec(256, 1.0, LAM)


@pytest.fixture(scope="module")
def basis(grid):
    return ModeBasis.build(grid, aperture_diameter_m=0.5)


@pytest.fixture(scope="module")
def smooth_field(grid):
    rng = np.random.default_rng(42)
    n = grid.n
    spec = np.zeros((n, n), dtype=np.complex128)
    keep = 10
    block = rng.standard_normal((2 * keep, 2 * keep)) + 1j * rng.standard_normal(
        (2 * keep, 2 * keep)
    )
    spec[:keep, :keep] = block[:keep, :keep]
    spec[-keep:, :keep] = block[keep:, :keep]
    spec[:keep, -keep:] = block[:keep, keep:]
    spec[-keep:, -keep:] = block[keep:, keep:]
    samples = np.fft.ifft2(spec) * n
    return ComplexFieldGrid(samples, grid.extent_m, grid.wavelength_m)


class TestModeOrder:
    def test_table_ordering(self):
        assert MODE_ORDER[:6] == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
        assert len(MODE_ORDER) == 15
        assert MODE_ORDER[-1] == (4, 0)

    def test_group_prefixes(self):
        assert len(modes_up_to_group(2)) == 3
        assert len(modes_up_to_group(3)) == 6
        assert len(modes_up_to_group(4)) == 10
        assert len(modes_up_to_group(5)) == 15


class TestHgModeField:
    def test_fundamental_is_centered_gaussian(self, grid):
        mode = hg_mode_field(0, 0, 0.1, grid)
        assert abs(total_power(mode) - 1.0) < 1e-12
        peak = np.unravel_index(np.argmax(np.abs(mode.samples)), mode.samples.shape)
        assert peak == (grid.n // 2, grid.n // 2)

    def test_odd_mode_vanishes_on_axis(self, grid):
        mode = hg_mode_field(1, 0, 0.1, grid)
        # m indexes x: the x = 0 column is exactly zero
        np.testing.assert_array_equal(mode.samples[:, grid.n // 2], 0.0)

    def test_cross_overlap_near_zero(self, grid):
        a = hg_mode_field(2, 1, 0.1118, grid)
        b = hg_mode_field(1, 2, 0.1118, grid)
        overlap = abs(np.vdot(a.samples, b.samples)) * grid.spacing_m**2
        assert overlap < 1e-3

    def test_waist_resolution_errors(self, grid):
        with pytest.raises(ParameterError):
            hg_mode_field(0, 0, grid.spacing_m, grid)  # too small for the grid
        with pytest.raises(ParameterError):
            hg_mode_field(4, 4, 0.4, grid)  # group spills past the extent


class TestFitBasisWaist:
    @pytest.mark.parametrize("call", [
        lambda g: fit_basis_waist(math.nan),
        lambda g: ModeBasis.build(g, math.nan),
    ], ids=["fit", "build"])
    def test_nan_aperture_names_the_argument(self, grid, call):
        with pytest.raises(ParameterError, match="aperture_diameter_m"):
            call(grid)

    def test_reference_aperture(self):
        w = fit_basis_waist(0.5, 4)
        assert abs(w - 0.25 / math.sqrt(5.0)) < 1e-15

    def test_group_zero(self):
        assert fit_basis_waist(0.5, 0) == 0.25

    def test_linear_in_diameter(self):
        assert abs(fit_basis_waist(1.0, 4) / fit_basis_waist(0.5, 4) - 2.0) < 1e-12


def stacked_modes(basis):
    """(K, N, N) stack of the basis modes, sampled one by one by hg_mode_field."""
    return np.stack([hg_mode_field(m, n, basis.waist_m, basis.grid).samples
                     for m, n in basis.indices])


def einsum_projection(basis, field):
    return np.einsum("kij,ij->k", stacked_modes(basis).conj(), field.samples) * field.spacing_m**2


class TestBasis:
    def test_gram_orthonormal(self, basis):
        gram = basis.gram()
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-3
        assert np.max(np.abs(np.diag(gram) - 1)) < 1e-4

    def test_gram_matches_stacked_modes(self, grid, basis):
        flat = stacked_modes(basis).reshape(basis.size, -1)
        ref = (flat.conj() @ flat.T) * grid.spacing_m**2
        assert np.max(np.abs(basis.gram() - ref)) <= 1e-12

    @pytest.mark.parametrize("aperture_m", [0.05, 1.2])  # waist unresolved; group 4 spills
    def test_build_rejects_what_hg_mode_field_rejects(self, grid, aperture_m):
        waist = fit_basis_waist(aperture_m, 4)
        with pytest.raises(ParameterError):
            hg_mode_field(4, 0, waist, grid)
        with pytest.raises(ParameterError):
            ModeBasis.build(grid, aperture_diameter_m=aperture_m)


class TestDecompose:
    def test_basis_element_roundtrip(self, grid, basis):
        field = hg_mode_field(0, 1, basis.waist_m, grid)
        mc = decompose(field, basis)
        assert abs(mc.coeffs[1]) > 1 - 1e-3
        others = np.delete(np.abs(mc.coeffs), 1)
        assert np.all(others < 1e-3)
        assert abs(mc.residual_power) < 1e-3

    def test_zero_field(self, grid, basis):
        zero = ComplexFieldGrid(np.zeros((grid.n, grid.n), complex), grid.extent_m, LAM)
        mc = decompose(zero, basis)
        np.testing.assert_array_equal(mc.coeffs, 0.0)
        assert mc.residual_power == 0.0

    def test_coefficients_match_direct_quadrature(self, grid, basis, smooth_field):
        # independent oracle: explicit double-sum quadrature per mode
        field_on_grid = smooth_field
        mc = decompose(field_on_grid, basis)
        dx2 = grid.spacing_m**2
        modes = stacked_modes(basis)
        for k in (0, 4, 14):
            direct = 0.0 + 0.0j
            mode = modes[k]
            for i in range(grid.n):
                direct += np.sum(np.conj(mode[i]) * field_on_grid.samples[i]) * dx2
            assert abs(direct - mc.coeffs[k]) < 1e-9 * max(1.0, abs(direct))

    def test_matches_einsum_form(self, grid, basis, smooth_field):
        ref = einsum_projection(basis, smooth_field)
        mc = decompose(smooth_field, basis)
        assert np.max(np.abs(mc.coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_matches_einsum_form_with_power_outside_aperture(self, grid, basis, smooth_field):
        # a wide, off-axis beam with most of its power beyond the 0.5 m aperture
        x = grid.coords()
        beam = np.exp(-((x[None, :] - 0.21) ** 2 + (x[:, None] + 0.13) ** 2) / 0.35**2)
        field = ComplexFieldGrid(beam * smooth_field.samples + 0.3 * beam, grid.extent_m, LAM)
        outside = np.hypot(x[None, :], x[:, None]) > 0.25
        assert np.sum(np.abs(field.samples[outside]) ** 2) > np.sum(np.abs(field.samples[~outside]) ** 2)
        ref = einsum_projection(basis, field)
        mc = decompose(field, basis)
        assert np.max(np.abs(mc.coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_matches_einsum_form_on_sub_basis(self, grid, smooth_field):
        sub = ModeBasis.build(grid, aperture_diameter_m=0.5, indices=modes_up_to_group(3))
        ref = einsum_projection(sub, smooth_field)
        mc = decompose(smooth_field, sub)
        assert mc.coeffs.shape == (6,)
        assert np.max(np.abs(mc.coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_bessel_inequality(self, grid, basis, smooth_field):
        mc = decompose(smooth_field, basis)
        assert mc.residual_power >= -1e-9 * mc.total_power

    def test_linearity(self, grid, basis):
        f = hg_mode_field(0, 0, 0.13, grid)
        g = hg_mode_field(1, 1, 0.09, grid)
        combo = ComplexFieldGrid(0.7 * f.samples + 0.3j * g.samples, f.extent_m, f.wavelength_m)
        mc = decompose(combo, basis)
        expected = 0.7 * decompose(f, basis).coeffs + 0.3j * decompose(g, basis).coeffs
        np.testing.assert_allclose(mc.coeffs, expected, atol=1e-9)

    def test_parseval_on_span(self, grid, basis):
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        synth = np.einsum("k,kij->ij", coeffs, stacked_modes(basis))
        field = ComplexFieldGrid(synth, grid.extent_m, grid.wavelength_m)
        mc = decompose(field, basis)
        np.testing.assert_allclose(mc.coeffs, coeffs, rtol=1e-6, atol=1e-6)

    def test_geometry_mismatch(self, basis):
        other = gaussian_field(GridSpec(128, 1.0, LAM), 0.1)
        with pytest.raises(DimensionError):
            decompose(other, basis)


class TestSmfCoupling:
    def test_matched_gaussian_couples_fully(self, grid):
        beam = gaussian_field(grid, 0.13)
        assert abs(smf_coupling_efficiency(beam, 0.13) - 1.0) < 1e-6

    def test_uniform_disc_optimum_is_81_percent(self, grid):
        disc = uniform_disc_field(grid, 0.5)
        waist, eff = optimize_smf_waist(disc)
        assert abs(eff - 0.81) <= 0.01
        # cross-check against a dense 1-D scan oracle
        scan = np.linspace(0.15, 0.30, 400)
        scan_eff = [smf_coupling_efficiency(disc, w) for w in scan]
        assert eff >= max(scan_eff) - 1e-5

    def test_optimum_efficiency_is_the_public_efficiency(self, grid, smooth_field):
        for field in (uniform_disc_field(grid, 0.5), smooth_field):
            waist, eff = optimize_smf_waist(field)
            assert eff == smf_coupling_efficiency(field, waist)

    @pytest.mark.parametrize("waist_m", [0.05, 0.13, 0.2])
    def test_matches_full_gaussian_overlap(self, grid, smooth_field, waist_m):
        g = gaussian_field(grid, waist_m)
        overlap = np.vdot(g.samples, smooth_field.samples) * grid.spacing_m**2
        ref = abs(overlap) ** 2 / total_power(smooth_field)
        assert abs(smf_coupling_efficiency(smooth_field, waist_m) - ref) <= 1e-12 * ref

    def test_orthogonal_mode_does_not_couple(self, grid):
        mode = hg_mode_field(1, 0, 0.13, grid)
        assert smf_coupling_efficiency(mode, 0.13) < 1e-6

    def test_invariance_to_phase_and_scale(self, grid, basis):
        beam = gaussian_field(grid, 0.2)
        base = smf_coupling_efficiency(beam, 0.1)
        rotated = ComplexFieldGrid(beam.samples * np.exp(1j * 0.77) * 3.0, beam.extent_m, LAM)
        assert abs(smf_coupling_efficiency(rotated, 0.1) - base) < 1e-12

    def test_zero_power_rejected(self, grid):
        zero = ComplexFieldGrid(np.zeros((grid.n, grid.n), complex), grid.extent_m, LAM)
        with pytest.raises(ZeroPowerError):
            smf_coupling_efficiency(zero, 0.1)
        with pytest.raises(ZeroPowerError):
            optimize_smf_waist(zero)

    def test_optimum_self_matches_gaussian(self, grid):
        beam = gaussian_field(grid, 0.17)
        waist, eff = optimize_smf_waist(beam)
        assert abs(waist / 0.17 - 1) < 0.01
        assert eff > 1 - 1e-6

    def test_optimum_scales_with_aperture(self):
        small = uniform_disc_field(GridSpec(256, 1.0, LAM), 0.4)
        large = uniform_disc_field(GridSpec(256, 2.0, LAM), 0.8)
        w_small, _ = optimize_smf_waist(small)
        w_large, _ = optimize_smf_waist(large)
        assert abs(w_large / w_small - 2.0) < 0.01


class TestModeStatistics:
    def test_single_frame_all_in_fundamental(self, grid, basis):
        mc = decompose(hg_mode_field(0, 0, basis.waist_m, grid), basis)
        stats = mode_statistics([mc])
        assert stats.mean_fraction[0] > 1 - 1e-3
        assert np.all(stats.mean_fraction[1:] < 1e-3)

    def test_fractions_sum_to_one_with_residual(self, grid, basis, smooth_field):
        stats = mode_statistics([decompose(smooth_field, basis)])
        total = stats.mean_fraction.sum() + stats.residual_fraction
        assert abs(total - 1.0) < 1e-9

    def test_empty_series_rejected(self):
        with pytest.raises(ParameterError):
            mode_statistics([])

    def test_captured_fraction_checks_the_mode_count(self):
        stats = ModeStatistics(mean_fraction=np.full(15, 1 / 20), residual_fraction=0.25)
        assert stats.captured_fraction() == stats.captured_fraction(15) == pytest.approx(0.75)
        assert stats.captured_fraction(0) == 0.0
        for bad in (-1, True, 16, 1.5, math.nan):
            with pytest.raises(ParameterError, match="n_modes"):
                stats.captured_fraction(bad)


# one analysed frame: the first of a 256-grid default series, seed 3
_FRAME_PROBE = """
import hashlib
from fsolink.field import GridSpec, total_power
from fsolink.modes import ModeBasis, decompose, smf_coupling_efficiency
from fsolink.turbulence import build_time_series, default_profile

grid = GridSpec(256, 1.0, 1.55e-6)
frames = build_time_series(default_profile(), grid, n_frames=1, seed=3)
frame = next(frames)
frames.close()
mc = decompose(frame, ModeBasis.build(grid, aperture_diameter_m=0.5))
print(hashlib.sha256(frame.samples.tobytes()).hexdigest())
print(mc.coeffs.tobytes().hex())
print(repr(mc.residual_power), repr(smf_coupling_efficiency(frame, 0.2)), repr(total_power(frame)))
"""


def test_results_do_not_depend_on_the_blas_thread_count():
    # a BLAS reduction (np.vdot, or @ on a flattened view) would split its
    # sum by thread and round differently with 1 and 2 threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", _FRAME_PROBE], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]
