import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fsolink import field as field_module
from fsolink.errors import DimensionError, ParameterError, ZeroPowerError
from fsolink.field import ComplexFieldGrid, GridSpec, total_power, uniform_disc_field
from fsolink.modes import (
    _N_COARSE,
    MODE_ORDER,
    ModeBasis,
    ModeCoefficients,
    ModeStatistics,
    _coarse_efficiencies,
    _smf_overlap,
    decompose,
    mode_statistics,
    optimize_smf_waist,
    smf_coupling_efficiency,
)
from fsolink.turbulence import build_time_series, default_profile
from oracles import gaussian_field, hg_mode_field

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


def basis_mode(basis, m, n):
    """The basis' HG_mn mode on its grid, outer(p_n, p_m)."""
    s = np.outer(basis.profiles[n], basis.profiles[m]).astype(np.complex128)
    return ComplexFieldGrid(s, basis.grid.extent_m, basis.grid.wavelength_m)


class TestModeOrder:
    def test_table_ordering(self):
        assert MODE_ORDER[:6] == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
        assert len(MODE_ORDER) == 15
        assert MODE_ORDER[-1] == (4, 0)

    def test_group_prefixes(self, grid):
        # a basis of groups 0..g holds the MODE_ORDER prefix of those groups
        for g, size in enumerate([1, 3, 6, 10, 15]):
            basis = ModeBasis.build(grid, 0.5, max_group=g)
            assert basis.indices == MODE_ORDER[:size]
            assert {m + n for m, n in basis.indices} == set(range(g + 1))
            assert basis.profiles.shape == (g + 1, grid.n)
            assert basis.names() == [f"HG{m}{n}" for m, n in basis.indices]

    @pytest.mark.parametrize("max_group", [-1, 5, 2.5, math.nan, True])
    def test_bad_max_group_names_the_argument(self, grid, max_group):
        with pytest.raises(ParameterError, match="max_group"):
            ModeBasis.build(grid, 0.5, max_group=max_group)

    def test_default_is_every_group(self, grid, basis):
        assert basis.indices == MODE_ORDER
        assert ModeBasis.build(grid, 0.5, max_group=4).waist_m == basis.waist_m


class TestHgModeField:
    """The basis' sampled modes, against the HG closed form."""

    def test_fundamental_is_centered_gaussian(self, grid, basis):
        mode = basis_mode(basis, 0, 0)
        assert abs(total_power(mode) - 1.0) < 1e-12
        peak = np.unravel_index(np.argmax(np.abs(mode.samples)), mode.samples.shape)
        assert peak == (grid.n // 2, grid.n // 2)

    def test_odd_mode_vanishes_on_axis(self, grid, basis):
        mode = basis_mode(basis, 1, 0)
        # m indexes x: the x = 0 column is exactly zero
        np.testing.assert_array_equal(mode.samples[:, grid.n // 2], 0.0)

    def test_cross_overlap_near_zero(self, grid, basis):
        a = basis_mode(basis, 2, 1)
        b = basis_mode(basis, 1, 2)
        overlap = abs(np.vdot(a.samples, b.samples)) * grid.spacing_m**2
        assert overlap < 1e-3

    def test_waist_resolution_errors(self):
        grid = GridSpec(64, 1.0, LAM)  # 4 samples span 0.0625 m
        ModeBasis.build(grid, 0.5, max_group=2)  # waist 0.144 m
        with pytest.raises(ParameterError, match="resolvable"):
            ModeBasis.build(grid, 0.2, max_group=4)  # waist 0.045 m
        with pytest.raises(ParameterError, match="spills"):
            ModeBasis.build(grid, 1.2, max_group=0)  # group 0 spans 1.2 m of 1.0 m


class TestFitBasisWaist:
    @pytest.mark.parametrize("max_group", [4, 0], ids=["build", "build-group-0"])
    def test_nan_aperture_names_the_argument(self, grid, max_group):
        with pytest.raises(ParameterError, match="aperture_diameter_m"):
            ModeBasis.build(grid, math.nan, max_group)

    def test_reference_aperture(self, grid):
        # the top group's 1/e^2 radius w sqrt(g + 1) is the aperture radius
        for g in range(5):
            assert abs(ModeBasis.build(grid, 0.5, g).waist_m - 0.25 / math.sqrt(g + 1)) < 1e-15

    def test_group_zero(self, grid):
        assert ModeBasis.build(grid, 0.5, max_group=0).waist_m == 0.25

    def test_linear_in_diameter(self, grid):
        ratio = ModeBasis.build(grid, 1.0).waist_m / ModeBasis.build(grid, 0.5).waist_m
        assert abs(ratio - 2.0) < 1e-12


def stacked_modes(basis):
    """(K, N, N) stack of the basis modes, each sampled by the hg_mode_field oracle."""
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
        flat = stacked_modes(basis).reshape(len(basis.indices), -1)
        ref = (flat.conj() @ flat.T) * grid.spacing_m**2
        assert np.max(np.abs(basis.gram() - ref)) <= 1e-12

    @pytest.mark.parametrize("aperture_m", [0.05, 1.2])  # waist unresolved; group 4 spills
    def test_build_rejects_an_unresolvable_basis(self, grid, aperture_m):
        with pytest.raises(ParameterError, match="aperture_diameter_m"):
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
        sub = ModeBasis.build(grid, aperture_diameter_m=0.5, max_group=2)
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


def sequential_waist_search(field):
    """optimize_smf_waist with its coarse scan one overlap per waist: the
    reference the one-pass scan must reproduce bit for bit."""
    p = total_power(field)

    def eff(w):
        return _smf_overlap(field, w, p)

    waists = np.geomspace(4 * field.spacing_m, field.extent_m / 2, _N_COARSE)
    k = int(np.argmax([eff(w) for w in waists]))
    a = waists[max(k - 1, 0)]
    b = waists[min(k + 1, _N_COARSE - 1)]
    invphi = (math.sqrt(5.0) - 1) / 2
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = eff(c), eff(d)
    for _ in range(60):
        if b - a < 1e-6 * b:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = eff(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = eff(d)
    w_best = (a + b) / 2
    return float(w_best), eff(w_best)


def random_complex_field(n):
    rng = np.random.default_rng(n)
    samples = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return ComplexFieldGrid(samples, 1.0, LAM)


class TestCoarseScan:
    FIELDS = [("disc", 64), ("disc", 256), ("disc", 512), ("random", 128)]

    @staticmethod
    def make(kind, n):
        grid = GridSpec(n, 1.0, LAM)
        return uniform_disc_field(grid, 0.5) if kind == "disc" else random_complex_field(n)

    @pytest.mark.parametrize("kind, n", FIELDS)
    def test_one_pass_values_are_the_per_waist_overlaps(self, kind, n):
        field = self.make(kind, n)
        p = total_power(field)
        waists = np.geomspace(4 * field.spacing_m, field.extent_m / 2, _N_COARSE)
        batched = _coarse_efficiencies(field, waists, p)
        single = np.array([_smf_overlap(field, w, p) for w in waists])
        np.testing.assert_allclose(batched, single, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind, n", FIELDS)
    def test_search_matches_the_sequential_scan_bit_for_bit(self, kind, n):
        field = self.make(kind, n)
        waist, eff = optimize_smf_waist(field)
        ref_waist, ref_eff = sequential_waist_search(field)
        assert (waist, eff) == (ref_waist, ref_eff)
        assert type(waist) is float and type(eff) is float


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

    def test_group_fractions_of_a_smaller_basis(self, grid, smooth_field):
        sub = ModeBasis.build(grid, aperture_diameter_m=0.5, max_group=2)
        stats = mode_statistics([decompose(smooth_field, sub)])
        groups = stats.group_fractions()
        assert groups.keys() == {0, 1, 2}
        assert sum(groups.values()) == pytest.approx(stats.captured_fraction(), rel=1e-12)

    def test_frames_of_another_mode_count_rejected(self):
        series = [ModeCoefficients(np.ones(3), 0.0), ModeCoefficients(np.ones(3), 0.1),
                  ModeCoefficients(np.ones(6), 0.0), ModeCoefficients(np.ones(1), 0.0)]
        with pytest.raises(ParameterError, match="frame 2 has 6 modes, frame 0 has 3"):
            mode_statistics(series)

    def test_captured_fraction_checks_the_mode_count(self):
        stats = ModeStatistics(mean_fraction=np.full(15, 1 / 20), residual_fraction=0.25)
        assert stats.captured_fraction() == stats.captured_fraction(15) == pytest.approx(0.75)
        assert stats.captured_fraction(0) == 0.0
        for bad in (-1, True, 16, 1.5, math.nan):
            with pytest.raises(ParameterError, match="n_modes"):
                stats.captured_fraction(bad)


def test_power_is_summed_once_per_analysed_frame(monkeypatch):
    grid = GridSpec(128, 1.0, LAM)
    basis = ModeBasis.build(grid, aperture_diameter_m=0.5)
    frames = list(build_time_series(default_profile(), grid, n_frames=3, seed=4))
    dx = grid.spacing_m
    summed = [float(np.sum(np.abs(f.samples) ** 2) * dx * dx) for f in frames]
    sums = []

    class CountingNumpy:  # numpy as the field module sees it, counting full-grid sums
        def __getattr__(self, name):
            return getattr(np, name)

        def sum(self, values, *args, **kwargs):
            if np.ndim(values) == 2:
                sums.append(values.shape)
            return np.sum(values, *args, **kwargs)

    monkeypatch.setattr(field_module, "np", CountingNumpy())
    for frame, power in zip(frames, summed):
        mc = decompose(frame, basis)
        eta = smf_coupling_efficiency(frame, 0.2)
        assert total_power(frame) == power
        assert mc.residual_power == power - float(np.sum(np.abs(mc.coeffs) ** 2))
        assert eta == _smf_overlap(frame, 0.2, power)
    assert sums == [(grid.n, grid.n)] * len(frames)


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
