"""Reference fields for the tests, written from numpy alone.

Each oracle samples its closed form directly on the 2-D grid and
normalizes it by its 2-D grid power, sharing no code with the library's
separable Gaussian and Hermite-Gauss profiles it checks.  ComplexFieldGrid
is only the container the library's operations take.
"""

import numpy as np
from numpy.polynomial import hermite

from fsolink.field import ComplexFieldGrid


def _xy(grid):
    """Pixel coordinates (x across, y down), pixel N//2 on the axis."""
    dx = grid.extent_m / grid.n
    c = (np.arange(grid.n) - grid.n // 2) * dx
    return c[None, :], c[:, None], dx


def plane_wave(grid):
    """Uniform unit-amplitude, unit-phase field over the whole grid."""
    s = np.full((grid.n, grid.n), 1.0, dtype=np.complex128)
    return ComplexFieldGrid(s, grid.extent_m, grid.wavelength_m)


def gaussian_field(grid, waist_m, power_w=1.0):
    """Collimated Gaussian beam exp(-r^2/w^2) carrying power_w on the grid."""
    x, y, dx = _xy(grid)
    s = np.exp(-(x * x + y * y) / waist_m**2)
    s = s * np.sqrt(power_w / (np.sum(s * s) * dx * dx))
    return ComplexFieldGrid(s.astype(np.complex128), grid.extent_m, grid.wavelength_m)


def hg_mode_field(m, n, waist_m, grid):
    """Unit-power HG_mn mode, H_m(sqrt2 x/w) H_n(sqrt2 y/w) exp(-r^2/w^2),
    with physicists' Hermite polynomials; m indexes x (columns), n y (rows)."""
    x, y, dx = _xy(grid)
    s = (hermite.hermval(np.sqrt(2.0) * x / waist_m, [0] * m + [1])
         * hermite.hermval(np.sqrt(2.0) * y / waist_m, [0] * n + [1])
         * np.exp(-(x * x + y * y) / waist_m**2))
    s = s / np.sqrt(np.sum(s * s) * dx * dx)
    return ComplexFieldGrid(s.astype(np.complex128), grid.extent_m, grid.wavelength_m)
