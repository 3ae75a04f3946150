"""Complex field grids, scalar diffraction, apertures and power accounting.

The receiver-plane wavefront is carried on a square N x N grid of complex
amplitudes in sqrt(W)/m units, so the total optical power is the discrete
integral of |samples|^2.  Propagation uses the band-limited angular-spectrum
transfer function, which is exact scalar diffraction for fields that satisfy
the grid's anti-aliasing bound.
"""

import functools
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft

from .errors import DimensionError, InvalidFieldError, ParameterError, _array, _num, _prefixed

__all__ = [
    "GridSpec",
    "ComplexFieldGrid",
    "angular_spectrum_propagate",
    "apply_phase_screen",
    "apply_aperture",
    "total_power",
    "uniform_disc_field",
    "write_field_bin",
    "read_field_bin",
]

_GEOMETRY_RTOL = 1e-9
# the edge absorber rolls off over this fraction of the grid on each side
_EDGE_ABSORBER_FRAC = 0.08


def _check_geometry(n, extent_m, wavelength_m) -> None:
    _num(n, "n", lo=64, integer=True)
    if n & (n - 1):
        raise ParameterError(f"grid size must be a power of two >= 64, got {n}")
    _num(extent_m, "extent_m", gt=0)
    _num(wavelength_m, "wavelength_m", gt=0)


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a sampling grid: N points spanning extent_m per side."""

    n: int
    extent_m: float
    wavelength_m: float = 1.55e-6

    def __post_init__(self):
        _check_geometry(self.n, self.extent_m, self.wavelength_m)

    @property
    def spacing_m(self) -> float:
        return self.extent_m / self.n

    def coords(self) -> np.ndarray:
        """Centered pixel coordinates; index n//2 sits exactly at 0."""
        return (np.arange(self.n) - self.n // 2) * self.spacing_m

    def radius_grid(self) -> np.ndarray:
        x = self.coords()
        return np.hypot(x[:, None], x[None, :])


@dataclass(frozen=True)
class ComplexFieldGrid:
    """Sampled complex optical field with physical extent and wavelength.

    samples are complex amplitudes in sqrt(W)/m; row index is y, column
    index is x, both centered with pixel N//2 at the optical axis.  The
    constructor takes ownership of the samples array, marks it read-only
    (pass a copy to keep a writable reference) and rejects NaN or infinite
    samples with InvalidFieldError.  Library operations derive finite fields
    from finite ones, so they do not check a field's samples again.
    """

    samples: np.ndarray
    extent_m: float
    wavelength_m: float

    def __post_init__(self):
        s = _array(self.samples, "samples", ("n", "n"), dtype=np.complex128,
                   error=_prefixed(DimensionError))
        _check_geometry(s.shape[0], self.extent_m, self.wavelength_m)
        object.__setattr__(self, "samples", s)
        s.setflags(write=False)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def spacing_m(self) -> float:
        return self.extent_m / self.n

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.n, self.extent_m, self.wavelength_m)

    @functools.cached_property
    def _power(self) -> float:
        """total_power, summed on first use: the samples never change."""
        dx = self.spacing_m
        return float(np.sum(np.abs(self.samples) ** 2) * dx * dx)

    def _derive(self, samples: np.ndarray) -> "ComplexFieldGrid":
        """A field on this grid with complex128 samples derived from finite ones, unchecked."""
        return _unchecked_field(samples, self.extent_m, self.wavelength_m)


def _unchecked_field(samples: np.ndarray, extent_m: float, wavelength_m: float) -> ComplexFieldGrid:
    """A field of finite complex128 (N, N) samples on a checked geometry, not checked again."""
    samples.setflags(write=False)
    out = object.__new__(ComplexFieldGrid)
    out.__dict__.update(samples=samples, extent_m=extent_m, wavelength_m=wavelength_m)
    return out


def _require_same_geometry(n_a, spacing_a, n_b, spacing_b, what: str) -> None:
    if n_a != n_b:
        raise DimensionError(f"{what}: grid sizes differ ({n_a} vs {n_b})")
    if abs(spacing_a - spacing_b) > _GEOMETRY_RTOL * max(spacing_a, spacing_b):
        raise DimensionError(f"{what}: grid spacings differ ({spacing_a} vs {spacing_b})")


def total_power(field: ComplexFieldGrid) -> float:
    """Total optical power in watts: sum |samples|^2 * dx^2.

    Summed once per field and kept on it, so the analyses of one frame
    (decompose, smf_coupling_efficiency, optimize_smf_waist) share one sum.
    """
    return field._power


@functools.lru_cache(maxsize=4)
def _edge_absorber(n: int) -> np.ndarray:
    """Read-only raised-cosine window rolling off over the outer
    _EDGE_ABSORBER_FRAC of the grid, cached per grid size."""
    w = max(2, int(round(n * _EDGE_ABSORBER_FRAC)))
    taper = 0.5 * (1 + np.cos(np.linspace(0, np.pi, w)))
    line = np.ones(n)
    line[-w:] = taper
    line[:w] = taper[::-1]
    window = line[:, None] * line[None, :]
    window.setflags(write=False)
    return window


# 8 entries cover the default 5-layer path; at N=512 they hold at most 32 MB
@functools.lru_cache(maxsize=8)
def _transfer_function(n: int, dx: float, lam: float, distance_m: float) -> np.ndarray:
    """Band-limited angular-spectrum transfer function in FFT order, read-only.

    Depends on the geometry and the step only, so a layered path builds one
    per layer step and reuses it every frame.
    """
    f = np.fft.fftfreq(n, d=dx)
    fx2 = f[None, :] ** 2
    fy2 = f[:, None] ** 2
    kz_sq = 1.0 / lam**2 - fx2 - fy2
    propagating = kz_sq > 0

    h = np.zeros((n, n), dtype=np.complex128)
    h[propagating] = np.exp(1j * 2 * np.pi * distance_m * np.sqrt(kz_sq[propagating]))

    # Matsushima band limit: beyond f_lim the kernel phase is undersampled.
    df = 1.0 / (n * dx)
    f_lim = 1.0 / (lam * np.sqrt((2.0 * distance_m * df) ** 2 + 1.0))
    over = np.abs(f) > f_lim
    h[:, over] = 0.0
    h[over, :] = 0.0
    h.setflags(write=False)
    return h


def angular_spectrum_propagate(
    field: ComplexFieldGrid,
    distance_m: float,
    absorb_edges: bool = False,
) -> ComplexFieldGrid:
    """Diffract a field over distance_m with the angular-spectrum method.

    The transfer function is H = exp(i 2 pi d sqrt(1/lambda^2 - fx^2 - fy^2))
    with evanescent components zeroed and the Matsushima band limit applied,
    so the propagator is unitary on all content it keeps.  Sampling must
    satisfy dx^2 >= lambda * d / N; a violation is allowed but warned about,
    because the band limit then clips in-band spatial frequencies.

    Args:
        field: input field.
        distance_m: propagation distance, >= 0.
        absorb_edges: multiply the input by a raised-cosine edge window
            first.  Intended for long multi-step paths; breaks exact power
            conservation by design.

    Returns:
        The propagated field on the same grid.
    """
    n = field.n
    dx = field.spacing_m
    lam = field.wavelength_m
    _check_step(distance_m, n, dx, lam, stacklevel=3)
    if distance_m == 0 and not absorb_edges:
        return field
    return field._derive(_propagation_step(field.samples, dx, lam, distance_m, absorb_edges))


def _check_step(distance_m, n: int, dx: float, lam: float, stacklevel: int) -> None:
    """Reject a negative or non-finite step and warn when it violates the
    sampling bound, attributing the warning to the frame stacklevel up."""
    _num(distance_m, "distance_m", lo=0)
    if distance_m > 0 and dx * dx < lam * distance_m / n:
        warnings.warn(
            f"angular-spectrum sampling bound violated: dx^2={dx * dx:.3e} < "
            f"lambda*d/N={lam * distance_m / n:.3e}; band limit will clip "
            "in-band frequencies",
            RuntimeWarning,
            stacklevel=stacklevel,
        )


def _propagation_step(u: np.ndarray, dx: float, lam: float, distance_m: float,
                      absorb_edges: bool, in_place: bool = False) -> np.ndarray:
    """The samples angular_spectrum_propagate gives for samples u and a
    distance _check_step passed; with in_place, computed in u's memory (the
    same bits), for a thread that owns u while another checks the step."""
    if absorb_edges:
        u = np.multiply(u, _edge_absorber(u.shape[0]), out=u if in_place else None)
    if distance_m == 0:
        return u
    # Circular convolution commutes with the half-grid roll, so the
    # centered samples go through the FFTs without fftshift/ifftshift.
    spectrum = _fft.fft2(u, overwrite_x=in_place)
    spectrum *= _transfer_function(u.shape[0], dx, lam, distance_m)
    return _fft.ifft2(spectrum, overwrite_x=True)


def apply_phase_screen(field: ComplexFieldGrid, screen) -> ComplexFieldGrid:
    """Multiply the field pointwise by exp(i * screen.phase).

    Magnitudes are untouched, so total power is exactly preserved.  screen
    is any object with phase and spacing_m; the phase is checked like a
    field's samples: one of another shape raises DimensionError, a
    non-finite one InvalidFieldError.
    """
    phase = _array(screen.phase, "phase", field.samples.shape,
                   error=_prefixed(DimensionError), nonfinite=_prefixed(InvalidFieldError))
    _require_same_geometry(field.n, field.spacing_m, phase.shape[0], screen.spacing_m,
                           "apply_phase_screen")
    return field._derive(np.exp(1j * phase) * field.samples)


def _apply_phase_factor(field: ComplexFieldGrid, factor: np.ndarray) -> ComplexFieldGrid:
    """factor * field for a finite phase factor exp(i phi), written into factor."""
    return field._derive(np.multiply(factor, field.samples, out=factor))


def apply_aperture(field: ComplexFieldGrid, diameter_m: float) -> ComplexFieldGrid:
    """Zero all samples outside the centered circular aperture."""
    mask = _aperture_mask(field.n, field.extent_m, diameter_m)
    return field._derive(np.where(mask, field.samples, 0.0))


def _aperture_mask(n: int, extent_m: float, diameter_m: float) -> np.ndarray:
    """The disc mask of a checked aperture diameter: > 0, within the grid."""
    _num(diameter_m, "diameter_m", gt=0)
    if diameter_m > extent_m:
        raise ParameterError(f"aperture diameter {diameter_m} exceeds grid extent {extent_m}")
    return _disc_mask(n, extent_m, diameter_m)


@functools.lru_cache(maxsize=8)
def _disc_mask(n: int, extent_m: float, diameter_m: float) -> np.ndarray:
    """Read-only boolean mask of the centered disc, cached per geometry."""
    mask = GridSpec(n, extent_m).radius_grid() <= diameter_m / 2
    mask.setflags(write=False)
    return mask


def _gaussian_profile(grid: GridSpec, waist_m: float) -> np.ndarray:
    """1-D factor g of the unit-power Gaussian outer(g, g) on the grid.

    exp(-r^2/w^2) separates into exp(-x^2/w^2) exp(-y^2/w^2), and the
    grid power of outer(g, g) is (sum g^2 dx)^2, so each factor is
    normalized to sum g^2 dx = 1.
    """
    _num(waist_m, "waist_m", gt=0)
    x = grid.coords()
    g = np.exp(-(x**2) / waist_m**2)
    return g / math.sqrt(np.sum(g * g) * grid.spacing_m)


def uniform_disc_field(grid: GridSpec, diameter_m: float) -> ComplexFieldGrid:
    """Top-hat disc of the given diameter, normalized to 1 W on the grid.

    Built in one pass from the cached disc mask: its power before
    normalization is the pixel count times dx^2, so every pixel inside
    holds sqrt(1 / (count dx^2)), the same bits as clipping a plane wave
    by the aperture and scaling it to 1 W.
    """
    mask = _aperture_mask(grid.n, grid.extent_m, diameter_m)
    dx = grid.spacing_m
    p = np.count_nonzero(mask) * dx * dx
    samples = np.zeros(mask.shape, dtype=np.complex128)
    samples.real[mask] = np.sqrt(1.0 / p)
    return _unchecked_field(samples, grid.extent_m, grid.wavelength_m)


# --- on-disk snapshot formats -------------------------------------------------

_BIN_HEADER = struct.Struct("<Qdd")  # N, extent_m, wavelength_m


def write_field_bin(field: ComplexFieldGrid, path) -> None:
    """Write a field as a little-endian binary block.

    Layout: uint64 N, float64 extent_m, float64 wavelength_m, then N*N
    row-major interleaved (re, im) float64 pairs.
    """
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(field.n, field.extent_m, field.wavelength_m))
        inter = np.empty((field.n, field.n, 2), dtype="<f8")
        inter[..., 0] = field.samples.real
        inter[..., 1] = field.samples.imag
        fh.write(inter.tobytes())


def read_field_bin(path) -> ComplexFieldGrid:
    """Read a field write_field_bin wrote.

    A file shorter than the header, or not of the length its N calls for,
    raises InvalidFieldError naming the path and both byte counts.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _BIN_HEADER.size:
        raise InvalidFieldError(
            f"{path}: expected at least {_BIN_HEADER.size} bytes (the header), got {len(data)}")
    n, extent_m, wavelength_m = _BIN_HEADER.unpack_from(data)
    expected = _BIN_HEADER.size + 16 * n * n
    if len(data) != expected:
        raise InvalidFieldError(f"{path}: a {n}-grid field takes {expected} bytes, got {len(data)}")
    raw = np.frombuffer(data, dtype="<f8", offset=_BIN_HEADER.size).reshape(n, n, 2)
    return ComplexFieldGrid(raw[..., 0] + 1j * raw[..., 1], extent_m, wavelength_m)
