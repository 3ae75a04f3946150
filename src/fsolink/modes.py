"""Hermite-Gauss mode basis, field decomposition and fiber coupling.

The receiver basis is the 15 lowest HG modes (groups m+n <= 4) with a common
waist sized so the highest-order group fits the collection aperture.  All
inner products are grid quadratures; modes are unit-power on their grid, so
squared projection magnitudes are watts directly.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_hermite

from .errors import DimensionError, ParameterError, ZeroPowerError
from .field import ComplexFieldGrid, GridSpec, _gaussian_profile, total_power

__all__ = [
    "MODE_ORDER",
    "mode_name",
    "modes_up_to_group",
    "hg_mode_field",
    "fit_basis_waist",
    "ModeBasis",
    "ModeCoefficients",
    "decompose",
    "smf_coupling_efficiency",
    "optimize_smf_waist",
    "ModeStatistics",
    "mode_statistics",
]

# Mode ordering by group m+n, ascending m inside a group: 00, 01, 10, 02, ...
MODE_ORDER = tuple(
    (m, g - m) for g in range(5) for m in range(g + 1)
)


def mode_name(index_pair) -> str:
    m, n = index_pair
    return f"HG{m}{n}"


def modes_up_to_group(max_group_exclusive: int) -> tuple:
    """Modes with m+n < max_group_exclusive; 2 -> 3 modes, 5 -> all 15."""
    return tuple((m, n) for (m, n) in MODE_ORDER if m + n < max_group_exclusive)


def hg_mode_field(m: int, n: int, waist_m: float, grid: GridSpec) -> ComplexFieldGrid:
    """Sampled HG_mn mode (physicists' Hermite polynomials), unit grid power.

    The mode is real up to a global phase; m indexes x (columns), n indexes
    y (rows).
    """
    if m < 0 or n < 0:
        raise ParameterError("mode orders must be >= 0")
    if waist_m <= 0:
        raise ParameterError("waist_m must be positive")
    if waist_m < 4 * grid.spacing_m:
        raise ParameterError(
            f"waist {waist_m} not resolvable on spacing {grid.spacing_m} (need >= 4 samples)"
        )
    radius = waist_m * math.sqrt(m + n + 1)
    if 2 * radius > grid.extent_m:
        raise ParameterError(
            f"mode group {m + n} spills beyond the grid: 1/e^2 radius {radius} vs "
            f"extent {grid.extent_m}"
        )
    x = grid.coords()
    gx = eval_hermite(m, np.sqrt(2.0) * x / waist_m) * np.exp(-(x**2) / waist_m**2)
    gy = eval_hermite(n, np.sqrt(2.0) * x / waist_m) * np.exp(-(x**2) / waist_m**2)
    s = np.outer(gy, gx).astype(np.complex128)
    norm = math.sqrt(np.sum(np.abs(s) ** 2) * grid.spacing_m**2)
    return ComplexFieldGrid(s / norm, grid.extent_m, grid.wavelength_m)


def fit_basis_waist(aperture_diameter_m: float, max_group: int = 4) -> float:
    """Common waist such that the highest group's 1/e^2 radius is D/2.

    The intensity radius of group g scales as w sqrt(g+1), so
    w = (D/2) / sqrt(max_group + 1).
    """
    if aperture_diameter_m <= 0:
        raise ParameterError("aperture diameter must be positive")
    if max_group < 0:
        raise ParameterError("max_group must be >= 0")
    return (aperture_diameter_m / 2) / math.sqrt(max_group + 1)


@dataclass(frozen=True)
class ModeBasis:
    """Ordered, grid-sampled HG basis with a common waist."""

    indices: tuple
    waist_m: float
    grid: GridSpec
    sampled: np.ndarray  # (K, N, N) complex, unit power each

    def __post_init__(self):
        self.sampled.setflags(write=False)

    @classmethod
    def build(cls, grid: GridSpec, aperture_diameter_m: float,
              indices=MODE_ORDER) -> "ModeBasis":
        """Sample a basis with the aperture-fit waist for its highest group."""
        indices = tuple(indices)
        waist_m = fit_basis_waist(aperture_diameter_m, max(m + n for m, n in indices))
        modes = np.empty((len(indices), grid.n, grid.n), dtype=np.complex128)
        for k, (m, n) in enumerate(indices):
            modes[k] = hg_mode_field(m, n, waist_m, grid).samples
        return cls(indices=indices, waist_m=waist_m, grid=grid, sampled=modes)

    @property
    def size(self) -> int:
        return len(self.indices)

    def names(self) -> list:
        return [mode_name(mn) for mn in self.indices]

    def gram(self) -> np.ndarray:
        """Grid-quadrature Gram matrix; identity for a well-sampled basis."""
        flat = self.sampled.reshape(self.size, -1)
        return (flat.conj() @ flat.T) * self.grid.spacing_m**2


@dataclass(frozen=True)
class ModeCoefficients:
    """Complex projection of one field onto a basis, plus unprojected power."""

    coeffs: np.ndarray  # (K,) complex, sqrt(W)
    residual_power: float  # W not captured by the basis

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128, copy=True)
        object.__setattr__(self, "coeffs", c)
        c.setflags(write=False)

    @property
    def mode_power(self) -> np.ndarray:
        return np.abs(self.coeffs) ** 2

    @property
    def total_power(self) -> float:
        return float(self.mode_power.sum() + self.residual_power)


def decompose(field: ComplexFieldGrid, basis: ModeBasis) -> ModeCoefficients:
    """Project a field on the basis by grid quadrature.

    residual_power is the field power outside the basis span and can only
    be negative by quadrature round-off (Bessel's inequality).
    """
    if field.n != basis.grid.n or not math.isclose(
        field.spacing_m, basis.grid.spacing_m, rel_tol=1e-9
    ):
        raise DimensionError("field and basis grids differ")
    dx2 = field.spacing_m**2
    # conj(B) f = conj(B conj(f)): one BLAS pass over the basis, no conjugated copy
    flat = basis.sampled.reshape(basis.size, -1)
    coeffs = (flat @ field.samples.ravel().conj()).conj() * dx2
    residual = total_power(field) - float(np.sum(np.abs(coeffs) ** 2))
    return ModeCoefficients(coeffs=coeffs, residual_power=residual)


def smf_coupling_efficiency(field: ComplexFieldGrid, smf_waist_m: float) -> float:
    """Fraction of field power coupled into a Gaussian fiber mode.

    The fiber is represented by its backpropagated fundamental mode in the
    field plane (ideal afocal relay): eta = |<g, f>|^2 / P_f with g the unit
    power Gaussian of the given waist.  The Gaussian is real and separable,
    outer(g1, g1), so the overlap is the contraction g1 . f . g1.
    """
    p = total_power(field)
    if p <= 0:
        raise ZeroPowerError("coupling efficiency undefined for a zero-power field")
    return _smf_overlap(field, smf_waist_m, p)


def _smf_overlap(field: ComplexFieldGrid, smf_waist_m: float, power: float) -> float:
    """smf_coupling_efficiency for a field whose total power is known."""
    g1 = _gaussian_profile(field.grid, smf_waist_m)
    overlap = (g1 @ field.samples @ g1) * field.spacing_m**2
    return float(np.abs(overlap) ** 2 / power)


# log-spaced waists of the coarse scan before the golden-section refinement
_N_COARSE = 48


def optimize_smf_waist(aperture_field: ComplexFieldGrid) -> tuple:
    """Waist maximizing the fiber coupling efficiency, with that efficiency.

    Coarse log-spaced scan over feasible waists followed by golden-section
    refinement of the best bracket.  Returns (waist_m, efficiency).
    """
    p = total_power(aperture_field)  # scanned once; every probe reuses it
    if p <= 0:
        raise ZeroPowerError("cannot optimize the fiber waist of a zero-power field")

    def eff(w):
        return _smf_overlap(aperture_field, w, p)

    lo = 4 * aperture_field.spacing_m
    hi = aperture_field.extent_m / 2
    waists = np.geomspace(lo, hi, _N_COARSE)
    effs = [eff(w) for w in waists]
    k = int(np.argmax(effs))
    a = waists[max(k - 1, 0)]
    b = waists[min(k + 1, _N_COARSE - 1)]

    invphi = (math.sqrt(5.0) - 1) / 2
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc = eff(c)
    fd = eff(d)
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


@dataclass(frozen=True)
class ModeStatistics:
    """Time-averaged relative mode powers over a coefficient series."""

    indices: tuple
    mean_fraction: np.ndarray  # per mode, fractions of total field power
    residual_fraction: float

    def group_fractions(self) -> dict:
        """Summed mean fraction per mode group m+n."""
        out = {}
        for (m, n), frac in zip(self.indices, self.mean_fraction):
            out[m + n] = out.get(m + n, 0.0) + float(frac)
        return out

    def captured_fraction(self, n_modes: int = None) -> float:
        """Mean fraction captured by the first n_modes basis modes."""
        n = len(self.indices) if n_modes is None else n_modes
        return float(np.sum(self.mean_fraction[:n]))


def mode_statistics(series) -> ModeStatistics:
    """Average per-frame relative mode powers; sums to 1 with the residual."""
    fractions = []
    residuals = []
    for mc in series:
        total = mc.total_power
        fractions.append(mc.mode_power / total)
        residuals.append(mc.residual_power / total)
    if not fractions:
        raise ParameterError("mode_statistics needs a non-empty series")
    return ModeStatistics(
        indices=MODE_ORDER,
        mean_fraction=np.mean(fractions, axis=0),
        residual_fraction=float(np.mean(residuals)),
    )
