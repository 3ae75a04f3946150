"""Hermite-Gauss mode basis, field decomposition and fiber coupling.

The receiver basis holds the HG modes of groups m+n <= max_group (the 15 of
groups 0..4 by default) with a common waist sized so the highest-order group
fits the collection aperture.  All inner products are grid quadratures;
modes are unit-power on their grid, so squared projection magnitudes are
watts directly.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_hermite

from .errors import ParameterError, ZeroPowerError, _array, _num
from .field import (ComplexFieldGrid, GridSpec, _gaussian_profile, _require_same_geometry,
                    total_power)

__all__ = [
    "MODE_ORDER",
    "ModeBasis",
    "ModeCoefficients",
    "decompose",
    "smf_coupling_efficiency",
    "optimize_smf_waist",
    "ModeStatistics",
    "mode_statistics",
]

# the highest mode group a basis holds
_MAX_GROUP = 4

# Mode ordering by group m+n, ascending m inside a group: 00, 01, 10, 02, ...
MODE_ORDER = tuple(
    (m, g - m) for g in range(_MAX_GROUP + 1) for m in range(g + 1)
)


@dataclass(frozen=True)
class ModeBasis:
    """Ordered HG basis with a common waist, held as its 1-D factors.

    HG_mn is real and separable, outer(p_n, p_m) on the grid (m indexes x,
    n indexes y), so the basis keeps only the (orders, N) table of 1-D
    profiles p_j, each normalized to sum p_j^2 dx = 1; every mode then has
    unit grid power.
    """

    indices: tuple
    waist_m: float
    grid: GridSpec
    profiles: np.ndarray  # (max order + 1, N) real, unit 1-D power each

    def __post_init__(self):
        self.profiles.setflags(write=False)

    @classmethod
    def build(cls, grid: GridSpec, aperture_diameter_m: float,
              max_group: int = _MAX_GROUP) -> "ModeBasis":
        """The modes of groups m+n = 0..max_group, in MODE_ORDER.

        The common waist puts the top group's 1/e^2 radius, which scales as
        w sqrt(g+1), on the aperture radius: w = (D/2) / sqrt(max_group + 1).
        The grid must resolve that waist with 4 samples and hold the top
        group within its extent.
        """
        _num(aperture_diameter_m, "aperture_diameter_m", gt=0)
        max_group = _num(max_group, "max_group", lo=0, hi=_MAX_GROUP, integer=True)
        waist_m = (aperture_diameter_m / 2) / math.sqrt(max_group + 1)
        if waist_m < 4 * grid.spacing_m:
            raise ParameterError(
                f"aperture_diameter_m: basis waist {waist_m} not resolvable on spacing "
                f"{grid.spacing_m} (need >= 4 samples)"
            )
        radius = waist_m * math.sqrt(max_group + 1)
        if 2 * radius > grid.extent_m:
            raise ParameterError(
                f"aperture_diameter_m: mode group {max_group} spills beyond the grid: "
                f"1/e^2 radius {radius} vs extent {grid.extent_m}"
            )
        indices = MODE_ORDER[:(max_group + 1) * (max_group + 2) // 2]  # groups 0..max_group
        x = grid.coords()
        profiles = np.empty((max_group + 1, grid.n))
        for order in range(max_group + 1):  # the 1-D Hermite-Gauss factor of each order
            p = eval_hermite(order, np.sqrt(2.0) * x / waist_m) * np.exp(-(x**2) / waist_m**2)
            profiles[order] = p / math.sqrt(np.sum(p * p) * grid.spacing_m)
        return cls(indices=indices, waist_m=waist_m, grid=grid, profiles=profiles)

    def names(self) -> list:
        return [f"HG{m}{n}" for m, n in self.indices]

    def gram(self) -> np.ndarray:
        """Grid-quadrature Gram matrix; identity for a well-sampled basis.

        The Gram of outer(p_n, p_m) modes is the product of the 1-D Grams
        of their y and x factors.
        """
        g1 = (self.profiles @ self.profiles.T) * self.grid.spacing_m
        m, n = np.array(self.indices).T
        return g1[np.ix_(n, n)] * g1[np.ix_(m, m)]


@dataclass(frozen=True)
class ModeCoefficients:
    """Complex projection of one field onto a basis, plus unprojected power."""

    coeffs: np.ndarray  # (K,) complex, sqrt(W)
    residual_power: float  # W not captured by the basis

    def __post_init__(self):
        c = _array(self.coeffs, "coeffs", (None,), dtype=np.complex128).copy()
        _num(self.residual_power, "residual_power")
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

    The modes are real and separable, so all projections are the entries
    (n, m) of P F P^T dx^2, P the basis' 1-D profiles: one pass over the
    field instead of one per mode.  residual_power is the field power
    outside the basis span and can only be negative by quadrature
    round-off (Bessel's inequality).
    """
    _require_same_geometry(
        field.n, field.spacing_m, basis.grid.n, basis.grid.spacing_m, "decompose"
    )
    p = basis.profiles
    # a real matrix times a complex one: the product of P with the field
    # viewed as interleaved (re, im) floats, a real GEMM on the same memory
    f = np.ascontiguousarray(field.samples).view(np.float64)
    rows = (p @ f).view(np.complex128)  # P F, (orders, N)
    proj = (rows @ p.T) * field.spacing_m**2  # P F P^T dx^2, indexed [n, m]
    m, n = np.array(basis.indices).T
    coeffs = proj[n, m]
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
    p = total_power(aperture_field)  # summed once; every probe reuses it
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
    """Time-averaged relative mode powers over a coefficient series, in
    MODE_ORDER."""

    mean_fraction: np.ndarray  # per mode, fractions of total field power
    residual_fraction: float

    def group_fractions(self) -> dict:
        """Summed mean fraction per mode group m+n."""
        out = {}
        for (m, n), frac in zip(MODE_ORDER, self.mean_fraction):
            out[m + n] = out.get(m + n, 0.0) + float(frac)
        return out

    def captured_fraction(self, n_modes: int = None) -> float:
        """Mean fraction captured by the first n_modes basis modes (all by default)."""
        if n_modes is not None:
            _num(n_modes, "n_modes", lo=0, hi=len(self.mean_fraction), integer=True)
        return float(np.sum(self.mean_fraction[:n_modes]))


def mode_statistics(series) -> ModeStatistics:
    """Average per-frame relative mode powers; sums to 1 with the residual.
    A frame of zero total power raises ZeroPowerError."""
    fractions = []
    residuals = []
    for mc in series:
        total = mc.total_power
        if total <= 0:
            raise ZeroPowerError("mode fractions undefined for a frame of zero power")
        fractions.append(mc.mode_power / total)
        residuals.append(mc.residual_power / total)
    if not fractions:
        raise ParameterError("mode_statistics needs a non-empty series")
    return ModeStatistics(
        mean_fraction=np.mean(fractions, axis=0),
        residual_fraction=float(np.mean(residuals)),
    )
