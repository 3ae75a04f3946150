"""Von Karman phase screens, frozen-flow evolution and slant-path time series.

Screens are synthesized spectrally: a DFT lattice of complex-Gaussian
coefficients plus nested low-frequency augmentation rings that repair the
well-known large-scale deficit of pure DFT screens.  Each augmentation cell
carries its exact cell-integrated spectral power, placed at the cell's
power-weighted RMS frequency, which keeps the ensemble structure function
within a few percent of theory out to a quarter of the grid extent.

Frozen-flow evolution is exact: the DFT part translates through a spectral
phase ramp (cyclic), the augmentation components translate analytically
(non-periodic), so long wind-driven time series never wrap the large scales.
"""

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft

from ._streams import substream
from .errors import ParameterError
# apply_phase_screen is unused here: perfbench/tracing.py patches it by this name
from .field import (  # noqa: F401
    GridSpec,
    _multiply_phase_factor,
    angular_spectrum_propagate,
    apply_aperture,
    apply_phase_screen,
    plane_wave,
)

__all__ = [
    "PhaseScreen",
    "TurbulenceLayer",
    "AtmosphereProfile",
    "default_profile",
    "synth_phase_screen",
    "build_time_series",
    "measure_structure_function",
    "kolmogorov_structure_function",
]


def _psd_cyclic(fx, fy, r0_m, L0_m, l0_m):
    """Phase PSD in cyclic frequency (cycles/m), the synthesis normalization."""
    f0 = 1.0 / L0_m
    fm = 5.92 / (2 * np.pi * l0_m)
    f2 = fx * fx + fy * fy
    return 0.023 * r0_m ** (-5.0 / 3.0) * (f2 + f0 * f0) ** (-11.0 / 6.0) * np.exp(-f2 / fm**2)


def _cell_power_and_rms_freq(fcx, fcy, width, r0_m, L0_m, l0_m, nq=17):
    """Integrated PSD power over a square cell and its power-weighted RMS |f|."""
    q = ((np.arange(nq) + 0.5) / nq - 0.5) * width
    gx, gy = np.meshgrid(fcx + q, fcy + q, indexing="ij")
    p = _psd_cyclic(gx, gy, r0_m, L0_m, l0_m)
    mean_p = p.mean()
    power = mean_p * width * width
    if mean_p <= 0:
        return 0.0, math.hypot(fcx, fcy)
    f_rms = math.sqrt(float((p * (gx**2 + gy**2)).mean() / mean_p))
    return float(power), f_rms


@dataclass(frozen=True)
class PhaseScreen:
    """One turbulence realization: phase in radians on a square grid.

    The constructor takes ownership of the phase array and marks it
    read-only; pass a copy to keep a writable reference.
    """

    phase: np.ndarray
    spacing_m: float

    def __post_init__(self):
        p = np.asarray(self.phase, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ParameterError(f"phase must be square, got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ParameterError("phase screen contains non-finite values")
        object.__setattr__(self, "phase", p)
        self.phase.setflags(write=False)


class _SpectralScreen:
    """Spectral representation of one screen, translatable to any offset.

    Holds the DFT coefficient lattice plus the low-frequency augmentation
    components.  ``phase_at(shift)`` renders the screen translated by a
    physical offset, exactly, for any (sub)pixel shift.
    """

    def __init__(self, n, spacing_m, r0_m, L0_m, l0_m, rng, subharmonic_levels=0):
        if n < 2 or (n & (n - 1)) != 0:
            raise ParameterError("screen size must be a power of two")
        if spacing_m <= 0:
            raise ParameterError("spacing_m must be positive")
        if r0_m <= 0:
            raise ParameterError("r0_m must be positive")
        self.n = int(n)
        self.spacing_m = float(spacing_m)
        df = 1.0 / (n * spacing_m)

        f1 = np.fft.fftfreq(n, d=spacing_m)
        if math.isinf(r0_m):
            psd = np.zeros((n, n))
        else:
            psd = _psd_cyclic(f1[None, :], f1[:, None], r0_m, L0_m, l0_m)
        psd[0, 0] = 0.0
        if subharmonic_levels > 0:
            # the 3x3 center of the lattice is handed to the augmentation rings
            psd[np.ix_((-1, 0, 1), (-1, 0, 1))] = 0.0
        noise = rng.standard_normal((2, n, n))
        self._coeff = (noise[0] + 1j * noise[1]) * np.sqrt(psd) * df
        self._f1 = f1

        sub_f = []
        sub_c = []
        if subharmonic_levels > 0 and not math.isinf(r0_m):
            for level in range(subharmonic_levels):
                width = df / 3.0**level
                for iy in (-1, 0, 1):
                    for ix in (-1, 0, 1):
                        if ix == 0 and iy == 0:
                            continue
                        power, f_rms = _cell_power_and_rms_freq(
                            ix * width, iy * width, width, r0_m, L0_m, l0_m
                        )
                        direction = math.atan2(iy, ix)
                        sub_f.append((f_rms * math.cos(direction), f_rms * math.sin(direction)))
                        g = rng.standard_normal(2)
                        sub_c.append((g[0] + 1j * g[1]) * math.sqrt(power))
        self._sub_f = np.asarray(sub_f, dtype=np.float64).reshape(-1, 2)
        self._sub_c = np.asarray(sub_c, dtype=np.complex128)
        # the augmentation components sampled on the grid, (n, K) each
        x = (np.arange(self.n) - self.n // 2) * self.spacing_m
        self._sub_cx = np.exp(2j * np.pi * np.outer(x, self._sub_f[:, 0]))
        self._sub_cy = np.exp(2j * np.pi * np.outer(x, self._sub_f[:, 1]))

    def phase_at(self, shift_xy=(0.0, 0.0)) -> np.ndarray:
        """Render the screen translated by (sx, sy) meters."""
        sx, sy = float(shift_xy[0]), float(shift_xy[1])
        # the translation ramp exp(-2 pi i (fx sx + fy sy)) is separable
        ramp_x = np.exp(-2j * np.pi * self._f1 * sx)
        ramp_y = np.exp(-2j * np.pi * self._f1 * sy)
        spectrum = self._coeff * ramp_y[:, None]
        spectrum *= ramp_x[None, :]
        out = np.fft.fftshift(_fft.ifft2(spectrum, overwrite_x=True).real) * self.n**2
        del spectrum  # the time series renders beside the field chain: hold one grid less
        if self._sub_c.size:
            amp = self._sub_c * np.exp(-2j * np.pi * (self._sub_f[:, 0] * sx + self._sub_f[:, 1] * sy))
            out += ((self._sub_cy * amp) @ self._sub_cx.T).real
        return out


def synth_phase_screen(
    n: int,
    spacing_m: float,
    r0_m: float,
    L0_m: float = 25.0,
    l0_m: float = 5e-3,
    seed: int = 0,
    subharmonic_levels: int = 0,
) -> PhaseScreen:
    """Synthesize one seeded von Karman phase screen.

    Deterministic for a fixed (seed, parameters, n) tuple.  A warning is
    emitted when the grid undersamples r0 (fewer than 4 samples per r0).
    subharmonic_levels adds that many nested low-frequency augmentation
    rings (0 disables; 3 is the usual choice, more for strict large-scale
    statistics).
    """
    if not math.isinf(r0_m) and r0_m < 4 * spacing_m:
        import warnings

        warnings.warn(
            f"grid spacing {spacing_m} resolves r0={r0_m} with fewer than 4 samples",
            RuntimeWarning,
            stacklevel=2,
        )
    gen = _SpectralScreen(
        n, spacing_m, r0_m, L0_m, l0_m,
        rng=substream(seed, "phase-screen"),
        subharmonic_levels=subharmonic_levels,
    )
    phase = gen.phase_at()
    # remove the piston the augmentation rings carry; a constant offset is
    # invisible to every observable and the screen contract wants zero mean
    return PhaseScreen(phase - phase.mean(), spacing_m)


@dataclass(frozen=True)
class TurbulenceLayer:
    """One phase-screen layer along the slant path.

    Layers are listed in propagation order (farthest from the receiver
    first); distance_to_next_m is the slant distance to the next screen,
    or to the receiver plane for the last layer.
    """

    cn2_weight: float
    distance_to_next_m: float
    wind_azimuth_deg: float = 0.0


@dataclass(frozen=True)
class AtmosphereProfile:
    """Layered description of the turbulent slant path.

    total_r0_m is the Fried parameter of the whole line of sight at the
    operating wavelength; per-layer strengths follow from the Cn^2 weights
    through r0_i = total_r0 * w_i^(-3/5), so the layers always recompose to
    the requested total.
    """

    layers: tuple
    total_r0_m: float
    outer_scale_m: float = 25.0
    inner_scale_m: float = 5e-3
    wind_speed_mps: float = 47.0
    subharmonic_levels: int = 3

    def __post_init__(self):
        if self.total_r0_m <= 0:
            raise ParameterError("total_r0_m must be positive")
        if not (self.outer_scale_m > self.inner_scale_m > 0):
            raise ParameterError("need outer_scale_m > inner_scale_m > 0")
        if self.wind_speed_mps < 0:
            raise ParameterError("wind_speed_mps must be >= 0")
        layers = tuple(self.layers)
        if not layers:
            raise ParameterError("profile needs at least one layer")
        w = np.array([lay.cn2_weight for lay in layers], dtype=np.float64)
        if np.any(w < 0):
            raise ParameterError("cn2 weights must be >= 0")
        total = w.sum()
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise ParameterError(f"cn2 weights must sum to 1, got {total}")
        object.__setattr__(self, "layers", layers)

    def layer_r0_m(self, index: int) -> float:
        """Fried parameter of one layer; sum r0_i^(-5/3) equals total_r0^(-5/3)."""
        w = self.layers[index].cn2_weight
        if w == 0 or math.isinf(self.total_r0_m):
            return math.inf
        return self.total_r0_m * w ** (-3.0 / 5.0)


_GOLDEN_ANGLE_DEG = 137.50776405003785


def default_profile(
    total_r0_m: float = 0.22,
    n_layers: int = 5,
    top_altitude_m: float = 2000.0,
    outer_scale_m: float = 25.0,
    inner_scale_m: float = 5e-3,
    wind_speed_mps: float = 47.0,
    elevation_deg: float = 30.0,
    subharmonic_levels: int = 3,
) -> AtmosphereProfile:
    """Equal-weight layered profile for the GEO downlink use case.

    Layer altitudes are spaced geometrically up to top_altitude_m (most of
    the turbulence budget lives low); slant distances follow from the
    elevation.  Per-layer wind azimuths are spread by the golden angle so
    the joint frozen-flow state decorrelates over long runs instead of
    cycling.
    """
    if n_layers < 1:
        raise ParameterError("n_layers must be >= 1")
    sin_el = math.sin(math.radians(elevation_deg))
    if sin_el <= 0:
        raise ParameterError("elevation must be above the horizon")
    altitudes = np.geomspace(top_altitude_m / 2 ** (n_layers - 1), top_altitude_m, n_layers)
    slant = altitudes / sin_el
    layers = []
    for i in range(n_layers - 1, -1, -1):  # propagation order: top first
        dist = slant[i] - (slant[i - 1] if i > 0 else 0.0)
        layers.append(
            TurbulenceLayer(
                cn2_weight=1.0 / n_layers,
                distance_to_next_m=float(dist),
                wind_azimuth_deg=(_GOLDEN_ANGLE_DEG * i) % 360.0,
            )
        )
    return AtmosphereProfile(
        layers=tuple(layers),
        total_r0_m=total_r0_m,
        outer_scale_m=outer_scale_m,
        inner_scale_m=inner_scale_m,
        wind_speed_mps=wind_speed_mps,
        subharmonic_levels=subharmonic_levels,
    )


# phase factors the worker may hold rendered beyond the one the field needs
_FACTORS_AHEAD = 2


def build_time_series(
    profile: AtmosphereProfile,
    grid: GridSpec,
    n_frames: int = 100,
    frame_rate_hz: float = 1500.0,
    seed: int = 0,
    rx_aperture_m: float = 0.50,
    absorb_edges: bool = False,
):
    """Yield receiver-plane, post-aperture fields for successive frames.

    The field entering the top screen is a uniform plane wave over the
    grid: the vacuum segment from the satellite is collapsed into a
    far-field collimation assumption, so at receiver scale the incident
    illumination is locally flat.

    Every frame advances each layer rigidly by wind * t along its azimuth,
    applies the screen, propagates to the next layer (band-limited angular
    spectrum) and finally clips by the receive aperture.  Fully
    deterministic per (seed, profile, grid): frame k never depends on
    n_frames.

    A layer's phase factor exp(i phi) depends on the layer and the frame
    time only, never on the field, so one worker thread renders the
    factors in (frame, layer) order, up to two ahead of the field chain on
    the calling thread; the frames do not depend on it.  A worker error is
    raised from next() of the frame that needs that factor; closing the
    generator cancels the rendering not yet started and joins the thread.
    """
    tx = plane_wave(grid)
    if n_frames < 0:
        raise ParameterError("n_frames must be >= 0")
    if frame_rate_hz <= 0:
        raise ParameterError("frame_rate_hz must be positive")

    gens = []
    for i, layer in enumerate(profile.layers):
        gens.append(
            _SpectralScreen(
                tx.n,
                tx.spacing_m,
                profile.layer_r0_m(i),
                profile.outer_scale_m,
                profile.inner_scale_m,
                rng=substream(seed, "layer", i),
                subharmonic_levels=profile.subharmonic_levels,
            )
        )
    azimuths = [math.radians(lay.wind_azimuth_deg) for lay in profile.layers]

    def render(i, t):
        shift = (
            profile.wind_speed_mps * t * math.cos(azimuths[i]),
            profile.wind_speed_mps * t * math.sin(azimuths[i]),
        )
        return np.exp(1j * PhaseScreen(gens[i].phase_at(shift), tx.spacing_m).phase)

    jobs = ((i, k / frame_rate_hz) for k in range(n_frames) for i in range(len(gens)))
    worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="fsolink-phase-factors")
    pending = deque()
    try:
        for _ in range(n_frames):
            u = tx
            for layer in profile.layers:
                while len(pending) <= _FACTORS_AHEAD and (job := next(jobs, None)) is not None:
                    pending.append(worker.submit(render, *job))
                factor = pending.popleft().result()
                u = u.with_samples(_multiply_phase_factor(u.samples, factor))
                u = angular_spectrum_propagate(u, layer.distance_to_next_m, absorb_edges=absorb_edges)
            yield apply_aperture(u, rx_aperture_m)
    finally:
        worker.shutdown(cancel_futures=True)


def kolmogorov_structure_function(r, r0_m: float):
    """The inertial-range phase structure function 6.88 (r/r0)^(5/3)."""
    return 6.88 * (np.asarray(r, dtype=np.float64) / r0_m) ** (5.0 / 3.0)


def measure_structure_function(phases, spacing_m: float, lags_px) -> tuple:
    """Ensemble phase structure function at integer pixel lags.

    Averages squared differences along both grid axes over all screens.
    Returns (separations_m, D) arrays.
    """
    lags = np.asarray(lags_px, dtype=int)
    if np.any(lags < 1):
        raise ParameterError("lags must be >= 1 pixel")
    acc = np.zeros(lags.shape, dtype=np.float64)
    count = 0
    for phase in phases:
        for j, lag in enumerate(lags):
            dx = phase[:, lag:] - phase[:, :-lag]
            dy = phase[lag:, :] - phase[:-lag, :]
            acc[j] += 0.5 * (np.mean(dx * dx) + np.mean(dy * dy))
        count += 1
    if count == 0:
        raise ParameterError("need at least one screen")
    return lags * spacing_m, acc / count
