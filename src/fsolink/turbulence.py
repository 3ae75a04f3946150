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

A time series renders its phase factors on one worker thread, each with
one tan in the half-angle form of exp(i phi).  The worker also takes each
frame's first propagation step, which depends on the top layer's factor
alone; the calling thread takes the other steps and the aperture.
"""

import functools
import math
import sys
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft

from ._streams import substream
from .errors import ParameterError, _array, _num
# apply_phase_screen is unused here: perfbench/tracing.py patches it by this name
from .field import (  # noqa: F401
    ComplexFieldGrid,
    GridSpec,
    _apply_phase_factor,
    _check_geometry,
    _check_step,
    _propagation_step,
    _unchecked_field,
    angular_spectrum_propagate,
    apply_aperture,
    apply_phase_screen,
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


def _check_fried(r0_m) -> float:
    """A Fried parameter as a float: > 0 (inf: no turbulence), and not so
    small that r0^(-5/3), the scale of the PSD, overflows."""
    r0_m = _num(r0_m, "r0_m", gt=0, inf_ok=True)
    try:
        r0_m ** (-5.0 / 3.0)
    except OverflowError:
        raise ParameterError(f"r0_m: {r0_m!r} m is so small that r0^(-5/3) overflows") from None
    return r0_m


def _check_scales(outer, inner, outer_name, inner_name) -> tuple:
    """The von Karman outer and inner scales as floats: both > 0, outer above inner."""
    outer = _num(outer, outer_name, gt=0)
    inner = _num(inner, inner_name, gt=0)
    if not outer > inner:
        raise ParameterError(f"need {outer_name} > {inner_name}")
    return outer, inner


# midpoint-rule points per side of an augmentation cell
_CELL_POINTS = 17
# the largest PSD peak whose cell sums of _CELL_POINTS**2 samples stay finite
_PSD_PEAK_MAX = sys.float_info.max / _CELL_POINTS**2


def _psd_peak_bounded(r0_m, L0_m):
    """Whether the PSD peak at a finite r0, 0.023 r0^(-5/3) L0^(11/3) at
    f = 0, is at most _PSD_PEAK_MAX."""
    try:
        return 0.023 * r0_m ** (-5.0 / 3.0) * L0_m ** (11.0 / 3.0) <= _PSD_PEAK_MAX
    except OverflowError:
        return False


def _layer_r0_m(total_r0_m, n_layers):
    """Fried parameter of each of n_layers equal-Cn^2 layers."""
    return total_r0_m * (1.0 / n_layers) ** (-3.0 / 5.0)


# the eight cells of an augmentation ring as (ix, iy) offsets, in drawing order
_RING = [(ix, iy) for iy in (-1, 0, 1) for ix in (-1, 0, 1) if ix or iy]
# the unit vector from the ring's centre towards each cell
_RING_DIRECTIONS = [(math.cos(math.atan2(iy, ix)), math.sin(math.atan2(iy, ix)))
                    for ix, iy in _RING]


def _augmentation_cells(df, levels, r0_m, L0_m, l0_m):
    """Frequencies (K, 2) and sqrt(integrated power) (K,) of the K = 8 * levels
    augmentation cells, ring by ring, integrated in one array pass.

    Each cell of width df / 3^level carries its integrated PSD power (the
    midpoint rule on 17 x 17 points), placed at its power-weighted RMS |f|
    along the direction of the cell from the ring's centre; a cell whose
    power underflows to zero sits at its centre.
    """
    width = np.repeat([df / 3.0**level for level in range(levels)], len(_RING))
    ix, iy = np.array(_RING * levels, dtype=np.float64).reshape(-1, 2).T
    q = ((np.arange(_CELL_POINTS) + 0.5) / _CELL_POINTS - 0.5)[None, :] * width[:, None]
    gx = (ix * width)[:, None] + q
    gy = (iy * width)[:, None] + q
    gx, gy = gx[:, :, None], gy[:, None, :]  # each cell's midpoint grid, x down, y across
    p = _psd_cyclic(gx, gy, r0_m, L0_m, l0_m).reshape(width.size, _CELL_POINTS**2)
    mean_p = p.mean(axis=1)
    weighted = (p * (gx**2 + gy**2).reshape(width.size, _CELL_POINTS**2)).mean(axis=1)
    f_rms = np.hypot(ix * width, iy * width)
    lit = mean_p > 0
    f_rms[lit] = np.sqrt(weighted[lit] / mean_p[lit])
    directions = np.array(_RING_DIRECTIONS * levels, dtype=np.float64).reshape(-1, 2)
    return f_rms[:, None] * directions, np.sqrt(mean_p * width * width)


@dataclass(frozen=True)
class PhaseScreen:
    """One turbulence realization: phase in radians on a square grid.

    The constructor takes ownership of the phase array and marks it
    read-only; pass a copy to keep a writable reference.
    """

    phase: np.ndarray
    spacing_m: float

    def __post_init__(self):
        object.__setattr__(self, "phase", _array(self.phase, "phase", ("n", "n")))
        self.phase.setflags(write=False)


class _SpectralTemplate:
    """What every screen of one grid and one spectrum shares.

    The PSD amplitude sqrt(psd) of the DFT lattice (its 3x3 centre handed
    to the augmentation rings when they are on), the fftshift sign table of
    the Hermitian half, the lattice frequencies, and the augmentation cells:
    their frequencies, sqrt(power) and the x and y tables sampling them on
    the grid.  Every array is read-only: _spectral_template hands one
    template to every series and screen of its parameters in the process,
    and their rendering workers read it.  Its arguments are the values
    _spectral_template checked, not checked again.
    """

    def __init__(self, n, spacing_m, r0_m, L0_m, l0_m, levels):
        self.n = n
        self.spacing_m = spacing_m
        self.df = 1.0 / (n * spacing_m)

        self.f1 = np.fft.fftfreq(n, d=spacing_m)
        if math.isinf(r0_m):
            psd = np.zeros((n, n))
        else:
            psd = _psd_cyclic(self.f1[None, :], self.f1[:, None], r0_m, L0_m, l0_m)
        psd[0, 0] = 0.0
        if levels > 0:
            # the 3x3 center of the lattice is handed to the augmentation rings
            psd[np.ix_((-1, 0, 1), (-1, 0, 1))] = 0.0
        self.amp = np.sqrt(psd, out=psd)
        h = n // 2
        # the fftshift of the rendered screen is the exact sign (-1)^(kx+ky);
        # the 1/2 makes the Hermitian part (S[k] + conj(S[-k])) / 2
        self.sign = np.where((np.arange(n)[:, None] + np.arange(h + 1)) % 2, -0.5, 0.5)

        self.sub_f, self.sub_amp = _augmentation_cells(
            self.df, 0 if math.isinf(r0_m) else levels, r0_m, L0_m, l0_m)
        # the augmentation components sampled on the grid; Re(Y X^T) is the
        # real product [Re Y, Im Y] [Re X, -Im X]^T, X the (n, 2K) x table
        x = (np.arange(n) - h) * spacing_m
        cx = np.exp(2j * np.pi * np.outer(x, self.sub_f[:, 0]))
        self.sub_cx = np.concatenate([cx.real, -cx.imag], axis=1)
        self.sub_cy = np.exp(2j * np.pi * np.outer(x, self.sub_f[:, 1]))
        for table in (self.f1, self.amp, self.sign, self.sub_f, self.sub_amp, self.sub_cx,
                      self.sub_cy):
            table.setflags(write=False)


def _spectral_template(n, spacing_m, r0_m, L0_m, l0_m, subharmonic_levels):
    """The _SpectralTemplate of these six arguments, checked here and built
    once per process for each set of checked values.

    Its tables are read-only, so every series and screen of one parameter
    set shares them, also across threads.  A rejected argument raises a
    ParameterError naming it before the cache is consulted; so do a finite
    r0 and an L0 whose PSD peak, 0.023 r0^(-5/3) L0^(11/3) at f = 0, is so
    large that the sum of an augmentation cell's 17 x 17 PSD samples could
    overflow.  (f^2 times the PSD, the cell's other sum, peaks below 0.3
    r0^(-5/3) L0^(5/3), which stays under that bound wherever the peak does
    for an r0 that _check_fried accepts.)
    """
    n = _num(n, "n", lo=2, integer=True)
    if n & (n - 1):
        raise ParameterError("screen size must be a power of two")
    spacing_m = _num(spacing_m, "spacing_m", gt=0)
    r0_m = _check_fried(r0_m)
    L0_m, l0_m = _check_scales(L0_m, l0_m, "L0_m", "l0_m")
    subharmonic_levels = _num(subharmonic_levels, "subharmonic_levels", lo=0, integer=True)
    if not (math.isinf(r0_m) or _psd_peak_bounded(r0_m, L0_m)):  # inf: no turbulence, no PSD
        raise ParameterError(f"r0_m, L0_m: the PSD peak 0.023 r0^(-5/3) L0^(11/3) at r0 "
                             f"{r0_m!r} m and L0 {L0_m!r} m exceeds {_PSD_PEAK_MAX:.3g}")
    return _cached_template(n, spacing_m, r0_m, L0_m, l0_m, subharmonic_levels)


# a series and a few single screens; at N=512 a template holds about 4 MB
_cached_template = functools.lru_cache(maxsize=4)(_SpectralTemplate)


class _SpectralScreen:
    """Spectral representation of one screen, translatable to any offset.

    Holds the Hermitian half of the DFT coefficient lattice plus the
    low-frequency augmentation components, drawn from rng over a shared
    _SpectralTemplate.  ``phase_at(shift)`` renders the screen translated by
    a physical offset, exactly, for any (sub)pixel shift.
    """

    def __init__(self, template, rng):
        self.n = n = template.n
        self.spacing_m = template.spacing_m
        noise = rng.standard_normal((2, n, n))
        coeff = 1j * noise[1]
        coeff += noise[0]
        del noise
        coeff *= template.amp
        coeff *= template.df
        # The screen is the real part of the inverse DFT of coeff * ramp, which
        # is the inverse DFT of the Hermitian part (S[k] + conj(S[-k])) / 2, so
        # columns 0..n/2 of that part suffice (irfft2).  Off the Nyquist row
        # and column f(-k) = -f(k), the ramp factors out of the pair and the
        # pair sum is precomputed; the template's sign table folds in the
        # fftshift.  The screen is the unnormalized inverse DFT (norm="forward").
        h = n // 2
        # conj(coeff[-k]) for columns 0..n/2: rows 0, n-1, ..., 1 of columns
        # 0, n-1, ..., n/2
        rows = -np.arange(n) % n
        mirror = np.empty((n, h + 1), dtype=np.complex128)
        mirror[:, 0] = coeff[rows, 0]
        mirror[:, 1:] = coeff[rows, : h - 1 : -1]
        np.conjugate(mirror, out=mirror)
        sign = template.sign
        self._half = (coeff[:, : h + 1] + mirror) * sign
        # fftfreq puts the Nyquist frequency at -n/2 df for both k and -k, so
        # there the ramp does not pair: keep the two terms apart
        self._nyq_row = (coeff[h, : h + 1] * sign[h], mirror[h] * sign[h])
        self._nyq_col = (coeff[:, h] * sign[:, h], mirror[:, h] * sign[:, h])
        self._f1 = template.f1

        g = rng.standard_normal((template.sub_amp.size, 2))
        self._sub_c = (g[:, 0] + 1j * g[:, 1]) * template.sub_amp
        self._sub_f = template.sub_f
        self._sub_cx = template.sub_cx
        self._sub_cy = template.sub_cy

    def phase_at(self, shift_xy=(0.0, 0.0)) -> np.ndarray:
        """Render the screen translated by (sx, sy) meters.

        The separable translation ramp exp(-2 pi i (fx sx + fy sy)) multiplies
        the precomputed Hermitian half-spectrum, and irfft2 renders it; the
        augmentation components translate analytically and add in one real
        matrix product.
        """
        sx, sy = float(shift_xy[0]), float(shift_xy[1])
        h = self.n // 2
        ramp_x = np.exp(-2j * np.pi * self._f1[: h + 1] * sx)
        ramp_y = np.exp(-2j * np.pi * self._f1 * sy)
        spectrum = self._half * ramp_y[:, None]
        spectrum *= ramp_x[None, :]
        # conj(ramp(-k)) is the ramp itself except at the unpaired Nyquist bin
        back_x = ramp_x.copy()
        back_x[h] = back_x[h].conjugate()
        back_y = ramp_y.copy()
        back_y[h] = back_y[h].conjugate()
        direct, mirrored = self._nyq_col
        spectrum[:, h] = direct * ramp_y * ramp_x[h] + mirrored * back_y * back_x[h]
        direct, mirrored = self._nyq_row
        spectrum[h] = direct * ramp_y[h] * ramp_x + mirrored * back_y[h] * back_x
        out = _fft.irfft2(spectrum, s=(self.n, self.n), norm="forward", overwrite_x=True)
        del spectrum  # the time series renders beside the field chain: hold one grid less
        if self._sub_c.size:
            amp = self._sub_c * np.exp(-2j * np.pi * (self._sub_f[:, 0] * sx + self._sub_f[:, 1] * sy))
            y = self._sub_cy * amp
            out += np.concatenate([y.real, y.imag], axis=1) @ self._sub_cx.T
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
    statistics).  The spectral template of the parameters (everything but
    the seed) is built once per process and shared by every later call
    with the same ones; only the draws are per screen.
    """
    template = _spectral_template(n, spacing_m, r0_m, L0_m, l0_m, subharmonic_levels)
    gen = _SpectralScreen(template, substream(seed, "phase-screen"))
    if not math.isinf(r0_m) and r0_m < 4 * spacing_m:
        warnings.warn(
            f"grid spacing {spacing_m} resolves r0={r0_m} with fewer than 4 samples",
            RuntimeWarning,
            stacklevel=2,
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

    distance_to_next_m: float
    wind_azimuth_deg: float = 0.0

    def __post_init__(self):
        _num(self.distance_to_next_m, "distance_to_next_m", lo=0)
        _num(self.wind_azimuth_deg, "wind_azimuth_deg")


@dataclass(frozen=True)
class AtmosphereProfile:
    """Layered description of the turbulent slant path.

    total_r0_m is the Fried parameter of the whole line of sight at the
    operating wavelength.  The n layers carry equal Cn^2 shares, so each
    has r0 = total_r0 * (1/n)^(-3/5) and the layers recompose to the
    requested total.
    """

    layers: tuple
    total_r0_m: float
    outer_scale_m: float = 25.0
    inner_scale_m: float = 5e-3
    wind_speed_mps: float = 47.0
    subharmonic_levels: int = 3

    def __post_init__(self):
        _num(self.total_r0_m, "total_r0_m", gt=0, inf_ok=True)
        _check_scales(self.outer_scale_m, self.inner_scale_m, "outer_scale_m", "inner_scale_m")
        _num(self.wind_speed_mps, "wind_speed_mps", lo=0)
        _num(self.subharmonic_levels, "subharmonic_levels", lo=0, integer=True)
        try:
            layers = tuple(self.layers)
        except TypeError:
            raise ParameterError(
                f"layers: expected TurbulenceLayer items, got {type(self.layers).__name__}"
            ) from None
        if not layers:
            raise ParameterError("profile needs at least one layer")
        for layer in layers:
            if not isinstance(layer, TurbulenceLayer):
                raise ParameterError(
                    f"layers: expected TurbulenceLayer items, got {type(layer).__name__}")
        object.__setattr__(self, "layers", layers)

    @property
    def layer_r0_m(self) -> float:
        """Fried parameter of each layer; n r0_i^(-5/3) equals total_r0^(-5/3)."""
        return _layer_r0_m(self.total_r0_m, len(self.layers))


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
    _num(n_layers, "n_layers", lo=1, integer=True)
    _num(top_altitude_m, "top_altitude_m", gt=0)
    sin_el = math.sin(math.radians(_num(elevation_deg, "elevation_deg")))
    if sin_el <= 0:
        raise ParameterError("elevation must be above the horizon")
    altitudes = np.geomspace(top_altitude_m / 2 ** (n_layers - 1), top_altitude_m, n_layers)
    slant = altitudes / sin_el
    layers = []
    for i in range(n_layers - 1, -1, -1):  # propagation order: top first
        dist = slant[i] - (slant[i - 1] if i > 0 else 0.0)
        layers.append(
            TurbulenceLayer(
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


def _phase_factor(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) in the half-angle form (1 - t^2 + 2it) / (1 + t^2),
    t = tan(phase / 2), written into the real and imaginary parts of one
    complex array; phase, a writable float64 array, is overwritten.

    One tan costs a fraction of a cos and a sin, and the factor stays
    within about one ulp of 1 of them.  Its real part is never -0; at a
    phase of +-0 the imaginary part keeps the sign.
    """
    factor = np.empty(phase.shape, dtype=np.complex128)
    re, im = factor.real, factor.imag
    t = np.tan(np.multiply(phase, 0.5, out=phase), out=phase)
    np.multiply(t, t, out=re)
    np.add(re, 1.0, out=im)
    np.subtract(1.0, re, out=re)
    re /= im
    t += t
    np.divide(t, im, out=im)
    return factor


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

    The field entering the top screen is a uniform unit plane wave over
    the grid: the vacuum segment from the satellite is collapsed into a
    far-field collimation assumption, so at receiver scale the incident
    illumination is locally flat.  The field after the top screen is
    therefore that screen's phase factor itself.

    Every frame advances each layer rigidly by wind * t along its azimuth,
    applies the screen, propagates to the next layer (band-limited angular
    spectrum) and finally clips by the receive aperture.  Fully
    deterministic per (seed, profile, grid): frame k never depends on
    n_frames.  A wind speed that shifts the last frame so far that its
    translation phase is beyond the float range raises ParameterError
    naming wind_speed_mps before the first draw.

    All layers share one spectral template (PSD amplitude, sign table,
    augmentation cells), built once per parameter set per process: a later
    series, or one running beside it on another thread, with the same grid
    and spectrum reuses it.  Screens and draws stay per series.  Each
    layer's seeded draws happen on the calling thread just before its
    first factor is queued, so the worker renders layer 0 while the later
    layers are still being drawn, and n_frames=0 draws nothing.  There is
    no setting for this and the frames are the same bits as drawing every
    screen up front from a fresh template.

    A layer's phase factor exp(i phi) depends on the layer and the frame
    time only, never on the field, and neither does the first propagation
    step, whose input is the top layer's factor.  So one worker thread
    renders the factors in (frame, layer) order, up to two ahead of the
    field chain on the calling thread, which takes the later propagation
    steps and applies the aperture.  The worker also takes each frame's
    first step, on the top layer's factor in place, and the calling thread
    checks that step's distance and warns of its sampling each frame.  The
    frames do not depend on the thread split.  A worker error is raised
    from next() of the frame that needs that factor; closing the generator
    cancels the rendering not yet started and joins the thread.
    """
    n, extent_m, wavelength_m = grid.n, grid.extent_m, grid.wavelength_m
    _check_geometry(n, extent_m, wavelength_m)
    _num(n_frames, "n_frames", lo=0, integer=True)
    _num(frame_rate_hz, "frame_rate_hz", gt=0)

    dx = extent_m / n
    template = _spectral_template(n, dx, profile.layer_r0_m, profile.outer_scale_m,
                                  profile.inner_scale_m, profile.subharmonic_levels)
    screens = []
    azimuths = [math.radians(lay.wind_azimuth_deg) for lay in profile.layers]
    # the translation ramp's largest phase, 2 pi times the grid's highest
    # frequency 1/(2 dx) times a last-frame shift, computed as render and
    # phase_at compute it, must be a float
    t_last = max(n_frames - 1, 0) / frame_rate_hz
    ramp_rate = 2 * math.pi * float(np.abs(template.f1).max())
    if not all(math.isfinite(ramp_rate * (profile.wind_speed_mps * t_last * trig(a)))
               for a in azimuths for trig in (math.cos, math.sin)):
        raise ParameterError(f"wind_speed_mps: {profile.wind_speed_mps:g} m/s shifts the last "
                             f"frame's screens by a translation phase beyond the float range")
    top, *below = profile.layers

    def render(i, t):
        shift = (
            profile.wind_speed_mps * t * math.cos(azimuths[i]),
            profile.wind_speed_mps * t * math.sin(azimuths[i]),
        )
        factor = _phase_factor(screens[i].phase_at(shift))  # finite: from finite draws
        if i == 0:  # run only once the calling thread has checked the step
            return _propagation_step(factor, dx, wavelength_m, top.distance_to_next_m,
                                     absorb_edges, in_place=True)
        return factor

    def factor_jobs():
        for k in range(n_frames):
            for i in range(len(profile.layers)):
                if k == 0:  # drawn here, while the worker renders the layers before
                    screens.append(_SpectralScreen(template, substream(seed, "layer", i)))
                yield i, k / frame_rate_hz

    jobs = factor_jobs()
    worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="fsolink-phase-factors")
    pending = deque()

    def rendered():
        while len(pending) <= _FACTORS_AHEAD and (job := next(jobs, None)) is not None:
            pending.append(worker.submit(render, *job))
        return pending.popleft().result()

    try:
        for k in range(n_frames):
            _check_step(top.distance_to_next_m, n, dx, wavelength_m, stacklevel=2)
            # the series' first field is checked where it enters; every
            # later field derives from checked ones
            u = (_unchecked_field if k else ComplexFieldGrid)(rendered(), extent_m, wavelength_m)
            for layer in below:
                u = _apply_phase_factor(u, rendered())
                u = angular_spectrum_propagate(u, layer.distance_to_next_m, absorb_edges=absorb_edges)
            yield apply_aperture(u, rx_aperture_m)
    finally:
        worker.shutdown(cancel_futures=True)


def kolmogorov_structure_function(r, r0_m: float):
    """The inertial-range phase structure function 6.88 (r/r0)^(5/3)."""
    r = _array(r, "r", None, lo=0)
    return 6.88 * (r / _check_fried(r0_m)) ** (5.0 / 3.0)


def measure_structure_function(phases, spacing_m: float, lags_px) -> tuple:
    """Ensemble phase structure function of one or more square N x N screens
    of one shape at integer pixel lags 1..N-1: squared differences along
    both grid axes, averaged over all screens.  Returns (separations_m, D).
    """
    stack = _array(list(phases), "phases", (None, "n", "n"))
    lags = _array(lags_px, "lags_px", (None,), lo=1, hi=stack.shape[1] - 1, integer=True)
    acc = np.zeros(lags.shape, dtype=np.float64)
    for phase in stack:
        for j, lag in enumerate(lags):
            dx = phase[:, lag:] - phase[:, :-lag]
            dy = phase[lag:, :] - phase[:-lag, :]
            acc[j] += 0.5 * (np.mean(dx * dx) + np.mean(dy * dy))
    return lags * spacing_m, acc / stack.shape[0]
