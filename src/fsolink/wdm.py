"""Spectral coherence of two-path combining: delay mismatch and WDM links.

Two paths of a combiner only interfere constructively across a whole
spectrum while the differential delay tau keeps every line near a common
phase.  The phase actuator locks the spectral centroid; a line offset
dnu from the centroid then carries a residual error 2 pi dnu tau, and the
power-weighted efficiency is (1 + Re gamma(tau)) / 2 with gamma the
normalized spectral autocorrelation about the centroid.  For two equal
lines spaced dnu this is the classic fringe (1 + cos(pi dnu tau)) / 2:
half power at |dnu tau| = 1/2 and a null at |dnu tau| = 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ScanRangeError, _array, _num

__all__ = [
    "C_VACUUM",
    "OpticalSpectrum",
    "two_path_efficiency",
    "VodlScan",
    "vodl_scan",
    "WdmLinkResult",
    "wdm_link_run",
]

C_VACUUM = 299792458.0


@dataclass(frozen=True)
class OpticalSpectrum:
    """Discrete lines of equal weight (1/n of the power each), or a rectangular band."""

    lines_hz: np.ndarray = None
    band_center_hz: float = None
    band_width_hz: float = None

    def __post_init__(self):
        if (self.lines_hz is None) == (self.band_center_hz is None):
            raise ParameterError("specify either discrete lines or a band, not both")
        if self.lines_hz is not None:
            object.__setattr__(self, "lines_hz", _array(self.lines_hz, "lines_hz", (None,), gt=0))
        else:
            _num(self.band_center_hz, "band_center_hz", gt=0)
            _num(self.band_width_hz, "band_width_hz", lo=0)
            if self.band_width_hz >= 2 * self.band_center_hz:
                raise ParameterError("band width exceeds physical range")

    @classmethod
    def two_lines(cls, center_hz: float, spacing_hz: float) -> "OpticalSpectrum":
        """Two equal-weight lines spaced spacing_hz about center_hz."""
        center_hz = _num(center_hz, "center_hz", gt=0)
        spacing_hz = _num(spacing_hz, "spacing_hz", lo=0)
        if spacing_hz >= 2 * center_hz:
            raise ParameterError(f"spacing_hz: {spacing_hz:g} Hz puts the lower line at or below "
                                 f"0 Hz about a center of {center_hz:g} Hz")
        lines = np.array([center_hz - spacing_hz / 2, center_hz + spacing_hz / 2])
        return cls(lines_hz=lines)

    @classmethod
    def rectangular_wavelength(cls, center_m: float, width_m: float) -> "OpticalSpectrum":
        """Rectangular band given as wavelength center/width (e.g. 16 nm at 1560 nm)."""
        center_m = _num(center_m, "center_m", gt=0)
        width_m = _num(width_m, "width_m", lo=0)
        try:
            width_hz = C_VACUUM * width_m / center_m**2
        except (OverflowError, ZeroDivisionError):  # center_m**2 beyond the float range, or 0
            width_hz = math.inf
        if not math.isfinite(width_hz):
            raise ParameterError(f"center_m: a band of {width_m:g} m about {center_m:g} m spans "
                                 f"a frequency width beyond the float range")
        return cls(band_center_hz=C_VACUUM / center_m, band_width_hz=width_hz)

    @property
    def centroid_hz(self) -> float:
        if self.lines_hz is not None:
            return float(np.sum(self.lines_hz) / self.lines_hz.size)
        return self.band_center_hz


def _efficiency(spectrum: OpticalSpectrum, delays_s: np.ndarray) -> np.ndarray:
    """(1 + Re gamma(tau)) / 2 clamped to [0, 1] at each of an array of
    finite delays, gamma the normalized spectral autocorrelation about the
    centroid (the mean phasor of the line offsets, or the band's sinc)."""
    if spectrum.lines_hz is not None:
        offsets = spectrum.lines_hz - spectrum.centroid_hz
        phasors = np.exp(2j * np.pi * offsets * delays_s[..., None])
        g = (np.sum(phasors, axis=-1) / offsets.size).real
    else:
        g = np.sinc(spectrum.band_width_hz * delays_s)
    return np.minimum(1.0, np.maximum(0.0, 0.5 * (1.0 + g)))


def two_path_efficiency(spectrum: OpticalSpectrum, delay_s: float) -> float:
    """Combining efficiency of two equal paths with delay mismatch delay_s.

    The common phase actuator is locked on the spectral centroid, leaving
    each line the residual error of its offset: efficiency =
    (1 + Re gamma(tau)) / 2, which is 1 at tau = 0 and symmetric in tau.
    """
    return float(_efficiency(spectrum, np.float64(_num(delay_s, "delay_s"))))


@dataclass(frozen=True)
class VodlScan:
    """Delay-line scan result in path-length units."""

    delay_m: np.ndarray
    efficiency: np.ndarray
    peak_delay_m: float
    half_width_m: float  # full width where the curve falls to half its peak


def vodl_scan(
    spectrum: OpticalSpectrum,
    true_mismatch_s: float,
    scan_range_m: float,
    scan_step_m: float,
) -> VodlScan:
    """Scan a variable delay line around zero and locate the coherence peak.

    The curve is two_path_efficiency(tau_scan - true_mismatch); the scan
    range must bracket the true mismatch.  The half width is reported in
    path-length units (full width at half peak; infinite for a
    monochromatic source).
    """
    _num(true_mismatch_s, "true_mismatch_s")
    _num(scan_range_m, "scan_range_m", gt=0)
    _num(scan_step_m, "scan_step_m", gt=0)
    mismatch_m = true_mismatch_s * C_VACUUM
    if abs(mismatch_m) > scan_range_m:
        raise ScanRangeError(
            f"scan range +-{scan_range_m} m does not bracket the mismatch {mismatch_m} m"
        )
    n = int(math.floor(scan_range_m / scan_step_m))
    delays_m = np.arange(-n, n + 1) * scan_step_m
    eff = _efficiency(spectrum, delays_m / C_VACUUM - true_mismatch_s)
    k = int(np.argmax(eff))
    # the points below half peak; the run of points above it holding the
    # peak lies between the nearest of them on either side
    below = np.flatnonzero(eff < eff[k] / 2.0)
    if below.size == 0:
        width = math.inf
    else:
        j = int(np.searchsorted(below, k))
        left = below[j - 1] + 1 if j > 0 else 0
        right = below[j] - 1 if j < below.size else eff.size - 1
        width = delays_m[right] - delays_m[left]
    return VodlScan(
        delay_m=delays_m,
        efficiency=eff,
        peak_delay_m=float(delays_m[k]),
        half_width_m=float(width),
    )


@dataclass(frozen=True)
class WdmLinkResult:
    """Per-line combining efficiencies of a multi-line link and their penalties."""

    line_hz: np.ndarray
    line_efficiency: np.ndarray
    penalty_vs_single_db: list  # one float per line


def wdm_link_run(spectrum: OpticalSpectrum, delay_s: float) -> WdmLinkResult:
    """Per-line combining efficiency of a multi-line link and its penalty
    against a single wavelength.

    Each demultiplexed line sees one constant efficiency eta from the delay
    mismatch under the centroid-locked actuator, cos^2(pi dnu tau) for its
    offset dnu from the centroid.  On the demodulator-input power axis the
    power split cancels, so under any fading sequence a line's BER curve is
    the single-wavelength curve shifted by the combining loss: the penalty
    is -10 log10(eta) at every BER.
    """
    if spectrum.lines_hz is None:
        raise ParameterError("per-line efficiency needs a discrete-line spectrum")
    delay_s = _num(delay_s, "delay_s")
    offsets = spectrum.lines_hz - spectrum.centroid_hz
    line_eff = np.cos(np.pi * offsets * delay_s) ** 2
    # 0.0 - x, not -x: a lossless line reports 0.0, never -0.0
    penalties = [0.0 - 10.0 * math.log10(max(float(eff), 1e-300)) for eff in line_eff]
    return WdmLinkResult(
        line_hz=spectrum.lines_hz.copy(),
        line_efficiency=line_eff,
        penalty_vs_single_db=penalties,
    )
