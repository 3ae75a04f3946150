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
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ScanRangeError

__all__ = [
    "C_VACUUM",
    "OpticalSpectrum",
    "two_path_efficiency",
    "per_line_efficiency",
    "VodlScan",
    "vodl_scan",
    "WdmLinkResult",
    "wdm_link_run",
]

C_VACUUM = 299792458.0


@dataclass(frozen=True)
class OpticalSpectrum:
    """Discrete lines of equal weight, or a rectangular band."""

    lines_hz: np.ndarray = None
    band_center_hz: float = None
    band_width_hz: float = None
    weights: np.ndarray = field(init=False, default=None)  # per line, summing to 1

    def __post_init__(self):
        if (self.lines_hz is None) == (self.band_center_hz is None):
            raise ParameterError("specify either discrete lines or a band, not both")
        if self.lines_hz is not None:
            lines = np.atleast_1d(np.asarray(self.lines_hz, dtype=np.float64))
            if np.any(lines <= 0):
                raise ParameterError("line frequencies must be positive")
            object.__setattr__(self, "lines_hz", lines)
            object.__setattr__(self, "weights", np.full(lines.size, 1.0 / lines.size))
        else:
            if self.band_center_hz <= 0 or self.band_width_hz < 0:
                raise ParameterError("band needs positive center and non-negative width")
            if self.band_width_hz >= 2 * self.band_center_hz:
                raise ParameterError("band width exceeds physical range")

    @classmethod
    def two_lines(cls, center_hz: float, spacing_hz: float) -> "OpticalSpectrum":
        """Two equal-weight lines spaced spacing_hz about center_hz."""
        lines = np.array([center_hz - spacing_hz / 2, center_hz + spacing_hz / 2])
        return cls(lines_hz=lines)

    @classmethod
    def rectangular_wavelength(cls, center_m: float, width_m: float) -> "OpticalSpectrum":
        """Rectangular band given as wavelength center/width (e.g. 16 nm at 1560 nm)."""
        center_hz = C_VACUUM / center_m
        width_hz = C_VACUUM * width_m / center_m**2
        return cls(band_center_hz=center_hz, band_width_hz=width_hz)

    @property
    def centroid_hz(self) -> float:
        if self.lines_hz is not None:
            return float(np.sum(self.lines_hz * self.weights))
        return self.band_center_hz

    def autocorrelation(self, delay_s: float) -> complex:
        """Normalized spectral autocorrelation about the centroid."""
        if self.lines_hz is not None:
            offsets = self.lines_hz - self.centroid_hz
            return complex(np.sum(self.weights * np.exp(2j * np.pi * offsets * delay_s)))
        x = self.band_width_hz * delay_s
        return complex(np.sinc(x))


def two_path_efficiency(spectrum: OpticalSpectrum, delay_s: float) -> float:
    """Combining efficiency of two equal paths with delay mismatch delay_s.

    The common phase actuator is locked on the spectral centroid, leaving
    each line the residual error of its offset: efficiency =
    (1 + Re gamma(tau)) / 2, which is 1 at tau = 0 and symmetric in tau.
    """
    g = spectrum.autocorrelation(float(delay_s)).real
    return float(min(1.0, max(0.0, 0.5 * (1.0 + g))))


def per_line_efficiency(spectrum: OpticalSpectrum, delay_s: float) -> np.ndarray:
    """Efficiency seen by each discrete line under a centroid-locked actuator."""
    if spectrum.lines_hz is None:
        raise ParameterError("per-line efficiency needs a discrete-line spectrum")
    offsets = spectrum.lines_hz - spectrum.centroid_hz
    return np.cos(np.pi * offsets * float(delay_s)) ** 2


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
    if scan_step_m <= 0 or scan_range_m <= 0:
        raise ParameterError("scan range and step must be positive")
    mismatch_m = true_mismatch_s * C_VACUUM
    if abs(mismatch_m) > scan_range_m:
        raise ScanRangeError(
            f"scan range +-{scan_range_m} m does not bracket the mismatch {mismatch_m} m"
        )
    n = int(math.floor(scan_range_m / scan_step_m))
    delays_m = np.arange(-n, n + 1) * scan_step_m
    taus = delays_m / C_VACUUM - true_mismatch_s
    eff = np.array([two_path_efficiency(spectrum, t) for t in taus])
    k = int(np.argmax(eff))
    peak = eff[k]
    half = peak / 2.0
    above = eff >= half
    if above.all():
        width = math.inf
    else:
        left = k
        while left > 0 and above[left - 1]:
            left -= 1
        right = k
        while right < eff.size - 1 and above[right + 1]:
            right += 1
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
    mismatch.  On the demodulator-input power axis the power split cancels,
    so under any fading sequence a line's BER curve is the single-wavelength
    curve shifted by the combining loss: the penalty is -10 log10(eta) at
    every BER.
    """
    line_eff = per_line_efficiency(spectrum, delay_s)
    # 0.0 - x, not -x: a lossless line reports 0.0, never -0.0
    penalties = [0.0 - 10.0 * math.log10(max(float(eff), 1e-300)) for eff in line_eff]
    return WdmLinkResult(
        line_hz=spectrum.lines_hz.copy(),
        line_efficiency=line_eff,
        penalty_vs_single_db=penalties,
    )
