"""Parametric OOK/DPSK receiver models and fading-sequence BER statistics.

The receiver is a Gaussian-Q detector anchored at a configured sensitivity
(received optical power giving BER 1e-9); the paper-style quantities built
on it are the frame-averaged cumulated BER, the error floor produced by the
combiner's phase-wrap transients, synchronization-loss time and power
penalties between BER-vs-power curves.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erfc

from ._streams import substream
from .errors import CurveCrossingError, ParameterError, _array, _num

__all__ = [
    "ReceiverModel",
    "PowerTrace",
    "Q_AT_1E9",
    "ber_instant",
    "cumulated_ber",
    "ber_curve",
    "frame_rate_invariance_check",
    "sync_loss_stats",
    "power_penalty",
    "select_windows",
    "ber_floor_from_phase_jumps",
    "monte_carlo_cumulated_ber",
]

# Gaussian-Q value giving BER 1e-9: 0.5 erfc(Q/sqrt(2)) = 1e-9
Q_AT_1E9 = 6.0
DPSK_ADVANTAGE_DB = 3.0


@dataclass(frozen=True)
class ReceiverModel:
    """Receiver parameterization for one modulation format.

    sensitivity_dbm anchors the Gaussian-Q curve (BER 1e-9 at that power).
    For DPSK the anchor is the configured OOK sensitivity minus the
    balanced-detection advantage.
    floor_duty is the fraction of time the combiner spends in wrap
    transients; errored at coin-flip rate, it floors the BER at duty / 2.
    """

    format: str = "ook"
    sensitivity_dbm: float = -39.0
    floor_duty: float = 0.0

    def __post_init__(self):
        if self.format not in ("ook", "dpsk"):
            raise ParameterError(f"format must be 'ook' or 'dpsk', got {self.format!r}")
        _num(self.sensitivity_dbm, "sensitivity_dbm")
        _num(self.floor_duty, "floor_duty", lo=0.0, hi=1.0)

    @property
    def effective_sensitivity_dbm(self) -> float:
        if self.format == "dpsk":
            return self.sensitivity_dbm - DPSK_ADVANTAGE_DB
        return self.sensitivity_dbm


@dataclass(frozen=True)
class PowerTrace:
    """Received optical power at the demodulator input, one sample per frame;
    frame i starts at i / frame_rate_hz and lasts one frame period."""

    rop_dbm: np.ndarray
    frame_rate_hz: float = 1.0
    correction_bandwidth_hz: float = None

    def __post_init__(self):
        object.__setattr__(self, "rop_dbm", _array(self.rop_dbm, "rop_dbm", (None,)))
        _num(self.frame_rate_hz, "frame_rate_hz", gt=0)
        if self.correction_bandwidth_hz is not None:
            _num(self.correction_bandwidth_hz, "correction_bandwidth_hz", gt=0)

    @classmethod
    def from_rop(cls, rop_dbm, frame_rate_hz: float = 1.0, **kw) -> "PowerTrace":
        """A trace of per-frame powers in dBm; a scalar is a one-frame trace."""
        return cls(np.atleast_1d(_array(rop_dbm, "rop_dbm", None)), frame_rate_hz, **kw)


def ber_instant(rop_dbm, model: ReceiverModel):
    """Instantaneous BER at the given received power.

    BER = floor + (1 - floor) * 0.5 erfc(Q / sqrt 2) with
    Q = 6 * 10^((rop - sensitivity) / 20) and floor = floor_duty / 2,
    clamped to 0.5.  Elementwise over rop_dbm; a scalar gives an np.float64.
    """
    rop = _array(rop_dbm, "rop_dbm", None)
    q = Q_AT_1E9 * 10.0 ** ((rop - model.effective_sensitivity_dbm) / 20.0)
    floor = ber_floor_from_phase_jumps(model.floor_duty)
    ber = floor + (1.0 - floor) * 0.5 * erfc(q / math.sqrt(2.0))
    return np.minimum(ber, 0.5)


def cumulated_ber(rop_dbm, model: ReceiverModel) -> float:
    """Frame-averaged BER of a fading sequence: mean of BER(P(i)) over an
    array of per-frame powers in dBm.

    Independent of the frame rate for a fixed power sequence.
    """
    return float(np.mean(ber_instant(_array(rop_dbm, "rop_dbm", (None,)), model)))


def monte_carlo_cumulated_ber(rop_dbm, model: ReceiverModel, bits_per_frame: int = 10**7,
                              seed: int = 0) -> tuple:
    """Bit-level Monte Carlo estimate of the cumulated BER of an array of
    per-frame powers in dBm.

    Draws bits_per_frame Bernoulli errors per frame at that frame's BER and
    pools the error counts.  Returns (estimate, standard_error).
    """
    _num(bits_per_frame, "bits_per_frame", lo=1, integer=True)
    p = ber_instant(_array(rop_dbm, "rop_dbm", (None,)), model)
    rng = substream(seed, "mc-ber")
    errors = rng.binomial(bits_per_frame, p)
    total_bits = bits_per_frame * p.size
    estimate = errors.sum() / total_bits
    var = np.sum(p * (1.0 - p) * bits_per_frame) / total_bits**2
    return float(estimate), float(math.sqrt(var))


def ber_curve(rop_grid_dbm, model: ReceiverModel, efficiency_db):
    """Cumulated BER versus ROP setpoint for a fading sequence.

    efficiency_db is the per-frame coupling efficiency in dB relative to its
    own mean; at setpoint R each frame sees R + efficiency_db[i].  The
    static (back-to-back) receiver curve is ber_instant.  Returns an array
    matching rop_grid_dbm, from one pass over the (setpoint x frame) grid.
    """
    grid = _array(rop_grid_dbm, "rop_grid_dbm", (None,))
    eta = _array(efficiency_db, "efficiency_db", (None,))
    eta = eta - np.mean(eta)
    return np.mean(ber_instant(grid[:, None] + eta, model), axis=1)


def frame_rate_invariance_check(trace: PowerTrace, model: ReceiverModel, rates_hz) -> tuple:
    """Replay the same power sequence at several frame rates.

    Returns (invariant, max_relative_deviation, flagged).  cumulated_ber
    takes no rate, so the deviation is zero by construction and flagged
    carries the information: it is True when the trace carries a correction
    bandwidth smaller than its frame rate, where the zero-order-hold premise
    fails and the trace is excluded from the invariance claim.
    """
    rates = _array(rates_hz, "rates_hz", (None,), gt=0)
    flagged = (
        trace.correction_bandwidth_hz is not None
        and trace.correction_bandwidth_hz < trace.frame_rate_hz
    )
    baseline = cumulated_ber(trace.rop_dbm, model)
    deviations = []
    for rate in rates:
        replay = PowerTrace.from_rop(trace.rop_dbm, frame_rate_hz=rate)
        deviations.append(abs(cumulated_ber(replay.rop_dbm, model) - baseline))
    max_dev = max(deviations) / baseline if baseline > 0 else max(deviations)
    return (max_dev <= 1e-12 and not flagged), float(max_dev), flagged


def sync_loss_stats(
    trace: PowerTrace,
    model: ReceiverModel,
    ber_threshold: float = 1e-3,
    reacquire_s: float = 0.1,
) -> float:
    """Seconds of synchronization loss per minute of link time.

    Frames whose BER exceeds ber_threshold open an outage; after the BER
    recovers the demodulator still needs reacquire_s before lock counts
    again.  The total outage time is normalized to 60 s.
    """
    _num(ber_threshold, "ber_threshold", gt=0, lt=0.5)
    _num(reacquire_s, "reacquire_s", lo=0)
    rate = trace.frame_rate_hz
    duration = trace.rop_dbm.size / rate
    if duration < 1.0:
        raise ParameterError("sync loss statistics need at least 1 s of trace")
    bad = ber_instant(trace.rop_dbm, model) > ber_threshold
    outage = 0.0
    in_outage_until = -math.inf
    for i, flag in enumerate(bad):
        start = i / rate
        end = (i + 1) / rate
        if flag:
            in_outage_until = max(in_outage_until, end + reacquire_s)
        outage += max(0.0, min(end, in_outage_until) - start)
    return float(outage / duration * 60.0)


def power_penalty(curve, reference, target_ber: float) -> float:
    """Extra power the curve needs versus the reference at target_ber.

    Both curves are (rop_dbm, ber) pairs sampled on monotone grids; the
    crossing power is log-interpolated.  Raises CurveCrossingError naming
    the side that never crosses the target.
    """
    _num(target_ber, "target_ber", gt=0, lt=0.5)
    curve = _array(curve, "curve", (2, None))
    reference = _array(reference, "reference", (2, None))

    def crossing(rop, ber, side):
        order = np.argsort(rop)
        rop, ber = rop[order], ber[order]
        log_b = np.log10(np.maximum(ber, 1e-300))
        log_t = math.log10(target_ber)
        below = log_b <= log_t
        if not below.any() or below[0]:
            raise CurveCrossingError(
                f"{side} curve does not cross BER {target_ber:g} inside its sampled range",
                side,
            )
        j = int(np.argmax(below))
        frac = (log_t - log_b[j - 1]) / (log_b[j] - log_b[j - 1])
        return rop[j - 1] + frac * (rop[j] - rop[j - 1])

    return float(crossing(*curve, "curve") - crossing(*reference, "reference"))


def select_windows(efficiency_db, window_len: int, stride: int) -> dict:
    """Best and worst stretches of a per-frame efficiency trace (dB).

    Candidate windows hold window_len frames and start every stride
    frames; "best" has the smallest max-min span and "worst" the largest
    (the first on ties).  Returns {"best": (start, end), "worst": (start,
    end)} as frame ranges; a trace no longer than window_len is one window.
    """
    _num(window_len, "window_len", lo=1, integer=True)
    _num(stride, "stride", lo=1, integer=True)
    eff = _array(efficiency_db, "efficiency_db", (None,))
    if eff.size <= window_len:
        return {"best": (0, eff.size), "worst": (0, eff.size)}
    spans = np.ptp(sliding_window_view(eff, window_len)[::stride], axis=1)
    best = stride * int(np.argmin(spans))
    worst = stride * int(np.argmax(spans))
    return {"best": (best, best + window_len), "worst": (worst, worst + window_len)}


def ber_floor_from_phase_jumps(wrap_duty: float) -> float:
    """High-power BER floor from combiner wrap transients: duty / 2."""
    _num(wrap_duty, "wrap_duty", lo=0.0, hi=1.0)
    return 0.5 * wrap_duty
