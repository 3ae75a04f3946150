"""Closed-loop phase control of the combiner by Nelder-Mead power search.

The controller maximizes the single detected output power with standard
Nelder-Mead simplices (reflect 1, expand 2, contract 0.5, shrink 0.5) over
the actuator vector.  Because element phases and split ratios play very
different roles (the optimal phases are independent of the ratios), each
frame runs a staged acquisition schedule of simplex searches: element
phases at re-coupled 50/50 ratios, then ratios, then a joint polish, twice,
with a fine polish on the remaining budget.  The stage simplices are
re-seeded around the best known command, which is the restart policy that
keeps the loop locked on nonstationary inputs.

Actuator phases live in [0, 2 pi): when a command leaves the range the
electronics slip it back by one turn, costing a dead-time during which the
combined output is degraded.  Those wrap transients are what puts an
error-rate floor on an otherwise clean link.

Each simplex search is one sequential Nelder-Mead procedure, suspended at
every point it needs measured.  One evaluator serves both loops, the
framed acquisition of run_closed_loop and the continuous tracking of
correction_bandwidth: it wraps the phase commands, maps the ratio
parameters (fixed 50/50 ratios unless optimize_ratios), runs the
combiner's unchecked kernel (inputs are checked once, on entry), applies
the wrap-residual gain inside a dead-time and draws the detector noise.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from ._streams import substream
# combine and CombinerState are unused here: perfbench/tracing.py patches both by these names
from .combiner import CombinerState, CombinerTopology, _tree_output, combine  # noqa: F401
from .errors import ControllerFault, InvalidFieldError, ParameterError

__all__ = [
    "ControllerConfig",
    "NelderMead",
    "LoopTrace",
    "run_closed_loop",
    "wrap_event_rate",
    "correction_bandwidth",
    "correction_bandwidth_knee",
    "uncorrected_efficiency",
]

TWO_PI = 2 * math.pi

# standard simplex coefficients: reflect, expand, contract, shrink
ALPHA, GAMMA, BETA, DELTA = 1.0, 2.0, 0.5, 0.5

# per-frame acquisition schedule: two (phases, ratios, joint) cycles as
# fractions of the frame budget; the remainder is fine polish
_SCHEDULE = ((0.20, 0.20, 0.20), (0.15, 0.10, 0.15))


class NelderMead:
    """Nelder-Mead minimizer: one sequential search, a generator suspended
    at every point it needs measured.  ``ask()`` returns the pending point
    and ``tell(value)`` sends its measurement in, so the closed loop can
    inject timing, detector noise and actuator-wrap side effects between
    evaluations.  The points in flight live on the instance, so
    ``translate`` moves them with the simplex.
    """

    def __init__(self, x0, edges):
        self.dim = np.size(x0)
        self.reinit(x0, edges)

    def reinit(self, x0, edges):
        """Start a new search on a fresh simplex around x0 (initial or restart)."""
        x0 = np.asarray(x0, dtype=np.float64)
        edges = np.broadcast_to(np.asarray(edges, dtype=np.float64), x0.shape)
        self.simplex = np.tile(x0, (self.dim + 1, 1))
        for i in range(self.dim):
            self.simplex[i + 1, i] += edges[i]
        self.values = np.full(self.dim + 1, np.nan)
        self._centroid = self._xr = self._xe = self._xc = None
        self._search = self._run()
        self._x = next(self._search)

    def translate(self, offset):
        """Shift the whole search space (simplex and in-flight points) rigidly."""
        self.simplex += offset
        for attr in ("_x", "_centroid", "_xr", "_xe", "_xc"):
            v = getattr(self, attr)
            if v is not None:
                setattr(self, attr, v + offset)

    def ask(self) -> np.ndarray:
        return self._x.copy()

    def tell(self, value: float):
        value = float(value)
        if not math.isfinite(value):
            raise ControllerFault("objective returned a non-finite value")
        self._x = self._search.send(value)

    def _run(self):
        """The search; each yield hands out a point and receives its value."""
        for k in range(self.dim + 1):
            self.values[k] = yield self.simplex[k].copy()
        while True:
            order = np.argsort(self.values, kind="stable")
            self.simplex = self.simplex[order]
            self.values = self.values[order]
            # the arithmetic of .mean(axis=0), without its dispatch
            self._centroid = np.add.reduce(self.simplex[:-1], axis=0) / self.dim
            self._xr = self._centroid + ALPHA * (self._centroid - self.simplex[-1])
            fr = yield self._xr
            if fr < self.values[0]:
                self._xe = self._centroid + GAMMA * (self._centroid - self.simplex[-1])
                fe = yield self._xe
                if fe < fr:
                    self.simplex[-1], self.values[-1] = self._xe, fe
                else:
                    self.simplex[-1], self.values[-1] = self._xr, fr
            elif fr < self.values[-2]:
                self.simplex[-1], self.values[-1] = self._xr, fr
            else:
                if fr < self.values[-1]:
                    self._xc = self._centroid + BETA * (self._xr - self._centroid)
                else:
                    self._xc = self._centroid + BETA * (self.simplex[-1] - self._centroid)
                fc = yield self._xc
                if fc < min(fr, self.values[-1]):
                    self.simplex[-1], self.values[-1] = self._xc, fc
                else:  # shrink towards the best vertex and measure the others
                    best = self.simplex[0].copy()
                    self.simplex = best + DELTA * (self.simplex - best)
                    self.simplex[0] = best
                    for k in range(1, self.dim + 1):
                        self.values[k] = yield self.simplex[k].copy()

    @property
    def current_best(self) -> np.ndarray:
        """Best measured simplex vertex; the first vertex before any is measured."""
        if np.all(np.isnan(self.values)):
            return self.simplex[0].copy()
        k = int(np.nanargmin(self.values))
        return self.simplex[k].copy()


@dataclass(frozen=True)
class ControllerConfig:
    """Free parameters of the power-maximization loop.

    simplex_init_rad is the joint-polish simplex edge; the coarse
    acquisition stages scale from it through the fixed schedule.
    """

    evals_per_frame: int = 600
    simplex_init_rad: float = 0.07
    restart_threshold_db: float = 3.0
    wrap_transient_s: float = 1e-3
    detector_noise_rel: float = 0.0
    loop_rate_hz: float = 1.0e6
    wrap_residual_factor: float = 0.25
    optimize_ratios: bool = True

    def __post_init__(self):
        for f in fields(self):
            if f.type is not bool and not math.isfinite(getattr(self, f.name)):
                raise ParameterError(f"{f.name} must be finite")
        if self.evals_per_frame < 1:
            raise ParameterError("evals_per_frame must be >= 1")
        if self.simplex_init_rad <= 0:
            raise ParameterError("simplex_init_rad must be positive")
        if self.restart_threshold_db <= 0:
            raise ParameterError("restart_threshold_db must be positive")
        if self.wrap_transient_s < 0:
            raise ParameterError("wrap_transient_s must be >= 0")
        if self.detector_noise_rel < 0:
            raise ParameterError("detector_noise_rel must be >= 0")
        if self.loop_rate_hz <= 0:
            raise ParameterError("loop_rate_hz must be positive")
        if not 0 <= self.wrap_residual_factor <= 1:
            raise ParameterError("wrap_residual_factor must lie in [0, 1]")


@dataclass
class LoopTrace:
    """Per-evaluation record of a closed-loop run."""

    time_s: np.ndarray
    power_w: np.ndarray
    wrap_flag: np.ndarray
    frame_index: np.ndarray
    frame_ideal_power_w: np.ndarray
    loop_rate_hz: float
    wrap_transient_s: float

    def frame_sampled_power(self) -> np.ndarray:
        """Output power at each frame's last evaluation (display-rate samples)."""
        n_frames = self.frame_ideal_power_w.shape[0]
        return self.power_w.reshape(n_frames, -1)[:, -1].copy()


def _evaluate(x, inputs, topology, config, rng, in_transient=False):
    """One closed-loop evaluation of command vector x on the input list.

    Returns (physical output power, optimizer reading): phases wrapped into
    [0, 2 pi), ratios sin^2 of their parameters (50/50 unless
    optimize_ratios), the power scaled by wrap_residual_factor inside a wrap
    dead-time, and the reading perturbed by relative detector noise.
    """
    n_el = topology.n_elements
    phases = x[:n_el] % TWO_PI
    if config.optimize_ratios:
        ratios = np.sin(x[n_el:]) ** 2
    else:
        ratios = np.full(n_el, 0.5)
    amp = _tree_output(topology, inputs, ratios.tolist(), phases.tolist())
    p_physical = abs(amp) ** 2
    if in_transient:
        p_physical *= config.wrap_residual_factor
    measured = p_physical
    if config.detector_noise_rel > 0:
        measured = max(
            0.0, measured * (1.0 + config.detector_noise_rel * rng.standard_normal())
        )
    return p_physical, measured


class _Plant:
    """Applies commands through _evaluate, tracks the wrap dead-time and
    records the trace.

    Search coordinates are free-running; the applied phase command is
    always their value modulo 2 pi (the objective is periodic).  Wrap
    events are raised by the loop when the carried converged command
    drifts across the actuator range between frames, which opens a
    dead-time degrading the physical output."""

    def __init__(self, topology, config, rng, n_evals):
        self.topology = topology
        self.config = config
        self.rng = rng
        self.power = np.empty(n_evals)
        self.wrap_flag = np.zeros(n_evals, dtype=bool)
        self.e = 0
        self.transient_until = -math.inf
        self.inputs = None
        self.best_p = 0.0
        self.best_x = None

    def start_frame(self, inputs):
        self.inputs = inputs.tolist()
        self.best_p = 0.0
        self.best_x = None

    def raise_wrap_event(self):
        """Open the dead-time window; flagged on the next evaluation."""
        t = self.e / self.config.loop_rate_hz
        self.transient_until = t + self.config.wrap_transient_s
        if self.e < self.wrap_flag.shape[0]:
            self.wrap_flag[self.e] = True

    def measure(self, x):
        """Evaluate command vector x; returns the (noisy) optimizer reading."""
        t = self.e / self.config.loop_rate_hz
        p_physical, measured = _evaluate(
            x, self.inputs, self.topology, self.config, self.rng, t < self.transient_until
        )
        self.power[self.e] = p_physical
        self.e += 1
        if measured > self.best_p:
            self.best_p = measured
            self.best_x = x.copy()
        return measured


def _run_stage(plant, nm, budget, assemble):
    """Run one simplex stage for `budget` evaluations.

    assemble maps the stage's search coordinates to a full command vector.
    """
    for _ in range(budget):
        xs = nm.ask()
        measured = plant.measure(assemble(xs))
        nm.tell(-measured)
    return nm.current_best


def run_closed_loop(
    frames,
    topology: CombinerTopology,
    config: ControllerConfig,
    seed: int = 0,
    frame_rate_hz: float = None,
) -> LoopTrace:
    """Drive the combiner across a sequence of input frames.

    Inputs are held constant within a frame (zero-order hold).  The
    controller continues across frame boundaries: converged commands are
    carried over and each frame re-runs the acquisition schedule around
    them.  When a carried phase command has drifted out of [0, 2 pi) by the
    end of a frame, the electronics slip it back by whole turns: a wrap
    event, opening a dead-time of wrap_transient_s during which the output
    power is multiplied by wrap_residual_factor.  Fully deterministic for
    fixed (frames, config, seed).
    """
    if topology.n_elements == 0:
        raise ParameterError("a 1-input tree has no actuator to search")
    frames = np.asarray(frames, dtype=np.complex128)
    if frames.ndim != 2 or frames.shape[1] != topology.n_inputs:
        raise ParameterError(f"frames must be (F, {topology.n_inputs}) amplitudes")
    if frames.shape[0] == 0:
        raise ParameterError("need at least one frame")
    if frame_rate_hz is not None and config.loop_rate_hz < frame_rate_hz:
        raise ParameterError("loop rate must be at least the frame rate")
    if not np.isfinite(frames).all():
        raise InvalidFieldError("combiner inputs must be finite")

    n_el = topology.n_elements
    dim = 2 * n_el  # command vector is phases + ratio parameters throughout
    rng = substream(seed, "controller")
    n_frames = frames.shape[0]
    budget = config.evals_per_frame
    plant = _Plant(topology, config, rng, n_frames * budget)

    ph = np.full(n_el, math.pi)
    ps = neutral = np.full(n_el, math.pi / 4)  # 50/50 ratios; never written in place
    pol = config.simplex_init_rad
    drop_factor = 10.0 ** (-config.restart_threshold_db / 10.0)
    prev_final_power = None

    for k in range(n_frames):
        plant.start_frame(frames[k])
        remaining = budget
        # restart monitor: a collapse at the carried command versus the
        # previous frame's converged power re-seeds the ratio parameters
        if k > 0 and remaining > 0:
            carried = plant.measure(np.concatenate([ph, ps]))
            remaining -= 1
            if prev_final_power is not None and prev_final_power > 0:
                if carried < prev_final_power * drop_factor:
                    ps = neutral
        for ci, (f1, f2, f3) in enumerate(_SCHEDULE):
            b1 = min(int(budget * f1), remaining)
            # phases at re-coupled 50/50 ratios
            if b1 > 0:
                nm = NelderMead(ph, np.full(n_el, math.pi / 2 if ci == 0 else 0.8))
                ph = _run_stage(plant, nm, b1, lambda xs: np.concatenate([xs, neutral]))
            remaining -= b1
            # split ratios at the found phases
            if config.optimize_ratios:
                b2 = min(int(budget * f2), remaining)
                if b2 > 0:
                    nm = NelderMead(
                        neutral if ci == 0 else ps,
                        np.full(n_el, 0.35 if ci == 0 else 0.2),
                    )
                    ps = _run_stage(plant, nm, b2, lambda xs: np.concatenate([ph, xs]))
                remaining -= b2
            # joint polish
            b3 = min(int(budget * f3), remaining)
            if b3 > 0:
                nm = NelderMead(np.concatenate([ph, ps]), np.full(dim, pol))
                _run_stage(plant, nm, b3, lambda xs: xs)
                if plant.best_x is not None:
                    ph, ps = plant.best_x[:n_el].copy(), plant.best_x[n_el:].copy()
            remaining -= b3
        if remaining > 0:
            nm = NelderMead(np.concatenate([ph, ps]), np.full(dim, pol / 2))
            _run_stage(plant, nm, remaining, lambda xs: xs)
            if plant.best_x is not None:
                ph, ps = plant.best_x[:n_el].copy(), plant.best_x[n_el:].copy()
        prev_final_power = plant.power[plant.e - 1]
        # carried command leaving the actuator range: slip it back (wrap event)
        turns = np.floor(ph / TWO_PI)
        if np.any(turns != 0):
            ph = ph - TWO_PI * turns
            plant.raise_wrap_event()

    return LoopTrace(
        time_s=np.arange(n_frames * budget) / config.loop_rate_hz,
        power_w=plant.power,
        wrap_flag=plant.wrap_flag,
        frame_index=np.repeat(np.arange(n_frames), budget),
        frame_ideal_power_w=np.sum(np.abs(frames) ** 2, axis=1),
        loop_rate_hz=config.loop_rate_hz,
        wrap_transient_s=config.wrap_transient_s,
    )


def wrap_event_rate(trace: LoopTrace) -> tuple:
    """Wrap events per second and the transient duty fraction of the run."""
    n = trace.time_s.shape[0]
    if n == 0:
        raise ParameterError("empty trace")
    total_time = n / trace.loop_rate_hz
    events = int(np.count_nonzero(trace.wrap_flag))
    # merge overlapping transients for the exact dead-time fraction
    dead = 0.0
    current_end = -math.inf
    end_of_run = trace.time_s[-1] + 1.0 / trace.loop_rate_hz
    for t in trace.time_s[trace.wrap_flag]:
        start = max(t, current_end)
        end = min(t + trace.wrap_transient_s, end_of_run)
        if end > start:
            dead += end - start
        current_end = max(current_end, t + trace.wrap_transient_s)
    return events / total_time, dead / total_time


def uncorrected_efficiency(amplitude_rad: float) -> float:
    """Mean two-arm efficiency under an uncorrected sinusoidal phase
    disturbance at the best static phase: (1 + J0(A)) / 2."""
    from scipy.special import j0

    return float((1.0 + j0(amplitude_rad)) / 2.0)


# the tracking simplex is re-seeded every _REFRESH_EVERY evaluations; its
# first phase edge is _REFRESH_EDGE_RAD, later ones follow the residual error
_REFRESH_EVERY = 40
_REFRESH_EDGE_RAD = 0.35


def correction_bandwidth(
    disturbance_freq_hz: float,
    amplitude_rad: float,
    config: ControllerConfig,
    seed: int = 0,
    n_periods: int = 100,
    settle_periods: int = 25,
) -> float:
    """Mean two-channel combining efficiency against a sinusoidal phase
    disturbance on one input.

    The loop runs continuously at config.loop_rate_hz while the disturbance
    advances in real time; the tracking simplex is refreshed around the
    current best every _REFRESH_EVERY evaluations.  Efficiency (combined
    power over the 2.0 W ideal) is averaged over n_periods after a settling
    span, with floors on both spans so high frequencies still exercise a
    settled loop.  Evaluations go through the same evaluator as
    run_closed_loop, so optimize_ratios=False holds the split at 50/50.
    """
    if not (math.isfinite(disturbance_freq_hz) and math.isfinite(amplitude_rad)):
        raise ParameterError("disturbance frequency and amplitude must be finite")
    if disturbance_freq_hz < 0:
        raise ParameterError("disturbance frequency must be >= 0")
    topology = CombinerTopology.balanced(
        2, pic_insertion_loss_db=0.0, demux_insertion_loss_db=0.0
    )
    n_el = topology.n_elements
    rng = substream(seed, "bandwidth")
    dt = 1.0 / config.loop_rate_hz

    if disturbance_freq_hz > 0:
        settle_evals = max(int(settle_periods / disturbance_freq_hz / dt), 400)
        measure_evals = max(int(n_periods / disturbance_freq_hz / dt), 2000)
    else:
        settle_evals, measure_evals = 400, 2000

    x0 = np.concatenate([np.full(n_el, math.pi), np.full(n_el, math.pi / 4)])
    edges = np.concatenate([np.full(n_el, _REFRESH_EDGE_RAD), np.full(n_el, 0.1)])
    nm = NelderMead(x0, edges)
    dim = x0.size

    acc = 0.0
    window_best = 0.0
    for e in range(settle_evals + measure_evals):
        t = e * dt
        arg = amplitude_rad * math.sin(TWO_PI * disturbance_freq_hz * t)
        inputs = [1 + 0j, math.cos(arg) + 1j * math.sin(arg)]
        x = nm.ask()
        turns = np.floor(x[:n_el] / TWO_PI)
        if np.any(turns != 0):
            shift = np.zeros(dim)
            shift[:n_el] = -TWO_PI * turns
            nm.translate(shift)
            x = x + shift
        _, measured = _evaluate(x, inputs, topology, config, rng)
        nm.tell(-measured)
        window_best = max(window_best, measured)
        if (e + 1) % _REFRESH_EVERY == 0:
            # probe edge scaled to the residual phase error of this window,
            # so a settled loop dithers gently and a lagging one leaps
            eff = min(1.0, window_best / 2.0)
            edge = min(1.2, max(0.04, 2.0 * math.acos(math.sqrt(eff))))
            nm.reinit(nm.current_best,
                      np.concatenate([np.full(n_el, edge), np.full(n_el, edge / 3)]))
            window_best = 0.0
        if e >= settle_evals:
            acc += measured / 2.0
    return acc / measure_evals


def correction_bandwidth_knee(
    freqs_hz,
    amplitude_rad: float,
    config: ControllerConfig,
    seed: int = 0,
    n_periods: int = 100,
) -> tuple:
    """Efficiency over a frequency sweep plus the correction knee.

    The knee is where efficiency crosses midway between the static
    efficiency (lowest swept frequency) and the uncorrected floor
    (1 + J0(A))/2, interpolated on a log-frequency axis.  Returns
    (freqs, efficiencies, knee_hz); knee_hz is None when the sweep never
    crosses.
    """
    freqs = np.asarray(sorted(freqs_hz), dtype=np.float64)
    effs = np.array(
        [correction_bandwidth(f, amplitude_rad, config, seed=seed, n_periods=n_periods)
         for f in freqs]
    )
    floor = uncorrected_efficiency(amplitude_rad)
    midpoint = (effs[0] + floor) / 2.0
    below = np.nonzero(effs < midpoint)[0]
    if below.size == 0 or below[0] == 0:
        return freqs, effs, None
    j = below[0]
    lf = np.log(freqs)
    frac = (midpoint - effs[j - 1]) / (effs[j] - effs[j - 1])
    knee = math.exp(lf[j - 1] + frac * (lf[j] - lf[j - 1]))
    return freqs, effs, knee
