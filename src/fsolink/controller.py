"""Closed-loop phase control of the combiner by Nelder-Mead power search.

The controller maximizes the single detected output power with standard
Nelder-Mead simplices (reflect 1, expand 2, contract 0.5, shrink 0.5) over
the actuator vector.  Because element phases and split ratios play very
different roles (the optimal phases are independent of the ratios), each
frame runs the simplex searches of one table, _SCHEDULE, over the command
vector [phases, ratio parameters]: element phases at 50/50 ratios, then
ratios, then a joint polish, twice, and a fine polish on the remaining
budget.  Each search moves one part of the command and holds the rest.
Every frame re-seeds the searches around the carried command and
re-acquires the ratios from 50/50, which is the restart policy that keeps
the loop locked on nonstationary inputs.

Actuator phases live in [0, 2 pi): when a command leaves the range the
electronics slip it back by one turn, costing a dead-time during which the
combined output is degraded.  Those wrap transients are what puts an
error-rate floor on an otherwise clean link.

Each simplex search is one sequential Nelder-Mead procedure, suspended at
every point it needs measured.  Its vertices are Python floats up to
_FLOAT_SIMPLEX_MAX_DIM dimensions and numpy rows above, the crossover of
the two measured on whole loops: on a few coordinates numpy's per-call
dispatch costs more than the arithmetic, while the float centroid grows as
d^2 in Python.  Both round every step alike, so the choice never changes a
result.  The vertex values are one list of floats, kept sorted with the
vertices: in full after the vertices are measured (at the start and after
a shrink), and otherwise by moving the one new vertex, which replaces the
worst, to its bisect_right place, the order a stable sort gives.

One evaluator serves both loops, the framed acquisition of run_closed_loop
and the continuous tracking of correction_bandwidth.  It takes the command
as a list of Python floats and runs it through the combiner tree compiled
into straight-line code (combiner._tree_kernel, fetched once per loop
call), which wraps the phase commands, maps the ratio parameters to split
ratios and combines the inputs (checked once, on entry) without building
a list.  The phase searches, which hold every ratio at 50/50, use
combiner._phase_kernel instead: the same code with the split amplitudes
of pi / 4 written in as constants, so their sines and square roots are
not recomputed on every evaluation.  The evaluator then applies the
insertion loss, the wrap-residual gain inside a dead-time and the
detector noise.  Both loops keep their command vectors as lists, so no
evaluation dispatches to numpy.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from ._streams import substream
# combine and CombinerState are unused here: perfbench/tracing.py patches both by these names
from .combiner import CombinerState, CombinerTopology, combine  # noqa: F401
from .combiner import _phase_kernel, _summed_power, _tree_kernel
from .errors import ControllerFault, ParameterError, _array, _num

__all__ = [
    "ControllerConfig",
    "LoopTrace",
    "run_closed_loop",
    "wrap_event_rate",
    "correction_bandwidth",
]

TWO_PI = 2 * math.pi

# standard simplex coefficients: expand, contract, shrink (reflect is 1,
# the step c + (c - w) with no product)
GAMMA, BETA, DELTA = 2.0, 0.5, 0.5

# joint-polish simplex edge (halved for the fine polish)
_POLISH_EDGE_RAD = 0.07
# per-frame acquisition schedule, one simplex search per row:
# (part of the command vector searched, share of the frame budget, simplex
# edge).  Two (phases, ratios, joint) cycles, then the fine polish on
# whatever budget is left (share None).
_SCHEDULE = (
    ("phases", 0.20, math.pi / 2),
    ("ratios", 0.20, 0.35),
    ("joint", 0.20, _POLISH_EDGE_RAD),
    ("phases", 0.15, 0.8),
    ("ratios", 0.10, 0.2),
    ("joint", 0.15, _POLISH_EDGE_RAD),
    ("joint", None, _POLISH_EDGE_RAD / 2),
)


# Simplices of at most this many dimensions do their vertex arithmetic on
# Python floats, larger ones on numpy rows.  On a few coordinates numpy's
# per-call dispatch dominates a step; the float centroid is O(d^2) Python.
# Measured on whole run_closed_loop calls (4 frames of 600 evaluations,
# median of 15, 2 vCPUs, numpy 2.4.6), with the phase and ratio searches of
# n - 1 dimensions on floats and then on rows, the time per evaluation on
# floats is 0.69 of that on rows at 1 dimension, 0.86 at 4, 0.95 at 6,
# 0.99 at 7, 1.03 at 8 and 1.12 at 10.
_FLOAT_SIMPLEX_MAX_DIM = 7


class _FloatVertices:
    """Vertex arithmetic on lists of Python floats.  No vertex is changed in
    place, so the simplex and the points in flight may share lists."""

    @staticmethod
    def simplex(x0, edges):
        return [x0] + [x0[:i] + [v + e] + x0[i + 1:] for i, (v, e) in enumerate(zip(x0, edges))]

    @staticmethod
    def take(simplex, order):
        return [simplex[k] for k in order]

    @staticmethod
    def insert(simplex, k, point):
        """Drop the last vertex and put point at index k."""
        simplex.pop()
        simplex.insert(k, point)

    @staticmethod
    def centroid(simplex, dim):
        """Mean of all vertices but the worst, each coordinate a left-to-right
        fold as numpy's row reduction (sum() compensates from Python 3.12 on)."""
        return [reduce(add, column) / dim for column in zip(*simplex[:-1])]

    @staticmethod
    def reflect(c, w):
        """c + (c - w), the step of coefficient 1."""
        return [ci + (ci - wi) for ci, wi in zip(c, w)]

    @staticmethod
    def step(a, coef, p, q):
        """a + coef * (p - q)."""
        return [ai + coef * (pi - qi) for ai, pi, qi in zip(a, p, q)]

    @staticmethod
    def shrink(simplex):
        best = simplex[0]
        return [best] + [[b + DELTA * (v - b) for b, v in zip(best, row)] for row in simplex[1:]]

    @staticmethod
    def shift(point, offset):
        return [a + o for a, o in zip(point, offset)]

    @staticmethod
    def shift_all(simplex, offset):
        return [[a + o for a, o in zip(row, offset)] for row in simplex]

    @staticmethod
    def to_list(point):
        return list(point)


class _ArrayVertices:
    """Vertex arithmetic on numpy rows of one (dim + 1, dim) array."""

    @staticmethod
    def simplex(x0, edges):
        simplex = np.tile(np.asarray(x0, dtype=np.float64), (len(x0) + 1, 1))
        for i, e in enumerate(edges):
            simplex[i + 1, i] += e
        return simplex

    @staticmethod
    def take(simplex, order):
        return simplex[order]

    @staticmethod
    def insert(simplex, k, point):
        """Drop the last row and put point at row k (numpy copies
        overlapping slices as if through a buffer)."""
        simplex[k + 1:] = simplex[k:-1]
        simplex[k] = point

    @staticmethod
    def centroid(simplex, dim):
        # the arithmetic of .mean(axis=0), without its dispatch
        centroid = np.add.reduce(simplex[:-1], axis=0)
        centroid /= dim
        return centroid

    @staticmethod
    def reflect(c, w):
        return c + (c - w)

    @staticmethod
    def step(a, coef, p, q):
        return a + coef * (p - q)

    @staticmethod
    def shrink(simplex):
        best = simplex[0].copy()
        simplex = best + DELTA * (simplex - best)
        simplex[0] = best
        return simplex

    @staticmethod
    def shift(v, offset):
        return v + offset

    shift_all = shift

    @staticmethod
    def to_list(point):
        return point.tolist()


class _NelderMead:
    """Nelder-Mead minimizer: one sequential search, a generator suspended
    at every point it needs measured.  ``ask()`` returns the pending point
    as a fresh list and ``tell(value)`` sends its measurement in, so the
    closed loop can inject timing, detector noise and actuator-wrap side
    effects between evaluations.  The points in flight live on the
    instance, so ``translate`` moves them with the simplex.  The vertices
    are Python floats up to _FLOAT_SIMPLEX_MAX_DIM dimensions and numpy
    rows above; both round every step alike.  The values are one list of
    floats, kept sorted with the vertices as the module docstring says.
    """

    def __init__(self, x0, edges):
        self.dim = len(x0)
        self._v = _FloatVertices if self.dim <= _FLOAT_SIMPLEX_MAX_DIM else _ArrayVertices
        self.reinit(x0, edges)

    def reinit(self, x0, edges):
        """Start a new search on a fresh simplex around x0 (initial or
        restart); x0 and edges are lists of dim finite floats, unchecked."""
        self.simplex = self._v.simplex(x0, edges)
        self.values = [math.nan] * (self.dim + 1)
        self._centroid = self._xr = self._xe = self._xc = None
        self._search = self._run()
        self._x = next(self._search)

    def translate(self, offset):
        """Shift the whole search space (simplex and in-flight points) rigidly.
        Each point is rebound, not changed in place, so a point that is also
        a vertex or another in-flight point moves once."""
        self.simplex = self._v.shift_all(self.simplex, offset)
        for attr in ("_x", "_centroid", "_xr", "_xe", "_xc"):
            v = getattr(self, attr)
            if v is not None:
                setattr(self, attr, self._v.shift(v, offset))

    def ask(self) -> list:
        return self._v.to_list(self._x)

    def tell(self, value: float):
        value = float(value)
        if not math.isfinite(value):
            raise ControllerFault("objective returned a non-finite value")
        self._x = self._search.send(value)

    def _sort(self):
        """Sort the simplex and its values by value, ties in vertex order."""
        values = self.values
        order = sorted(range(self.dim + 1), key=values.__getitem__)
        values[:] = [values[k] for k in order]
        self.simplex = self._v.take(self.simplex, order)

    def _run(self):
        """The search; each yield hands out a point and receives its value.
        The simplex is re-read after every yield, as translate rebinds it;
        so is its worst vertex, which is why c - w is never carried across
        one: (c + o) - (w + o) need not be c - w to the bit."""
        dim, values = self.dim, self.values
        v = self._v
        centroid, reflect, step, insert = v.centroid, v.reflect, v.step, v.insert
        for k in range(dim + 1):
            values[k] = yield self.simplex[k]
        self._sort()
        while True:
            self._centroid = centroid(self.simplex, dim)
            self._xr = reflect(self._centroid, self.simplex[-1])
            fr = yield self._xr
            if fr < values[0]:
                self._xe = step(self._centroid, GAMMA, self._centroid, self.simplex[-1])
                fe = yield self._xe
                new, f = (self._xe, fe) if fe < fr else (self._xr, fr)
            elif fr < values[-2]:
                new, f = self._xr, fr
            else:
                if fr < values[-1]:
                    self._xc = step(self._centroid, BETA, self._xr, self._centroid)
                else:
                    self._xc = step(self._centroid, BETA, self.simplex[-1], self._centroid)
                fc = yield self._xc
                if fc < min(fr, values[-1]):
                    new, f = self._xc, fc
                else:  # shrink towards the best vertex and measure the others
                    self.simplex = v.shrink(self.simplex)
                    for k in range(1, dim + 1):
                        values[k] = yield self.simplex[k]
                    self._sort()
                    continue
            # the new vertex replaces the worst, after any it ties with, as a stable sort puts it
            k = bisect_right(values, f, 0, dim)
            values.pop()
            values.insert(k, f)
            insert(self.simplex, k, new)

    @property
    def current_best(self) -> list:
        """Best measured simplex vertex; the first vertex before any is measured."""
        values = self.values
        k = min((k for k, v in enumerate(values) if not math.isnan(v)),
                key=values.__getitem__, default=0)
        return self._v.to_list(self.simplex[k])


@dataclass(frozen=True)
class ControllerConfig:
    """Free parameters of the power-maximization loop."""

    evals_per_frame: int = 600
    wrap_transient_s: float = 1e-3
    detector_noise_rel: float = 0.0
    loop_rate_hz: float = 1.0e6
    wrap_residual_factor: float = 0.25

    def __post_init__(self):
        _num(self.evals_per_frame, "evals_per_frame", lo=1, integer=True)
        _num(self.wrap_transient_s, "wrap_transient_s", lo=0)
        _num(self.detector_noise_rel, "detector_noise_rel", lo=0)
        _num(self.loop_rate_hz, "loop_rate_hz", gt=0)
        _num(self.wrap_residual_factor, "wrap_residual_factor", lo=0, hi=1)


@dataclass
class LoopTrace:
    """Per-evaluation record of a closed-loop run: evaluation e runs at
    e / loop_rate_hz, in frame e // evaluations per frame."""

    power_w: np.ndarray
    wrap_flag: np.ndarray
    frame_ideal_power_w: np.ndarray
    loop_rate_hz: float
    wrap_transient_s: float

    @property
    def frame_index(self) -> np.ndarray:
        """Frame of each evaluation."""
        n_frames = self.frame_ideal_power_w.shape[0]
        return np.repeat(np.arange(n_frames), self.power_w.shape[0] // n_frames)

    def frame_sampled_power(self) -> np.ndarray:
        """Output power at each frame's last evaluation (display-rate samples)."""
        n_frames = self.frame_ideal_power_w.shape[0]
        return self.power_w.reshape(n_frames, -1)[:, -1].copy()


# the trace holds 9 bytes per evaluation (a float64 power and a bool wrap
# flag), so 2**30 // 9 evaluations, about 1.2e8, fill 1 GiB: half an hour of
# the 15-input loop.  A longer run is refused before anything is allocated.
_MAX_LOOP_EVALS = 2**30 // 9


def _evaluate(x, inputs, kernel, gain, config, rng, in_transient=False):
    """One closed-loop evaluation of command list x on the input list.

    kernel is the topology's _tree_kernel (or _phase_kernel, where x holds
    every ratio parameter at pi / 4) and gain its insertion-loss
    amplitude factor 10 ** (-total_loss_db / 20).  Returns (physical output
    power, optimizer reading): phases wrapped into [0, 2 pi), ratios sin^2
    of their parameters, the power scaled by wrap_residual_factor inside a
    wrap dead-time, and the reading perturbed by relative detector noise.
    """
    p_physical = abs(kernel(x, inputs) * gain) ** 2
    if in_transient:
        p_physical *= config.wrap_residual_factor
    measured = p_physical
    if config.detector_noise_rel > 0:
        measured = max(
            0.0, measured * (1.0 + config.detector_noise_rel * rng.standard_normal())
        )
    return p_physical, measured


def run_closed_loop(
    frames,
    topology: CombinerTopology,
    config: ControllerConfig,
    seed: int = 0,
) -> LoopTrace:
    """Drive the combiner across a sequence of input frames.

    Inputs are held constant within a frame (zero-order hold).  The
    controller continues across frame boundaries: the converged command is
    carried over, measured once at the frame change, and each frame re-runs
    the acquisition schedule around it, re-acquiring the ratios from 50/50.
    When a carried phase command has drifted out of [0, 2 pi) by the end of
    a frame, the electronics slip it back by whole turns: a wrap event,
    opening a dead-time of wrap_transient_s during which the output power
    is multiplied by wrap_residual_factor.  Fully deterministic for fixed
    (frames, config, seed).

    Before the first evaluation, a frame whose summed power is not finite
    raises InvalidFieldError naming frames, and a trace of more than
    _MAX_LOOP_EVALS evaluations ParameterError naming evals_per_frame.
    """
    if topology.n_elements == 0:
        raise ParameterError("a 1-input tree has no actuator to search")
    frames = _array(frames, "frames", (None, topology.n_inputs), dtype=np.complex128)
    ideal = _summed_power(frames, "frames", axis=1)
    n_frames = frames.shape[0]
    budget = config.evals_per_frame
    if n_frames * budget > _MAX_LOOP_EVALS:
        raise ParameterError(
            f"evals_per_frame: {budget!r} evaluations in each of {n_frames} frames need "
            f"a trace of {9 * n_frames * budget:.3g} bytes, more than {9 * _MAX_LOOP_EVALS:.3g}"
        )

    n_el = topology.n_elements
    tree, phase_tree = _tree_kernel(topology.n_inputs), _phase_kernel(topology.n_inputs)
    gain = 10.0 ** (-topology.total_loss_db / 20.0)
    rng = substream(seed, "controller")
    rate = config.loop_rate_hz
    power = np.empty(n_frames * budget)
    wrap_flag = np.zeros(n_frames * budget, dtype=bool)
    parts = {"phases": slice(None, n_el), "ratios": slice(n_el, None), "joint": slice(None)}
    neutral = [math.pi / 4] * n_el  # ratio parameters of 50/50 splits
    # the command vector: phases, then ratio parameters.  Search coordinates
    # are free-running; the applied phase is their value modulo 2 pi.
    x = [math.pi] * n_el + neutral
    e = 0
    transient_until = -math.inf

    def measure(command, kernel):
        """Evaluate the command; record its power and the frame's best reading."""
        nonlocal e, best_p, best_x
        p_physical, measured = _evaluate(
            command, inputs, kernel, gain, config, rng, e / rate < transient_until
        )
        power[e] = p_physical
        e += 1
        if measured > best_p:
            best_p, best_x = measured, command.copy()
        return measured

    for k in range(n_frames):
        inputs = frames[k].tolist()
        best_p, best_x = 0.0, None
        remaining = budget
        if k > 0:
            measure(x, tree)  # the carried command, at the frame change
            remaining -= 1
        x[n_el:] = neutral  # the ratios are re-acquired from 50/50 every frame
        for part, share, edge in _SCHEDULE:
            n = remaining if share is None else min(int(budget * share), remaining)
            if n <= 0:
                continue
            remaining -= n
            # each search moves x[part] and holds the rest of x; phase
            # searches hold the ratios at 50/50, which phase_tree has built in
            command = x.copy()
            kernel = tree
            if part == "phases":
                command[n_el:] = neutral
                kernel = phase_tree
            moved = parts[part]
            start = x[moved]
            nm = _NelderMead(start, [edge] * len(start))
            for _ in range(n):
                command[moved] = nm.ask()
                nm.tell(-measure(command, kernel))
            if part != "joint":
                x[moved] = nm.current_best
            elif best_x is not None:  # joint searches carry the frame's best measurement
                x[:] = best_x
        # carried command leaving the actuator range: slip it back (wrap event)
        turns = [math.floor(p / TWO_PI) for p in x[:n_el]]
        if any(turns):
            x[:n_el] = [p - TWO_PI * t for p, t in zip(x, turns)]
            transient_until = e / rate + config.wrap_transient_s
            if e < wrap_flag.shape[0]:
                wrap_flag[e] = True  # flagged on the next evaluation

    return LoopTrace(
        power_w=power,
        wrap_flag=wrap_flag,
        frame_ideal_power_w=ideal,
        loop_rate_hz=config.loop_rate_hz,
        wrap_transient_s=config.wrap_transient_s,
    )


def wrap_event_rate(trace: LoopTrace) -> tuple:
    """Wrap events per second and the transient duty fraction of the run."""
    n = trace.power_w.shape[0]
    if n == 0:
        raise ParameterError("empty trace")
    rate = trace.loop_rate_hz
    total_time = n / rate
    events = int(np.count_nonzero(trace.wrap_flag))
    # merge overlapping transients for the exact dead-time fraction
    dead = 0.0
    current_end = -math.inf
    end_of_run = (n - 1) / rate + 1.0 / rate
    for t in np.flatnonzero(trace.wrap_flag) / rate:
        start = max(t, current_end)
        end = min(t + trace.wrap_transient_s, end_of_run)
        if end > start:
            dead += end - start
        current_end = max(current_end, t + trace.wrap_transient_s)
    return events / total_time, dead / total_time


# the tracking simplex is re-seeded every _REFRESH_EVERY evaluations; its
# first phase edge is _REFRESH_EDGE_RAD, later ones follow the residual error
_REFRESH_EVERY = 40
_REFRESH_EDGE_RAD = 0.35
# most evaluations one correction_bandwidth call may ask for (about an hour of
# pure Python); a lower disturbance frequency is rejected before the first one
_MAX_TRACKING_EVALS = 10**9


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
    run_closed_loop.  A disturbance so slow that the two spans exceed
    _MAX_TRACKING_EVALS evaluations raises ParameterError.

    Of config it reads loop_rate_hz and detector_noise_rel only: the
    tracking loop has no frames, so evals_per_frame does not apply, and it
    opens no wrap dead-time, so wrap_transient_s and wrap_residual_factor
    do not either.
    """
    _num(disturbance_freq_hz, "disturbance_freq_hz", lo=0)
    _num(amplitude_rad, "amplitude_rad")
    _num(n_periods, "n_periods", gt=0)
    _num(settle_periods, "settle_periods", lo=0)
    # the lossless 2-input tree: one element, an insertion-loss gain of 1
    n_el = 1
    kernel = _tree_kernel(2)
    rng = substream(seed, "bandwidth")
    dt = 1.0 / config.loop_rate_hz

    if disturbance_freq_hz > 0:
        settle = settle_periods / disturbance_freq_hz / dt
        measure = n_periods / disturbance_freq_hz / dt
        if settle + measure > _MAX_TRACKING_EVALS:
            raise ParameterError(
                f"disturbance_freq_hz: {disturbance_freq_hz!r} Hz needs {settle + measure:.3g} "
                f"evaluations at {config.loop_rate_hz!r} Hz, more than {_MAX_TRACKING_EVALS:.0e}"
            )
        settle_evals = max(int(settle), 400)
        measure_evals = max(int(measure), 2000)
    else:
        settle_evals, measure_evals = 400, 2000

    nm = _NelderMead([math.pi] * n_el + [math.pi / 4] * n_el,
                     [_REFRESH_EDGE_RAD] * n_el + [0.1] * n_el)

    acc = 0.0
    window_best = 0.0
    for e in range(settle_evals + measure_evals):
        t = e * dt
        arg = amplitude_rad * math.sin(TWO_PI * disturbance_freq_hz * t)
        inputs = [1 + 0j, math.cos(arg) + 1j * math.sin(arg)]
        x = nm.ask()
        turns = [math.floor(p / TWO_PI) for p in x[:n_el]]
        if any(turns):
            shift = [-TWO_PI * t for t in turns] + [0.0] * n_el
            nm.translate(shift)
            x = [a + b for a, b in zip(x, shift)]
        _, measured = _evaluate(x, inputs, kernel, 1.0, config, rng)
        nm.tell(-measured)
        window_best = max(window_best, measured)
        if (e + 1) % _REFRESH_EVERY == 0:
            # probe edge scaled to the residual phase error of this window,
            # so a settled loop dithers gently and a lagging one leaps
            eff = min(1.0, window_best / 2.0)
            edge = min(1.2, max(0.04, 2.0 * math.acos(math.sqrt(eff))))
            nm.reinit(nm.current_best, [edge] * n_el + [edge / 3] * n_el)
            window_best = 0.0
        if e >= settle_evals:
            acc += measured / 2.0
    return acc / measure_evals

