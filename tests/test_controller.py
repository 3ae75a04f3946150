import hashlib
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsolink import controller
from fsolink._streams import substream
from fsolink.combiner import CombinerTopology, _tree_output
from fsolink.controller import (
    _FLOAT_SIMPLEX_MAX_DIM,
    _POLISH_EDGE_RAD,
    _REFRESH_EDGE_RAD,
    _REFRESH_EVERY,
    TWO_PI,
    ControllerConfig,
    _NelderMead,
    correction_bandwidth,
    run_closed_loop,
    wrap_event_rate,
)
from fsolink.errors import ControllerFault, InvalidFieldError, ParameterError

# standard simplex coefficients: reflect, expand, contract, shrink
ALPHA, GAMMA, BETA, DELTA = 1.0, 2.0, 0.5, 0.5


class StateMachineNelderMead:
    """Reference: the former ask/tell state machine (``_phase`` in
    init/start/reflect/expand/contract/shrink) that _NelderMead must match
    bit for bit.  ``best_x``/``best_f`` track the best measurement ever
    seen."""

    def __init__(self, x0, edges):
        x0 = np.asarray(x0, dtype=np.float64)
        self.dim = x0.size
        self._edges = np.broadcast_to(np.asarray(edges, dtype=np.float64), x0.shape).copy()
        self.best_x = x0.copy()
        self.best_f = math.inf
        self.reinit(x0)

    def reinit(self, x0, edges=None):
        """Seed a fresh simplex around x0 (initial or restart)."""
        x0 = np.asarray(x0, dtype=np.float64)
        if edges is not None:
            self._edges = np.broadcast_to(np.asarray(edges, dtype=np.float64), x0.shape).copy()
        self.simplex = np.tile(x0, (self.dim + 1, 1))
        for i in range(self.dim):
            self.simplex[i + 1, i] += self._edges[i]
        self.values = np.full(self.dim + 1, np.nan)
        self._phase = "init"
        self._pending = 0
        self._xr = None
        self._xr2 = None
        self._xc = None
        self._centroid = None
        self._fr = None
        self._last_asked = None

    def translate(self, offset):
        """Shift the whole search space (simplex and in-flight points) rigidly."""
        self.simplex += offset
        for attr in ("_xr", "_xr2", "_xc", "_centroid", "_last_asked"):
            v = getattr(self, attr)
            if v is not None:
                setattr(self, attr, v + offset)
        self.best_x = self.best_x + offset

    def ask(self) -> np.ndarray:
        if self._phase in ("init", "shrink"):
            x = self.simplex[self._pending]
        elif self._phase == "start":
            self._order()
            self._centroid = self.simplex[:-1].mean(axis=0)
            self._xr = self._centroid + ALPHA * (self._centroid - self.simplex[-1])
            self._phase = "reflect"
            x = self._xr
        elif self._phase == "expand":
            self._xr2 = self._centroid + GAMMA * (self._centroid - self.simplex[-1])
            x = self._xr2
        elif self._phase == "contract":
            if self._fr < self.values[-1]:
                self._xc = self._centroid + BETA * (self._xr - self._centroid)
            else:
                self._xc = self._centroid + BETA * (self.simplex[-1] - self._centroid)
            x = self._xc
        else:
            raise RuntimeError(f"unexpected optimizer phase {self._phase}")
        self._last_asked = np.array(x, dtype=np.float64, copy=True)
        return self._last_asked.copy()

    def tell(self, value: float):
        value = float(value)
        if not math.isfinite(value):
            raise ControllerFault("objective returned a non-finite value")
        if value < self.best_f:
            self.best_f = value
            self.best_x = self._last_asked.copy()

        if self._phase in ("init", "shrink"):
            self.values[self._pending] = value
            self._pending += 1
            if self._pending > self.dim:
                self._phase = "start"
                self._pending = 0
        elif self._phase == "reflect":
            self._fr = value
            if value < self.values[0]:
                self._phase = "expand"
            elif value < self.values[-2]:
                self.simplex[-1] = self._xr
                self.values[-1] = value
                self._phase = "start"
            else:
                self._phase = "contract"
        elif self._phase == "expand":
            if value < self._fr:
                self.simplex[-1] = self._xr2
                self.values[-1] = value
            else:
                self.simplex[-1] = self._xr
                self.values[-1] = self._fr
            self._phase = "start"
        elif self._phase == "contract":
            if value < min(self._fr, self.values[-1]):
                self.simplex[-1] = self._xc
                self.values[-1] = value
                self._phase = "start"
            else:
                best = self.simplex[0].copy()
                self.simplex = best + DELTA * (self.simplex - best)
                self.simplex[0] = best
                self._phase = "shrink"
                self._pending = 1
        else:
            raise RuntimeError(f"unexpected optimizer phase {self._phase}")

    def _order(self):
        order = np.argsort(self.values, kind="stable")
        self.simplex = self.simplex[order]
        self.values = self.values[order]

    @property
    def current_best(self) -> np.ndarray:
        """Best simplex vertex, falling back to the best point ever seen."""
        if np.all(np.isnan(self.values)):
            return self.best_x.copy()
        k = int(np.nanargmin(self.values))
        return self.simplex[k].copy()



def numpy_evaluate(x, inputs, topology, config, rng, in_transient=False):
    """Reference: the closed-loop evaluator on numpy arrays (phases x % 2 pi,
    ratios np.sin(x) ** 2) that the library's float evaluator must match bit
    for bit."""
    n_el = topology.n_elements
    phases = x[:n_el] % TWO_PI
    ratios = np.sin(x[n_el:]) ** 2
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
    """Reference plant of StagedRunClosedLoop: applies commands through
    numpy_evaluate, tracks the wrap dead-time and records the trace."""

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
        t = self.e / self.config.loop_rate_hz
        self.transient_until = t + self.config.wrap_transient_s
        if self.e < self.wrap_flag.shape[0]:
            self.wrap_flag[self.e] = True

    def measure(self, x):
        t = self.e / self.config.loop_rate_hz
        p_physical, measured = numpy_evaluate(
            x, self.inputs, self.topology, self.config, self.rng, t < self.transient_until
        )
        self.power[self.e] = p_physical
        self.e += 1
        if measured > self.best_p:
            self.best_p = measured
            self.best_x = x.copy()
        return measured


def _run_stage(plant, nm, budget, assemble):
    for _ in range(budget):
        xs = nm.ask()
        measured = plant.measure(assemble(xs))
        nm.tell(-measured)
    return nm.current_best


def staged_run_closed_loop(frames, topology, config, seed=0):
    """Reference: the former loop with hand-unrolled stage blocks and a
    restart monitor that re-seeds the ratios after a 3 dB collapse at the
    carried command, searching with StateMachineNelderMead.  run_closed_loop
    must match its trace bit for bit for every evals_per_frame >= 5."""
    schedule = ((0.20, 0.20, 0.20), (0.15, 0.10, 0.15))
    restart_drop = 10.0 ** (-3.0 / 10.0)
    frames = np.asarray(frames, dtype=np.complex128)
    n_el = topology.n_elements
    dim = 2 * n_el
    rng = substream(seed, "controller")
    n_frames = frames.shape[0]
    budget = config.evals_per_frame
    plant = _Plant(topology, config, rng, n_frames * budget)
    ph = np.full(n_el, math.pi)
    ps = neutral = np.full(n_el, math.pi / 4)
    prev_final_power = None
    for k in range(n_frames):
        plant.start_frame(frames[k])
        remaining = budget
        if k > 0 and remaining > 0:
            carried = plant.measure(np.concatenate([ph, ps]))
            remaining -= 1
            if prev_final_power is not None and prev_final_power > 0:
                if carried < prev_final_power * restart_drop:
                    ps = neutral
        for ci, (f1, f2, f3) in enumerate(schedule):
            b1 = min(int(budget * f1), remaining)
            if b1 > 0:
                nm = StateMachineNelderMead(ph, np.full(n_el, math.pi / 2 if ci == 0 else 0.8))
                ph = _run_stage(plant, nm, b1, lambda xs: np.concatenate([xs, neutral]))
            remaining -= b1
            b2 = min(int(budget * f2), remaining)
            if b2 > 0:
                nm = StateMachineNelderMead(neutral if ci == 0 else ps, np.full(n_el, 0.35 if ci == 0 else 0.2))
                ps = _run_stage(plant, nm, b2, lambda xs: np.concatenate([ph, xs]))
            remaining -= b2
            b3 = min(int(budget * f3), remaining)
            if b3 > 0:
                nm = StateMachineNelderMead(np.concatenate([ph, ps]), np.full(dim, _POLISH_EDGE_RAD))
                _run_stage(plant, nm, b3, lambda xs: xs)
                if plant.best_x is not None:
                    ph, ps = plant.best_x[:n_el].copy(), plant.best_x[n_el:].copy()
            remaining -= b3
        if remaining > 0:
            nm = StateMachineNelderMead(np.concatenate([ph, ps]), np.full(dim, _POLISH_EDGE_RAD / 2))
            _run_stage(plant, nm, remaining, lambda xs: xs)
            if plant.best_x is not None:
                ph, ps = plant.best_x[:n_el].copy(), plant.best_x[n_el:].copy()
        prev_final_power = plant.power[plant.e - 1]
        turns = np.floor(ph / TWO_PI)
        if np.any(turns != 0):
            ph = ph - TWO_PI * turns
            plant.raise_wrap_event()
    return plant.power, plant.wrap_flag



def numpy_correction_bandwidth(disturbance_freq_hz, amplitude_rad, config, seed=0,
                               n_periods=100, settle_periods=25):
    """Reference: correction_bandwidth on numpy command vectors, searching
    with StateMachineNelderMead and measuring through numpy_evaluate."""
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
    nm = StateMachineNelderMead(x0, edges)
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
        _, measured = numpy_evaluate(x, inputs, topology, config, rng)
        nm.tell(-measured)
        window_best = max(window_best, measured)
        if (e + 1) % _REFRESH_EVERY == 0:
            eff = min(1.0, window_best / 2.0)
            edge = min(1.2, max(0.04, 2.0 * math.acos(math.sqrt(eff))))
            nm.reinit(nm.current_best,
                      np.concatenate([np.full(n_el, edge), np.full(n_el, edge / 3)]))
            window_best = 0.0
        if e >= settle_evals:
            acc += measured / 2.0
    return acc / measure_evals


def neutral_wrap_config(**kw):
    return ControllerConfig(wrap_transient_s=0.0, wrap_residual_factor=1.0, **kw)


def run_ask_tell(nm, objective, n_evals):
    """Drive nm on a minimization objective; the simplex minimum after each
    evaluation once the initial simplex is measured."""
    history = []
    for e in range(n_evals):
        nm.tell(objective(nm.ask()))
        if e >= nm.dim:
            history.append(float(np.nanmin(nm.values)))
    return history


class TestNelderMeadStep:
    def test_one_dimensional_quadratic(self):
        # oracle: dense scan of the objective locates the min at 1.0
        objective = lambda x: (x[0] - 1.0) ** 2
        scan = np.linspace(-2, 3, 100001)
        oracle = scan[np.argmin((scan - 1.0) ** 2)]
        assert abs(oracle - 1.0) < 1e-4

        nm = _NelderMead([0.0], [0.5])
        assert nm.current_best == [0.0]  # nothing measured yet: the start point
        run_ask_tell(nm, objective, 60)
        assert abs(nm.current_best[0] - 1.0) < 1e-3

    def test_flat_objective_shrinks_simplex(self):
        nm = _NelderMead([0.0, 0.0], [1.0, 1.0])
        simplex = np.asarray(nm.simplex)
        size_before = np.max(np.abs(simplex - simplex[0]))
        run_ask_tell(nm, lambda x: 1.0, 24)
        simplex = np.asarray(nm.simplex)
        size_after = np.max(np.abs(simplex - simplex[0]))
        assert size_after < size_before
        assert np.all(np.asarray(nm.values) == 1.0)

    def test_best_never_worsens_noiseless(self):
        rng = np.random.default_rng(0)
        objective = lambda x: float(np.sum((np.asarray(x) - 2.0) ** 2))
        nm = _NelderMead(rng.standard_normal(3).tolist(), rng.uniform(0.5, 1.5, 3).tolist())
        history = run_ask_tell(nm, objective, 120)
        assert all(b2 <= b1 for b1, b2 in zip(history, history[1:]))
        assert history[-1] < history[0]

    def test_non_finite_objective_faults(self):
        nm = _NelderMead([0.0, 0.0], [1.0, 1.0])
        nm.ask()
        with pytest.raises(ControllerFault):
            nm.tell(float("nan"))


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@st.composite
def search_runs(draw):
    """A search on a noiseless or noisy quadratic, in 1 to twice
    _FLOAT_SIMPLEX_MAX_DIM dims so that both vertex representations run,
    with the steps after which the space is translated (between ask and
    tell, as correction_bandwidth does) and the steps after which it is
    re-seeded around the current best."""
    dim = draw(st.integers(1, 2 * _FLOAT_SIMPLEX_MAX_DIM))
    n_steps = draw(st.integers(1, 40 * min(dim, 8)))
    steps = st.integers(0, n_steps - 1)
    return {
        "dim": dim,
        "n_steps": n_steps,
        "seed": draw(st.integers(0, 2**32 - 1)),
        "noise": draw(st.sampled_from([0.0, 0.05])),
        "translate_at": draw(st.sets(steps, max_size=8)),
        "reinit_at": draw(st.sets(steps, max_size=4)),
    }


class TestSequentialSearch:
    @given(search_runs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_state_machine_bit_for_bit(self, run):
        rng = np.random.default_rng(run["seed"])
        dim = run["dim"]
        x0, edges = rng.standard_normal(dim), rng.uniform(0.05, 1.5, dim)
        target, weights = 2.0 * rng.standard_normal(dim), rng.uniform(0.2, 5.0, dim)
        nm, ref = _NelderMead(x0.tolist(), edges.tolist()), StateMachineNelderMead(x0, edges)
        for step in range(run["n_steps"]):
            x = nm.ask()
            assert _bits(x) == _bits(ref.ask()), step
            if step in run["translate_at"]:
                shift = rng.choice([-1.0, 0.0, 1.0], dim) * 2 * math.pi + rng.standard_normal(dim)
                nm.translate(shift)
                ref.translate(shift)
                x = x + shift
            value = float(np.sum(weights * (x - target) ** 2))
            value += run["noise"] * rng.standard_normal()
            nm.tell(value)
            ref.tell(value)
            assert _bits(nm.current_best) == _bits(ref.current_best), step
            if step in run["reinit_at"]:
                new_edges = rng.uniform(0.05, 1.5, dim)
                nm.reinit(nm.current_best, new_edges.tolist())
                ref.reinit(ref.current_best, new_edges)


@st.composite
def closed_loops(draw):
    """A closed-loop run: 2-9 inputs, a budget of 5-80 or 600 evaluations
    per frame, detector noise on or off, wrap transients of none, a few or
    many evaluations, and frames whose phases drift (so the actuators wrap)
    or whose power collapses (so the former restart monitor fires)."""
    return {
        "n_inputs": draw(st.integers(2, 9)),
        "evals": draw(st.one_of(st.integers(5, 80), st.just(600))),
        "n_frames": draw(st.integers(1, 4)),
        "noise": draw(st.sampled_from([0.0, 0.05])),
        "transient_s": draw(st.sampled_from([0.0, 2e-5, 1e-3])),
        "frames": draw(st.sampled_from(["drift", "collapse"])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


class TestScheduleTable:
    @given(closed_loops())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_staged_loop_bit_for_bit(self, run):
        rng = np.random.default_rng(run["seed"])
        n, n_frames = run["n_inputs"], run["n_frames"]
        amps = rng.uniform(0.2, 1.0, n) * np.exp(TWO_PI * 1j * rng.uniform(size=n))
        if run["frames"] == "drift":
            rates = rng.uniform(-4.0, 4.0, n)
            frames = amps * np.exp(1j * np.outer(np.arange(n_frames), rates))
        else:
            frames = amps * rng.choice([1.0, 0.3, 0.01], size=(n_frames, n))
        topo = CombinerTopology.balanced(n, 0.0, 0.0)
        cfg = ControllerConfig(evals_per_frame=run["evals"], detector_noise_rel=run["noise"],
                               wrap_transient_s=run["transient_s"])
        seed = int(rng.integers(1000))
        trace = run_closed_loop(frames, topo, cfg, seed=seed)
        power_w, wrap_flag = staged_run_closed_loop(frames, topo, cfg, seed=seed)
        assert trace.power_w.tobytes() == power_w.tobytes()
        assert trace.wrap_flag.tobytes() == wrap_flag.tobytes()


class TestClosedLoopStatics:
    def test_two_input_convergence_over_seeds(self):
        topo = CombinerTopology.balanced(2, 0.0, 0.0)
        cfg = neutral_wrap_config(evals_per_frame=200)
        for s in range(30):
            rng = np.random.default_rng(900 + s)
            amps = rng.uniform(0.2, 1.0, 2) * np.exp(2j * math.pi * rng.uniform(size=2))
            trace = run_closed_loop(amps[None, :], topo, cfg, seed=s)
            assert trace.power_w.max() >= 0.999 * np.sum(np.abs(amps) ** 2)

    def test_static_frame_holds_lock(self):
        topo = CombinerTopology.balanced(4, 0.0, 0.0)
        rng = np.random.default_rng(1)
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        frames = np.tile(amps, (5, 1))
        cfg = neutral_wrap_config(evals_per_frame=250)
        trace = run_closed_loop(frames, topo, cfg, seed=0)
        ideal = np.sum(np.abs(amps) ** 2)
        assert np.all(trace.frame_sampled_power()[1:] >= 0.999 * ideal)

    def test_determinism(self):
        topo = CombinerTopology.balanced(3, 0.0, 0.0)
        rng = np.random.default_rng(2)
        frames = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        cfg = ControllerConfig(evals_per_frame=120, detector_noise_rel=0.02)
        a = run_closed_loop(frames, topo, cfg, seed=5)
        b = run_closed_loop(frames, topo, cfg, seed=5)
        np.testing.assert_array_equal(a.power_w, b.power_w)
        np.testing.assert_array_equal(a.wrap_flag, b.wrap_flag)

    def test_passivity_with_wraps_disabled(self):
        topo = CombinerTopology.balanced(4, 0.0, 0.0)
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        cfg = neutral_wrap_config(evals_per_frame=150)
        trace = run_closed_loop(frames, topo, cfg, seed=1)
        per_frame_max = trace.power_w.reshape(6, -1).max(axis=1)
        assert np.all(per_frame_max <= trace.frame_ideal_power_w * (1 + 1e-9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
    def test_non_finite_frames_fail_before_any_evaluation(self, bad, monkeypatch):
        monkeypatch.setattr(controller, "_evaluate", lambda *a, **k: pytest.fail("evaluated"))
        topo = CombinerTopology.balanced(3, 0.0, 0.0)
        frames = np.ones((4, 3), dtype=complex)
        frames[-1, 1] = bad
        with pytest.raises(InvalidFieldError):
            run_closed_loop(frames, topo, ControllerConfig(evals_per_frame=50), seed=0)

    def test_one_input_tree_fails_before_any_evaluation(self, monkeypatch):
        # a 1-input tree has no elements, so the search would be 0-dimensional
        monkeypatch.setattr(controller, "_evaluate", lambda *a, **k: pytest.fail("evaluated"))
        with pytest.raises(ParameterError, match="1-input"):
            run_closed_loop(np.ones((2, 1)), CombinerTopology.balanced(1),
                            ControllerConfig(evals_per_frame=20), seed=0)


NUMERIC_FIELDS = [f.name for f in fields(ControllerConfig)]

# one non-default value per ControllerConfig field
NON_DEFAULT = {
    "evals_per_frame": 100,
    "wrap_transient_s": 1e-4,
    "detector_noise_rel": 0.02,
    "loop_rate_hz": 5e5,
    "wrap_residual_factor": 0.5,
}


class TestControllerConfig:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1"],
                             ids=["nan", "inf", "-inf", "str"])
    @pytest.mark.parametrize("name", NUMERIC_FIELDS)
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ParameterError, match=name):
            ControllerConfig(**{name: value})

    @pytest.mark.parametrize("value", [60.0, 60.5, True, "600"])
    def test_non_integer_eval_count_rejected(self, value):
        with pytest.raises(ParameterError, match="evals_per_frame"):
            ControllerConfig(evals_per_frame=value)

    @pytest.mark.parametrize("name", NUMERIC_FIELDS)
    def test_every_field_changes_a_trace(self, name):
        assert name in NON_DEFAULT, f"{name} has no non-default value to test"
        topo = CombinerTopology.balanced(2, 0.0, 0.0)
        F = 40
        drift = np.linspace(0, 6 * math.pi, F)
        frames = np.stack([np.ones(F), np.exp(1j * drift)], axis=1)
        base = {"evals_per_frame": 120}
        default = run_closed_loop(frames, topo, ControllerConfig(**base), seed=0)
        changed = run_closed_loop(
            frames, topo, ControllerConfig(**dict(base, **{name: NON_DEFAULT[name]})), seed=0
        )
        assert any(
            not np.array_equal(getattr(default, a), getattr(changed, a))
            for a in ("power_w", "wrap_flag")
        ), f"{name}={NON_DEFAULT[name]!r} left the trace unchanged"

    @pytest.mark.parametrize("name", NUMERIC_FIELDS)
    def test_correction_bandwidth_reads_the_rate_and_the_noise_only(self, name):
        # the tracking loop has no frames and opens no wrap dead-time
        args = (1000.0, 1.0)
        kw = {"seed": 0, "n_periods": 1, "settle_periods": 0}
        default = correction_bandwidth(*args, ControllerConfig(), **kw)
        changed = correction_bandwidth(*args, ControllerConfig(**{name: NON_DEFAULT[name]}), **kw)
        assert (changed != default) == (name in {"loop_rate_hz", "detector_noise_rel"})


class TestWrapModel:
    def test_monotonic_drift_wraps_at_least_five_times(self):
        topo = CombinerTopology.balanced(2, 0.0, 0.0)
        F = 80
        drift = np.linspace(0, 10 * math.pi, F)
        frames = np.stack([np.ones(F), np.exp(1j * drift)], axis=1)
        cfg = ControllerConfig(evals_per_frame=150, wrap_transient_s=1e-3)
        trace = run_closed_loop(frames, topo, cfg, seed=0)
        assert int(trace.wrap_flag.sum()) >= 5

    def test_static_midrange_target_never_wraps(self):
        topo = CombinerTopology.balanced(2, 0.0, 0.0)
        frames = np.tile(np.array([[1.0, np.exp(1j * math.pi)]]), (20, 1))
        cfg = ControllerConfig(evals_per_frame=150, wrap_transient_s=1e-3)
        trace = run_closed_loop(frames, topo, cfg, seed=0)
        assert int(trace.wrap_flag.sum()) == 0

    def test_neutral_wrap_model_equals_disabled(self):
        topo = CombinerTopology.balanced(2, 0.0, 0.0)
        F = 40
        drift = np.linspace(0, 6 * math.pi, F)
        frames = np.stack([np.ones(F), np.exp(1j * drift)], axis=1)
        neutral = ControllerConfig(evals_per_frame=120, wrap_transient_s=0.0,
                                   wrap_residual_factor=1.0)
        disabled = ControllerConfig(evals_per_frame=120, wrap_transient_s=0.0,
                                    wrap_residual_factor=0.25)
        a = run_closed_loop(frames, topo, neutral, seed=0)
        b = run_closed_loop(frames, topo, disabled, seed=0)
        # zero transient time means the residual factor never applies
        np.testing.assert_array_equal(a.power_w, b.power_w)

    def test_wrap_event_rate_and_duty(self):
        topo = CombinerTopology.balanced(2, 0.0, 0.0)
        F = 80
        drift = np.linspace(0, 10 * math.pi, F)
        frames = np.stack([np.ones(F), np.exp(1j * drift)], axis=1)
        # transient shorter than one frame: no overlap, no end-of-run clipping
        cfg = ControllerConfig(evals_per_frame=150, wrap_transient_s=1e-4)
        trace = run_closed_loop(frames, topo, cfg, seed=0)
        events_per_s, duty = wrap_event_rate(trace)
        n_events = int(trace.wrap_flag.sum())
        total_time = trace.power_w.size / cfg.loop_rate_hz
        assert abs(events_per_s - n_events / total_time) < 1e-9
        assert abs(duty - n_events * 1e-4 / total_time) < 1e-9

    def test_transient_degrades_output(self):
        topo = CombinerTopology.balanced(2, 0.0, 0.0)
        F = 60
        drift = np.linspace(0, 4 * math.pi, F)
        frames = np.stack([np.ones(F), np.exp(1j * drift)], axis=1)
        cfg = ControllerConfig(evals_per_frame=100, wrap_transient_s=5e-4,
                               wrap_residual_factor=0.25)
        trace = run_closed_loop(frames, topo, cfg, seed=0)
        events = np.nonzero(trace.wrap_flag)[0]
        assert events.size > 0
        e = events[0]
        # power right after the event sits near the residual factor
        assert trace.power_w[e + 1] < 0.5 * trace.frame_ideal_power_w[trace.frame_index[e + 1]]


def _digests(traces):
    """SHA-256 of the concatenated power_w bytes and of the wrap_flag bytes."""
    power, wrap = hashlib.sha256(), hashlib.sha256()
    for trace in traces:
        power.update(trace.power_w.tobytes())
        wrap.update(trace.wrap_flag.tobytes())
    return power.hexdigest(), wrap.hexdigest()


class TestRecordedDigests:
    """The closed-loop traces of acceptance criteria 5 and 8, pinned bit for
    bit to the digests recorded in CHANGES.md."""

    def test_criterion_5_oracle_runs(self):
        cfg = neutral_wrap_config(evals_per_frame=200)

        def runs():
            for n in (2, 3, 4):
                topo = CombinerTopology.balanced(n, 0.0, 0.0)
                for s in range(100):
                    rng = np.random.default_rng(1000 + s)
                    inputs = rng.uniform(0.2, 1.0, n) * np.exp(2j * math.pi * rng.uniform(size=n))
                    yield run_closed_loop(inputs[None, :], topo, cfg, seed=s)

        assert _digests(runs()) == (
            "36828ff8ae136705255af3af604a407646c0e1509fa9fb886f4ef1d6664b19b9",
            "0946e2eb0fb9ea7ddd935efd1922bc7d1f27101c69ce6d2f5145c7ee28f1b6ba",
        )

    def test_criterion_8_drift(self):
        F = 80
        drift = np.linspace(0, 10 * math.pi, F)
        frames = np.stack([np.ones(F), np.exp(1j * drift)], axis=1)
        cfg = ControllerConfig(evals_per_frame=150, wrap_transient_s=1e-4)
        trace = run_closed_loop(frames, CombinerTopology.balanced(2, 0.0, 0.0), cfg, seed=0)
        assert _digests([trace]) == (
            "71d1b4001ceaa6a180b087ff87ad444df634e5e54d98f4de1e8badc27553a694",
            "20e46a85c1dd15c86d3796094c7518e2f183234d44992da9a508d41c2f3050c9",
        )
        np.testing.assert_array_equal(trace.frame_index, np.repeat(np.arange(F), 150))


class TestCorrectionBandwidth:
    CAL = ControllerConfig(loop_rate_hz=6e5)

    def test_static_disturbance_fully_corrected(self):
        eff = correction_bandwidth(0.0, math.pi, self.CAL, n_periods=10)
        assert eff >= 0.999

    def test_efficiency_rolls_off_with_frequency(self):
        freqs = [100.0, 1000.0, 10000.0, 40000.0]
        effs = [
            correction_bandwidth(f, math.pi, self.CAL, n_periods=40) for f in freqs
        ]
        tol = 0.02  # loop noise allowance on a non-increasing trend
        assert all(e2 <= e1 + tol for e1, e2 in zip(effs, effs[1:]))
        assert effs[-1] < 0.7

    def test_knee_lands_near_3_khz(self):
        # the knee: the first swept frequency whose efficiency falls below the
        # midpoint of the static efficiency and the uncorrected floor (1 + J0(A)) / 2
        from scipy.special import j0

        freqs = [200.0, 600.0, 1500.0, 3000.0, 6000.0, 15000.0]
        effs = [correction_bandwidth(f, math.pi, self.CAL, n_periods=60) for f in freqs]
        midpoint = (effs[0] + (1 + j0(math.pi)) / 2) / 2
        knee = next((f for f, e in zip(freqs, effs) if e < midpoint), None)
        assert knee in (3000.0, 6000.0), (effs, midpoint)

    @pytest.mark.parametrize("freq, amplitude", [(math.nan, 1.0), (1000.0, math.nan),
                                                 (math.inf, 1.0), (1000.0, -math.inf)])
    def test_non_finite_disturbance_rejected(self, freq, amplitude):
        with pytest.raises(ParameterError):
            correction_bandwidth(freq, amplitude, self.CAL, n_periods=1, settle_periods=1)

    @pytest.mark.parametrize("n_periods, settle_periods", [
        (math.nan, 1), (1, math.nan), (math.inf, 1), (1, math.inf),
        (0, 1), (-5, -3), (1, -1), ("3", 1),
    ])
    def test_bad_periods_rejected(self, n_periods, settle_periods):
        with pytest.raises(ParameterError, match="periods"):
            correction_bandwidth(1000.0, 1.0, self.CAL, n_periods=n_periods,
                                 settle_periods=settle_periods)

    @pytest.mark.parametrize("freq", [5e-324, 1e-9])
    def test_too_slow_disturbance_fails_before_any_evaluation(self, freq, monkeypatch):
        # 1 / f overflows at 5e-324 Hz; 1e-9 Hz would ask for ~1e17 evaluations
        monkeypatch.setattr(controller, "_evaluate", lambda *a, **k: pytest.fail("evaluated"))
        with pytest.raises(ParameterError, match="disturbance_freq_hz"):
            correction_bandwidth(freq, 1.0, self.CAL)


@st.composite
def tracking_runs(draw):
    """A correction_bandwidth call: a static or 300-5000 Hz disturbance of
    up to two turns (so the phase command wraps and the search space is
    translated), detector noise on or off, and a short run."""
    return {
        "freq": draw(st.one_of(st.just(0.0), st.floats(300.0, 5000.0))),
        "amplitude": draw(st.floats(0.0, 2 * TWO_PI)),
        "noise": draw(st.sampled_from([0.0, 0.05])),
        "loop_rate": draw(st.floats(1e5, 1e6)),
        "n_periods": draw(st.integers(1, 3)),
        "settle_periods": draw(st.integers(0, 2)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


class TestTrackingReference:
    @given(tracking_runs())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_numpy_tracking_bit_for_bit(self, run):
        cfg = ControllerConfig(detector_noise_rel=run["noise"], loop_rate_hz=run["loop_rate"])
        args = (run["freq"], run["amplitude"], cfg, run["seed"], run["n_periods"],
                run["settle_periods"])
        eff = correction_bandwidth(*args)
        assert eff.hex() == numpy_correction_bandwidth(*args).hex()
