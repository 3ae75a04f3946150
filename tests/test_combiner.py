import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsolink.combiner import (
    CombinerState,
    CombinerTopology,
    align_state,
    combine,
    mm_coupling_efficiency,
)
from fsolink.errors import InvalidFieldError, ParameterError
from fsolink.modes import ModeCoefficients


def golden_max(f, a, b, iters=60):
    invphi = (math.sqrt(5.0) - 1) / 2
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2


def _coordinate_scan(inputs, topology, ratios0, thetas0, n_ratio=41, n_theta=180, passes=10):
    n_el = topology.n_elements
    ratios = np.array(ratios0, dtype=float)
    thetas = np.array(thetas0, dtype=float)

    def power(ra, th):
        return abs(combine(inputs, topology, CombinerState(th, ra))) ** 2

    best_p = power(ratios, thetas)
    for _ in range(passes):
        improved = False
        for k in range(n_el):
            def p_ratio(r, k=k):
                ra = ratios.copy()
                ra[k] = min(1.0, max(0.0, r))
                return power(ra, thetas)

            r_grid = np.linspace(0, 1, n_ratio)
            r0 = r_grid[int(np.argmax([p_ratio(r) for r in r_grid]))]
            dr = 1.0 / (n_ratio - 1)
            r_best = golden_max(p_ratio, max(0.0, r0 - dr), min(1.0, r0 + dr))
            ratios[k] = min(1.0, max(0.0, r_best))

            def p_theta(t, k=k):
                th = thetas.copy()
                th[k] = t % (2 * math.pi)
                return power(ratios, th)

            t_grid = np.linspace(0, 2 * math.pi, n_theta, endpoint=False)
            t0 = t_grid[int(np.argmax([p_theta(t) for t in t_grid]))]
            dt = 2 * math.pi / n_theta
            thetas[k] = golden_max(p_theta, t0 - dt, t0 + dt) % (2 * math.pi)

            p_new = power(ratios, thetas)
            if p_new > best_p * (1 + 1e-13):
                best_p = p_new
                improved = True
        if not improved:
            break
    return best_p


def dense_scan_max(inputs, topology, n_starts=8):
    """Oracle: multi-start coordinate-wise dense grid scans with a
    golden-section polish of each best cell.  A dead sub-tree (destructive
    branch behind a fully tilted ratio) can trap one start, so several
    deterministic random starts cover the state space."""
    n_el = topology.n_elements
    rng = np.random.default_rng(987654321)
    best = _coordinate_scan(inputs, topology, np.full(n_el, 0.5), np.full(n_el, math.pi))
    for _ in range(n_starts - 1):
        best = max(
            best,
            _coordinate_scan(
                inputs, topology,
                rng.uniform(0.2, 0.8, n_el),
                rng.uniform(0, 2 * math.pi, n_el),
            ),
        )
    return best


def balanced_stages(n):
    """The balanced tree of n leaves as stages of ("pair", i, j) and
    ("pass", i) entries indexing the previous stage's signals: pairs
    (0, 1), (2, 3), ..., an odd last signal passed through."""
    stages = []
    width = n
    while width > 1:
        stage = [("pair", 2 * k, 2 * k + 1) for k in range(width // 2)]
        if width % 2:
            stage.append(("pass", width - 1))
        stages.append(tuple(stage))
        width = len(stage)
    return tuple(stages)


def compile_stages(n, stages):
    """(elements, output) of the stages over the buffer [inputs..., element
    outputs...], element by element in stage-entry order."""
    live, elements = list(range(n)), []
    for stage in stages:
        nxt = []
        for entry in stage:
            if entry[0] == "pair":
                elements.append((live[entry[1]], live[entry[2]]))
                nxt.append(n + len(elements) - 1)
            else:
                nxt.append(live[entry[1]])
        live = nxt
    return tuple(elements), live[0]


def stage_walk_combine(inputs, topology, state):
    """Reference: the tree evaluated stage by stage over balanced_stages."""
    signals = np.asarray(inputs, dtype=np.complex128)
    k = 0
    for stage in balanced_stages(topology.n_inputs):
        nxt = np.empty(len(stage), dtype=np.complex128)
        for slot, entry in enumerate(stage):
            if entry[0] == "pair":
                rho = state.split_ratios[k]
                theta = state.phase_commands[k]
                nxt[slot] = math.sqrt(rho) * signals[entry[1]] + (
                    math.sqrt(1.0 - rho) * np.exp(1j * theta) * signals[entry[2]]
                )
                k += 1
            else:
                nxt[slot] = signals[entry[1]]
        signals = nxt
    return signals[0] * 10.0 ** (-topology.total_loss_db / 20.0)


def stage_walk_align(inputs, topology):
    """Reference: align_state evaluated stage by stage; (phases, ratios)."""
    signals = np.asarray(inputs, dtype=np.complex128)
    phases, ratios = [], []
    for stage in balanced_stages(topology.n_inputs):
        nxt = np.empty(len(stage), dtype=np.complex128)
        for slot, entry in enumerate(stage):
            if entry[0] == "pair":
                x, y = signals[entry[1]], signals[entry[2]]
                p = abs(x) ** 2 + abs(y) ** 2
                if p == 0:
                    rho, theta, out = 0.5, 0.0, 0.0 + 0.0j
                else:
                    rho = abs(x) ** 2 / p
                    theta = (np.angle(x) - np.angle(y)) % (2 * math.pi) if abs(y) > 0 else 0.0
                    out = math.sqrt(p) * np.exp(1j * (np.angle(x) if abs(x) > 0 else np.angle(y)))
                phases.append(theta)
                ratios.append(rho)
                nxt[slot] = out
            else:
                nxt[slot] = signals[entry[1]]
        signals = nxt
    return np.array(phases), np.array(ratios)


@st.composite
def trees(draw):
    """Balanced trees of 1-32 inputs with random insertion losses."""
    return CombinerTopology.balanced(
        draw(st.integers(1, 32)), draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 10.0))
    )


_parts = st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_subnormal=False))


@st.composite
def tree_cases(draw):
    topo = draw(trees())
    n, m = topo.n_inputs, topo.n_elements
    inputs = np.array([complex(draw(_parts), draw(_parts)) for _ in range(n)])
    phases = np.array(draw(st.lists(st.floats(-20.0, 20.0), min_size=m, max_size=m)))
    ratios = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
    return topo, inputs, CombinerState(phases, ratios)


def _bits(x):
    return np.asarray(x, dtype=np.float64 if np.isrealobj(x) else np.complex128).tobytes()


class TestCompiledTree:
    @given(tree_cases())
    @settings(max_examples=300, deadline=None)
    def test_combine_matches_stage_walk(self, case):
        topo, inputs, state = case
        assert _bits(combine(inputs, topo, state)) == _bits(stage_walk_combine(inputs, topo, state))

    @given(tree_cases())
    @settings(max_examples=300, deadline=None)
    def test_align_state_matches_stage_walk(self, case):
        topo, inputs, _ = case
        state = align_state(inputs, topo)
        ref_phases, ref_ratios = stage_walk_align(inputs, topo)
        assert _bits(state.phase_commands) == _bits(ref_phases)
        assert _bits(state.split_ratios) == _bits(ref_ratios)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_compiled_table_matches_stage_compile(self, n):
        topo = CombinerTopology.balanced(n)
        assert (topo._elements, topo._output) == compile_stages(n, balanced_stages(n))


class TestCombine:
    def test_equal_inputs_constructive(self):
        topo = CombinerTopology.balanced(2, 0.0, 0.0)
        state = CombinerState(np.array([0.0]), np.array([0.5]))
        amp = combine([1.0, 1.0], topo, state)
        assert abs(abs(amp) ** 2 - 2.0) < 1e-12

    def test_phase_corrected_antiphase_inputs(self):
        topo = CombinerTopology.balanced(2, 0.0, 0.0)
        state = CombinerState(np.array([math.pi]), np.array([0.5]))
        amp = combine([1.0, np.exp(1j * math.pi)], topo, state)
        assert abs(abs(amp) ** 2 - 2.0) < 1e-12

    def test_unbalanced_inputs_reach_full_power(self):
        # oracle: dense scan over (ratio, theta) reaches |a|^2 + |b|^2 = 1
        topo = CombinerTopology.balanced(2, 0.0, 0.0)
        rng = np.random.default_rng(5)
        for _ in range(3):
            phi = rng.uniform(0, 2 * math.pi)
            inputs = np.array([0.6, 0.8 * np.exp(1j * phi)])
            assert abs(dense_scan_max(inputs, topo) - 1.0) < 1e-6

    def test_losses_attenuate_output_not_monitors(self):
        topo = CombinerTopology.balanced(2, 7.0, 1.0)
        state = CombinerState(np.array([0.0]), np.array([0.5]))
        amp = combine([1.0, 1.0], topo, state)
        assert abs(abs(amp) ** 2 - 2.0 * 10 ** (-0.8)) < 1e-12

    def test_passivity_random_states(self):
        rng = np.random.default_rng(7)
        topo = CombinerTopology.balanced(15, 0.0, 0.0)
        inputs = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        total = np.sum(np.abs(inputs) ** 2)
        for _ in range(50):
            state = CombinerState(
                rng.uniform(0, 2 * math.pi, 14), rng.uniform(0, 1, 14)
            )
            amp = combine(inputs, topo, state)
            assert abs(amp) ** 2 <= total * (1 + 1e-12)

    def test_periodic_in_theta(self):
        topo = CombinerTopology.balanced(3, 0.0, 0.0)
        rng = np.random.default_rng(3)
        inputs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        th = rng.uniform(0, 2 * math.pi, 2)
        ra = rng.uniform(0, 1, 2)
        a1 = combine(inputs, topo, CombinerState(th, ra))
        a2 = combine(inputs, topo, CombinerState(th + 2 * math.pi, ra))
        assert abs(a1 - a2) < 1e-12

    def test_input_validation(self):
        topo = CombinerTopology.balanced(3, 0.0, 0.0)
        state = CombinerState(np.zeros(2), np.full(2, 0.5))
        with pytest.raises(ParameterError):
            combine([1.0, 1.0], topo, state)
        with pytest.raises(InvalidFieldError):
            combine([1.0, np.nan, 1.0], topo, state)


class TestAlignState:
    @pytest.mark.parametrize("n", [2, 3, 4, 15])
    def test_reaches_total_input_power(self, n):
        rng = np.random.default_rng(n)
        topo = CombinerTopology.balanced(n, 0.0, 0.0)
        inputs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        state = align_state(inputs, topo)
        amp = combine(inputs, topo, state)
        total = np.sum(np.abs(inputs) ** 2)
        assert abs(abs(amp) ** 2 - total) < 1e-12 * total

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dense_scan_agrees_with_alignment(self, n):
        rng = np.random.default_rng(100 + n)
        topo = CombinerTopology.balanced(n, 0.0, 0.0)
        inputs = rng.uniform(0.2, 1.0, n) * np.exp(2j * math.pi * rng.uniform(size=n))
        total = np.sum(np.abs(inputs) ** 2)
        assert abs(dense_scan_max(inputs, topo) - total) < 1e-6 * total


class TestIdealCombinedPower:
    def test_simple_sum(self):
        power = np.abs(np.array([[0.6, 0.8]])) ** 2  # 0.36 + 0.64
        assert abs(mm_coupling_efficiency(power, [0.0], 2)[0] - 1.0) < 1e-12

    def test_zero_modes(self):
        assert mm_coupling_efficiency(np.array([[1.0, 2.0]]), [0.0], 0)[0] == 0.0
        with pytest.raises(ParameterError):
            mm_coupling_efficiency(np.array([[1.0, 2.0]]), [0.0], 3)

    def test_accepts_mode_coefficients(self):
        mc = ModeCoefficients(coeffs=np.array([1.0 + 0j, 2.0 + 0j]), residual_power=0.5)
        eff = mm_coupling_efficiency(mc.mode_power[None, :], [mc.residual_power], 1)
        assert abs(eff[0] - mc.mode_power[0] / mc.total_power) < 1e-12

    def test_matches_lossless_combine_optimum(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 4):
            topo = CombinerTopology.balanced(n, 0.0, 0.0)
            inputs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            state = align_state(inputs, topo)
            amp = combine(inputs, topo, state)
            total = np.sum(np.abs(inputs) ** 2)
            eff = mm_coupling_efficiency(np.abs(inputs[None, :]) ** 2, [0.0], n)[0]
            assert abs(abs(amp) ** 2 - eff * total) < 1e-9


class TestEfficiencySeries:
    def _series(self, rng, frames=20):
        c = rng.standard_normal((frames, 15)) + 1j * rng.standard_normal((frames, 15))
        return np.abs(c) ** 2, np.abs(rng.standard_normal(frames))

    def test_lossy_is_exactly_8_db_below_lossless(self):
        rng = np.random.default_rng(2)
        power, residual = self._series(rng)
        loss_db = CombinerTopology.balanced(15).total_loss_db  # default 7 + 1 dB
        lossless = mm_coupling_efficiency(power, residual, 15)
        lossy = mm_coupling_efficiency(power, residual, 15, loss_db)
        np.testing.assert_allclose(lossy, lossless * 10 ** (-0.8), rtol=1e-12)

    def test_mode_count_ordering(self):
        rng = np.random.default_rng(4)
        power, residual = self._series(rng, frames=50)
        means = [mm_coupling_efficiency(power, residual, n).mean() for n in (3, 6, 10, 15)]
        assert all(means[i] < means[i + 1] for i in range(3))

    def test_equals_per_frame_form(self):
        # the per-frame sums the CLI and criterion 4 used before, bit for bit
        rng = np.random.default_rng(6)
        power, residual = self._series(rng, frames=1000)
        for n in (3, 6, 10, 15):
            ref = [float(np.sum(p[:n])) / float(p.sum() + r) for p, r in zip(power, residual)]
            np.testing.assert_array_equal(mm_coupling_efficiency(power, residual, n), ref)


class TestTopologyValidation:
    def test_balanced_element_count(self):
        for n in (2, 3, 4, 15, 16):
            topo = CombinerTopology.balanced(n)
            assert topo.n_elements == n - 1

    @pytest.mark.parametrize("n", [0, -1, 3.0, 2.5, True, "3", None])
    def test_bad_input_count_rejected(self, n):
        with pytest.raises(ParameterError, match="n_inputs"):
            CombinerTopology.balanced(n)

    @pytest.mark.parametrize("name", ["pic_insertion_loss_db", "demux_insertion_loss_db"])
    def test_nan_loss_names_the_argument(self, name):
        with pytest.raises(ParameterError, match=name):
            CombinerTopology(2, **{name: math.nan})

    def test_negative_loss_rejected(self):
        with pytest.raises(ParameterError):
            CombinerTopology.balanced(2, pic_insertion_loss_db=-1.0)
        with pytest.raises(ParameterError):
            CombinerTopology.balanced(2, demux_insertion_loss_db=-1.0)

    def test_state_validation(self):
        with pytest.raises(ParameterError):
            CombinerState(np.array([0.0]), np.array([1.5]))
        with pytest.raises(ParameterError):
            CombinerState(np.array([np.inf]), np.array([0.5]))
        with pytest.raises(ParameterError, match="split_ratios"):
            CombinerState(np.array([0.0]), np.array([np.nan]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_align_state_rejects_non_finite_inputs(self, bad):
        # the inputs combine() rejects
        with pytest.raises(InvalidFieldError):
            align_state([1.0, bad], CombinerTopology(2, 0.0, 0.0))

    @pytest.mark.parametrize("kw, name", [
        ({"n_modes": True}, "n_modes"),
        ({"n_modes": 2, "loss_db": math.nan}, "loss_db"),
    ], ids=["n_modes", "loss_db"])
    def test_bad_mm_scalar_names_the_argument(self, kw, name):
        with pytest.raises(ParameterError, match=name):
            mm_coupling_efficiency(np.ones((3, 4)), np.zeros(3), **kw)
