"""One table of array-argument faults, one row per public callable that
takes an array.

Each row is a minimal valid call and the array arguments it takes; every
argument in turn is replaced by each fault of FAULTS, and the call must
raise an FsolinkError whose message names the argument, with no
RuntimeWarning.  Faults a row's call accepts by design are listed with the
row and the reason.
"""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from fsolink.combiner import (CombinerState, CombinerTopology, align_state, combine,
                              mm_coupling_efficiency)
from fsolink.comms import (PowerTrace, ReceiverModel, ber_curve, ber_instant, cumulated_ber,
                           frame_rate_invariance_check, monte_carlo_cumulated_ber, power_penalty,
                           select_windows)
from fsolink.controller import ControllerConfig, NelderMead, run_closed_loop
from fsolink.errors import FsolinkError, ParameterError, ZeroPowerError, _array
from fsolink.field import ComplexFieldGrid, GridSpec, apply_phase_screen, plane_wave
from fsolink.modes import ModeBasis, ModeCoefficients, mode_statistics
from fsolink.turbulence import (PhaseScreen, kolmogorov_structure_function,
                                measure_structure_function)
from fsolink.wdm import OpticalSpectrum

GRID = GridSpec(64, 1.0)
OOK = ReceiverModel()
TOPO3 = CombinerTopology(3, 0.0, 0.0)
ROP = np.linspace(-44.0, -30.0, 8)
CURVE = np.array([ROP, ber_instant(ROP, OOK)])
REFERENCE = np.array([ROP, ber_instant(ROP + 1.0, OOK)])


def _spoil(a, value):
    b = a.astype(np.result_type(a, np.float64))
    b.flat[0] = value
    return b


def _with_a_bool(values):
    """values, a nested list of numbers, with its first number made True."""
    if isinstance(values[0], list):
        return [_with_a_bool(values[0]), *values[1:]]
    return [True, *values[1:]]


# fault -> f(valid array, the axis whose length the call implies)
FAULTS = {
    "nan": lambda a, axis: _spoil(a, math.nan),
    "inf": lambda a, axis: _spoil(a, math.inf),
    "empty": lambda a, axis: a[..., :0],
    "extra-dim": lambda a, axis: a[None],
    "length": lambda a, axis: np.concatenate([a, np.take(a, [0], axis=axis)], axis=axis),
    "strings": lambda a, axis: a.astype(str),
    "bools": lambda a, axis: a.astype(bool),
    "list-with-a-bool": lambda a, axis: _with_a_bool(a.tolist()),
}

# name -> (call, {argument: valid value}, {(argument, fault): why it is accepted})
TABLE = {
    "ComplexFieldGrid": (
        lambda samples: ComplexFieldGrid(samples, 1.0, 1.55e-6),
        {"samples": np.ones((64, 64), dtype=complex)}, {}),
    "PhaseScreen": (
        lambda phase: PhaseScreen(phase, 0.1), {"phase": np.zeros((8, 8))}, {}),
    "apply_phase_screen": (
        lambda phase: apply_phase_screen(plane_wave(GRID), SimpleNamespace(
            phase=phase, spacing_m=GRID.spacing_m)),
        {"phase": np.zeros((64, 64))}, {}),
    "PowerTrace": (lambda rop_dbm: PowerTrace(rop_dbm), {"rop_dbm": np.full(3, -30.0)}, {}),
    "PowerTrace.from_rop": (
        lambda rop_dbm: PowerTrace.from_rop(rop_dbm), {"rop_dbm": np.full(3, -30.0)}, {}),
    "ber_instant": (
        lambda rop_dbm: ber_instant(rop_dbm, OOK), {"rop_dbm": ROP},
        {("rop_dbm", "extra-dim"): "elementwise over any shape"}),
    "cumulated_ber": (
        lambda rop_dbm: cumulated_ber(rop_dbm, OOK), {"rop_dbm": ROP}, {}),
    "monte_carlo_cumulated_ber": (
        lambda rop_dbm: monte_carlo_cumulated_ber(rop_dbm, OOK, bits_per_frame=10),
        {"rop_dbm": ROP}, {}),
    "ber_curve": (
        lambda rop_grid_dbm, efficiency_db: ber_curve(rop_grid_dbm, OOK, efficiency_db),
        {"rop_grid_dbm": ROP, "efficiency_db": np.zeros(4)}, {}),
    "frame_rate_invariance_check": (
        lambda rates_hz: frame_rate_invariance_check(PowerTrace(ROP), OOK, rates_hz),
        {"rates_hz": np.array([1.0, 10.0])}, {}),
    "select_windows": (
        lambda efficiency_db: select_windows(efficiency_db, 2, 1),
        {"efficiency_db": np.zeros(5)}, {}),
    "power_penalty": (
        lambda curve, reference: power_penalty(curve, reference, 1e-6),
        {"curve": CURVE, "reference": REFERENCE}, {}),
    "CombinerState": (
        CombinerState, {"phase_commands": np.zeros(2), "split_ratios": np.full(2, 0.5)},
        {("phase_commands", "empty"): "a 1-input tree has an empty state",
         ("split_ratios", "empty"): "a 1-input tree has an empty state"}),
    "combine": (
        lambda inputs: combine(inputs, TOPO3, CombinerState(np.zeros(2), np.full(2, 0.5))),
        {"inputs": np.ones(3, dtype=complex)}, {}),
    "align_state": (
        lambda inputs: align_state(inputs, TOPO3), {"inputs": np.ones(3, dtype=complex)}, {}),
    "mm_coupling_efficiency": (
        lambda mode_power, residual_power: mm_coupling_efficiency(mode_power, residual_power, 2),
        {"mode_power": np.ones((3, 4)), "residual_power": np.zeros(3)}, {}),
    "run_closed_loop": (
        lambda frames: run_closed_loop(frames, TOPO3, ControllerConfig(evals_per_frame=5)),
        {"frames": np.ones((2, 3), dtype=complex)}, {}),
    "NelderMead": (NelderMead, {"x0": np.zeros(2), "edges": np.ones(2)}, {}),
    "ModeCoefficients": (
        lambda coeffs: ModeCoefficients(coeffs, 0.0), {"coeffs": np.ones(3, dtype=complex)}, {}),
    "measure_structure_function": (
        lambda phases, lags_px: measure_structure_function(phases, 0.1, lags_px),
        {"phases": np.zeros((2, 8, 8)), "lags_px": np.array([1, 2])}, {}),
    "kolmogorov_structure_function": (
        lambda r: kolmogorov_structure_function(r, 0.1), {"r": np.array([0.1, 0.2])},
        {("r", "extra-dim"): "elementwise over any shape"}),
    "OpticalSpectrum": (
        lambda lines_hz: OpticalSpectrum(lines_hz=lines_hz), {"lines_hz": np.array([1.9e14])}, {}),
}

# (row, argument) -> the axis whose length the call implies; "length"
# applies to these arguments only
LENGTH = {
    ("ComplexFieldGrid", "samples"): -1,
    ("PhaseScreen", "phase"): -1,
    ("apply_phase_screen", "phase"): -1,
    ("power_penalty", "curve"): 0,
    ("power_penalty", "reference"): 0,
    ("CombinerState", "split_ratios"): -1,
    ("combine", "inputs"): -1,
    ("align_state", "inputs"): -1,
    ("mm_coupling_efficiency", "residual_power"): -1,
    ("run_closed_loop", "frames"): -1,
    ("NelderMead", "edges"): -1,
    ("measure_structure_function", "phases"): -1,
}

# the callables whose array arguments had hand-written checks, or none
CHECKED_AT_ENTRY = {
    "ComplexFieldGrid", "PhaseScreen", "PowerTrace", "cumulated_ber", "run_closed_loop",
    "CombinerState", "combine", "align_state", "mm_coupling_efficiency",
    "measure_structure_function", "OpticalSpectrum", "apply_phase_screen", "ber_instant",
    "ber_curve", "monte_carlo_cumulated_ber", "select_windows", "power_penalty",
    "ModeCoefficients",
}


def _cases():
    for row, (_, valid, accepted) in TABLE.items():
        for arg in valid:
            for fault in FAULTS:
                if fault == "length" and (row, arg) not in LENGTH:
                    continue
                if (arg, fault) not in accepted:
                    yield pytest.param(row, arg, fault, id=f"{row}-{arg}-{fault}")


def test_table_covers_every_callable_checked_at_entry():
    assert CHECKED_AT_ENTRY <= TABLE.keys()


@pytest.mark.parametrize("row", TABLE)
def test_valid_call_runs(row):
    call, valid, _ = TABLE[row]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        call(**valid)


@pytest.mark.parametrize("row, arg, fault", _cases())
def test_array_fault_raises_naming_the_argument(row, arg, fault):
    call, valid, _ = TABLE[row]
    args = dict(valid)
    args[arg] = FAULTS[fault](np.asarray(valid[arg]), LENGTH.get((row, arg)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FsolinkError, match=arg):
            call(**args)


@pytest.mark.parametrize("call, name", [
    (lambda: power_penalty((ROP, CURVE[1][:-1]), REFERENCE, 1e-6), "curve"),
    (lambda: mm_coupling_efficiency(np.ones((4, 3)), [0.0], 2), "residual_power"),
    (lambda: measure_structure_function([np.zeros((8, 8)), np.zeros((4, 4))], 0.1, [1]), "phases"),
    (lambda: measure_structure_function([np.zeros((8, 8))], 0.1, [1.5]), "lags_px"),
    (lambda: measure_structure_function([np.zeros((8, 8))], 0.1, [8]), "lags_px"),
    (lambda: measure_structure_function(iter(()), 0.1, [1]), "phases"),
], ids=["unequal-curve", "broadcast-residual", "mixed-screens", "fractional-lag",
        "lag-of-the-grid", "no-screens"])
def test_misshapen_input_raises_naming_the_argument(call, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FsolinkError, match=name):
            call()


# name -> (call of one count argument, the argument, its faults): counts
# are checked by the scalar check, whole and within their range
COUNTS = {
    "ModeBasis.build": (lambda max_group: ModeBasis.build(GRID, 0.5, max_group=max_group),
                        "max_group", [-1, 5, 2.5, math.nan, True]),
}


@pytest.mark.parametrize("row, value", [
    pytest.param(row, value, id=f"{row}-{value!r}")
    for row, (_, _, faults) in COUNTS.items() for value in faults])
def test_bad_count_raises_naming_the_argument(row, value):
    call, name, _ = COUNTS[row]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ParameterError, match=name):
            call(value)


def test_zero_power_frames_raise():
    with pytest.raises(ZeroPowerError):
        mm_coupling_efficiency(np.zeros((2, 3)), np.zeros(2), 2)
    with pytest.raises(ZeroPowerError):
        mode_statistics([ModeCoefficients(np.zeros(15), 0.0)])


def test_checked_array_of_the_dtype_is_not_copied():
    a = np.zeros(4)
    z = np.zeros(4, dtype=complex)
    assert _array(a, "a", (4,)) is a
    assert _array(z, "z", (4,), dtype=np.complex128) is z


def test_nested_list_still_builds_a_field():
    rows = [[1.0] * 64 for _ in range(64)]
    field = ComplexFieldGrid(rows, 1.0, 1.55e-6)
    assert field.samples.dtype == np.complex128 and field.n == 64
