"""Photonic coherent combiner: a tree of 2-to-1 interferometric elements.

Each element realizes out = sqrt(rho) a + sqrt(1 - rho) e^{i theta} b, the
kept port of a lossless variable-ratio coupler, so with matched (rho, theta)
it sums the full power of its two inputs.  A balanced binary tree of n-1
elements therefore combines n coherent inputs losslessly; chip and
demultiplexer insertion losses are lumped on the output.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidFieldError, ParameterError, ZeroPowerError, _array, _num

__all__ = [
    "CombinerTopology",
    "CombinerState",
    "combine",
    "align_state",
    "mm_coupling_efficiency",
]

TWO_PI = 2 * math.pi


@functools.lru_cache(maxsize=64)
def _tree_slots(n_inputs: int) -> tuple:
    """(elements, output) of the balanced tree of n_inputs leaves, over a
    signal buffer [inputs..., element outputs...]: element k reads the two
    slots elements[k] and writes slot n_inputs + k; output is the output
    slot."""
    live = list(range(n_inputs))  # buffer slot of each signal of the stage
    elements = []
    while len(live) > 1:
        pairs = list(zip(live[0::2], live[1::2]))
        first = n_inputs + len(elements)  # pair k writes slot first + k
        live = list(range(first, first + len(pairs))) + live[2 * len(pairs):]
        elements += pairs
    return tuple(elements), live[0]


@dataclass(frozen=True)
class CombinerTopology:
    """Balanced tree of n_inputs leaves plus lumped insertion losses.

    Stage by stage, signals (0, 1), (2, 3), ... meet in one element each
    (phase actuator + split ratio) and an odd last signal passes on, so the
    tree has n_inputs - 1 elements.  The shape depends on n_inputs alone:
    _tree_slots(n_inputs) is its table, and _tree_kernel the same walk
    compiled once per input count into straight-line code.
    """

    n_inputs: int
    pic_insertion_loss_db: float = 7.0
    demux_insertion_loss_db: float = 1.0

    def __post_init__(self):
        _num(self.n_inputs, "n_inputs", lo=1, integer=True)
        _num(self.pic_insertion_loss_db, "pic_insertion_loss_db", lo=0)
        _num(self.demux_insertion_loss_db, "demux_insertion_loss_db", lo=0)

    @classmethod
    def balanced(cls, n_inputs: int, pic_insertion_loss_db: float = 7.0,
                 demux_insertion_loss_db: float = 1.0) -> "CombinerTopology":
        """The balanced tree of n_inputs leaves (the constructor, by name)."""
        return cls(n_inputs, pic_insertion_loss_db, demux_insertion_loss_db)

    @property
    def n_elements(self) -> int:
        return self.n_inputs - 1

    @property
    def total_loss_db(self) -> float:
        return self.pic_insertion_loss_db + self.demux_insertion_loss_db


@dataclass(frozen=True)
class CombinerState:
    """Actuator settings: one phase in [0, 2 pi) and one ratio per element."""

    phase_commands: np.ndarray
    split_ratios: np.ndarray

    def __post_init__(self):
        # empty for the elementless 1-input tree
        ph = _array(self.phase_commands, "phase_commands", (None,), empty_ok=True).copy()
        ra = _array(self.split_ratios, "split_ratios", ph.shape, lo=0, hi=1, empty_ok=True).copy()
        object.__setattr__(self, "phase_commands", ph)
        object.__setattr__(self, "split_ratios", ra)
        ph.setflags(write=False)
        ra.setflags(write=False)


def combine(inputs, topology: CombinerTopology, state: CombinerState) -> complex:
    """Run amplitudes through the tree; returns the post-loss complex output.

    Output power never exceeds the summed input power (each element is the
    kept port of a unitary 2x2 map).
    """
    buf = _array(inputs, "inputs", (topology.n_inputs,), dtype=np.complex128).tolist()
    if state.phase_commands.shape[0] != topology.n_elements:
        raise ParameterError("state size does not match topology")
    return _tree_output(topology, buf, state.split_ratios.tolist(), state.phase_commands.tolist())


def _tree_output(topology: CombinerTopology, inputs, ratios, phases) -> complex:
    """Unchecked kernel of combine, and the reference of _tree_kernel.
    inputs is a list of finite complex amplitudes, one per leaf; ratios
    (each in [0, 1]) and phases (finite) are lists of one value per element."""
    elements, output = _tree_slots(topology.n_inputs)
    buf = list(inputs)
    for (i, j), rho, theta in zip(elements, ratios, phases):
        buf.append(math.sqrt(rho) * buf[i] + (cmath.rect(math.sqrt(1.0 - rho), theta) * buf[j]))
    return buf[output] * 10.0 ** (-topology.total_loss_db / 20.0)


@functools.lru_cache(maxsize=64)
def _tree_kernel(n_inputs: int):
    """The tree of n_inputs leaves as one straight-line function
    kernel(x, inputs) -> pre-loss output amplitude.

    x is the closed loop's command list, n_inputs - 1 phases then as many
    ratio parameters, and inputs a list of n_inputs complex amplitudes; both
    are unchecked.  Element k takes phase x[k] % 2 pi and split ratio
    sin(x[n_el + k]) ** 2 (computed s * s), with the operations of
    _tree_output in its order, so times 10 ** (-total_loss_db / 20) the
    output is _tree_output's to the bit.  Every slot of the signal buffer is
    a local variable, b0, b1, ...: no list is built and no table walked.
    """
    return _compile_tree(n_inputs, None)


@functools.lru_cache(maxsize=64)
def _phase_kernel(n_inputs: int):
    """_tree_kernel(n_inputs) for commands whose ratio parameters are all
    pi / 4 (50/50 splits), as the closed loop's phase searches hold them.

    It reads the phases x[:n_inputs - 1] only.  The split amplitudes
    sqrt(r) and sqrt(1 - r) of r = sin(pi / 4) ** 2 are computed once, with
    the float operations of _tree_kernel, and written into the code by
    repr, which round-trips: the output is _tree_kernel's to the bit.
    """
    s = math.sin(math.pi / 4)
    r = s * s
    return _compile_tree(n_inputs, (math.sqrt(r), math.sqrt(1.0 - r)))


def _compile_tree(n_inputs: int, split):
    """Code of _tree_kernel, with every element's split amplitudes
    (sqrt(r), sqrt(1 - r)) the constants split, or computed from x if None."""
    elements, output = _tree_slots(n_inputs)
    n_el = len(elements)
    lines = ["def kernel(x, inputs):",
             "    " + "".join(f"b{i}, " for i in range(n_inputs)) + "= inputs"]
    for k, (i, j) in enumerate(elements):
        if split is None:
            lines.append(f"    s = sin(x[{n_el + k}]); r = s * s")
            through, across = "sqrt(r)", "sqrt(1.0 - r)"
        else:
            through, across = map(repr, split)
        lines.append(f"    b{n_inputs + k} = {through} * b{i}"
                     f" + (rect({across}, x[{k}] % {TWO_PI!r}) * b{j})")
    lines.append(f"    return b{output}")
    kind = "combiner tree" if split is None else "phase search"
    namespace = {"sin": math.sin, "sqrt": math.sqrt, "rect": cmath.rect}
    exec(compile("\n".join(lines), f"<{kind} of {n_inputs} inputs>", "exec"), namespace)
    return namespace["kernel"]


def _summed_power(amplitudes, name, axis=None):
    """Summed power |a|^2 of finite amplitudes (over axis); a sum beyond
    the float range raises InvalidFieldError naming the argument, with no
    RuntimeWarning."""
    with np.errstate(over="ignore"):  # an overflow is raised below, not warned about
        power = np.sum(np.abs(amplitudes) ** 2, axis=axis)
    if not np.isfinite(power).all():
        raise InvalidFieldError(f"{name}: summed power beyond the float range")
    return power


def align_state(inputs, topology: CombinerTopology) -> CombinerState:
    """State that combines the given amplitudes losslessly.

    Per element: ratio matched to the input powers, phase equal to the
    inter-arm phase difference; the output then carries |a|^2 + |b|^2.
    Inputs whose summed power is not finite raise InvalidFieldError.
    """
    inputs = _array(inputs, "inputs", (topology.n_inputs,), dtype=np.complex128)
    _summed_power(inputs, "inputs")  # the element powers below are partial sums of it
    buf = list(inputs)
    phases = []
    ratios = []
    for i, j in _tree_slots(topology.n_inputs)[0]:
        x, y = buf[i], buf[j]
        p = abs(x) ** 2 + abs(y) ** 2
        if p == 0:
            rho, theta = 0.5, 0.0
            out = 0.0 + 0.0j
        else:
            rho = abs(x) ** 2 / p
            theta = (np.angle(x) - np.angle(y)) % TWO_PI if abs(y) > 0 else 0.0
            out = math.sqrt(p) * np.exp(1j * (np.angle(x) if abs(x) > 0 else np.angle(y)))
        phases.append(theta)
        ratios.append(rho)
        buf.append(out)
    return CombinerState(np.array(phases), np.array(ratios))


def mm_coupling_efficiency(mode_power, residual_power, n_modes: int, loss_db: float = 0.0):
    """Per-frame multimode coupling efficiency relative to aperture power.

    mode_power is (frames, modes) modal power and residual_power the
    per-frame aperture power outside the basis.  Lossless combining of the
    first n_modes modes collects their summed power (the combining bound);
    loss_db, e.g. a topology's total insertion loss, is a constant offset.
    A frame of zero total power raises ZeroPowerError.
    """
    power = _array(mode_power, "mode_power", (None, None), lo=0)
    residual = _array(residual_power, "residual_power", power.shape[:1])
    _num(n_modes, "n_modes", lo=0, hi=power.shape[1], integer=True)
    _num(loss_db, "loss_db", lo=0)
    total = power.sum(axis=1) + residual
    if not (total > 0).all():
        raise ZeroPowerError("coupling efficiency undefined for a frame of zero power")
    scale = 10.0 ** (-loss_db / 10.0)
    return scale * power[:, :n_modes].sum(axis=1) / total
