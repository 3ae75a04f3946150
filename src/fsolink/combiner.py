"""Photonic coherent combiner: a tree of 2-to-1 interferometric elements.

Each element realizes out = sqrt(rho) a + sqrt(1 - rho) e^{i theta} b, the
kept port of a lossless variable-ratio coupler, so with matched (rho, theta)
it sums the full power of its two inputs.  A balanced binary tree of n-1
elements therefore combines n coherent inputs losslessly; chip and
demultiplexer insertion losses are lumped on the output.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ZeroPowerError, _array, _num

__all__ = [
    "CombinerTopology",
    "CombinerState",
    "combine",
    "align_state",
    "mm_coupling_efficiency",
]

TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class CombinerTopology:
    """Balanced tree of n_inputs leaves plus lumped insertion losses.

    Stage by stage, signals (0, 1), (2, 3), ... meet in one element each
    (phase actuator + split ratio) and an odd last signal passes on, so the
    tree has n_inputs - 1 elements.  Construction compiles it over a signal
    buffer [inputs..., element outputs...]: element k reads the two slots in
    _elements[k] and writes slot n_inputs + k; _output is the output slot.
    """

    n_inputs: int
    pic_insertion_loss_db: float = 7.0
    demux_insertion_loss_db: float = 1.0
    _elements: tuple = field(init=False, repr=False, compare=False)
    _output: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = _num(self.n_inputs, "n_inputs", lo=1, integer=True)
        _num(self.pic_insertion_loss_db, "pic_insertion_loss_db", lo=0)
        _num(self.demux_insertion_loss_db, "demux_insertion_loss_db", lo=0)
        live = list(range(n))  # buffer slot of each signal of the stage
        elements = []
        while len(live) > 1:
            pairs = list(zip(live[0::2], live[1::2]))
            first = n + len(elements)  # pair k writes slot first + k
            live = list(range(first, first + len(pairs))) + live[2 * len(pairs):]
            elements += pairs
        object.__setattr__(self, "_elements", tuple(elements))
        object.__setattr__(self, "_output", live[0])

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
    """Unchecked kernel of combine.  inputs is a list of finite complex
    amplitudes, one per leaf; ratios (each in [0, 1]) and phases (finite)
    are lists of one value per element."""
    buf = list(inputs)
    for (i, j), rho, theta in zip(topology._elements, ratios, phases):
        buf.append(math.sqrt(rho) * buf[i] + (cmath.rect(math.sqrt(1.0 - rho), theta) * buf[j]))
    return buf[topology._output] * 10.0 ** (-topology.total_loss_db / 20.0)


def align_state(inputs, topology: CombinerTopology) -> CombinerState:
    """State that combines the given amplitudes losslessly.

    Per element: ratio matched to the input powers, phase equal to the
    inter-arm phase difference; the output then carries |a|^2 + |b|^2.
    """
    buf = list(_array(inputs, "inputs", (topology.n_inputs,), dtype=np.complex128))
    phases = []
    ratios = []
    for i, j in topology._elements:
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
