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

from .errors import InvalidFieldError, ParameterError

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
    """Wiring of the combining tree plus lumped insertion losses.

    stages is a tuple of stages; each stage is a tuple of ("pair", i, j) or
    ("pass", i) entries indexing the previous stage's outputs.  Every
    "pair" consumes one element (phase actuator + split ratio), so a valid
    tree has exactly n_inputs - 1 elements.  Construction compiles the
    stages into one flat list of elements over a signal buffer
    [inputs..., element outputs...]: element k reads the slots in
    _elements[k] and writes slot n_inputs + k, "pass" entries become slot
    aliases, and _output is the slot of the tree output.
    """

    n_inputs: int
    stages: tuple
    pic_insertion_loss_db: float = 7.0
    demux_insertion_loss_db: float = 1.0
    _elements: tuple = field(init=False, repr=False, compare=False)
    _output: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_inputs < 1:
            raise ParameterError("n_inputs must be >= 1")
        if self.pic_insertion_loss_db < 0 or self.demux_insertion_loss_db < 0:
            raise ParameterError("insertion losses must be >= 0")
        live = list(range(self.n_inputs))  # buffer slot of each signal of the stage
        elements = []
        for st in self.stages:
            if any((e[0], len(e)) not in (("pair", 3), ("pass", 2)) for e in st):
                raise ParameterError(f"stage {st} holds an entry other than pair/pass")
            if sorted(i for e in st for i in e[1:]) != list(range(len(live))):
                raise ParameterError(f"stage {st} does not consume signals 0..{len(live) - 1}")
            nxt = []
            for e in st:
                if e[0] == "pair":
                    elements.append((live[e[1]], live[e[2]]))
                    nxt.append(self.n_inputs + len(elements) - 1)
                else:
                    nxt.append(live[e[1]])
            live = nxt
        if len(elements) != self.n_inputs - 1:
            raise ParameterError(
                f"tree with {self.n_inputs} leaves needs {self.n_inputs - 1} elements, "
                f"got {len(elements)}"
            )
        if len(live) != 1:
            raise ParameterError("tree must end in a single output")
        object.__setattr__(self, "_elements", tuple(elements))
        object.__setattr__(self, "_output", live[0])

    @classmethod
    def balanced(cls, n_inputs: int, pic_insertion_loss_db: float = 7.0,
                 demux_insertion_loss_db: float = 1.0) -> "CombinerTopology":
        """Balanced pairing tree; odd signals pass through to the next stage."""
        stages = []
        width = n_inputs
        while width > 1:
            st = [("pair", 2 * k, 2 * k + 1) for k in range(width // 2)]
            if width % 2:
                st.append(("pass", width - 1))
            stages.append(tuple(st))
            width = len(st)
        return cls(
            n_inputs=n_inputs,
            stages=tuple(stages),
            pic_insertion_loss_db=pic_insertion_loss_db,
            demux_insertion_loss_db=demux_insertion_loss_db,
        )

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
        ph = np.array(self.phase_commands, dtype=np.float64, copy=True)
        ra = np.array(self.split_ratios, dtype=np.float64, copy=True)
        if ph.shape != ra.shape:
            raise ParameterError("phase_commands and split_ratios must have equal length")
        if not np.all(np.isfinite(ph)):
            raise ParameterError("phase commands must be finite")
        if np.any((ra < 0) | (ra > 1)):
            raise ParameterError("split ratios must lie in [0, 1]")
        object.__setattr__(self, "phase_commands", ph)
        object.__setattr__(self, "split_ratios", ra)
        ph.setflags(write=False)
        ra.setflags(write=False)


def combine(inputs, topology: CombinerTopology, state: CombinerState) -> complex:
    """Run amplitudes through the tree; returns the post-loss complex output.

    Output power never exceeds the summed input power (each element is the
    kept port of a unitary 2x2 map).
    """
    a = np.asarray(inputs, dtype=np.complex128)
    if a.shape != (topology.n_inputs,):
        raise ParameterError(
            f"expected {topology.n_inputs} input amplitudes, got shape {a.shape}"
        )
    buf = a.tolist()
    if not all(map(cmath.isfinite, buf)):
        raise InvalidFieldError("combiner inputs must be finite")
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
    a = np.asarray(inputs, dtype=np.complex128)
    if a.shape != (topology.n_inputs,):
        raise ParameterError("input length does not match topology")
    buf = list(a)
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
    """
    power = np.asarray(mode_power, dtype=np.float64)
    if power.ndim != 2 or not 0 <= n_modes <= power.shape[1]:
        raise ParameterError("need (frames, modes) powers and 0 <= n_modes <= modes")
    scale = 10.0 ** (-loss_db / 10.0)
    return scale * power[:, :n_modes].sum(axis=1) / (power.sum(axis=1) + residual_power)
