"""Outside-in span tracing for the traced benchmark run.

Spans are recorded only around calls into the package's public names, from
the benchmark's own files: wrappers are installed where each caller looks a
name up (the package modules import their collaborators by name) and are
removed when the traced phase ends.  The untraced run never touches this
module.

A span has a name whose first dotted component is its layer, a parent span,
and start and end times.  Spans live in flat in-memory arrays while the run
lasts and are written out once, at the end.
"""

import contextlib
import statistics
import time
import warnings
from array import array

import numpy as np

from fsolink import cli, controller, modes, turbulence

ROOT = "bench.run"
SETUP = "bench.setup"
SAMPLING_WARNING = "sampling bound violated"
DOWNSTREAM = ("couple", "ber", "wdm", "report")  # the CLI commands after synth in a chain

_clock = time.perf_counter_ns


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self._stack = [-1]
        self.warnings = []

    def _nid(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name) -> int:
        i = len(self.t0)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1])
        self.t1.append(0)
        self._stack.append(i)
        self.t0.append(_clock())
        return i

    def close(self, i):
        self.t1[i] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, name, fn):
        """fn, recording one span per call (inlined open/close: this is the hot path)."""
        nid = self._nid(name)
        name_id, parent, t0, t1, stack = self.name_id, self.parent, self.t0, self.t1, self._stack

        def traced(*args, **kwargs):
            i = len(t0)
            name_id.append(nid)
            parent.append(stack[-1])
            t1.append(0)
            stack.append(i)
            t0.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[i] = _clock()
                stack.pop()

        return traced

    def frames(self, generator):
        """Time next() on a frame generator from outside."""
        return _TracedFrames(self, generator)

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers in the package modules; restore them on exit."""
        w = self.wrap
        build_time_series = cli.build_time_series

        class TracedModeBasis:  # stands in for ModeBasis where the CLI looks it up
            build = staticmethod(w("modes.basis_build", modes.ModeBasis.build))

        table = [
            (turbulence, "apply_phase_screen", "field.phase_apply"),
            (turbulence, "angular_spectrum_propagate", "field.propagate"),
            (turbulence, "apply_aperture", "field.aperture"),
            (modes, "smf_coupling_efficiency", "modes.smf_waist_probe"),
            (controller, "combine", "combiner.combine"),
            (controller, "CombinerState", "combiner.state"),
            (cli, "decompose", "modes.decompose"),
            (cli, "smf_coupling_efficiency", "modes.smf"),
            (cli, "optimize_smf_waist", "modes.smf_waist_opt"),
            (cli, "ber_curve", "comms.ber_curve"),
            (cli, "sync_loss_stats", "comms.sync_loss"),
            (cli, "power_penalty", "comms.power_penalty"),
            (cli, "vodl_scan", "wdm.scan"),
            (cli, "wdm_link_run", "wdm.link"),
            (cli, "load_scenario", "scenario.load"),
        ] + [(cli, f"run_{c}", f"cli.run_{c}") for c in ("synth", "couple", "ber", "wdm", "report")]
        replacements = [(mod, attr, w(name, getattr(mod, attr))) for mod, attr, name in table]
        replacements += [
            (cli, "build_time_series", lambda *a, **k: self.frames(build_time_series(*a, **k))),
            (cli, "ModeBasis", TracedModeBasis),
        ]
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
        try:
            for mod, attr, new in replacements:
                setattr(mod, attr, new)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield
        finally:
            for mod, attr, old in originals:
                setattr(mod, attr, old)
        self.warnings = [str(m.message) for m in caught]

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent),
            t0_ns=np.asarray(self.t0),
            t1_ns=np.asarray(self.t1),
        )


class _TracedFrames:
    def __init__(self, tracer, generator):
        self._tracer = tracer
        self._next = generator.__next__
        self._first = True

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        i = tracer.open("turbulence.first_frame" if self._first else "turbulence.frame")
        self._first = False
        try:
            return self._next()
        except StopIteration:
            tracer.name_id[i] = tracer._nid("turbulence.exhausted")
            raise
        finally:
            tracer.close(i)


class Spans:
    """Durations and self times of a finished trace, with selection helpers."""

    def __init__(self, tracer):
        self.names = tracer.names
        self.name_id = np.asarray(tracer.name_id)
        parent = np.asarray(tracer.parent)
        self.duration = (np.asarray(tracer.t1) - np.asarray(tracer.t0)) / 1e9
        children = np.zeros_like(self.duration)
        nested = parent >= 0
        np.add.at(children, parent[nested], self.duration[nested])
        self.self_time = self.duration - children
        # the top-level span (child of the root) each span belongs to;
        # parents are always recorded before their children
        top = np.arange(parent.size)
        for i in range(parent.size):
            p = parent[i]
            if p >= 0 and parent[p] >= 0:
                top[i] = top[p]
        self.in_setup = self.name_id[top] == self._id(SETUP)
        self.layer = np.array([n.split(".", 1)[0] for n in self.names])[self.name_id]

    def _id(self, name):
        return self.names.index(name) if name in self.names else -1

    def _mask(self, name, steady):
        mask = self.name_id == self._id(name)
        return mask & ~self.in_setup if steady else mask

    def count(self, name, steady=False) -> int:
        return int(self._mask(name, steady).sum())

    def total(self, name, steady=False) -> float:
        return float(self.duration[self._mask(name, steady)].sum())

    def self_total(self, name, steady=False) -> float:
        return float(self.self_time[self._mask(name, steady)].sum())

    def median(self, name) -> float:
        d = self.duration[self._mask(name, False)]
        return float(np.median(d)) if d.size else 0.0

    def layer_self(self) -> dict:
        """Self time per layer, in seconds; the layers sum to the root span."""
        return {lay: float(self.self_time[self.layer == lay].sum()) for lay in sorted(set(self.layer))}

    def root_duration(self) -> float:
        return self.total(ROOT)


def _per(x, n):
    return x / n if n else 0.0


def layer_metrics(sp: Spans, notes: dict, overhead_frac: float) -> dict:
    """Per-layer metrics (name -> value) from a traced phase."""
    frames = sp.count("turbulence.frame", True) + sp.count("turbulence.first_frame", True)
    all_frames = sp.count("turbulence.frame") + sp.count("turbulence.first_frame")
    chains = sp.count("bench.chain")
    loop_evals, track_evals = notes.get("loop_evals", 0), notes.get("track_evals", 0)
    evals = loop_evals + track_evals
    sampling = sum(SAMPLING_WARNING in m for m in notes.get("warnings", ()))
    bench_self = sum(t for lay, t in sp.layer_self().items() if lay == "bench")
    return {
        "turbulence.self_ms_per_frame": _per(sp.self_total("turbulence.frame", True) * 1e3,
                                             sp.count("turbulence.frame", True)),
        "turbulence.first_frame_s": sp.median("turbulence.first_frame"),
        "field.propagate_ms_per_frame": _per(sp.total("field.propagate", True) * 1e3, frames),
        "field.propagate_calls_per_frame": _per(sp.count("field.propagate", True), frames),
        "field.phase_apply_ms_per_frame": _per(sp.total("field.phase_apply", True) * 1e3, frames),
        "field.aperture_ms_per_frame": _per(sp.total("field.aperture", True) * 1e3, frames),
        "field.sampling_warnings_per_frame": _per(sampling, all_frames),
        "modes.decompose_ms_per_frame": _per(sp.total("modes.decompose", True) * 1e3, frames),
        "modes.smf_ms_per_frame": _per(sp.total("modes.smf", True) * 1e3, frames),
        "modes.basis_build_s": sp.median("modes.basis_build"),
        "modes.smf_waist_opt_s": sp.median("modes.smf_waist_opt"),
        "modes.smf_calls_setup": _per(sp.count("modes.smf_waist_probe"), sp.count("modes.smf_waist_opt")),
        "combiner.combine_us_per_call": _per(sp.total("combiner.combine") * 1e6, sp.count("combiner.combine")),
        "combiner.state_us_per_call": _per(sp.total("combiner.state") * 1e6, sp.count("combiner.state")),
        "combiner.calls_per_eval": _per(sp.count("combiner.combine"), evals),
        "controller.self_us_per_eval": _per(sp.self_total("controller.loop") * 1e6, loop_evals),
        "controller.track_self_us_per_eval": _per(sp.self_total("controller.track") * 1e6, track_evals),
        "controller.evals": evals,
        "controller.wrap_events": notes.get("wrap_events", 0),
        "comms.ber_ms": _per((sp.total("comms.ber_curve", True) + sp.total("comms.power_penalty", True)) * 1e3,
                             chains),
        "comms.sync_loss_ms": _per(sp.total("comms.sync_loss", True) * 1e3, chains),
        "wdm.scan_ms": _per(sp.total("wdm.scan", True) * 1e3, chains),
        "wdm.link_ms": _per(sp.total("wdm.link", True) * 1e3, chains),
        "scenario.load_ms": _per(sp.total("scenario.load") * 1e3, sp.count("scenario.load")),
        "cli.synth_self_s": _per(sp.self_total("cli.run_synth", True), chains),
        "cli.downstream_s": _per(sum(sp.total(f"cli.command.{c}", True) for c in DOWNSTREAM), chains),
        "cli.bytes_written": statistics.median(notes["bytes_written"]) if notes.get("bytes_written") else 0,
        "trace.unattributed_frac": _per(bench_self, sp.root_duration()),
        "trace.overhead_frac": overhead_frac,
    }
