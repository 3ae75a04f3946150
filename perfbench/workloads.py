"""The benchmark's three workloads and the correctness check of every operation.

frames512    512-grid reference frames of the default 5-layer profile at 1.5 kHz:
             synthesis, decomposition onto the 15-mode basis, SMF overlap.
loop15       closed-loop control of a 15-input balanced tree, interleaved with
             correction-bandwidth sweep points at 1, 2 and 4 kHz.
pipeline256  the CLI chain synth -> couple -> ber -> wdm --scan -> wdm --link ->
             report on configs/demo.json, called in-process.

Each workload sets up three times (setup_s is the median), then repeats its
operation until the measurement window has passed.  An operation that raises,
exits non-zero or fails its check is counted as failed, and the run goes on.
Results are compared with the values recorded in reference.json where the
seed was recorded, and always with what the same input gave earlier in the
run and with invariants of the physics.
"""

import contextlib
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import time

import numpy as np
import scipy.fft

from fsolink import cli
from fsolink.combiner import CombinerTopology
from fsolink.controller import ControllerConfig, correction_bandwidth, run_closed_loop
from fsolink.field import GridSpec, uniform_disc_field
from fsolink.modes import ModeBasis, decompose, optimize_smf_waist, smf_coupling_efficiency
from fsolink.scenario import load_scenario
from fsolink.turbulence import build_time_series, default_profile

SETUPS = 3
APERTURE_M = 0.5  # the scenario's default receive aperture
FRAME_RATE_HZ = 1500.0

GRID512 = GridSpec(512, 1.0, 1.55e-6)
# The frame generator restarts after this many frames, so every frame a run
# processes, at any speed, is one that reference.json can hold.
PASS_FRAMES = 32
RTOL = 1e-9  # round-off only

GRID_LOOP = GridSpec(128, 1.0, 1.55e-6)
BLOCKS = 8
BLOCK_FRAMES = 8
SWEEP_HZ = (1000.0, 2000.0, 4000.0)  # >= 1 kHz: low frequencies take minutes per point
SWEEP_PERIODS = 10
SWEEP_SETTLE_PERIODS = 5
# The simplex search amplifies round-off, so a change that is not bit-exact
# moves these; a degraded controller moves them further.
EFF_TOL_DB = 0.05
SWEEP_TOL = 1e-3

CONFIG = "configs/demo.json"
PIPELINE_FRAMES = 8
CHAIN = (("synth",), ("couple",), ("ber",), ("wdm", "--scan"), ("wdm", "--link"), ("report",))
SYNTH_ARTIFACTS = ("resolved_config.json", "index.json", "modes.csv", "smf.csv")
CHAIN_ARTIFACTS = SYNTH_ARTIFACTS + (
    "couple_summary.json", "couple_smf.csv", "couple_mm3.csv", "couple_mm6.csv",
    "couple_mm10.csv", "couple_mm15.csv", "ber_report.json", "ber_btb.csv",
    *(f"ber_{rx}_{w}.csv" for rx in ("smf", "mm6", "mm10", "mm15") for w in ("best", "worst")),
    "wdm_scan.csv", "wdm_report.json", "report.md",
)

clock = time.perf_counter


class Calibration:
    """A fixed kernel, independent of the package, timed next to each operation.

    The box this runs on is shared, and what else runs on it changes every
    timing here by 20 % or more, within seconds and over minutes.  The
    kernel is shaped like the workload's own work (large-array FFTs and
    complex exponentials, or small numpy operations driven from Python), so
    reference_s over its median time just before and just after an
    operation is the box's speed while the operation ran.  End-to-end times
    are reported scaled by that speed.  reference_s is a fixed constant near
    the kernel's time on the box that recorded the baseline: it sets the
    scale only.
    """

    def __init__(self, kind):
        rng = np.random.default_rng(0)
        if kind == "python":
            self.reference_s = 8.8e-3
            self._kernel = _python_kernel(np.exp(1j * rng.uniform(0, 6, 15)))
        else:  # "array<n>"
            n = int(kind[len("array"):])
            self.reference_s = {512: 22.5e-3, 256: 5.5e-3}[n]
            self._kernel = _array_kernel(rng.standard_normal((n, n)), np.exp(1j * rng.standard_normal((n, n))))
        self.samples = []
        self._before = []

    def speed(self, times=1) -> float:
        """Run the kernel `times` times now; reference_s over the median time
        of these and of the previous call's runs."""
        new = []
        for _ in range(times):
            t0 = clock()
            self._kernel()
            new.append(clock() - t0)
        self.samples += new
        window, self._before = self._before + new, new
        return self.reference_s / statistics.median(window)


def _array_kernel(phase, transfer):
    u = np.ones(phase.shape, dtype=np.complex128)
    return lambda: float(np.abs(scipy.fft.ifft2(scipy.fft.fft2(u * np.exp(1j * phase)) * transfer)).sum())


def _python_kernel(a):
    def kernel():
        acc = 0.0
        for i in range(3000):
            rho = 0.5 + 0.4 * math.sin(i)
            x = np.array([rho, 1.0 - rho])
            out = math.sqrt(x[0]) * a[i % 15] + math.sqrt(x[1]) * np.exp(0.1j * i) * a[(i + 1) % 15]
            acc += abs(out) ** 2
        return acc
    return kernel


class Lib:
    """The package entry points a workload calls, each wrapped in a span when traced."""

    def __init__(self, tracer=None):
        w = tracer.wrap if tracer else (lambda name, fn: fn)
        self.span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        self.frames = tracer.frames if tracer else iter
        self.build_basis = w("modes.basis_build", ModeBasis.build)
        self.disc = w("field.disc", uniform_disc_field)
        self.optimize_smf_waist = w("modes.smf_waist_opt", optimize_smf_waist)
        self.decompose = w("modes.decompose", decompose)
        self.smf = w("modes.smf", smf_coupling_efficiency)
        self.run_closed_loop = w("controller.loop", run_closed_loop)
        self.correction_bandwidth = w("controller.track", correction_bandwidth)
        self.main = {args[0]: w(f"cli.command.{args[0]}", cli.main) for args in CHAIN}
        self.speed = w("calibration.kernel", Calibration.speed)


class Run:
    """What one phase of a workload measured and checked."""

    def __init__(self, calibration):
        self.cal = Calibration(calibration)
        self.attempted = 0
        self.failed = 0
        # (wall time, speed) of each set-up, operation and second-path run
        self.times = {"setup_s": [], "op_ms": [], "side_ms": []}
        self.notes = {}
        self.problems = []

    def add(self, key, *parts):
        """Record one run of `key` made of (wall time, speed) parts."""
        wall = sum(w for w, _ in parts)
        self.times[key].append((wall, sum(w * s for w, s in parts) / wall))

    def wall(self, key):
        return [w for w, _ in self.times[key]]

    def scaled(self, key) -> float:
        """Median of the wall times, each scaled by the box's speed next to it."""
        return statistics.median(w * s for w, s in self.times[key])

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)

    def count(self, key, n=1):
        self.notes[key] = self.notes.get(key, 0) + n


# --- frames512 ---------------------------------------------------------------

def frame_seed(seed, setup):
    """Physics seed of one set-up's frame generator (distinct per set-up)."""
    return SETUPS * seed + setup


def frame_series(seed, setup, lib=None):
    lib = lib or Lib()
    return lib.frames(build_time_series(
        default_profile(), grid=GRID512, n_frames=PASS_FRAMES, frame_rate_hz=FRAME_RATE_HZ,
        seed=frame_seed(seed, setup), rx_aperture_m=APERTURE_M,
    ))


def frame_values(field, basis, waist, lib=None):
    """Mode powers, residual power and SMF efficiency of one frame."""
    lib = lib or Lib()
    mc = lib.decompose(field, basis)
    return np.concatenate([mc.mode_power, [mc.residual_power, lib.smf(field, waist)]])


def check_frame(values, reference=None) -> bool:
    """Invariants of one frame's results, and agreement with reference to round-off."""
    powers, residual, eta = values[:-2], values[-2], values[-1]
    total = powers.sum() + residual
    ok = bool(np.all(np.isfinite(values)) and np.all(powers >= 0) and total > 0
              and residual >= -RTOL * total and 0 < eta <= 1)
    if ok and reference is not None:
        reference = np.asarray(reference, dtype=np.float64)
        ok = bool(np.all(np.abs(values[:-1] - reference[:-1]) <= RTOL * reference[:-1].sum())
                  and abs(eta - reference[-1]) <= RTOL * reference[-1])
    return ok


def frames512(seed, seconds, lib, ref):
    run = Run("array512")
    recorded = ref.get("frames512", {})
    seen = {}

    def check(setup, k, values):
        key = str(frame_seed(seed, setup))
        frames = recorded.get(key, ())
        if k < len(frames):
            reference, kind = frames[k], "frames_vs_reference"
        else:
            reference, kind = seen.get((key, k)), "frames_vs_earlier_pass"
            seen.setdefault((key, k), values)
        run.count(kind if reference is not None else "frames_invariants_only")
        run.record(check_frame(values, reference), f"frame {k} of physics seed {key}")

    lib.speed(run.cal)
    for j in range(SETUPS):
        with lib.span("bench.setup"):
            t0 = clock()
            basis = lib.build_basis(GRID512, aperture_diameter_m=APERTURE_M)
            waist, _ = lib.optimize_smf_waist(lib.disc(GRID512, APERTURE_M))
            frames = frame_series(seed, j, lib)
            values = frame_values(next(frames), basis, waist, lib)
            t1 = clock()
        run.add("setup_s", (t1 - t0, lib.speed(run.cal)))
        check(j, 0, values)

    k = 1
    t_end = clock() + seconds
    while True:
        try:
            with lib.span("bench.frame"):
                t0 = clock()
                if k == PASS_FRAMES:
                    frames, k = frame_series(seed, SETUPS - 1, lib), 0
                field = next(frames)
                synthesis = (clock() - t0) * 1e3
            synthesis_speed = lib.speed(run.cal)  # each part of the frame gets its own bracket
            with lib.span("bench.analysis"):
                t0 = clock()
                values = frame_values(field, basis, waist, lib)
                analysis = (clock() - t0) * 1e3
            analysis_speed = lib.speed(run.cal)
        except Exception as exc:  # counted as a failed operation; restart the series
            run.record(False, f"frame {k}: {exc!r}")
            k = PASS_FRAMES
        else:
            if k > 0:  # a restart frame also renders new screens: not steady state
                run.add("op_ms", (synthesis, synthesis_speed), (analysis, analysis_speed))
                run.add("side_ms", (synthesis, synthesis_speed))
            check(SETUPS - 1, k, values)
            k += 1
        if clock() >= t_end:
            return run


# --- loop15 ------------------------------------------------------------------

def loop_inputs(seed):
    """(BLOCKS, BLOCK_FRAMES, 15) coefficient frames from a small-grid time series."""
    basis = ModeBasis.build(GRID_LOOP, aperture_diameter_m=APERTURE_M)
    series = build_time_series(default_profile(), grid=GRID_LOOP, n_frames=BLOCKS * BLOCK_FRAMES,
                               frame_rate_hz=FRAME_RATE_HZ, seed=seed, rx_aperture_m=APERTURE_M)
    coeffs = np.array([decompose(f, basis).coeffs for f in series])
    return coeffs.reshape(BLOCKS, BLOCK_FRAMES, -1)


def sweep_amplitude(seed) -> float:
    return float(np.random.default_rng(seed).uniform(0.5, 1.5))


def sweep_evals(freq_hz, config) -> int:
    """Evaluations of one correction_bandwidth call (its settle + measure spans)."""
    dt = 1.0 / config.loop_rate_hz
    return (max(int(SWEEP_SETTLE_PERIODS / freq_hz / dt), 400)
            + max(int(SWEEP_PERIODS / freq_hz / dt), 2000))


def sweep_point(freq_hz, amplitude, config, seed, lib=None):
    lib = lib or Lib()
    return lib.correction_bandwidth(freq_hz, amplitude, config, seed=seed,
                                    n_periods=SWEEP_PERIODS, settle_periods=SWEEP_SETTLE_PERIODS)


def block_result(trace) -> dict:
    """Closed-loop efficiency (dB vs the ideal combined power), wrap events, power digest."""
    ideal = trace.frame_ideal_power_w[trace.frame_index]
    finite = bool(np.all(np.isfinite(trace.power_w)))
    return {
        "eff_db": 10.0 * math.log10(trace.power_w.mean() / ideal.mean()) if finite else math.nan,
        "wraps": int(np.count_nonzero(trace.wrap_flag)),
        "digest": hashlib.sha256(trace.power_w.tobytes()).hexdigest()[:16],
        # the tree is lossless: no evaluation may exceed the summed input power
        "bounded": finite and bool(np.all(trace.power_w <= ideal * (1 + 1e-9))),
    }


def check_block(result, reference=None, exact=False) -> bool:
    ok = result["bounded"] and result["eff_db"] <= 0.0
    if ok and reference is not None:
        if exact:
            ok = result["digest"] == reference["digest"]
        else:
            ok = (abs(result["eff_db"] - reference["eff_db"]) <= EFF_TOL_DB
                  and result["wraps"] == reference["wraps"])
    return ok


def check_sweep(eff, reference=None, exact=False) -> bool:
    ok = math.isfinite(eff) and 0.0 < eff <= 1.0
    if ok and reference is not None:
        ok = eff == reference if exact else abs(eff - reference) <= SWEEP_TOL
    return ok


def loop15(seed, seconds, lib, ref, inputs):
    """inputs is loop_inputs(seed), made before timing starts and not part of setup_s."""
    run = Run("python")
    amplitude = sweep_amplitude(seed)
    recorded = ref.get("loop15", {}).get(str(seed), {})
    seen_blocks, seen_sweep, block_eff = {}, {}, {}
    run.notes.update(loop_evals=0, track_evals=0, wrap_events=0)

    def check_loop(b, trace):
        result = block_result(trace)
        run.count("loop_evals", trace.power_w.size)
        run.count("wrap_events", result["wraps"])
        block_eff[b] = result["eff_db"]
        if b in seen_blocks:
            ok = check_block(result, seen_blocks[b], exact=True)
        elif str(b) in recorded.get("blocks", {}):
            reference = recorded["blocks"][str(b)]
            ok = check_block(result, reference)
            run.count("blocks_vs_reference")
            run.count("digest_matches", result["digest"] == reference["digest"])
        else:
            ok = check_block(result)
        seen_blocks.setdefault(b, result)
        run.record(ok, f"closed-loop block {b}: {result}")

    lib.speed(run.cal)
    for j in range(SETUPS):
        with lib.span("bench.setup"):
            t0 = clock()
            topology = CombinerTopology.balanced(15, 0.0, 0.0)
            config = ControllerConfig()
            trace = lib.run_closed_loop(inputs[j], topology, config, seed=seed)
            t1 = clock()
        run.add("setup_s", (t1 - t0, lib.speed(run.cal)))
        check_loop(j, trace)

    i = 0
    t_end = clock() + seconds
    while True:
        b = (SETUPS + i) % BLOCKS
        try:
            with lib.span("bench.block"):
                t0 = clock()
                trace = lib.run_closed_loop(inputs[b], topology, config, seed=seed)
                t1 = clock()
            run.add("op_ms", ((t1 - t0) * 1e3 / BLOCK_FRAMES, lib.speed(run.cal, 2)))
            check_loop(b, trace)
        except Exception as exc:
            run.record(False, f"closed-loop block {b}: {exc!r}")
        freq = SWEEP_HZ[i % len(SWEEP_HZ)]
        try:
            with lib.span("bench.sweep"):
                t0 = clock()
                eff = sweep_point(freq, amplitude, config, seed, lib)
                dt = clock() - t0
            evals = sweep_evals(freq, config)
            run.add("side_ms", (dt * 1e3 * config.evals_per_frame / evals, lib.speed(run.cal, 2)))
            run.count("track_evals", evals)
            if freq in seen_sweep:
                ok = check_sweep(eff, seen_sweep[freq], exact=True)
            else:
                ok = check_sweep(eff, recorded.get("sweep", {}).get(f"{freq:g}"))
                seen_sweep[freq] = eff
            run.record(ok, f"sweep point {freq:g} Hz: {eff!r}")
        except Exception as exc:
            run.record(False, f"sweep point {freq:g} Hz: {exc!r}")
        i += 1
        if clock() >= t_end:
            run.notes["loop_eff_db"] = float(np.mean(list(block_eff.values())))
            run.notes["sweep_eff"] = {f"{f:g}": e for f, e in sorted(seen_sweep.items())}
            return run


# --- pipeline256 -------------------------------------------------------------

def artifact_hash(path):
    """The scenario hash an artifact carries ('' if none); None for other file types."""
    with open(path) as fh:
        if path.endswith(".csv"):
            first = fh.readline().strip()
            return first.split("=", 1)[1] if first.startswith("# scenario=") else ""
        if path.endswith(".json"):
            return json.load(fh).get("scenario_hash", "")
        if path.endswith(".md"):
            m = re.search(r"scenario hash: `([0-9a-f]+)`", fh.read())
            return m.group(1) if m else ""
    return None


def check_artifacts(out, expected_hash, names) -> bool:
    """Every expected artifact exists, and every artifact carries expected_hash."""
    present = set(os.listdir(out)) if os.path.isdir(out) else set()
    if not set(names) <= present:
        return False
    stamps = {artifact_hash(os.path.join(out, n)) for n in present
              if os.path.isfile(os.path.join(out, n))}
    return stamps - {None} == {expected_hash}


def run_command(main, args, config, out, seed, frames):
    """Run one CLI command in-process; returns (exit code, seconds)."""
    argv = [args[0]]
    if args[0] != "report":
        argv += ["--config", config, "--seed", str(seed), "--frames", str(frames)]
    argv += ["--out", out, *args[1:]]
    t0 = clock()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    except Exception as exc:  # a traceback is an operation that failed
        code = repr(exc)
    return code, clock() - t0


def pipeline256(seed, seconds, lib, root):
    run = Run("array256")
    config = os.path.join(root, CONFIG)
    out_root = os.path.join(root, ".bench_out", "pipeline256")
    run.notes["bytes_written"] = []

    def fresh(name):
        out = os.path.join(out_root, name)
        shutil.rmtree(out, ignore_errors=True)
        return out

    def expected_hash(run_seed, frames):
        return load_scenario(config, {"run.seed": run_seed, "run.n_frames": frames}).hash

    lib.speed(run.cal, 4)
    for j in range(SETUPS):
        out, run_seed = fresh(f"setup{j}"), 1000 * seed + 900 + j
        with lib.span("bench.setup"):
            code, dt = run_command(lib.main["synth"], ("synth",), config, out, run_seed, 1)
        run.add("setup_s", (dt, lib.speed(run.cal, 4)))
        ok = code == 0 and check_artifacts(out, expected_hash(run_seed, 1), SYNTH_ARTIFACTS)
        run.record(ok, f"set-up synth exited {code!r}")

    c = 0
    t_end = clock() + seconds
    while True:
        out, run_seed = fresh("chain"), 1000 * seed + c
        codes, times = [], []
        with lib.span("bench.chain"):
            for args in CHAIN:
                code, dt = run_command(lib.main[args[0]], args, config, out, run_seed, PIPELINE_FRAMES)
                codes.append(code)
                times.append(dt * 1e3)
                if args[0] == "synth":  # synth and the downstream commands get their own brackets
                    synth_speed = lib.speed(run.cal, 4)
            downstream_speed = lib.speed(run.cal, 4)
        artifacts_ok = check_artifacts(out, expected_hash(run_seed, PIPELINE_FRAMES), CHAIN_ARTIFACTS)
        for args, code in zip(CHAIN, codes):
            ok = code == 0 and (args[0] != "report" or artifacts_ok)
            run.record(ok, f"chain {c} {' '.join(args)} exited {code!r}, artifacts ok {artifacts_ok}")
        if all(code == 0 for code in codes):
            run.add("op_ms", (times[0], synth_speed), (sum(times[1:]), downstream_speed))
            run.add("side_ms", (sum(times[1:]), downstream_speed))
        run.notes["bytes_written"].append(sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out) for f in files))
        c += 1
        if clock() >= t_end:
            return run
