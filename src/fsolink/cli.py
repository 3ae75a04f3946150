"""Command-line pipeline: synth | couple | ber | wdm | report.

Every command takes a scenario JSON (--config) and a run directory (--out).
synth simulates the turbulent time series and writes the modal dataset;
couple derives receiver coupling-efficiency traces; ber sweeps received
power into cumulated-BER curves, penalties and sync-loss statistics; wdm
runs the delay-mismatch scan or the two-wavelength link; report renders a
markdown summary of everything in the run directory.

All artifacts are stamped with the scenario hash by the writers
(_write_csv, _write_json) and byte-identical on reruns.  Each writer builds
the file's text in memory and writes it at once; _write_csv takes one 1-D
array per column and formats a column in one pass.  main builds its
argparse parser on its first call and reuses it for every later call in
the process.  The readers
(_read_table, _read_json) reject a file without a stamp; couple and ber
also reject a dataset file stamped by another scenario, and report a run
directory whose JSON stamps differ.  Exit codes: 0 ok, 2 configuration
error (including a value the run cannot use, such as a run too short for
the BER window or a BER sweep above its cap, a command that runs out of
memory, and a run directory that cannot be created or a file in it that
cannot be read or written), 3 missing prerequisite artifact, 4
numerical-contract violation (including mixed scenario hashes, a corrupted
or unstamped artifact, and a modes.csv whose row count differs from
index.json's n_frames) or any other numerical failure.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .combiner import CombinerTopology, mm_coupling_efficiency
from .comms import (
    PowerTrace,
    ber_curve,
    ber_instant,
    power_penalty,
    select_windows,
    sync_loss_stats,
)
from .errors import (
    ConfigError,
    CurveCrossingError,
    FsolinkError,
    MissingArtifactError,
    NumericalContractError,
    ParameterError,
    ScanRangeError,
)
from .field import uniform_disc_field, write_field_bin
from .modes import ModeBasis, decompose, optimize_smf_waist, smf_coupling_efficiency
from .scenario import Scenario, load_scenario
from .turbulence import build_time_series
from .wdm import C_VACUUM, OpticalSpectrum, two_path_efficiency, vodl_scan, wdm_link_run

# ber_curve evaluates each window over one (setpoint x frame) grid and, by
# tracemalloc, peaks at four float64 grids of that size, 32 bytes per
# element; a 256 MiB budget caps the grid at 2**28 // 32 = 8388608 elements
_MAX_BER_GRID = 2**28 // 32

__all__ = ["main", "run_synth", "run_couple", "run_ber", "run_wdm", "run_report"]


def _column_text(column):
    """A 1-D column's values as text: the repr of each float for a float
    dtype, the str of each integer for an integer dtype."""
    values = np.asarray(column)
    if values.ndim != 1 or values.dtype.kind not in "fiu":
        raise TypeError(f"a CSV column is 1-D float or integer, got {values.ndim}-D "
                        f"{values.dtype}")
    return map(repr if values.dtype.kind == "f" else str, values.tolist())


def _write_csv(scenario, out_dir, name, header, columns):
    """Write out_dir/name: the scenario stamp, the header, then one line per
    row of the columns, one 1-D array or sequence per header name."""
    rows = zip(*(_column_text(c) for c in columns))
    lines = [f"# scenario={scenario.hash}", ",".join(header), *map(",".join, rows)]
    with open(os.path.join(out_dir, name), "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(scenario, out_dir, name, payload) -> dict:
    """Write out_dir/name: payload stamped with the scenario hash and the
    tool version.  Returns the stamped payload."""
    payload = {"scenario_hash": scenario.hash, "version": __version__, **payload}
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def _check_scenario(scenario, name, stamp):
    """Reject an artifact stamped by another scenario than the configured one."""
    if stamp != scenario.hash:
        raise NumericalContractError(
            f"{name} was produced by scenario {stamp}, not the configured {scenario.hash}; "
            "artifacts from different scenarios cannot be mixed"
        )


def _read_json(path, scenario=None):
    """A JSON artifact: an object that carries a scenario stamp, which must
    be scenario's hash when a scenario is given."""
    if not os.path.exists(path):
        raise MissingArtifactError(f"missing artifact: {path}")
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise NumericalContractError(f"{path}: not a JSON artifact ({exc})")
    if not isinstance(payload, dict):
        raise NumericalContractError(f"{path}: not a JSON object")
    if not isinstance(payload.get("scenario_hash"), str):
        raise NumericalContractError(f"{path}: missing scenario stamp")
    if scenario is not None:
        _check_scenario(scenario, os.path.basename(path), payload["scenario_hash"])
    return payload


def run_synth(scenario: Scenario, out_dir) -> dict:
    """Simulate the time series; write the modal dataset to out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    grid = scenario.grid()
    profile = scenario.profile()
    opt = scenario["optics"]
    run = scenario["run"]

    basis = ModeBasis.build(grid, aperture_diameter_m=opt["receive_aperture_m"],
                            max_group=opt["max_mode_group"])
    smf_waist, smf_disc_eff = optimize_smf_waist(
        uniform_disc_field(grid, opt["receive_aperture_m"])
    )

    fields_dir = os.path.join(out_dir, "fields")
    if run["save_fields"]:
        os.makedirs(fields_dir, exist_ok=True)

    times = []
    mode_powers = []
    residuals = []
    smf_effs = []
    frame_entries = []
    for k, field in enumerate(
        build_time_series(
            profile,
            grid=grid,
            n_frames=run["n_frames"],
            frame_rate_hz=run["frame_rate_hz"],
            seed=run["seed"],
            rx_aperture_m=opt["receive_aperture_m"],
            absorb_edges=opt["absorb_edges"],
        )
    ):
        t = k / run["frame_rate_hz"]
        mc = decompose(field, basis)
        times.append(t)
        mode_powers.append(mc.mode_power)
        residuals.append(mc.residual_power)
        smf_effs.append(smf_coupling_efficiency(field, smf_waist))
        file_name = None
        if run["save_fields"]:
            file_name = f"fields/frame_{k:06d}.bin"
            write_field_bin(field, os.path.join(out_dir, file_name))
        frame_entries.append({"frame": k, "time_s": t, "file": file_name})

    _write_json(scenario, out_dir, "resolved_config.json", {"config": scenario.resolved})
    frames = np.arange(run["n_frames"])
    _write_csv(scenario, out_dir, "modes.csv", ["frame", "time_s", *basis.names(), "residual"],
               [frames, times, *np.array(mode_powers).T, residuals])
    _write_csv(scenario, out_dir, "smf.csv", ["frame", "time_s", "efficiency"],
               [frames, times, smf_effs])
    _write_json(
        scenario, out_dir, "index.json",
        {
            "n_frames": run["n_frames"],
            "frame_rate_hz": run["frame_rate_hz"],
            "seed": run["seed"],
            "rng_streams": [f"layer-{i}" for i in range(len(profile.layers))],
            "smf_waist_m": smf_waist,
            "smf_uniform_disc_efficiency": smf_disc_eff,
            "basis_waist_m": basis.waist_m,
            "mode_names": basis.names(),
            "files": {"modes": "modes.csv", "smf": "smf.csv"},
            "frames": frame_entries,
        },
    )
    return {"n_frames": run["n_frames"], "basis_waist_m": basis.waist_m,
            "smf_waist_m": smf_waist}


def _read_table(scenario: Scenario, out_dir, name):
    """The data rows of a stamped CSV artifact as lists of finite floats."""
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        raise MissingArtifactError(f"missing artifact: {path}")
    try:
        with open(path) as fh:
            first = fh.readline().strip()
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise NumericalContractError(f"{path}: not a text artifact ({exc.reason})")
    if not first.startswith("# scenario="):
        raise NumericalContractError(f"{path}: missing scenario stamp")
    _check_scenario(scenario, name, first.split("=", 1)[1])
    if not rows:
        raise NumericalContractError(f"{path}: no data rows")
    table = []
    for k, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise NumericalContractError(
                f"{path}: data row {k} has {len(row)} fields, the header {len(header)}"
            )
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise NumericalContractError(f"{path}: data row {k}: {exc}")
        if not all(math.isfinite(v) for v in values):
            raise NumericalContractError(f"{path}: data row {k} holds a non-finite value")
        table.append(values)
    return table


def _load_dataset(scenario: Scenario, out_dir):
    """Modal powers, residuals and SMF efficiencies from a synth dataset."""
    rows = _read_table(scenario, out_dir, "modes.csv")  # frame, time_s, modes..., residual
    n_frames = _read_json(os.path.join(out_dir, "index.json"), scenario).get("n_frames")
    if len(rows) != n_frames:
        raise NumericalContractError(
            f"{os.path.join(out_dir, 'modes.csv')}: {len(rows)} data rows, "
            f"index.json records {n_frames!r} frames"
        )
    time_s = np.array([r[1] for r in rows])
    powers = np.array([r[2:-1] for r in rows])
    residual = np.array([r[-1] for r in rows])
    smf = np.array([r[2] for r in _read_table(scenario, out_dir, "smf.csv")])
    if smf.shape[0] != powers.shape[0]:
        raise NumericalContractError("modes.csv and smf.csv disagree on frame count")
    return time_s, powers, residual, smf


def _receiver_traces(scenario, out_dir, mode_counts, lossless):
    """Efficiency trace per receiver name, from the synth dataset."""
    time_s, powers, residual, smf = _load_dataset(scenario, out_dir)
    traces = {"smf": smf}
    for n in mode_counts:
        if not 1 <= n <= powers.shape[1]:
            raise ConfigError("modes", f"dataset holds {powers.shape[1]} modes, asked for {n}")
        loss_db = 0.0 if lossless else CombinerTopology(n, **scenario["topology"]).total_loss_db
        traces[f"mm{n}"] = mm_coupling_efficiency(powers, residual, n, loss_db)
    return time_s, traces


def run_couple(scenario: Scenario, out_dir, mode_counts=(3, 6, 10, 15), lossless=True) -> dict:
    """Receiver coupling-efficiency traces plus the summary table."""
    time_s, traces = _receiver_traces(scenario, out_dir, mode_counts, lossless)
    summary = {}
    for name, eff in traces.items():
        eff_db = 10.0 * np.log10(np.maximum(eff, 1e-300))
        _write_csv(scenario, out_dir, f"couple_{name}.csv",
                   ["frame", "time_s", "efficiency", "efficiency_db"],
                   [np.arange(eff.size), time_s, eff, eff_db])
        counts, edges = np.histogram(eff_db, bins=40)
        summary[name] = {
            "mean_efficiency": float(eff.mean()),
            "mean_loss_db": float(10.0 * math.log10(eff.mean())),
            "variation_db": float(eff_db.max() - eff_db.min()),
            "histogram": {
                "bin_edges_db": [float(x) for x in edges],
                "counts": [int(c) for c in counts],
            },
        }
    return _write_json(scenario, out_dir, "couple_summary.json", {
        "lossless": lossless,
        "normalization": "post-aperture power",
        "receivers": summary,
    })


def run_ber(scenario: Scenario, out_dir, window="auto", mode_counts=(6, 10, 15),
            lossless=True) -> dict:
    """Cumulated-BER curves, penalties and sync loss for both windows."""
    bercfg = scenario["ber"]
    rop = scenario.rop_grid()
    n_frames = scenario["run"]["n_frames"]  # the dataset's row count, as _load_dataset checks
    if window == "auto":  # select_windows' windows: window_len frames, or the whole run
        frames = min(bercfg["window_len"], n_frames)
    else:
        try:
            start, end = (int(x) for x in window.split(":"))
        except ValueError:
            raise ConfigError("window", f"expected auto or START:END, got {window!r}")
        if not 0 <= start < end <= n_frames:
            raise ConfigError("window", f"window {start}:{end} outside 0..{n_frames}")
        frames = end - start
    # before the dataset is read or a grid allocated
    if rop.size * frames > _MAX_BER_GRID:
        raise ConfigError("ber.window_len" if window == "auto" else "window",
                          f"{rop.size} setpoints of ber.rop_* x {frames} frames exceeds the "
                          f"BER sweep's cap of {_MAX_BER_GRID} (setpoint x frame) elements")
    time_s, traces = _receiver_traces(scenario, out_dir, mode_counts, lossless)

    if window == "auto":
        smf_db = 10.0 * np.log10(np.maximum(traces["smf"], 1e-300))
        windows = select_windows(smf_db, bercfg["window_len"], bercfg["window_stride"])
    else:
        windows = {"manual": (start, end)}

    model = scenario.receiver_model()
    btb = ber_instant(rop, model)

    report = {
        "model": {
            "format": model.format,
            "sensitivity_dbm": model.sensitivity_dbm,
            "effective_sensitivity_dbm": model.effective_sensitivity_dbm,
        },
        "rop_grid_dbm": [float(x) for x in rop],
        "windows": {},
    }
    curves = {"ber_btb.csv": btb}  # written once every window has passed its checks
    for wname, (start, end) in windows.items():
        wrep = {"start": start, "end": end, "receivers": {}}
        for rx, eff in traces.items():
            seg = eff[start:end]
            eta_db = 10.0 * np.log10(np.maximum(seg, 1e-300))
            curve = ber_curve(rop, model, efficiency_db=eta_db)
            penalties = {}
            for target in bercfg["target_bers"]:
                try:
                    penalties[f"{target:g}"] = power_penalty((rop, curve), (rop, btb), target)
                except CurveCrossingError as exc:
                    penalties[f"{target:g}"] = {"error": str(exc), "side": exc.side}
            setpoint = model.effective_sensitivity_dbm + bercfg["operating_margin_db"]
            replay = PowerTrace.from_rop(
                setpoint + (eta_db - eta_db.mean()), frame_rate_hz=3.0
            )
            sync = sync_loss_stats(
                replay, model,
                ber_threshold=bercfg["sync_threshold"],
                reacquire_s=bercfg["reacquire_s"],
            )
            curves[f"ber_{rx}_{wname}.csv"] = curve
            wrep["receivers"][rx] = {
                "curve_csv": f"ber_{rx}_{wname}.csv",
                "penalty_db": penalties,
                "sync_loss_s_per_min": sync,
                "ber_at_top_of_sweep": float(curve[-1]),
            }
        report["windows"][wname] = wrep
    for name, ber in curves.items():
        _write_csv(scenario, out_dir, name, ["rop_dbm", "ber"], [rop, ber])
    return _write_json(scenario, out_dir, "ber_report.json", report)


def run_wdm(scenario: Scenario, out_dir, mode="scan") -> dict:
    """Delay-mismatch scan, or the per-line efficiencies and penalties of the
    two-wavelength link, written under the mode's key of wdm_report.json.
    The other mode's section is kept when the report carries this scenario's
    hash; a report from another scenario is replaced."""
    w = scenario["wdm"]
    center_hz = C_VACUUM / (w["center_wavelength_nm"] * 1e-9)
    mismatch_s = w["mismatch_mm"] * 1e-3 / C_VACUUM
    path = os.path.join(out_dir, "wdm_report.json")
    payload = {}
    if os.path.exists(path):
        previous = _read_json(path)
        if previous["scenario_hash"] == scenario.hash:
            payload.update((k, previous[k]) for k in ("scan", "link") if k in previous)

    if mode == "scan":
        if w["band_width_nm"] > 0:
            spectrum = OpticalSpectrum.rectangular_wavelength(
                w["center_wavelength_nm"] * 1e-9, w["band_width_nm"] * 1e-9
            )
        else:
            spectrum = OpticalSpectrum.two_lines(center_hz, w["line_spacing_ghz"] * 1e9)
        scan = vodl_scan(
            spectrum, mismatch_s, w["scan_range_mm"] * 1e-3, w["scan_step_mm"] * 1e-3
        )
        _write_csv(scenario, out_dir, "wdm_scan.csv", ["delay_mm", "efficiency"],
                   [scan.delay_m * 1e3, scan.efficiency])
        payload["scan"] = {
            "peak_delay_mm": scan.peak_delay_m * 1e3,
            "half_width_mm": (None if math.isinf(scan.half_width_m)
                              else scan.half_width_m * 1e3),
            "peak_efficiency": float(scan.efficiency.max()),
        }
    elif mode == "link":
        spectrum = OpticalSpectrum.two_lines(center_hz, w["line_spacing_ghz"] * 1e9)
        result = wdm_link_run(spectrum, mismatch_s)
        payload["link"] = {
            "line_hz": [float(x) for x in result.line_hz],
            "line_efficiency": [float(x) for x in result.line_efficiency],
            "aggregate_efficiency": two_path_efficiency(spectrum, mismatch_s),
            "penalty_vs_single_db": result.penalty_vs_single_db,
        }
    else:
        raise ConfigError("wdm.mode", f"expected scan or link, got {mode!r}")
    return _write_json(scenario, out_dir, "wdm_report.json", payload)


def _scenario_section(rc):
    return ["## Scenario", "", "```json", json.dumps(rc["config"], indent=2, sort_keys=True),
            "```"]


def _time_series_section(idx):
    return [
        "## Time series",
        "",
        f"- frames: {idx['n_frames']} at {idx['frame_rate_hz']} Hz (seed {idx['seed']})",
        f"- basis waist: {idx['basis_waist_m']:.6g} m; "
        f"fiber waist: {idx['smf_waist_m']:.6g} m "
        f"(uniform-disc efficiency {idx['smf_uniform_disc_efficiency']:.4f})",
    ]


def _coupling_section(cs):
    lines = [
        f"## Coupling efficiency ({'lossless' if cs['lossless'] else 'with insertion losses'})",
        "",
        "| receiver | collected | mean loss (dB) | max-min variation (dB) |",
        "|---|---|---|---|",
    ]
    for name in sorted(cs["receivers"]):
        r = cs["receivers"][name]
        lines.append(
            f"| {name} | {100 * r['mean_efficiency']:.1f} % | "
            f"{r['mean_loss_db']:.2f} | {r['variation_db']:.2f} |"
        )
    return lines


def _ber_section(br):
    lines = ["## BER", "",
             f"- format: {br['model']['format']}, sensitivity "
             f"{br['model']['sensitivity_dbm']} dBm"]
    for wname, w in sorted(br["windows"].items()):
        lines.append(f"- window `{wname}` frames {w['start']}..{w['end']}:")
        for rx in sorted(w["receivers"]):
            rr = w["receivers"][rx]
            pens = ", ".join(
                f"{k}: {v:.2f} dB" if isinstance(v, float) else f"{k}: n/a"
                for k, v in sorted(rr["penalty_db"].items())
            )
            lines.append(
                f"  - {rx}: penalties {{{pens}}}, sync loss "
                f"{rr['sync_loss_s_per_min']:.2f} s/min, "
                f"BER at sweep top {rr['ber_at_top_of_sweep']:.3g}"
            )
    return lines


def _wdm_section(wr):
    lines = ["## WDM", ""]
    if "scan" in wr:
        scan = wr["scan"]
        hw = scan["half_width_mm"]
        lines.append(f"- scan peak at {scan['peak_delay_mm']:.4f} mm, "
                     f"half width {'unbounded' if hw is None else f'{hw:.4f} mm'}, "
                     f"peak efficiency {scan['peak_efficiency']:.4f}")
    if "link" in wr:
        link = wr["link"]
        lines.append("- per-line efficiencies: "
                     + ", ".join(f"{e:.4f}" for e in link["line_efficiency"]))
        lines.append("- per-line penalty vs single wavelength: "
                     + ", ".join(f"{p:.3f} dB" for p in link["penalty_vs_single_db"]))
    return lines


# report.md sections in order, each rendered from one JSON artifact
_REPORT_SECTIONS = (
    ("resolved_config.json", _scenario_section),
    ("index.json", _time_series_section),
    ("couple_summary.json", _coupling_section),
    ("ber_report.json", _ber_section),
    ("wdm_report.json", _wdm_section),
)


def run_report(out_dir) -> str:
    """Render report.md from the artifacts in a run directory."""
    artifacts = {}
    for name, _ in _REPORT_SECTIONS:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            artifacts[name] = _read_json(path)
    if not artifacts:
        raise MissingArtifactError(f"no artifacts found in {out_dir}")
    hashes = {a["scenario_hash"] for a in artifacts.values()}
    if len(hashes) != 1:
        raise NumericalContractError(
            f"run directory mixes scenario hashes {sorted(hashes)}; refusing to report"
        )

    lines = ["# Link simulation report", "", f"- scenario hash: `{hashes.pop()}`",
             f"- tool version: {__version__}", ""]
    for name, section in _REPORT_SECTIONS:
        if name in artifacts:
            try:
                lines += section(artifacts[name])
            except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
                raise NumericalContractError(
                    f"{os.path.join(out_dir, name)}: malformed artifact ({exc!r})"
                )
            lines.append("")
    text = "\n".join(lines)
    with open(os.path.join(out_dir, "report.md"), "w") as fh:
        fh.write(text)
    return text


def _parse_modes(arg):
    try:
        return tuple(int(x) for x in arg.split(","))
    except ValueError:
        raise ConfigError("modes", f"expected a comma-separated list of counts, got {arg!r}")


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argparse parser, built on main's first call and reused: parse_args
    keeps no state between calls."""
    p = argparse.ArgumentParser(
        prog="fsolink",
        description="Seeded simulator of a GEO-to-ground optical link with a "
                    "multimode coherently-combined receiver.",
    )
    p.add_argument("--version", action="version", version=f"fsolink {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="scenario JSON file")
    common.add_argument("--out", required=True, help="run directory")
    common.add_argument("--seed", type=int, help="override run.seed")
    common.add_argument("--frames", type=int, help="override run.n_frames")

    sub.add_parser("synth", parents=[common], help="simulate the turbulent time series")

    pc = sub.add_parser("couple", parents=[common], help="derive coupling-efficiency traces")
    pc.add_argument("--modes", default="3,6,10,15", help="comma list of mode counts")
    pc.add_argument("--lossy", dest="lossless", action="store_false",
                    help="apply chip + demultiplexer insertion losses")

    pb = sub.add_parser("ber", parents=[common], help="BER curves, penalties, sync loss")
    pb.add_argument("--modes", default="6,10,15")
    pb.add_argument("--window", default="auto", help="auto or START:END frame range")
    pb.add_argument("--lossy", dest="lossless", action="store_false",
                    help="apply chip + demultiplexer insertion losses to the multimode receivers")

    pw = sub.add_parser("wdm", parents=[common], help="delay scan or two-wavelength link")
    g = pw.add_mutually_exclusive_group()
    g.add_argument("--scan", dest="wdm_mode", action="store_const", const="scan")
    g.add_argument("--link", dest="wdm_mode", action="store_const", const="link")
    pw.set_defaults(wdm_mode="scan")

    pr = sub.add_parser("report", help="render report.md for a run directory")
    pr.add_argument("--out", required=True, help="run directory")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            run_report(args.out)
            return 0
        overrides = {}
        if args.seed is not None:
            overrides["run.seed"] = args.seed
        if args.frames is not None:
            overrides["run.n_frames"] = args.frames
        scenario = load_scenario(args.config, overrides)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "synth":
            run_synth(scenario, args.out)
        elif args.command == "couple":
            run_couple(scenario, args.out, mode_counts=_parse_modes(args.modes),
                       lossless=args.lossless)
        elif args.command == "ber":
            run_ber(scenario, args.out, window=args.window,
                    mode_counts=_parse_modes(args.modes), lossless=args.lossless)
        elif args.command == "wdm":
            run_wdm(scenario, args.out, mode=args.wdm_mode)
        return 0
    except (ConfigError, ParameterError, ScanRangeError) as exc:
        # ParameterError and ScanRangeError: a value the validator accepts but
        # the run cannot use, e.g. a BER window shorter than the 1 s sync-loss
        # replay on a short run
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MissingArtifactError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return 3
    except NumericalContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 4
    except FsolinkError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print(f"configuration error: {args.command}: out of memory; the scenario asks for "
              f"more than this machine holds", file=sys.stderr)
        return 2
    except OSError as exc:
        # a run directory that cannot be created, or a file in it that cannot
        # be read or written, e.g. a directory in its place; after
        # MissingArtifactError, which is one
        print(f"configuration error: {exc.filename or args.out}: cannot read or write it: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
