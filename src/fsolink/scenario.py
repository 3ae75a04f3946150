"""Scenario configuration: one nested JSON file drives every command.

Validation is exhaustive: unknown keys and out-of-range values are rejected
with the dotted path of the offending field, every defaulted field is
echoed back fully resolved in the output metadata, and the SHA-256 hash of
the resolved configuration stamps every artifact so runs cannot be mixed.
"""

import hashlib
import json
import math
from dataclasses import dataclass

from .combiner import CombinerTopology
from .comms import ReceiverModel
from .controller import ControllerConfig
from .errors import ConfigError
from .field import GridSpec
from .modes import MODE_ORDER
from .turbulence import AtmosphereProfile, default_profile

__all__ = ["Scenario", "load_scenario", "scenario_from_dict"]


def _num(value, path, lo=None, hi=None, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    if integer and int(value) != value:
        raise ConfigError(path, "expected an integer")
    if not math.isfinite(value):
        raise ConfigError(path, "must be finite")
    if lo is not None and value < lo:
        raise ConfigError(path, f"must be >= {lo}")
    if hi is not None and value > hi:
        raise ConfigError(path, f"must be <= {hi}")
    return int(value) if integer else float(value)


def _bool(value, path):
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true/false, got {type(value).__name__}")
    return value


def _str(value, path, choices=None):
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {type(value).__name__}")
    if choices is not None and value not in choices:
        raise ConfigError(path, f"must be one of {sorted(choices)}")
    return value


def _section(cfg, name, known):
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(name, "expected an object")
    for key in section:
        if key not in known:
            raise ConfigError(f"{name}.{key}", "unknown field")
    return section


# the highest mode group the receiver basis is built for
_MAX_MODE_GROUP = max(m + n for m, n in MODE_ORDER)


_DEFAULTS = {
    "run": {
        "label": "run",
        "seed": None,  # mandatory
        "n_frames": 1000,
        "frame_rate_hz": 1500.0,
        "save_fields": False,
    },
    "grid": {"n": 512, "extent_m": 1.0, "wavelength_m": 1.55e-6},
    "atmosphere": {
        "total_r0_m": 0.22,
        "n_layers": 5,
        "top_altitude_m": 2000.0,
        "outer_scale_m": 25.0,
        "inner_scale_m": 5e-3,
        "wind_speed_mps": 47.0,
        "elevation_deg": 30.0,
        "subharmonic_levels": 3,
        "quoted_r0_m": 0.077,
        "quoted_cn2_m23": 8.7e-14,
    },
    "optics": {
        "receive_aperture_m": 0.50,
        "transmit_aperture_m": 0.40,
        "max_mode_group": 4,
        "absorb_edges": False,
    },
    "topology": {
        "n_inputs": 15,
        "pic_insertion_loss_db": 7.0,
        "demux_insertion_loss_db": 1.0,
    },
    "controller": {
        "evals_per_frame": 600,
        "simplex_init_rad": 0.07,
        "restart_threshold_db": 3.0,
        "wrap_transient_s": 1e-3,
        "wrap_residual_factor": 0.25,
        "detector_noise_rel": 0.0,
        "loop_rate_hz": 1.0e6,
        "optimize_ratios": True,
    },
    "receiver": {
        "format": "ook",
        "sensitivity_dbm": -39.0,
        "bit_rate_bps": 1e10,
        "floor_duty": 0.0,
    },
    "ber": {
        "rop_start_dbm": -45.0,
        "rop_stop_dbm": -15.0,
        "rop_step_db": 0.5,
        "target_bers": [1e-4, 1e-5],
        "window_len": 120,
        "window_stride": 30,
        "sync_threshold": 1e-3,
        "reacquire_s": 0.1,
        "operating_margin_db": 3.0,
    },
    "wdm": {
        "line_spacing_ghz": 100.0,
        "center_wavelength_nm": 1560.0,
        "band_width_nm": 16.0,
        "mismatch_mm": 0.0,
        "scan_range_mm": 6.0,
        "scan_step_mm": 0.01,
        "target_ber": 1e-4,
    },
}


@dataclass(frozen=True)
class Scenario:
    """Fully resolved, validated scenario configuration."""

    resolved: dict

    @property
    def hash(self) -> str:
        canon = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def __getitem__(self, section):
        return self.resolved[section]

    @property
    def seed(self) -> int:
        return self.resolved["run"]["seed"]

    def grid(self) -> GridSpec:
        g = self.resolved["grid"]
        return GridSpec(g["n"], g["extent_m"], g["wavelength_m"])

    def profile(self) -> AtmosphereProfile:
        a = self.resolved["atmosphere"]
        return default_profile(
            total_r0_m=a["total_r0_m"],
            n_layers=a["n_layers"],
            top_altitude_m=a["top_altitude_m"],
            outer_scale_m=a["outer_scale_m"],
            inner_scale_m=a["inner_scale_m"],
            wind_speed_mps=a["wind_speed_mps"],
            elevation_deg=a["elevation_deg"],
            subharmonic_levels=a["subharmonic_levels"],
        )

    def topology(self) -> CombinerTopology:
        t = self.resolved["topology"]
        return CombinerTopology.balanced(
            t["n_inputs"],
            pic_insertion_loss_db=t["pic_insertion_loss_db"],
            demux_insertion_loss_db=t["demux_insertion_loss_db"],
        )

    def controller_config(self) -> ControllerConfig:
        c = self.resolved["controller"]
        return ControllerConfig(
            evals_per_frame=c["evals_per_frame"],
            simplex_init_rad=c["simplex_init_rad"],
            restart_threshold_db=c["restart_threshold_db"],
            wrap_transient_s=c["wrap_transient_s"],
            wrap_residual_factor=c["wrap_residual_factor"],
            detector_noise_rel=c["detector_noise_rel"],
            loop_rate_hz=c["loop_rate_hz"],
            optimize_ratios=c["optimize_ratios"],
        )

    def receiver_model(self, floor_duty=None, format=None) -> ReceiverModel:
        r = self.resolved["receiver"]
        return ReceiverModel(
            format=format if format is not None else r["format"],
            bit_rate_bps=r["bit_rate_bps"],
            sensitivity_dbm=r["sensitivity_dbm"],
            floor_duty=r["floor_duty"] if floor_duty is None else floor_duty,
        )

    def rop_grid(self):
        import numpy as np

        b = self.resolved["ber"]
        return np.arange(
            b["rop_start_dbm"], b["rop_stop_dbm"] + b["rop_step_db"] / 2, b["rop_step_db"]
        )


def scenario_from_dict(cfg: dict, overrides: dict = None) -> Scenario:
    """Validate a raw configuration mapping into a resolved Scenario.

    overrides maps dotted paths (e.g. "run.seed") to replacement values,
    applied before validation; used by the CLI flags.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")
    cfg = json.loads(json.dumps(cfg))  # deep copy, JSON-clean
    for key in cfg:
        if key not in _DEFAULTS:
            raise ConfigError(key, "unknown section")
    if overrides:
        for path, value in overrides.items():
            section, _, field = path.partition(".")
            if section not in _DEFAULTS or field not in _DEFAULTS[section]:
                raise ConfigError(path, "unknown override")
            cfg.setdefault(section, {})[field] = value

    resolved = {}
    run = _section(cfg, "run", _DEFAULTS["run"])
    if "seed" not in run:
        raise ConfigError("run.seed", "mandatory: every scenario pins its seed")
    resolved["run"] = {
        "label": _str(run.get("label", _DEFAULTS["run"]["label"]), "run.label"),
        "seed": _num(run["seed"], "run.seed", lo=0, integer=True),
        "n_frames": _num(run.get("n_frames", _DEFAULTS["run"]["n_frames"]),
                         "run.n_frames", lo=1, integer=True),
        "frame_rate_hz": _num(run.get("frame_rate_hz", _DEFAULTS["run"]["frame_rate_hz"]),
                              "run.frame_rate_hz", lo=1e-9),
        "save_fields": _bool(run.get("save_fields", _DEFAULTS["run"]["save_fields"]),
                             "run.save_fields"),
    }

    grid = _section(cfg, "grid", _DEFAULTS["grid"])
    n = _num(grid.get("n", _DEFAULTS["grid"]["n"]), "grid.n", lo=64, integer=True)
    if n & (n - 1):
        raise ConfigError("grid.n", "must be a power of two")
    resolved["grid"] = {
        "n": n,
        "extent_m": _num(grid.get("extent_m", _DEFAULTS["grid"]["extent_m"]),
                         "grid.extent_m", lo=1e-6),
        "wavelength_m": _num(grid.get("wavelength_m", _DEFAULTS["grid"]["wavelength_m"]),
                             "grid.wavelength_m", lo=1e-9),
    }

    atm = _section(cfg, "atmosphere", _DEFAULTS["atmosphere"])
    resolved["atmosphere"] = {
        "total_r0_m": _num(atm.get("total_r0_m", _DEFAULTS["atmosphere"]["total_r0_m"]),
                           "atmosphere.total_r0_m", lo=1e-6),
        "n_layers": _num(atm.get("n_layers", _DEFAULTS["atmosphere"]["n_layers"]),
                         "atmosphere.n_layers", lo=1, hi=64, integer=True),
        "top_altitude_m": _num(atm.get("top_altitude_m", _DEFAULTS["atmosphere"]["top_altitude_m"]),
                               "atmosphere.top_altitude_m", lo=1.0),
        "outer_scale_m": _num(atm.get("outer_scale_m", _DEFAULTS["atmosphere"]["outer_scale_m"]),
                              "atmosphere.outer_scale_m", lo=1e-3),
        "inner_scale_m": _num(atm.get("inner_scale_m", _DEFAULTS["atmosphere"]["inner_scale_m"]),
                              "atmosphere.inner_scale_m", lo=1e-6),
        "wind_speed_mps": _num(atm.get("wind_speed_mps", _DEFAULTS["atmosphere"]["wind_speed_mps"]),
                               "atmosphere.wind_speed_mps", lo=0.0),
        "elevation_deg": _num(atm.get("elevation_deg", _DEFAULTS["atmosphere"]["elevation_deg"]),
                              "atmosphere.elevation_deg", lo=1.0, hi=90.0),
        "subharmonic_levels": _num(
            atm.get("subharmonic_levels", _DEFAULTS["atmosphere"]["subharmonic_levels"]),
            "atmosphere.subharmonic_levels", lo=0, hi=16, integer=True),
        "quoted_r0_m": _num(atm.get("quoted_r0_m", _DEFAULTS["atmosphere"]["quoted_r0_m"]),
                            "atmosphere.quoted_r0_m", lo=0.0),
        "quoted_cn2_m23": _num(atm.get("quoted_cn2_m23", _DEFAULTS["atmosphere"]["quoted_cn2_m23"]),
                               "atmosphere.quoted_cn2_m23", lo=0.0),
    }
    if resolved["atmosphere"]["inner_scale_m"] >= resolved["atmosphere"]["outer_scale_m"]:
        raise ConfigError("atmosphere.inner_scale_m", "must be smaller than outer_scale_m")

    opt = _section(cfg, "optics", _DEFAULTS["optics"])
    resolved["optics"] = {
        "receive_aperture_m": _num(opt.get("receive_aperture_m", _DEFAULTS["optics"]["receive_aperture_m"]),
                                   "optics.receive_aperture_m", lo=1e-3),
        "transmit_aperture_m": _num(opt.get("transmit_aperture_m", _DEFAULTS["optics"]["transmit_aperture_m"]),
                                    "optics.transmit_aperture_m", lo=1e-3),
        "max_mode_group": _num(opt.get("max_mode_group", _DEFAULTS["optics"]["max_mode_group"]),
                               "optics.max_mode_group", lo=0, hi=_MAX_MODE_GROUP, integer=True),
        "absorb_edges": _bool(opt.get("absorb_edges", _DEFAULTS["optics"]["absorb_edges"]),
                              "optics.absorb_edges"),
    }
    if resolved["optics"]["receive_aperture_m"] > resolved["grid"]["extent_m"]:
        raise ConfigError("optics.receive_aperture_m", "must fit inside grid.extent_m")

    topo = _section(cfg, "topology", _DEFAULTS["topology"])
    resolved["topology"] = {
        "n_inputs": _num(topo.get("n_inputs", _DEFAULTS["topology"]["n_inputs"]),
                         "topology.n_inputs", lo=1, hi=1024, integer=True),
        "pic_insertion_loss_db": _num(
            topo.get("pic_insertion_loss_db", _DEFAULTS["topology"]["pic_insertion_loss_db"]),
            "topology.pic_insertion_loss_db", lo=0.0),
        "demux_insertion_loss_db": _num(
            topo.get("demux_insertion_loss_db", _DEFAULTS["topology"]["demux_insertion_loss_db"]),
            "topology.demux_insertion_loss_db", lo=0.0),
    }

    ctl = _section(cfg, "controller", _DEFAULTS["controller"])
    resolved["controller"] = {
        "evals_per_frame": _num(ctl.get("evals_per_frame", _DEFAULTS["controller"]["evals_per_frame"]),
                                "controller.evals_per_frame", lo=1, integer=True),
        "simplex_init_rad": _num(ctl.get("simplex_init_rad", _DEFAULTS["controller"]["simplex_init_rad"]),
                                 "controller.simplex_init_rad", lo=1e-6),
        "restart_threshold_db": _num(
            ctl.get("restart_threshold_db", _DEFAULTS["controller"]["restart_threshold_db"]),
            "controller.restart_threshold_db", lo=1e-3),
        "wrap_transient_s": _num(ctl.get("wrap_transient_s", _DEFAULTS["controller"]["wrap_transient_s"]),
                                 "controller.wrap_transient_s", lo=0.0),
        "wrap_residual_factor": _num(
            ctl.get("wrap_residual_factor", _DEFAULTS["controller"]["wrap_residual_factor"]),
            "controller.wrap_residual_factor", lo=0.0, hi=1.0),
        "detector_noise_rel": _num(
            ctl.get("detector_noise_rel", _DEFAULTS["controller"]["detector_noise_rel"]),
            "controller.detector_noise_rel", lo=0.0),
        "loop_rate_hz": _num(ctl.get("loop_rate_hz", _DEFAULTS["controller"]["loop_rate_hz"]),
                             "controller.loop_rate_hz", lo=1.0),
        "optimize_ratios": _bool(ctl.get("optimize_ratios", _DEFAULTS["controller"]["optimize_ratios"]),
                                 "controller.optimize_ratios"),
    }
    if resolved["controller"]["loop_rate_hz"] < resolved["run"]["frame_rate_hz"]:
        raise ConfigError("controller.loop_rate_hz", "must be at least run.frame_rate_hz")

    rcv = _section(cfg, "receiver", _DEFAULTS["receiver"])
    resolved["receiver"] = {
        "format": _str(rcv.get("format", _DEFAULTS["receiver"]["format"]),
                       "receiver.format", choices={"ook", "dpsk"}),
        "sensitivity_dbm": _num(rcv.get("sensitivity_dbm", _DEFAULTS["receiver"]["sensitivity_dbm"]),
                                "receiver.sensitivity_dbm", lo=-120.0, hi=30.0),
        "bit_rate_bps": _num(rcv.get("bit_rate_bps", _DEFAULTS["receiver"]["bit_rate_bps"]),
                             "receiver.bit_rate_bps", lo=1.0),
        "floor_duty": _num(rcv.get("floor_duty", _DEFAULTS["receiver"]["floor_duty"]),
                           "receiver.floor_duty", lo=0.0, hi=1.0),
    }

    ber = _section(cfg, "ber", _DEFAULTS["ber"])
    resolved["ber"] = {
        "rop_start_dbm": _num(ber.get("rop_start_dbm", _DEFAULTS["ber"]["rop_start_dbm"]),
                              "ber.rop_start_dbm", lo=-120.0, hi=30.0),
        "rop_stop_dbm": _num(ber.get("rop_stop_dbm", _DEFAULTS["ber"]["rop_stop_dbm"]),
                             "ber.rop_stop_dbm", lo=-120.0, hi=30.0),
        "rop_step_db": _num(ber.get("rop_step_db", _DEFAULTS["ber"]["rop_step_db"]),
                            "ber.rop_step_db", lo=1e-3),
        "target_bers": ber.get("target_bers", list(_DEFAULTS["ber"]["target_bers"])),
        # the sync-loss replay plays a window at 3 Hz and needs 1 s of trace
        "window_len": _num(ber.get("window_len", _DEFAULTS["ber"]["window_len"]),
                           "ber.window_len", lo=3, integer=True),
        "window_stride": _num(ber.get("window_stride", _DEFAULTS["ber"]["window_stride"]),
                              "ber.window_stride", lo=1, integer=True),
        "sync_threshold": _num(ber.get("sync_threshold", _DEFAULTS["ber"]["sync_threshold"]),
                               "ber.sync_threshold", lo=1e-12, hi=0.499),
        "reacquire_s": _num(ber.get("reacquire_s", _DEFAULTS["ber"]["reacquire_s"]),
                            "ber.reacquire_s", lo=0.0),
        "operating_margin_db": _num(
            ber.get("operating_margin_db", _DEFAULTS["ber"]["operating_margin_db"]),
            "ber.operating_margin_db", lo=-50.0, hi=50.0),
    }
    if resolved["ber"]["rop_stop_dbm"] <= resolved["ber"]["rop_start_dbm"]:
        raise ConfigError("ber.rop_stop_dbm", "must exceed ber.rop_start_dbm")
    tb = resolved["ber"]["target_bers"]
    if not isinstance(tb, list) or not tb:
        raise ConfigError("ber.target_bers", "expected a non-empty list")
    resolved["ber"]["target_bers"] = [
        _num(x, f"ber.target_bers[{i}]", lo=1e-15, hi=0.499) for i, x in enumerate(tb)
    ]

    wdm = _section(cfg, "wdm", _DEFAULTS["wdm"])
    resolved["wdm"] = {
        "line_spacing_ghz": _num(wdm.get("line_spacing_ghz", _DEFAULTS["wdm"]["line_spacing_ghz"]),
                                 "wdm.line_spacing_ghz", lo=0.0),
        "center_wavelength_nm": _num(
            wdm.get("center_wavelength_nm", _DEFAULTS["wdm"]["center_wavelength_nm"]),
            "wdm.center_wavelength_nm", lo=1.0),
        "band_width_nm": _num(wdm.get("band_width_nm", _DEFAULTS["wdm"]["band_width_nm"]),
                              "wdm.band_width_nm", lo=0.0),
        "mismatch_mm": _num(wdm.get("mismatch_mm", _DEFAULTS["wdm"]["mismatch_mm"]),
                            "wdm.mismatch_mm", lo=-1e4, hi=1e4),
        "scan_range_mm": _num(wdm.get("scan_range_mm", _DEFAULTS["wdm"]["scan_range_mm"]),
                              "wdm.scan_range_mm", lo=1e-6),
        "scan_step_mm": _num(wdm.get("scan_step_mm", _DEFAULTS["wdm"]["scan_step_mm"]),
                             "wdm.scan_step_mm", lo=1e-9),
        "target_ber": _num(wdm.get("target_ber", _DEFAULTS["wdm"]["target_ber"]),
                           "wdm.target_ber", lo=1e-15, hi=0.499),
    }

    return Scenario(resolved=resolved)


def load_scenario(path, overrides: dict = None) -> Scenario:
    """Load and validate a scenario JSON file."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(str(path), "scenario file not found")
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}")
    return scenario_from_dict(cfg, overrides)
