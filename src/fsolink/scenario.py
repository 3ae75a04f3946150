"""Scenario configuration: one nested JSON file drives every command.

SCHEMA is the schema: it declares every section and field once, with its
default and its validator, and _RULES holds the constraints between
fields.  Validation is exhaustive: unknown keys and out-of-range values are
rejected with the dotted path of the offending field, every defaulted field
is echoed back fully resolved in the output metadata, and the SHA-256 hash
of the resolved configuration stamps every artifact so runs cannot be
mixed.
"""

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .comms import ReceiverModel
from .errors import ConfigError, ParameterError, _array, _num
from .field import GridSpec
from .modes import _MAX_GROUP
from .turbulence import (
    _PSD_PEAK_MAX,
    AtmosphereProfile,
    _layer_r0_m,
    _psd_peak_bounded,
    default_profile,
)
from .wdm import C_VACUUM, OpticalSpectrum

__all__ = ["SCHEMA", "Scenario", "load_scenario", "scenario_from_dict"]


def _json_number(text):
    """A JSON number: integral values (a count written 3.0) parse as ints, -0.0 as a float."""
    x = float(text)
    return int(x) if x.is_integer() and str(x) != "-0.0" else x


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


# default of a field that every scenario must set itself
_REQUIRED = object()


def _number(lo=None, hi=None, integer=False):
    return partial(_num, lo=lo, hi=hi, integer=integer, error=ConfigError)


def _ber_list(value, path):
    return _array(value, path, (None,), lo=1e-15, hi=0.499, error=ConfigError).tolist()


# The schema: section -> field -> (default, validator).  A validator takes
# (value, dotted path) and returns the resolved value or raises ConfigError.
SCHEMA = {
    "run": {
        "label": ("run", _str),
        "seed": (_REQUIRED, _number(lo=0, integer=True)),
        "n_frames": (1000, _number(lo=1, integer=True)),
        "frame_rate_hz": (1500.0, _number(lo=1e-9)),
        "save_fields": (False, _bool),
    },
    "grid": {
        "n": (512, _number(lo=64, integer=True)),
        "extent_m": (1.0, _number(lo=1e-6)),
        "wavelength_m": (1.55e-6, _number(lo=1e-9)),
    },
    "atmosphere": {
        "total_r0_m": (0.22, _number(lo=1e-6)),
        "n_layers": (5, _number(lo=1, hi=64, integer=True)),
        # the Karman line, 100 km: far above where Cn^2 matters; 1e308 made
        # the slant distances overflow
        "top_altitude_m": (2000.0, _number(lo=1.0, hi=1e5)),
        "outer_scale_m": (25.0, _number(lo=1e-3)),
        "inner_scale_m": (5e-3, _number(lo=1e-6)),
        "wind_speed_mps": (47.0, _number(lo=0.0)),
        "elevation_deg": (30.0, _number(lo=1.0, hi=90.0)),
        "subharmonic_levels": (3, _number(lo=0, hi=16, integer=True)),
        "quoted_r0_m": (0.077, _number(lo=0.0)),
        "quoted_cn2_m23": (8.7e-14, _number(lo=0.0)),
    },
    "optics": {
        "receive_aperture_m": (0.50, _number(lo=1e-3)),
        "max_mode_group": (4, _number(lo=0, hi=_MAX_GROUP, integer=True)),
        "absorb_edges": (False, _bool),
    },
    # a stage that loses more than 100 dB passes no light a receiver could
    # use; the 200 dB total keeps a lossy efficiency a normal float
    "topology": {
        "pic_insertion_loss_db": (7.0, _number(lo=0.0, hi=100.0)),
        "demux_insertion_loss_db": (1.0, _number(lo=0.0, hi=100.0)),
    },
    "receiver": {
        "format": ("ook", partial(_str, choices={"ook", "dpsk"})),
        "sensitivity_dbm": (-39.0, _number(lo=-120.0, hi=30.0)),
    },
    "ber": {
        "rop_start_dbm": (-45.0, _number(lo=-120.0, hi=30.0)),
        "rop_stop_dbm": (-15.0, _number(lo=-120.0, hi=30.0)),
        "rop_step_db": (0.5, _number(lo=1e-3)),
        "target_bers": ([1e-4, 1e-5], _ber_list),
        # the sync-loss replay plays a window at 3 Hz and needs 1 s of trace
        "window_len": (120, _number(lo=3, integer=True)),
        "window_stride": (30, _number(lo=1, integer=True)),
        "sync_threshold": (1e-3, _number(lo=1e-12, hi=0.499)),
        "reacquire_s": (0.1, _number(lo=0.0)),
        "operating_margin_db": (3.0, _number(lo=-50.0, hi=50.0)),
    },
    "wdm": {
        "line_spacing_ghz": (100.0, _number(lo=0.0)),
        # up to the far infrared's edge, 1 mm (ISO 20473)
        "center_wavelength_nm": (1560.0, _number(lo=1.0, hi=1e6)),
        "band_width_nm": (16.0, _number(lo=0.0)),
        "mismatch_mm": (0.0, _number(lo=-1e4, hi=1e4)),
        "scan_range_mm": (6.0, _number(lo=1e-6)),
        "scan_step_mm": (0.01, _number(lo=1e-9)),
    },
}

# vodl_scan evaluates 2 floor(range / step) + 1 delays in one array pass:
# the cap keeps a scan's arrays under 100 MB (48 MB for a band, 80 MB for
# two lines)
_MAX_SCAN_POINTS = 10**6


def _spectrum_builds(resolved, band):
    """Whether wdm's spectrum (its band, or its two lines) has every line
    and band edge above 0 Hz, as OpticalSpectrum checks in Hz."""
    try:
        Scenario(resolved).spectrum(band)
    except ParameterError:
        return False
    return True


# Rules between fields, checked once every field has resolved:
# (dotted path reported, message, predicate over the resolved sections).
_RULES = (
    ("grid.n", "must be a power of two",
     lambda r: r["grid"]["n"] & (r["grid"]["n"] - 1) == 0),
    ("atmosphere.inner_scale_m", "must be smaller than outer_scale_m",
     lambda r: r["atmosphere"]["inner_scale_m"] < r["atmosphere"]["outer_scale_m"]),
    ("atmosphere.outer_scale_m",
     f"must keep each layer's PSD peak 0.023 r0^(-5/3) L0^(11/3) under {_PSD_PEAK_MAX:.3g}",
     lambda r: _psd_peak_bounded(
         _layer_r0_m(r["atmosphere"]["total_r0_m"], r["atmosphere"]["n_layers"]),
         r["atmosphere"]["outer_scale_m"])),
    ("optics.receive_aperture_m", "must fit inside grid.extent_m",
     lambda r: r["optics"]["receive_aperture_m"] <= r["grid"]["extent_m"]),
    ("ber.rop_stop_dbm", "must exceed ber.rop_start_dbm",
     lambda r: r["ber"]["rop_stop_dbm"] > r["ber"]["rop_start_dbm"]),
    ("wdm.line_spacing_ghz", "must be under twice the centre frequency, so both lines stay "
     "above 0 Hz", lambda r: _spectrum_builds(r, band=False)),
    ("wdm.band_width_nm", "must be under twice wdm.center_wavelength_nm, so the band stays "
     "above 0 Hz", lambda r: _spectrum_builds(r, band=True)),
    ("wdm.scan_step_mm", f"must keep the scan over wdm.scan_range_mm under {_MAX_SCAN_POINTS} points",
     lambda r: r["wdm"]["scan_range_mm"] / r["wdm"]["scan_step_mm"] < _MAX_SCAN_POINTS / 2),
)


@dataclass(frozen=True)
class Scenario:
    """Fully resolved, validated scenario configuration.

    The builders hand a whole section to its consumer by keyword, so every
    field of the section reaches the object it configures.  resolved is not
    mutated after validation, so the hash is computed once, on first access.
    """

    resolved: dict

    @cached_property
    def hash(self) -> str:
        canon = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def __getitem__(self, section):
        return self.resolved[section]

    def grid(self) -> GridSpec:
        return GridSpec(**self["grid"])

    def profile(self) -> AtmosphereProfile:
        # quoted_* record the published turbulence figures as metadata only
        a = self["atmosphere"]
        return default_profile(**{k: v for k, v in a.items() if not k.startswith("quoted_")})

    def receiver_model(self) -> ReceiverModel:
        return ReceiverModel(**self["receiver"])

    def spectrum(self, band=True) -> OpticalSpectrum:
        """The wdm section's spectrum: its band when band and band_width_nm
        > 0, otherwise its two lines."""
        w = self["wdm"]
        center_m = w["center_wavelength_nm"] * 1e-9
        if band and w["band_width_nm"] > 0:
            return OpticalSpectrum.rectangular_wavelength(center_m, w["band_width_nm"] * 1e-9)
        return OpticalSpectrum.two_lines(C_VACUUM / center_m, w["line_spacing_ghz"] * 1e9)

    def rop_grid(self):
        b = self["ber"]
        return np.arange(
            b["rop_start_dbm"], b["rop_stop_dbm"] + b["rop_step_db"] / 2, b["rop_step_db"]
        )


def scenario_from_dict(cfg: dict, overrides: dict = None) -> Scenario:
    """Validate a raw configuration mapping into a resolved Scenario.

    overrides maps dotted paths (e.g. "run.seed") to replacement values,
    applied before validation; used by the CLI flags.  Structural faults
    (unknown section or field, a section that is not an object) are
    reported first, then field values in SCHEMA order, then _RULES.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")
    cfg = json.loads(json.dumps(cfg), parse_float=_json_number)  # deep copy, JSON-clean
    for section, given in cfg.items():
        if section not in SCHEMA:
            raise ConfigError(section, "unknown section")
        if not isinstance(given, dict):
            raise ConfigError(section, "expected an object")
        for name in given:
            if name not in SCHEMA[section]:
                raise ConfigError(f"{section}.{name}", "unknown field")
    for path, value in (overrides or {}).items():
        section, _, name = path.partition(".")
        if name not in SCHEMA.get(section, {}):
            raise ConfigError(path, "unknown override")
        cfg.setdefault(section, {})[name] = value

    resolved = {}
    for section, fields in SCHEMA.items():
        given = cfg.get(section, {})
        resolved[section] = {}
        for name, (default, check) in fields.items():
            path = f"{section}.{name}"
            value = given.get(name, default)
            if value is _REQUIRED:
                raise ConfigError(path, f"mandatory: every scenario pins its {name}")
            resolved[section][name] = check(value, path)
    for path, message, holds in _RULES:
        if not holds(resolved):
            raise ConfigError(path, message)
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
    except UnicodeDecodeError as exc:
        raise ConfigError(str(path), f"scenario file is not UTF-8: {exc}")
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read scenario file: {exc.strerror}")
    return scenario_from_dict(cfg, overrides)
