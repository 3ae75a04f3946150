"""Scenario schema tests generated from the table itself.

Every field of SCHEMA is checked for its path on a wrong type, for each of
its bounds, as an override path, and for reaching the object it configures.
"""

import math

import pytest

from fsolink.errors import ConfigError
from fsolink.scenario import SCHEMA, scenario_from_dict

BASE = {"run": {"seed": 1}}

FIELDS = [(s, f) for s, fields in SCHEMA.items() for f in fields]

BOUNDS = [
    (s, f, side, bound)
    for s, f in FIELDS
    for side in ("lo", "hi")
    if (bound := getattr(SCHEMA[s][f][1], "keywords", {}).get(side)) is not None
]

# a valid value other than the default for every field, consistent with the
# cross-field rules
NON_DEFAULT = {
    "run": {"label": "geo", "seed": 3, "n_frames": 10, "frame_rate_hz": 1000.0,
            "save_fields": True},
    "grid": {"n": 128, "extent_m": 0.8, "wavelength_m": 1.31e-6},
    "atmosphere": {"total_r0_m": 0.1, "n_layers": 3, "top_altitude_m": 1500.0,
                   "outer_scale_m": 20.0, "inner_scale_m": 0.01, "wind_speed_mps": 10.0,
                   "elevation_deg": 45.0, "subharmonic_levels": 2, "quoted_r0_m": 0.05,
                   "quoted_cn2_m23": 1e-13},
    "optics": {"receive_aperture_m": 0.4, "max_mode_group": 3, "absorb_edges": True},
    "topology": {"n_inputs": 10, "pic_insertion_loss_db": 5.0, "demux_insertion_loss_db": 0.5},
    "controller": {"evals_per_frame": 100, "simplex_init_rad": 0.1,
                   "restart_threshold_db": 2.0, "wrap_transient_s": 1e-4,
                   "wrap_residual_factor": 0.5, "detector_noise_rel": 0.01,
                   "loop_rate_hz": 5e5, "optimize_ratios": False},
    "receiver": {"format": "dpsk", "sensitivity_dbm": -40.0, "floor_duty": 0.01},
    "ber": {"rop_start_dbm": -50.0, "rop_stop_dbm": -10.0, "rop_step_db": 1.0,
            "target_bers": [1e-3], "window_len": 50, "window_stride": 10,
            "sync_threshold": 1e-2, "reacquire_s": 0.2, "operating_margin_db": 2.0},
    "wdm": {"line_spacing_ghz": 50.0, "center_wavelength_nm": 1550.0, "band_width_nm": 8.0,
            "mismatch_mm": 1.0, "scan_range_mm": 3.0, "scan_step_mm": 0.02,
            "target_ber": 1e-3},
}


def _with(section, field, value):
    cfg = {"run": dict(BASE["run"])}
    cfg.setdefault(section, {})[field] = value
    return cfg


@pytest.mark.parametrize("section,field", FIELDS)
@pytest.mark.parametrize("wrong", [None, {}, math.nan, math.inf, -math.inf])
def test_wrong_type_names_the_field(section, field, wrong):
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict(_with(section, field, wrong))
    assert exc.value.path == f"{section}.{field}"


@pytest.mark.parametrize("section,field,side,bound", BOUNDS)
def test_value_just_outside_a_bound_names_the_field(section, field, side, bound):
    integer = SCHEMA[section][field][1].keywords.get("integer")
    if side == "lo":
        value = bound - 1 if integer else math.nextafter(bound, -math.inf)
    else:
        value = bound + 1 if integer else math.nextafter(bound, math.inf)
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict(_with(section, field, value))
    assert exc.value.path == f"{section}.{field}"


def test_receiver_format_outside_its_choices():
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict(_with("receiver", "format", "qpsk"))
    assert exc.value.path == "receiver.format"


@pytest.mark.parametrize("section,field", FIELDS)
def test_every_field_is_an_override_path(section, field):
    value = NON_DEFAULT[section][field]
    sc = scenario_from_dict(BASE, {f"{section}.{field}": value})
    assert sc[section][field] == value


def test_non_default_values_reach_their_consumers():
    assert {s: set(f) for s, f in NON_DEFAULT.items()} == {s: set(f) for s, f in SCHEMA.items()}
    for section, fields in NON_DEFAULT.items():
        for field, value in fields.items():
            assert value != SCHEMA[section][field][0], f"{section}.{field} is the default"
    sc = scenario_from_dict(NON_DEFAULT)
    assert sc.resolved == NON_DEFAULT

    grid = sc.grid()
    assert (grid.n, grid.extent_m, grid.wavelength_m) == (128, 0.8, 1.31e-6)

    atm = NON_DEFAULT["atmosphere"]
    profile = sc.profile()
    assert len(profile.layers) == atm["n_layers"]
    slant_m = atm["top_altitude_m"] / math.sin(math.radians(atm["elevation_deg"]))
    assert sum(layer.distance_to_next_m for layer in profile.layers) == pytest.approx(slant_m)
    for name in ("total_r0_m", "outer_scale_m", "inner_scale_m", "wind_speed_mps",
                 "subharmonic_levels"):
        assert getattr(profile, name) == atm[name], name

    topo = sc.topology()
    for name, value in NON_DEFAULT["topology"].items():
        assert getattr(topo, name) == value, name

    ctl = sc.controller_config()
    for name, value in NON_DEFAULT["controller"].items():
        assert getattr(ctl, name) == value, name

    model = sc.receiver_model()
    for name, value in NON_DEFAULT["receiver"].items():
        assert getattr(model, name) == value, name
    assert sc.receiver_model(floor_duty=0.0).floor_duty == 0.0
