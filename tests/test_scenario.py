"""Scenario schema tests generated from the table itself.

Every field of SCHEMA is checked for its path on a wrong type, for each of
its bounds, as an override path, for reaching the object it configures, and
for changing at least one artifact of the command chain.
"""

import hashlib
import json
import math
import os

import pytest

from fsolink.cli import main
from fsolink.combiner import CombinerTopology
from fsolink.errors import ConfigError, ParameterError
from fsolink.scenario import SCHEMA, scenario_from_dict
from fsolink.turbulence import _psd_peak_bounded, _spectral_template

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
    "topology": {"pic_insertion_loss_db": 5.0, "demux_insertion_loss_db": 0.5},
    "receiver": {"format": "dpsk", "sensitivity_dbm": -40.0},
    "ber": {"rop_start_dbm": -50.0, "rop_stop_dbm": -10.0, "rop_step_db": 1.0,
            "target_bers": [1e-3], "window_len": 50, "window_stride": 10,
            "sync_threshold": 1e-2, "reacquire_s": 0.2, "operating_margin_db": 2.0},
    "wdm": {"line_spacing_ghz": 50.0, "center_wavelength_nm": 1550.0, "band_width_nm": 8.0,
            "mismatch_mm": 1.0, "scan_range_mm": 3.0, "scan_step_mm": 0.02},
}


def _with(section, field, value):
    cfg = {"run": dict(BASE["run"])}
    cfg.setdefault(section, {})[field] = value
    return cfg


@pytest.mark.parametrize("section,field", FIELDS)
@pytest.mark.parametrize("wrong", [None, {}, math.nan, math.inf, -math.inf,
                                   pytest.param(10**400, id="int-beyond-float")])
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


def test_json_numbers_keep_their_meaning():
    # JSON has one number type: a count written 3.0 is a count, and -0.0
    # keeps its sign (the hash covers it)
    sc = scenario_from_dict({"run": {"seed": 1, "n_frames": 12.0}, "wdm": {"mismatch_mm": -0.0}})
    assert sc["run"]["n_frames"] == 12 and isinstance(sc["run"]["n_frames"], int)
    assert math.copysign(1.0, sc["wdm"]["mismatch_mm"]) == -1.0


def test_receiver_format_outside_its_choices():
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict(_with("receiver", "format", "qpsk"))
    assert exc.value.path == "receiver.format"


@pytest.mark.parametrize("atmosphere", [{}, {"total_r0_m": 1e-6, "n_layers": 64}],
                         ids=["default", "thinnest-layers"])
def test_outer_scale_bound_is_the_spectral_template_bound(atmosphere):
    # the largest L0 the validator accepts is the largest the template does
    # for the profile's layer r0; the next float is rejected by both
    r0_m = scenario_from_dict({**BASE, "atmosphere": atmosphere}).profile().layer_r0_m
    lo, hi = 1.0, 1e300
    while math.nextafter(lo, math.inf) < hi:
        mid = math.sqrt(lo * hi) if hi > 2 * lo else (lo + hi) / 2
        lo, hi = (mid, hi) if _psd_peak_bounded(r0_m, mid) else (lo, mid)
    sc = scenario_from_dict({**BASE, "atmosphere": dict(atmosphere, outer_scale_m=lo)})
    _spectral_template(64, 0.01, r0_m, lo, 5e-3, 0)
    assert sc.profile().layer_r0_m == r0_m
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict({**BASE, "atmosphere": dict(atmosphere, outer_scale_m=hi)})
    assert exc.value.path == "atmosphere.outer_scale_m"
    with pytest.raises(ParameterError, match="r0_m, L0_m"):
        _spectral_template(64, 0.01, r0_m, hi, 5e-3, 0)


def test_hash_is_computed_once(monkeypatch):
    calls = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda data: calls.append(data) or sha256(data))
    sc = scenario_from_dict(BASE)
    first = sc.hash
    assert "hash" in sc.__dict__ and len(calls) == 1
    assert sc.hash == first and len(calls) == 1
    canon = json.dumps(sc.resolved, sort_keys=True, separators=(",", ":"))
    assert first == sha256(canon.encode()).hexdigest()[:16]


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

    topo = NON_DEFAULT["topology"]
    loss_db = topo["pic_insertion_loss_db"] + topo["demux_insertion_loss_db"]
    assert CombinerTopology.balanced(15, **sc["topology"]).total_loss_db == loss_db

    model = sc.receiver_model()
    for name, value in NON_DEFAULT["receiver"].items():
        assert getattr(model, name) == value, name
    assert model.floor_duty == 0.0  # every receiver of run_ber, no wrap floor


# Recorded in the config echo and the hash but read by no command: the run's
# name and the published turbulence figures (see the README's
# reproducibility notes).
METADATA = {"run.label", "atmosphere.quoted_r0_m", "atmosphere.quoted_cn2_m23"}

# A chain small enough to run once per field that still lets every field act:
# a margin low enough for the sync replay to see outages, and a WDM mismatch
# that keeps the line efficiencies below 1.
CHAIN_BASE = {
    "run": {"seed": 1, "n_frames": 12},
    "grid": {"n": 64},
    "ber": {"window_len": 6, "window_stride": 2, "operating_margin_db": -6.0},
    "wdm": {"mismatch_mm": 1.0},
}

# the changed value where NON_DEFAULT equals the chain base
CHAIN_VALUE = {"wdm.mismatch_mm": 0.5}


def _chain_artifacts(cfg, tmp):
    """Run the command chain on cfg; every artifact but the config echo and
    the report, without the scenario stamps."""
    path, out = os.path.join(tmp, "scenario.json"), os.path.join(tmp, "run")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    common = ["--config", path, "--out", out]
    codes = [
        main(["synth", *common]),
        main(["couple", *common, "--lossy", "--modes=3,6,10"]),
        main(["ber", *common, "--modes=3,6,10"]),
        main(["wdm", *common, "--scan"]),
        main(["wdm", *common, "--link"]),
        main(["report", "--out", out]),
    ]
    assert codes == [0] * 6
    artifacts = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out)
            if rel in ("resolved_config.json", "report.md"):
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            if name.endswith(".csv"):
                assert data.startswith(b"# scenario=")
                data = data.split(b"\n", 1)[1]
            elif name.endswith(".json"):
                data = json.loads(data)
                del data["scenario_hash"]
            artifacts[rel] = data
    return artifacts


@pytest.fixture(scope="module")
def base_artifacts(tmp_path_factory):
    return _chain_artifacts(CHAIN_BASE, str(tmp_path_factory.mktemp("base")))


@pytest.mark.parametrize("section,field",
                         [(s, f) for s, f in FIELDS if f"{s}.{f}" not in METADATA])
def test_every_field_changes_an_artifact(section, field, base_artifacts, tmp_path):
    value = CHAIN_VALUE.get(f"{section}.{field}", NON_DEFAULT[section][field])
    cfg = json.loads(json.dumps(CHAIN_BASE))
    cfg.setdefault(section, {})[field] = value
    assert _chain_artifacts(cfg, str(tmp_path)) != base_artifacts, f"{section}.{field} changes nothing"
