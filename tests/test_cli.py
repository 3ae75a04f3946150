import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fsolink.cli import main, run_couple, run_report, run_synth
from fsolink.comms import ReceiverModel, ber_instant
from fsolink.errors import ConfigError
from fsolink.scenario import SCHEMA, load_scenario, scenario_from_dict

SMALL = {
    "run": {"label": "test", "seed": 13, "n_frames": 24, "frame_rate_hz": 1500.0},
    "grid": {"n": 128},
    "ber": {"window_len": 12, "window_stride": 4},
}


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "scenario.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


@pytest.fixture(scope="module")
def synth_run(small_config, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    assert main(["synth", "--config", small_config, "--out", out]) == 0
    return out


class TestScenarioValidation:
    def test_seed_is_mandatory(self):
        with pytest.raises(ConfigError, match="run.seed"):
            scenario_from_dict({"run": {"n_frames": 5}})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            scenario_from_dict({"run": {"seed": 1}, "telescope": {}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="atmosphere.windspeed"):
            scenario_from_dict({"run": {"seed": 1}, "atmosphere": {"windspeed": 3.0}})

    def test_type_error_names_path(self):
        with pytest.raises(ConfigError, match="grid.n"):
            scenario_from_dict({"run": {"seed": 1}, "grid": {"n": "big"}})

    def test_range_error_names_path(self):
        with pytest.raises(ConfigError, match="grid.n"):
            scenario_from_dict({"run": {"seed": 1}, "grid": {"n": 100}})

    def test_defaults_are_echoed(self):
        sc = scenario_from_dict({"run": {"seed": 1}})
        assert sc.resolved["atmosphere"]["outer_scale_m"] == 25.0
        assert sc.resolved["topology"] == {"pic_insertion_loss_db": 7.0,
                                           "demux_insertion_loss_db": 1.0}
        assert sc.resolved["run"]["n_frames"] == 1000

    def test_hash_stable_and_sensitive(self):
        a = scenario_from_dict({"run": {"seed": 1}})
        b = scenario_from_dict({"run": {"seed": 1}})
        c = scenario_from_dict({"run": {"seed": 2}})
        assert a.hash == b.hash
        assert a.hash != c.hash

    def test_cli_exit_code_on_bad_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"run": {}}))  # seed missing
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


class TestPipelineArtifacts:
    def test_synth_outputs(self, synth_run):
        for name in ("resolved_config.json", "modes.csv", "smf.csv", "index.json"):
            assert os.path.exists(os.path.join(synth_run, name))
        index = json.load(open(os.path.join(synth_run, "index.json")))
        assert index["n_frames"] == 24
        assert len(index["frames"]) == 24
        assert index["frames"][0]["file"] is None  # fields not requested

    def test_rerun_is_byte_identical(self, small_config, synth_run, tmp_path):
        out2 = str(tmp_path / "rerun")
        assert main(["synth", "--config", small_config, "--out", out2]) == 0
        for name in ("modes.csv", "smf.csv", "index.json", "resolved_config.json"):
            a = open(os.path.join(synth_run, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b, f"{name} differs between reruns"

    def test_couple_histogram_accounting(self, small_config, synth_run):
        assert main(["couple", "--config", small_config, "--out", synth_run]) == 0
        summary = json.load(open(os.path.join(synth_run, "couple_summary.json")))
        for rx, stats in summary["receivers"].items():
            assert sum(stats["histogram"]["counts"]) == 24

    def test_mode_count_ordering_in_summary(self, small_config, synth_run):
        summary = json.load(open(os.path.join(synth_run, "couple_summary.json")))
        means = [summary["receivers"][f"mm{n}"]["mean_efficiency"] for n in (3, 6, 10, 15)]
        assert all(m2 > m1 for m1, m2 in zip(means, means[1:]))

    def test_ber_btb_curve_is_receiver_curve(self, small_config, synth_run):
        assert main(["ber", "--config", small_config, "--out", synth_run]) == 0
        lines = open(os.path.join(synth_run, "ber_btb.csv")).read().splitlines()
        assert lines[0].startswith("# scenario=")
        rows = [line.split(",") for line in lines[2:]]
        scenario = load_scenario(small_config)
        model = ReceiverModel(format="ook", sensitivity_dbm=-39.0)
        for rop_s, ber_s in rows[:10]:
            assert float(ber_s) == pytest.approx(ber_instant(float(rop_s), model), rel=1e-12)

    def test_ber_report_carries_floor_and_sync(self, small_config, synth_run):
        report = json.load(open(os.path.join(synth_run, "ber_report.json")))
        for w in report["windows"].values():
            for rx, rr in w["receivers"].items():
                assert "floor_estimate" in rr and rr["floor_estimate"] == 0.0
                assert rr["sync_loss_s_per_min"] >= 0.0

    def test_wdm_scan_and_report(self, small_config, synth_run):
        assert main(["wdm", "--config", small_config, "--out", synth_run, "--scan"]) == 0
        assert main(["report", "--out", synth_run]) == 0
        report = open(os.path.join(synth_run, "report.md")).read()
        assert "Coupling efficiency" in report
        assert "scenario hash" in report

    def test_report_idempotent(self, synth_run):
        first = open(os.path.join(synth_run, "report.md"), "rb").read()
        assert main(["report", "--out", synth_run]) == 0
        second = open(os.path.join(synth_run, "report.md"), "rb").read()
        assert first == second

    def test_missing_artifact_exit_code(self, small_config, tmp_path):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        assert main(["couple", "--config", small_config, "--out", empty]) == 3
        assert main(["report", "--out", empty]) == 3

    def test_wdm_link_needs_no_dataset(self, small_config, synth_run, tmp_path):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        for out in (empty, synth_run):
            assert main(["wdm", "--config", small_config, "--out", out, "--link"]) == 0
        assert os.listdir(empty) == ["wdm_report.json"]
        reports = [open(os.path.join(out, "wdm_report.json"), "rb").read()
                   for out in (empty, synth_run)]
        assert reports[0] == reports[1]

    def test_mixed_hash_exit_code(self, small_config, synth_run, tmp_path):
        # corrupt a stamped artifact with a different scenario hash
        import shutil

        clone = str(tmp_path / "clone")
        shutil.copytree(synth_run, clone)
        path = os.path.join(clone, "modes.csv")
        content = open(path).read().splitlines()
        content[0] = "# scenario=deadbeefdeadbeef"
        open(path, "w").write("\n".join(content) + "\n")
        assert main(["couple", "--config", small_config, "--out", clone]) == 4

    def test_seed_override_changes_hash(self, small_config, tmp_path):
        out = str(tmp_path / "seeded")
        assert main(["synth", "--config", small_config, "--out", out,
                     "--seed", "99", "--frames", "4"]) == 0
        index = json.load(open(os.path.join(out, "index.json")))
        assert index["seed"] == 99
        assert index["n_frames"] == 4


class TestSaveFields:
    def test_field_blocks_written_and_loadable(self, tmp_path):
        cfg = dict(SMALL)
        cfg["run"] = dict(SMALL["run"], n_frames=3, save_fields=True)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "run")
        assert main(["synth", "--config", str(path), "--out", out]) == 0
        from fsolink.field import read_field_bin

        field = read_field_bin(os.path.join(out, "fields", "frame_000000.bin"))
        assert field.n == 128


TINY = {
    "run": {"label": "tiny", "seed": 5, "n_frames": 4, "frame_rate_hz": 1500.0},
    "grid": {"n": 64},
}


class TestExitCodes:
    """Every accepted scenario runs or exits with a documented code."""

    @staticmethod
    def _run(tmp_path, cfg, *commands):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "run")
        return [main([c, "--config", str(path), "--out", out]) for c in commands]

    def test_ber_window_shorter_than_replay_rejected(self, tmp_path, capsys):
        cfg = dict(TINY, ber={"window_len": 2})
        assert self._run(tmp_path, cfg, "synth") == [2]
        err = capsys.readouterr().err
        assert "ber.window_len" in err and "Traceback" not in err

    def test_shortest_ber_window_runs(self, tmp_path):
        cfg = dict(TINY, ber={"window_len": 3})
        assert self._run(tmp_path, cfg, "synth", "ber") == [0, 0]

    def test_mode_group_beyond_basis_rejected(self, tmp_path, capsys):
        cfg = dict(TINY, optics={"max_mode_group": 7})
        assert self._run(tmp_path, cfg, "synth") == [2]
        err = capsys.readouterr().err
        assert "optics.max_mode_group" in err and "Traceback" not in err

    @pytest.mark.parametrize("path", ["optics.transmit_aperture_m", "receiver.bit_rate_bps",
                                      "topology.n_inputs", "wdm.target_ber"])
    def test_deleted_field_is_unknown(self, tmp_path, capsys, path):
        section, field = path.split(".")
        cfg = dict(TINY, **{section: {field: 1.0}})
        assert self._run(tmp_path, cfg, "synth") == [2]
        err = capsys.readouterr().err
        assert f"{path}: unknown field" in err and "Traceback" not in err

    def test_deleted_controller_section_is_unknown(self, tmp_path, capsys):
        cfg = dict(TINY, controller={"evals_per_frame": 100})
        assert self._run(tmp_path, cfg, "synth") == [2]
        err = capsys.readouterr().err
        assert "controller: unknown section" in err and "Traceback" not in err
        # no loop rate bounds the frame rate any more
        cfg = dict(TINY, run=dict(TINY["run"], frame_rate_hz=2e6))
        assert self._run(tmp_path, cfg, "synth") == [0]

    def test_unusable_paths_exit_2(self, tmp_path, capsys):
        good = tmp_path / "scenario.json"
        good.write_text(json.dumps(TINY))
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'{"run": {"label": "caf\xe9", "seed": 5}}')
        a_file = tmp_path / "taken"
        a_file.write_text("")
        for config, out, named in ((not_utf8, tmp_path / "o1", not_utf8),
                                   (tmp_path, tmp_path / "o2", tmp_path),
                                   (good, a_file, a_file)):
            assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error: ") and str(named) in err
            assert "Traceback" not in err
        assert not (tmp_path / "o1").exists() and not (tmp_path / "o2").exists()

    def test_dpsk_link_penalties_are_numeric(self, tmp_path):
        cfg = dict(TINY, run=dict(TINY["run"], n_frames=12), receiver={"format": "dpsk"},
                   wdm={"mismatch_mm": 1.0})
        assert self._run(tmp_path, cfg, "synth") == [0]
        out = str(tmp_path / "run")
        assert main(["wdm", "--config", str(tmp_path / "scenario.json"), "--out", out,
                     "--link"]) == 0
        report = json.load(open(os.path.join(out, "wdm_report.json")))
        for eff, pen in zip(report["line_efficiency"], report["penalty_vs_single_db"]):
            assert eff == pytest.approx(0.75, abs=1e-3)
            assert pen == pytest.approx(-10.0 * math.log10(eff), rel=1e-12)
        assert main(["report", "--out", out]) == 0
        text = open(os.path.join(out, "report.md")).read()
        assert "n/a" not in text
        assert "- per-line penalty vs single wavelength: 1.251 dB, 1.251 dB" in text

    def test_manual_ber_window(self, tmp_path, capsys):
        assert self._run(tmp_path, dict(TINY, run=dict(TINY["run"], n_frames=12)), "synth") == [0]
        ber = ["ber", "--config", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "run")]
        assert main([*ber, "--window", "0:6"]) == 0
        report = json.load(open(tmp_path / "run" / "ber_report.json"))
        assert list(report["windows"]) == ["manual"]
        manual = report["windows"]["manual"]
        assert (manual["start"], manual["end"]) == (0, 6)
        assert sorted(manual["receivers"]) == ["mm10", "mm15", "mm6", "smf"]
        for rx in manual["receivers"]:
            assert (tmp_path / "run" / f"ber_{rx}_manual.csv").exists()
        for window in ("6:2", "0:13", "x"):
            assert main([*ber, "--window", window]) == 2
            err = capsys.readouterr().err
            assert "window:" in err and "Traceback" not in err

    def test_delay_scan_over_the_point_cap_rejected(self, tmp_path, capsys):
        # 2 * 6 mm / 1e-5 mm + 1 = 1.2e6 points, over the 1e6 cap
        cfg = dict(TINY, wdm={"scan_range_mm": 6.0, "scan_step_mm": 1e-5})
        assert self._run(tmp_path, cfg, "wdm") == [2]
        err = capsys.readouterr().err
        assert "wdm.scan_step_mm" in err and "Traceback" not in err
        cfg = dict(TINY, wdm={"scan_range_mm": 6.0, "scan_step_mm": 1.3e-5})
        assert scenario_from_dict(cfg)["wdm"]["scan_step_mm"] == 1.3e-5

    @pytest.mark.parametrize("modes", ["0", "3,0", "-1"])
    def test_mode_count_below_one_rejected(self, tmp_path, capsys, modes):
        cfg = dict(TINY, ber={"window_len": 3})
        assert self._run(tmp_path, cfg, "synth") == [0]
        path, out = str(tmp_path / "scenario.json"), str(tmp_path / "run")
        for command in ("couple", "ber"):
            assert main([command, "--config", path, "--out", out, f"--modes={modes}"]) == 2
            err = capsys.readouterr().err
            assert "modes:" in err and "Traceback" not in err

    def test_ber_on_run_shorter_than_replay_exits_2(self, tmp_path, capsys):
        cfg = dict(TINY, run=dict(TINY["run"], n_frames=2))
        assert self._run(tmp_path, cfg, "synth", "ber") == [0, 2]
        err = capsys.readouterr().err
        assert "1 s of trace" in err and "Traceback" not in err


class TestLossyFlag:
    @staticmethod
    def _couple(path, out, *flags):
        assert main(["couple", "--config", str(path), "--out", out, *flags]) == 0
        effs = {}
        for rx in ("smf", "mm3", "mm6", "mm10", "mm15"):
            lines = open(os.path.join(out, f"couple_{rx}.csv")).read().splitlines()[2:]
            effs[rx] = np.array([float(line.split(",")[3]) for line in lines])
        return effs

    def test_lossy_is_total_loss_below_default(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(TINY))
        out = str(tmp_path / "run")
        assert main(["synth", "--config", str(path), "--out", out]) == 0
        default = self._couple(path, out)
        lossy = self._couple(path, out, "--lossy")
        topology = load_scenario(str(path))["topology"]
        loss_db = topology["pic_insertion_loss_db"] + topology["demux_insertion_loss_db"]
        assert loss_db > 0
        np.testing.assert_array_equal(lossy["smf"], default["smf"])
        for n in (3, 6, 10, 15):
            np.testing.assert_allclose(default[f"mm{n}"] - lossy[f"mm{n}"], loss_db, rtol=0, atol=1e-9)
        assert not json.load(open(os.path.join(out, "couple_summary.json")))["lossless"]

    def test_lossless_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["couple", "--config", "x.json", "--out", str(tmp_path), "--lossless"])


def _field_values(section, field):
    """Wrong types, non-finite numbers, each bound and the value just past it."""
    kw = getattr(SCHEMA[section][field][1], "keywords", {})
    values = [None, "x", True, [], {}, math.nan, math.inf, -math.inf]
    for bound, sign in ((kw.get("lo"), -1), (kw.get("hi"), 1)):
        if bound is not None:
            past = bound + sign if kw.get("integer") else math.nextafter(bound, sign * math.inf)
            values += [bound, past]
    return values


@st.composite
def _faulty_scenarios(draw):
    cfg = dict(TINY, run=dict(TINY["run"], n_frames=draw(st.integers(1, 4))),
               ber={"window_len": 3})
    section, field = draw(st.sampled_from([(s, f) for s, fs in SCHEMA.items() for f in fs]))
    value = draw(st.sampled_from(_field_values(section, field)))
    cfg[section] = dict(cfg.get(section, {}), **{field: value})
    return cfg


class TestChainProperty:
    """No scenario the CLI is given ends in a traceback or an undocumented code."""

    @given(cfg=_faulty_scenarios(), modes=st.lists(st.integers(-1, 16), min_size=1, max_size=4))
    @settings(max_examples=500, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_chain_exits_with_documented_codes(self, cfg, modes):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "scenario.json"), os.path.join(tmp, "run")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            modes_arg = "--modes=" + ",".join(map(str, modes))
            common = ["--config", path, "--out", out]
            codes = [
                main(["synth", *common]),
                main(["couple", *common, modes_arg]),
                main(["ber", *common, modes_arg]),
                main(["wdm", *common, "--scan"]),
                main(["wdm", *common, "--link"]),
                main(["report", "--out", out]),
            ]
        assert set(codes) <= {0, 2, 3, 4}, codes
