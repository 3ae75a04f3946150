import argparse
import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fsolink import cli
from fsolink.cli import _build_parser, _csv, main
from fsolink.comms import ReceiverModel, ber_instant
from fsolink.errors import ConfigError, NumericalContractError
from fsolink.modes import ModeBasis
from fsolink.scenario import SCHEMA, load_scenario, scenario_from_dict
import pins

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
        # the floor a run shows is its curve's BER at the top of the sweep;
        # the wrap floor is computed in the library from a loop trace
        report = json.load(open(os.path.join(synth_run, "ber_report.json")))
        assert "floor_duty" not in report["model"]
        for w in report["windows"].values():
            for rx, rr in w["receivers"].items():
                assert "floor_estimate" not in rr and 0.0 <= rr["ber_at_top_of_sweep"] <= 0.5
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
        reports = [json.load(open(os.path.join(out, "wdm_report.json")))
                   for out in (empty, synth_run)]
        assert reports[0]["link"] == reports[1]["link"]

    def test_mixed_hash_exit_code(self, small_config, synth_run, tmp_path, capsys):
        # corrupt a stamped artifact with a different scenario hash
        import shutil

        for name in ("modes.csv", "index.json"):
            clone = str(tmp_path / name)
            shutil.copytree(synth_run, clone)
            path = os.path.join(clone, name)
            if name == "index.json":  # the same n_frames, another scenario
                index = dict(json.load(open(path)), scenario_hash="deadbeefdeadbeef")
                open(path, "w").write(json.dumps(index))
            else:
                content = open(path).read().splitlines()
                content[0] = "# scenario=deadbeefdeadbeef"
                open(path, "w").write("\n".join(content) + "\n")
            assert main(["couple", "--config", small_config, "--out", clone]) == 4
            assert f"{name} was produced by scenario deadbeef" in capsys.readouterr().err

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


GEO_DOWNLINK = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "geo_downlink.json")


def run_geo_synth(out: Path) -> dict:
    """synth of configs/geo_downlink.json at --frames 2 into out:
    {artifact: (sha256, decoded)} of every file it wrote."""
    assert main(["synth", "--config", GEO_DOWNLINK, "--out", str(out), "--frames", "2"]) == 0
    return {path.name: pins.artifact(path) for path in sorted(out.iterdir())}


class TestShippedGeoDownlinkConfig:
    def test_validates(self):
        scenario = load_scenario(GEO_DOWNLINK)
        assert scenario["grid"]["n"] == 512 and scenario["run"]["label"] == "geo-downlink"

    def test_two_frame_synth_stamps_every_artifact(self, tmp_path):
        out = str(tmp_path / "run")
        # the shipped 1 m / 512 geometry undersamples the longest layer step
        # for the angular-spectrum band limit, and says so
        with pytest.warns(RuntimeWarning, match="sampling bound violated"):
            artifacts = run_geo_synth(Path(out))
        # the 512 frame path, pinned as the demo chain is (pins.py)
        pins.check(pins.load(pins.GEO_TABLE), pins.GEO_SYNTH, artifacts)
        stamp = load_scenario(GEO_DOWNLINK, {"run.n_frames": 2}).hash
        assert sorted(os.listdir(out)) == ["index.json", "modes.csv", "resolved_config.json",
                                           "smf.csv"]
        for name in ("index.json", "resolved_config.json"):
            assert json.load(open(os.path.join(out, name)))["scenario_hash"] == stamp
        for name in ("modes.csv", "smf.csv"):
            lines = open(os.path.join(out, name)).read().splitlines()
            assert lines[0] == f"# scenario={stamp}" and len(lines) == 2 + 2


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
                                      "topology.n_inputs", "wdm.target_ber",
                                      "receiver.floor_duty"])
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
        a_dir = tmp_path / "o3" / "modes.csv"  # in place of a file synth writes
        a_dir.mkdir(parents=True)
        for config, out, named in ((not_utf8, tmp_path / "o1", not_utf8),
                                   (tmp_path, tmp_path / "o2", tmp_path),
                                   (good, a_file, a_file),
                                   (good, a_dir.parent, a_dir)):
            assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error: ") and str(named) in err
            assert "Traceback" not in err
        assert not (tmp_path / "o1").exists() and not (tmp_path / "o2").exists()

    def test_psd_peak_overflow_exits_2(self, tmp_path, capsys, monkeypatch):
        # rejected by the validator, before the run directory or the basis
        def no_basis(*args, **kwargs):
            raise AssertionError("ModeBasis.build called")

        monkeypatch.setattr(ModeBasis, "build", no_basis)
        cfg = dict(TINY, atmosphere={"outer_scale_m": 1e90})
        assert self._run(tmp_path, cfg, "synth") == [2]
        err = capsys.readouterr().err
        assert err.startswith("configuration error: atmosphere.outer_scale_m: ")
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, field", [("atmosphere", "total_r0_m"),
                                                ("run", "frame_rate_hz")])
    def test_near_constant_traces_run_the_chain(self, tmp_path, section, field):
        # no turbulence, or frames too close in time to differ: each trace
        # spreads over a few ulps, which numpy cannot cut into 40 bins
        cfg = dict(TINY, ber={"window_len": 3})
        cfg[section] = dict(cfg.get(section, {}), **{field: 1e15})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        common = ["--config", str(path), "--out", str(tmp_path / "run")]
        argvs = [[*command, *common] for command in (["synth"], ["couple"], ["couple", "--lossy"],
                                                     ["ber"], ["wdm", "--scan"], ["wdm", "--link"])]
        argvs.append(["report", "--out", str(tmp_path / "run")])
        probe = f"from fsolink.cli import main\nprint([main(argv) for argv in {argvs!r}])\n"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        run = subprocess.run([sys.executable, "-W", "error", "-c", probe], env=env,
                             capture_output=True, text=True, timeout=300)
        assert (run.returncode, run.stdout, run.stderr) == (0, f"{[0] * len(argvs)}\n", "")
        summary = json.loads((tmp_path / "run" / "couple_summary.json").read_text())
        for rx in summary["receivers"].values():  # 40 bins of finite width hold every frame
            edges = np.array(rx["histogram"]["bin_edges_db"])
            assert edges.size == 41 and (np.diff(edges) > 0).all()
            assert sum(rx["histogram"]["counts"]) == 4

    def test_truncated_dataset_exits_4_naming_modes_csv(self, tmp_path, capsys):
        cfg = dict(TINY, run=dict(TINY["run"], n_frames=8), ber={"window_len": 3})
        assert self._run(tmp_path, cfg, "synth") == [0]
        run = tmp_path / "run"
        for name in ("modes.csv", "smf.csv"):  # the stamp, the header and 5 data rows
            lines = (run / name).read_text().splitlines(keepends=True)
            (run / name).write_text("".join(lines[:7]))
        assert self._run(tmp_path, cfg, "couple", "ber") == [4, 4]
        err = capsys.readouterr().err
        assert err.count(f"contract violation: {run / 'modes.csv'}: 5 data rows") == 2
        assert "Traceback" not in err
        assert not (run / "couple_summary.json").exists()

    def test_dpsk_link_penalties_are_numeric(self, tmp_path):
        cfg = dict(TINY, run=dict(TINY["run"], n_frames=12), receiver={"format": "dpsk"},
                   wdm={"mismatch_mm": 1.0})
        assert self._run(tmp_path, cfg, "synth") == [0]
        out = str(tmp_path / "run")
        assert main(["wdm", "--config", str(tmp_path / "scenario.json"), "--out", out,
                     "--link"]) == 0
        report = json.load(open(os.path.join(out, "wdm_report.json")))["link"]
        for eff, pen in zip(report["line_efficiency"], report["penalty_vs_single_db"]):
            assert eff == pytest.approx(0.75, abs=1e-3)
            assert pen == pytest.approx(-10.0 * math.log10(eff), rel=1e-12)
        assert main(["report", "--out", out]) == 0
        text = open(os.path.join(out, "report.md")).read()
        assert "n/a" not in text
        assert "- per-line penalty vs single wavelength: 1.251 dB, 1.251 dB" in text

    @pytest.mark.parametrize("order", [("--scan", "--link"), ("--link", "--scan")])
    def test_wdm_report_keeps_both_modes(self, tmp_path, order):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(TINY))
        reports = []
        for out in (tmp_path / "a", tmp_path / "b"):
            for mode in order:
                assert main(["wdm", "--config", str(path), "--out", str(out), mode]) == 0
            assert main(["report", "--out", str(out)]) == 0
            text = (out / "report.md").read_text()
            assert "scan peak at" in text and "per-line efficiencies" in text
            reports.append((out / "wdm_report.json").read_bytes())
        # rerunning the pair in place changes nothing
        for mode in order:
            assert main(["wdm", "--config", str(path), "--out", str(tmp_path / "a"), mode]) == 0
        reports.append((tmp_path / "a" / "wdm_report.json").read_bytes())
        assert reports[0] == reports[1] == reports[2]
        report = json.loads(reports[0])
        assert sorted(report) == ["link", "scan", "scenario_hash", "version"]
        # a report written for another scenario is replaced, not merged
        assert main(["wdm", "--config", str(path), "--out", str(tmp_path / "a"),
                     "--seed", "6", order[1]]) == 0
        report = json.load(open(tmp_path / "a" / "wdm_report.json"))
        assert order[1].strip("-") in report and order[0].strip("-") not in report

    def test_corrupted_artifacts_exit_4_naming_the_file(self, tmp_path, capsys):
        cfg = dict(TINY, ber={"window_len": 3})
        assert self._run(tmp_path, cfg, "synth", "wdm") == [0, 0]
        config, run = str(tmp_path / "scenario.json"), tmp_path / "run"
        def last_value(text):  # the file's last value replaced by text
            return lambda raw: raw[: raw.rindex(b",") + 1] + text + b"\n"

        corruptions = [
            ("modes.csv", last_value(b"abc")),
            ("smf.csv", lambda raw: raw + b"\xff"),
            ("smf.csv", last_value(b"nan")),
            ("wdm_report.json", lambda raw: raw[:-5]),
        ]
        for k, (name, corrupt) in enumerate(corruptions):
            clone = tmp_path / f"clone{k}"
            shutil.copytree(run, clone)
            (clone / name).write_bytes(corrupt((clone / name).read_bytes()))
            command = (["report", "--out", str(clone)] if name.endswith(".json")
                       else ["couple", "--config", config, "--out", str(clone)])
            assert main(command) == 4, name
            err = capsys.readouterr().err
            assert err.startswith("contract violation: ") and str(clone / name) in err
            assert "Traceback" not in err

    def test_unstamped_wdm_report_exits_4(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "wdm_report.json").write_text('{"scan": {}}\n')
        assert self._run(tmp_path, TINY, "wdm") == [4]
        err = capsys.readouterr().err
        assert err == f"contract violation: {run / 'wdm_report.json'}: missing scenario stamp\n"

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
        cfg = {"run": {"seed": 1, "n_frames": 2}, "grid": {"n": 64},
               "ber": {"window_len": 3, "window_stride": 1}}
        assert self._run(tmp_path, cfg, "synth") == [0]
        run = tmp_path / "run"
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        assert self._run(tmp_path, cfg, "ber") == [2]
        err = capsys.readouterr().err
        assert "1 s of trace" in err and "Traceback" not in err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_manual_ber_window_checked_before_the_dataset(self, tmp_path, capsys):
        # no synth has run: an out-of-range window exits 2, not 3
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(TINY))
        ber = ["ber", "--config", str(path), "--out", str(tmp_path / "run")]
        assert main([*ber, "--window", "0:5"]) == 2
        assert capsys.readouterr().err == "configuration error: window: window 0:5 outside 0..4\n"
        assert main([*ber, "--window", "0:4"]) == 3


def _cli_under_warnings_as_errors(tmp_path, cfg, *args):
    """Run one CLI command in a new process under -W error; returns the exit
    code, stderr and the tracemalloc peak (bytes) of the command itself."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    argv = [*args, "--config", str(path), "--out", str(tmp_path / "run")]
    probe = ("import sys, tracemalloc\n"
             "from fsolink.cli import main\n"
             "tracemalloc.start()\n"
             f"code = main({argv!r})\n"
             "print(tracemalloc.get_traced_memory()[1])\n"
             "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-W", "error", "-c", probe], env=env,
                         capture_output=True, text=True, timeout=300)
    return run.returncode, run.stderr, int(run.stdout or 0)


class TestRejectedBeforeWork:
    """Scenarios the validator accepts but the run cannot hold exit 2 under
    -W error, with no traceback and no warning."""

    def test_extreme_wind_speed_exits_2(self, tmp_path):
        cfg = {"run": {"seed": 1, "n_frames": 3, "frame_rate_hz": 1.0}, "grid": {"n": 64},
               "atmosphere": {"wind_speed_mps": 1e307},
               "ber": {"window_len": 3, "window_stride": 1}}
        code, err, _ = _cli_under_warnings_as_errors(tmp_path, cfg, "synth")
        assert code == 2, err
        assert err.startswith("configuration error: wind_speed_mps: ")
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize("window, named", [("auto", "ber.window_len"), ("0:1000", "window")])
    def test_ber_sweep_above_cap_exits_2(self, tmp_path, window, named):
        # 150001 setpoints x 1000 frames, 1.2 GB per float64 grid, all of it
        # accepted by the validator; rejected before the dataset is read
        cfg = {"run": {"seed": 1, "n_frames": 1000}, "grid": {"n": 64},
               "ber": {"rop_start_dbm": -120.0, "rop_stop_dbm": 30.0, "rop_step_db": 0.001,
                       "window_len": 1000}}
        code, err, peak = _cli_under_warnings_as_errors(tmp_path, cfg, "ber", "--window", window)
        assert code == 2, err
        assert err.startswith(f"configuration error: {named}: 150001 setpoints")
        assert "Traceback" not in err and "Warning" not in err
        assert peak < 4e6

    @pytest.mark.parametrize("mode, field, value, named", [
        ("--scan", "center_wavelength_nm", 1e300, "wdm.center_wavelength_nm"),
        ("--link", "line_spacing_ghz", 1e30, "wdm.line_spacing_ghz"),
        ("--scan", "band_width_nm", 5000.0, "wdm.band_width_nm"),
    ])
    def test_wdm_spectrum_out_of_range_exits_2(self, tmp_path, mode, field, value, named):
        # named by the validator, before any work
        cfg = {"run": {"seed": 1, "n_frames": 2}, "grid": {"n": 64}, "wdm": {field: value}}
        code, err, _ = _cli_under_warnings_as_errors(tmp_path, cfg, "wdm", mode)
        assert code == 2, err
        assert err.startswith(f"configuration error: {named}: ")
        assert "Traceback" not in err and "Warning" not in err
        assert not (tmp_path / "run").exists()

    def test_scan_range_short_of_the_mismatch_exits_2(self, tmp_path):
        # --link runs on the same scenario, so the validator cannot reject it
        cfg = {"run": {"seed": 1, "n_frames": 2}, "grid": {"n": 64}, "wdm": {"mismatch_mm": 10.0}}
        code, err, _ = _cli_under_warnings_as_errors(tmp_path, cfg, "wdm", "--scan")
        assert code == 2, err
        assert err.startswith("configuration error: wdm.scan_range_mm: scan range +-0.006 m ")
        assert "Traceback" not in err and "Warning" not in err
        assert _cli_under_warnings_as_errors(tmp_path, cfg, "wdm", "--link")[0] == 0

    def test_top_altitude_beyond_the_karman_line_exits_2(self, tmp_path):
        cfg = {"run": {"seed": 1, "n_frames": 2}, "grid": {"n": 64},
               "atmosphere": {"top_altitude_m": 1e308}}
        code, err, _ = _cli_under_warnings_as_errors(tmp_path, cfg, "synth")
        assert code == 2, err
        assert err.startswith("configuration error: atmosphere.top_altitude_m: ")
        assert "Traceback" not in err and "Warning" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("topology", [{"pic_insertion_loss_db": 4000.0},
                                          {"pic_insertion_loss_db": 1e308,
                                           "demux_insertion_loss_db": 1e308}],
                             ids=["4000-dB", "1e308-each"])
    def test_insertion_loss_beyond_range_exits_2(self, tmp_path, topology):
        cfg = {"run": {"seed": 1, "n_frames": 2}, "grid": {"n": 64}, "topology": topology}
        code, err, _ = _cli_under_warnings_as_errors(tmp_path, cfg, "couple", "--lossy")
        assert code == 2, err
        assert err.startswith("configuration error: topology.pic_insertion_loss_db: ")
        assert "Traceback" not in err and "Warning" not in err

    def test_memory_error_exits_2_naming_the_command(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "run_synth", exhausted)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(TINY))
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: synth: out of memory")
        assert "Traceback" not in err


def _tree(out: Path) -> dict:
    """Every file under out: {relative path: bytes}."""
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


class TestFailedCommandWritesNothing:
    """A command that fails after it has built the text of its first
    artifact leaves the run directory's names and bytes as they were: it
    writes nothing until its last check has passed."""

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("dataset")
        config = tmp / "scenario.json"
        config.write_text(json.dumps(dict(TINY, ber={"window_len": 3})))
        assert main(["synth", "--config", str(config), "--out", str(tmp / "run")]) == 0
        return str(config), tmp / "run"

    # the JSON text that fails is built after the text of at least one CSV
    # artifact: modes.csv and smf.csv for synth (whose second JSON artifact
    # is index.json), every curve or trace for couple and ber, wdm_scan.csv
    @pytest.mark.parametrize("args, failing_dump", [
        (("synth", "--seed", "6"), 2),
        (("couple",), 1),
        (("ber",), 1),
        (("wdm", "--scan"), 1),
    ], ids=["synth", "couple", "ber", "wdm-scan"])
    def test_run_directory_unchanged(self, dataset, tmp_path, monkeypatch, args, failing_dump):
        config, base = dataset
        out = tmp_path / "run"
        shutil.copytree(base, out)
        before = _tree(out)
        calls = []

        def dumps(*a, **k):
            calls.append(a)
            if len(calls) == failing_dump:
                raise NumericalContractError("injected failure")
            return json.dumps(*a, **k)

        monkeypatch.setattr(cli, "json", SimpleNamespace(loads=json.loads, dumps=dumps))
        assert main([args[0], "--config", config, "--out", str(out), *args[1:]]) == 4
        assert len(calls) == failing_dump
        assert _tree(out) == before

    # a write that fails in _commit itself: synth's first and last artifact
    @pytest.mark.parametrize("name", ["modes.csv", "index.json"])
    def test_directory_in_place_of_an_artifact(self, dataset, tmp_path, capsys, name):
        config, base = dataset
        out = tmp_path / "run"
        shutil.copytree(base, out)
        (out / name).unlink()
        (out / name).mkdir()
        before = _tree(out)
        assert main(["synth", "--config", config, "--out", str(out), "--seed", "6"]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: {out / name}: cannot read or write it: Is a directory\n"
        assert _tree(out) == before and (out / name).is_dir()

    def test_stale_temporary_files_are_replaced(self, dataset, tmp_path):
        # what a run killed inside _commit leaves; the artifacts get the
        # mode open() gives a new file, as a command wrote them in place
        config, base = dataset
        out = tmp_path / "run"
        out.mkdir()
        for name in ("modes.csv", "index.json"):
            (out / f".{name}.tmp").write_text("stale")
        (out / "made_by_open").write_text("")
        assert main(["synth", "--config", config, "--out", str(out)]) == 0
        assert _tree(out) == dict(_tree(base), made_by_open=b"")
        mode = (out / "made_by_open").stat().st_mode
        assert all(p.stat().st_mode == mode for p in out.iterdir())


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
        # ber never had a use for --lossy: a constant loss cancels in every
        # curve and replay, which centre each trace on its own mean
        for command, flag in (("couple", "--lossless"), ("ber", "--lossy")):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", "x.json", "--out", str(tmp_path), flag])
            assert exc.value.code == 2


def _row_writer_text(stamp, header, rows):
    """A CSV artifact as the row writer wrote it: repr(float(v)) for a
    float, str(v) for any other value."""
    lines = [f"# scenario={stamp}", ",".join(header)]
    lines += [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


class TestCsvWriter:
    """_csv writes columns with the text the row writer gave each value."""

    def test_columns_written_as_the_row_writer_did(self):
        scenario = scenario_from_dict({"run": {"seed": 1}})
        columns = {
            "py_int": [0, 1, 2, 3, 7],
            "arange": np.arange(5),
            "py_float": [0.5, 1.0, -2.25, 1e-7, 123456789.125],
            "float64": np.array([0.1 + 0.2, -0.0, 5e-324, 1e-300, 1e308]),
            "zeros": np.zeros(5, dtype=np.int64),
        }
        text = _csv(scenario, list(columns), list(columns.values()))
        # iterating an array gives numpy scalars, as the row writer was passed
        rows = list(zip(*columns.values()))
        assert isinstance(rows[0][3], np.float64) and isinstance(rows[0][4], np.int64)
        assert text == _row_writer_text(scenario.hash, list(columns), rows)
        data = [line.split(",") for line in text.splitlines()[2:]]
        assert [r[3] for r in data] == ["0.30000000000000004", "-0.0", "5e-324", "1e-300",
                                        "1e+308"]
        assert {r[4] for r in data} == {"0"}

    def test_header_and_stamp_without_rows(self):
        scenario = scenario_from_dict({"run": {"seed": 1}})
        text = _csv(scenario, ["a", "b"], [[], np.arange(0)])
        assert text == _row_writer_text(scenario.hash, ["a", "b"], [])

    @pytest.mark.parametrize("column", [np.array([True, False]), np.array(["a", "b"]),
                                        np.array([1 + 2j, 0j]), [None, None],
                                        np.zeros((2, 1))],
                             ids=["bool", "str", "complex", "object", "2-D"])
    def test_other_columns_are_a_type_error(self, column):
        scenario = scenario_from_dict({"run": {"seed": 1}})
        with pytest.raises(TypeError, match="CSV column"):
            _csv(scenario, ["a", "b"], [np.arange(2), column])


class TestParserReuse:
    """main reuses one parser, and no call's options reach the next call."""

    @staticmethod
    def _dataset(synth_run, out):
        os.makedirs(out)
        for name in ("modes.csv", "smf.csv", "index.json", "resolved_config.json"):
            shutil.copy(os.path.join(synth_run, name), out)
        return out

    def test_options_do_not_carry_over(self, small_config, synth_run, tmp_path):
        assert _build_parser() is _build_parser()
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        common = ["--config", small_config]
        out = self._dataset(synth_run, str(tmp_path / "run"))
        plain = self._dataset(synth_run, str(tmp_path / "plain"))

        assert main(["couple", *common, "--out", out, "--modes", "2"]) == 0
        assert main(["couple", *common, "--out", out]) == 0
        summary = json.load(open(os.path.join(out, "couple_summary.json")))
        assert sorted(summary["receivers"]) == ["mm10", "mm15", "mm3", "mm6", "smf"]
        assert summary["lossless"]
        for n in (3, 6, 10, 15):
            assert os.path.exists(os.path.join(out, f"couple_mm{n}.csv"))

        def ber_files(run):
            return {name: open(os.path.join(run, name)).read()
                    for name in os.listdir(run) if name.startswith("ber_")}

        assert main(["ber", *common, "--out", plain]) == 0
        default = ber_files(plain)
        assert main(["ber", *common, "--out", out, "--modes", "6"]) == 0
        windows = json.load(open(os.path.join(out, "ber_report.json")))["windows"]
        assert windows and all(sorted(w["receivers"]) == ["mm6", "smf"] for w in windows.values())
        assert main(["ber", *common, "--out", out]) == 0
        assert ber_files(out) == default

        assert main(["wdm", *common, "--out", out, "--link"]) == 0
        assert main(["wdm", *common, "--out", out]) == 0
        assert sorted(json.load(open(os.path.join(out, "wdm_report.json")))) == [
            "link", "scan", "scenario_hash", "version"]
        assert os.path.exists(os.path.join(out, "wdm_scan.csv"))

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


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

    # atmosphere.top_altitude_m's bound and the float past it, which the
    # derandomized draws do not reach
    @example(cfg=dict(TINY, ber={"window_len": 3}, atmosphere={"top_altitude_m": 1e5}),
             modes=[6])
    @example(cfg=dict(TINY, ber={"window_len": 3},
                      atmosphere={"top_altitude_m": math.nextafter(1e5, math.inf)}), modes=[6])
    @given(cfg=_faulty_scenarios(), modes=st.lists(st.integers(-1, 16), min_size=1, max_size=4))
    @settings(max_examples=500, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_chain_exits_with_documented_codes(self, cfg, modes):
        codes = _chain_codes(cfg, modes)
        assert set(codes) <= {0, 2, 3, 4}, codes


def _chain_codes(cfg, modes=(6,)):
    """The exit codes of the whole CLI chain on scenario cfg, synth's first."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "scenario.json"), os.path.join(tmp, "run")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        modes_arg = "--modes=" + ",".join(map(str, modes))
        common = ["--config", path, "--out", out]
        return [
            main(["synth", *common]),
            main(["couple", *common, modes_arg]),
            main(["couple", *common, modes_arg, "--lossy"]),
            main(["ber", *common, modes_arg]),
            main(["wdm", *common, "--scan"]),
            main(["wdm", *common, "--link"]),
            main(["report", "--out", out]),
        ]


def _bounds():
    """(section, field, bound, values past it) for each lo and hi in SCHEMA:
    the float just past the bound, and for an integer field the integer too."""
    for section, fields in SCHEMA.items():
        for field, (_, check) in fields.items():
            kw = getattr(check, "keywords", {})
            for side, sign in (("lo", -1), ("hi", 1)):
                bound = kw.get(side)
                if bound is not None:
                    past = [math.nextafter(bound, sign * math.inf)]
                    past += [bound + sign] if kw.get("integer") else []
                    yield pytest.param(section, field, bound, past,
                                       id=f"{section}.{field}-{side}")


class TestEveryBound:
    """Each field's bounds run the chain, and the value just past one stops synth."""

    @pytest.mark.parametrize("section, field, bound, past", _bounds())
    def test_bound_runs_and_the_value_past_it_is_named(self, capsys, section, field, bound, past):
        base = dict(TINY, ber={"window_len": 3})

        def at(value):
            return dict(base, **{section: dict(base.get(section, {}), **{field: value})})

        codes = _chain_codes(at(bound))
        assert set(codes) <= {0, 2, 3, 4}, codes
        for value in past:
            capsys.readouterr()
            codes = _chain_codes(at(value))
            assert codes[0] == 2 and set(codes) <= {0, 2, 3, 4}, (value, codes)
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: {section}.{field}"), (value, err)


# every artifact a command after synth reads
CORRUPTIBLE = ("modes.csv", "smf.csv", "resolved_config.json", "index.json",
               "couple_summary.json", "ber_report.json", "wdm_report.json")
NUMBER = re.compile(rb"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


@pytest.fixture(scope="module")
def chain_run(tmp_path_factory):
    """A complete run directory of the chain property's base scenario."""
    tmp = tmp_path_factory.mktemp("corrupt")
    path, out = str(tmp / "scenario.json"), str(tmp / "run")
    with open(path, "w") as fh:
        json.dump(dict(TINY, ber={"window_len": 3}), fh)
    common = ["--config", path, "--out", out]
    for command in (["synth"], ["couple"], ["ber"], ["wdm", "--scan"], ["wdm", "--link"]):
        assert main([*command, *common]) == 0
    return path, out


class TestCorruptedArtifactProperty:
    """No corrupted artifact ends in a traceback or an undocumented code."""

    @given(data=st.data())
    @settings(max_examples=500, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_commands_exit_with_documented_codes(self, chain_run, data):
        config, base = chain_run
        name = data.draw(st.sampled_from(CORRUPTIBLE), label="artifact")
        kind = data.draw(st.sampled_from(["abc", "truncate", "0xff", "drop field", "directory"]),
                         label="kind")
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "run")
            shutil.copytree(base, out)
            path = os.path.join(out, name)
            with open(path, "rb") as fh:
                raw = fh.read()
            if kind == "directory":
                os.remove(path)
                os.mkdir(path)
            elif kind == "abc":
                value = data.draw(st.sampled_from(list(NUMBER.finditer(raw))), label="value")
                raw = raw[: value.start()] + b"abc" + raw[value.end() :]
            elif kind == "truncate":
                raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
            elif kind == "0xff":
                raw += b"\xff"
            else:
                lines = raw.split(b"\n")
                k = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line]),
                              label="row")
                row = lines[k].split(b",")
                del row[data.draw(st.integers(0, len(row) - 1), label="field")]
                lines[k] = b",".join(row)
                raw = b"\n".join(lines)
            if kind != "directory":
                with open(path, "wb") as fh:
                    fh.write(raw)
            common = ["--config", config, "--out", out]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                codes = [
                    main(["report", "--out", out]),
                    main(["couple", *common]),
                    main(["ber", *common]),
                    main(["wdm", *common, "--link"]),
                    main(["report", "--out", out]),
                ]
        assert set(codes) <= {0, 2, 3, 4}, codes
        assert "Traceback" not in err.getvalue()


# one non-default value per option of each subcommand, as its arguments;
# --config and --out name the scenario file and the run directory, whose
# fields test_scenario.test_every_field_changes_an_artifact covers
OPTION_VALUES = {
    ("synth", "--seed"): ["--seed", "6"],
    ("synth", "--frames"): ["--frames", "5"],
    ("couple", "--seed"): ["--seed", "6"],
    ("couple", "--frames"): ["--frames", "5"],
    ("couple", "--modes"): ["--modes", "3"],
    ("couple", "--lossy"): ["--lossy"],
    ("ber", "--seed"): ["--seed", "6"],
    ("ber", "--frames"): ["--frames", "5"],
    ("ber", "--modes"): ["--modes", "6"],
    ("ber", "--window"): ["--window", "0:3"],
    ("wdm", "--seed"): ["--seed", "6"],
    ("wdm", "--frames"): ["--frames", "5"],
    ("wdm", "--scan"): ["--scan"],
    ("wdm", "--link"): ["--link"],
}
ADDRESSES = ("--config", "--out")
# what a run with an option is compared with: the command's defaults, but
# for --scan, wdm's default mode, which is compared with --link
OPTION_REFERENCE = {("wdm", "--scan"): ["--link"]}
OPTION_BASE = dict(TINY, run=dict(TINY["run"], n_frames=6), ber={"window_len": 3})


def _parser_options() -> set:
    """(command, option) for every option of every subcommand but help."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {(command, option) for command, parser in sub.choices.items()
            for action in parser._actions if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings}


def _option_run(tmp: Path, command, args) -> dict:
    """synth, given those of args it accepts, then command with args; the
    artifacts command wrote or changed, decoded, scenario stamps included."""
    tmp.mkdir()
    config = tmp / "scenario.json"
    config.write_text(json.dumps(OPTION_BASE))
    out = tmp / "run"
    common = ["--config", str(config), "--out", str(out)]
    before = {}
    if command != "synth":
        synth_args = args if args and ("synth", args[0]) in _parser_options() else []
        assert main(["synth", *common, *synth_args]) == 0
        before = _tree(out)
    assert main([command, *common, *args]) == 0
    return {name: pins.decode(out / name) for name, data in _tree(out).items()
            if before.get(name) != data}


def _values_differ(a, b) -> bool:
    """Whether two decoded artifacts differ: in structure, in a string or
    in a number beyond a relative 1e-9."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() != b.keys() or any(_values_differ(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) != len(b) or any(map(_values_differ, a, b))
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        return not math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)
    return a != b


def test_option_table_covers_the_parser():
    addresses = {(c, o) for c, o in _parser_options() if o in ADDRESSES}
    assert set(OPTION_VALUES) | addresses == _parser_options()
    assert not set(OPTION_VALUES) & addresses


@pytest.mark.parametrize("command, option", sorted(OPTION_VALUES))
def test_every_option_changes_an_artifact_value(tmp_path, command, option):
    # wdm reads no dataset: its --seed and --frames act through the stamp,
    # which lets report accept its artifacts beside the rest of the run
    reference = _option_run(tmp_path / "reference", command,
                            OPTION_REFERENCE.get((command, option), []))
    changed = _option_run(tmp_path / "changed", command, OPTION_VALUES[(command, option)])
    assert _values_differ(changed, reference), f"{command} {option} changes no artifact value"
