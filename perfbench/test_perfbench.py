"""The benchmark's own checks: a perturbed or failing result is counted as failed.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fsolink import controller, turbulence  # noqa: E402


@pytest.fixture()
def frame():
    powers = np.linspace(0.02, 0.001, 15)
    return np.concatenate([powers, [0.05, 0.17]])


def test_frame_matching_its_reference_passes(frame):
    assert workloads.check_frame(frame, frame.copy())
    assert workloads.check_frame(frame)


@pytest.mark.parametrize("index,scale", [(0, 1 + 1e-6), (14, 1.5), (15, 1 - 1e-6), (16, 1 + 1e-7)])
def test_scaled_frame_result_fails(frame, index, scale):
    perturbed = frame.copy()
    perturbed[index] *= scale
    assert not workloads.check_frame(perturbed, frame)


@pytest.mark.parametrize("index,value", [(3, np.nan), (3, -1e-3), (16, 0.0), (16, 1.2)])
def test_frame_breaking_an_invariant_fails(frame, index, value):
    broken = frame.copy()
    broken[index] = value
    assert not workloads.check_frame(broken)


def block(**changes):
    result = {"eff_db": -3.5, "wraps": 4, "digest": "0123456789abcdef", "bounded": True}
    result.update(changes)
    return result


def test_block_checks():
    reference = block()
    assert workloads.check_block(block(), reference)
    assert workloads.check_block(block(eff_db=-3.49), reference)
    assert not workloads.check_block(block(eff_db=-3.6), reference)
    assert not workloads.check_block(block(wraps=5), reference)
    assert not workloads.check_block(block(bounded=False))
    assert not workloads.check_block(block(digest="fedcba9876543210"), reference, exact=True)


def test_sweep_checks():
    assert workloads.check_sweep(0.95, 0.9505)
    assert not workloads.check_sweep(0.95, 0.96)
    assert not workloads.check_sweep(0.95 + 1e-12, 0.95, exact=True)
    assert not workloads.check_sweep(1.01)


@pytest.mark.parametrize("main", [
    lambda argv: 2,
    lambda argv: (_ for _ in ()).throw(SystemExit(2)),
    lambda argv: (_ for _ in ()).throw(RuntimeError("traceback")),
])
def test_failing_cli_command_is_counted(tmp_path, main):
    (tmp_path / "configs").mkdir()
    shutil.copy(HERE.parent / workloads.CONFIG, tmp_path / workloads.CONFIG)
    lib = workloads.Lib()
    lib.main = {args[0]: main for args in workloads.CHAIN}
    result = workloads.pipeline256(0, 1e-3, lib, root=str(tmp_path))
    assert result.attempted >= workloads.SETUPS + len(workloads.CHAIN)
    assert result.failed == result.attempted


def test_artifacts_must_carry_one_hash(tmp_path):
    def write(h_csv, h_json, h_md):
        (tmp_path / "modes.csv").write_text(f"# scenario={h_csv}\nframe\n")
        (tmp_path / "index.json").write_text(json.dumps({"scenario_hash": h_json}))
        (tmp_path / "report.md").write_text(f"- scenario hash: `{h_md}`\n")

    names = ("modes.csv", "index.json", "report.md")
    write("ab12", "ab12", "ab12")
    assert workloads.check_artifacts(str(tmp_path), "ab12", names)
    assert not workloads.check_artifacts(str(tmp_path), "ab12", names + ("smf.csv",))
    write("ab12", "cd34", "ab12")
    assert not workloads.check_artifacts(str(tmp_path), "ab12", names)


def test_self_times_add_up_and_patches_are_restored():
    tracer = tracing.Tracer()
    inner = tracer.wrap("field.inner", lambda: sum(range(1000)))
    outer = tracer.wrap("modes.outer", lambda: [inner() for _ in range(3)])
    originals = turbulence.angular_spectrum_propagate, controller.combine
    with tracer.patched(), tracer.span(tracing.ROOT):
        assert controller.combine is not originals[1]
        outer()
    assert (turbulence.angular_spectrum_propagate, controller.combine) == originals
    spans = tracing.Spans(tracer)
    assert sum(spans.layer_self().values()) == pytest.approx(spans.root_duration(), rel=1e-9)
    assert spans.count("field.inner") == 3
    assert spans.self_total("modes.outer") < spans.total("modes.outer")


def test_untraced_lib_calls_the_package_directly():
    lib = workloads.Lib()
    assert lib.decompose is workloads.decompose
    assert lib.run_closed_loop is workloads.run_closed_loop


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(19))) == (None, None)
    q, value = run.tail(list(range(40)))
    assert q == 75 and sum(s > value for s in range(40)) >= 10
