"""The public API is what the pipeline reaches.

One pass runs, under sys.setprofile and threading.setprofile (the frame
worker thread renders the phase screens):

- every CLI command on a 64-grid, 4-frame scenario that saves its fields;
- the README "Library use" block at 64 grid and 2 frames;
- one small call of each entry point perfbench/workloads.py imports;

and adds what tests/test_acceptance.py uses, read with ast, not run.  Every
name in a package module's __all__ (the fsolink namespace re-exports eight
of them) and every public method or property of a public class must be
reached or stand in KEPT with the reason it stays public.

A function is reached when its code object ran (keyed by fn.__code__:
co_qualname needs Python 3.11) or the acceptance suite imports it.  A
class, method, property or constant is reached when its code ran or when
a reached user names it: a package function that ran or that the
acceptance suite imports (its co_names), or an attribute the acceptance
suite or the benchmark reads.
"""

import ast
import importlib
import inspect
import json
import pkgutil
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import fsolink

ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays public although the pass does not reach it
# angular_spectrum_propagate and apply_aperture are also the oracle that the
# sequential series of tests/test_turbulence.py checks the time series'
# in-place field chain against, bit for bit
_TRACED = ("perfbench/tracing.py patches it by name; goes with the stage instrumentation "
           "(ROADMAP item 3)")
KEPT = {
    "angular_spectrum_propagate": _TRACED,
    "apply_aperture": _TRACED,
    "apply_phase_screen": _TRACED,
    "read_field_bin": "reads the fields run.save_fields writes",
    "ModeBasis.gram": "the basis' orthonormality, which diagnostics.json reports "
                      "(ROADMAP item 4)",
}

SCENARIO = {
    "run": {"label": "api", "seed": 5, "n_frames": 4, "save_fields": True},
    "grid": {"n": 64},
    "ber": {"window_len": 3, "window_stride": 1},
}
COMMANDS = (
    ("synth",), ("couple",), ("couple", "--lossy"), ("ber",), ("ber", "--window", "0:3"), ("wdm", "--scan"), ("wdm", "--link"), ("report",),
)


def _run_cli(tmp):
    from fsolink.cli import main
    config = tmp / "scenario.json"
    config.write_text(json.dumps(SCENARIO))
    out = str(tmp / "run")
    for args in COMMANDS:
        argv = [args[0]] + (["--config", str(config)] if args[0] != "report" else [])
        assert main(argv + ["--out", out, *args[1:]]) == 0, args


def _run_readme():
    block = re.search(r"## Library use\n+```python\n(.*?)```",
                      (ROOT / "README.md").read_text(), re.S).group(1)
    small = block.replace("GridSpec(512,", "GridSpec(64,").replace("n_frames=100", "n_frames=2")
    assert small.count("GridSpec(64,") == 1 and small.count("n_frames=2") == 1, block
    exec(compile(small, "README.md", "exec"), {})


def _run_workload_entries():
    """One small call of each package entry point the benchmark calls."""
    from fsolink.combiner import CombinerTopology
    from fsolink.controller import ControllerConfig, correction_bandwidth, run_closed_loop
    from fsolink.field import GridSpec, uniform_disc_field
    from fsolink.modes import ModeBasis, decompose, optimize_smf_waist, smf_coupling_efficiency
    from fsolink.scenario import load_scenario
    from fsolink.turbulence import build_time_series, default_profile

    grid = GridSpec(64, 1.0, 1.55e-6)
    basis = ModeBasis.build(grid, aperture_diameter_m=0.5)
    waist, _ = optimize_smf_waist(uniform_disc_field(grid, 0.5))
    frames = build_time_series(default_profile(), grid=grid, n_frames=2, frame_rate_hz=1500.0,
                               seed=1, rx_aperture_m=0.5)
    coeffs = []
    for field in frames:
        coeffs.append(decompose(field, basis).coeffs)
        smf_coupling_efficiency(field, waist)
    config = ControllerConfig(evals_per_frame=20)
    run_closed_loop(np.array(coeffs), CombinerTopology.balanced(15, 0.0, 0.0), config, seed=1)
    correction_bandwidth(1000.0, 1.0, config, seed=1, n_periods=1, settle_periods=0)
    load_scenario(str(ROOT / "configs" / "demo.json"), {"run.seed": 1})


def _imported_names(path):
    """The names a module imports from the package, read with ast."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fsolink"):
            names.update(alias.name for alias in node.names)
    return names


def _attribute_names(path):
    """The attribute names a module reads, read with ast."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


def _package_modules():
    return [importlib.import_module(f"fsolink.{m.name}")
            for m in pkgutil.iter_modules(fsolink.__path__)]


def _census():
    """{name: object} of the public surface: module __all__ names (the fsolink
    namespace is made of them), and public methods and properties of public
    classes."""
    surface = {}
    for mod in _package_modules():
        for name in getattr(mod, "__all__", ()):
            surface[name] = getattr(mod, name)
    for name, obj in list(surface.items()):
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and _code(member) is not None:
                    surface[f"{name}.{attr}"] = member
    return surface


def _code(member):
    """The code object a function, method or property runs, or None."""
    member = getattr(member, "fget", member)
    member = getattr(member, "__func__", member)
    member = inspect.unwrap(member) if callable(member) else member
    return getattr(member, "__code__", None)


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """The code objects the pass ran."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    for mod in _package_modules():  # a warm cache would hide the code that fills it
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    tmp = tmp_path_factory.mktemp("api")
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        _run_cli(tmp)
        _run_readme()
        _run_workload_entries()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return codes


def _unreached(codes):
    """The public names of the census the pass does not reach."""
    surface = _census()
    acceptance = ROOT / "tests" / "test_acceptance.py"
    imported = _imported_names(acceptance) & surface.keys()
    package_dir = str(Path(fsolink.__file__).parent)
    users = {c for c in codes if c.co_filename.startswith(package_dir)}
    users |= {_code(surface[n]) for n in imported} - {None}
    used = {n for c in users for n in c.co_names} | imported
    used |= _attribute_names(acceptance) | _attribute_names(ROOT / "perfbench" / "workloads.py")
    unreached = set()
    for name, obj in surface.items():
        members = vars(obj).values() if inspect.isclass(obj) else [obj]
        ran = any(_code(m) in codes for m in members)
        function = callable(obj) and not inspect.isclass(obj) and "." not in name
        named = not function and name.rsplit(".", 1)[-1] in used
        if not (ran or named or name in imported):
            unreached.add(name)
    return unreached


def test_every_public_name_is_reached_or_kept(reached):
    unreached = _unreached(reached)
    assert unreached - KEPT.keys() == set()


def test_kept_names_are_public_and_not_reached(reached):
    assert KEPT.keys() <= _census().keys()
    assert KEPT.keys() <= _unreached(reached)


def test_the_pass_calls_every_entry_point_of_the_benchmark(reached):
    surface = _census()
    for name in _imported_names(ROOT / "perfbench" / "workloads.py") - {"cli"}:
        obj = surface[name]
        members = vars(obj).values() if inspect.isclass(obj) else [obj]
        assert any(_code(m) in reached for m in members), name


# the modules whose __all__ make up the fsolink namespace, in import order;
# cli and _streams stay out of it
NAMESPACE_MODULES = ("combiner", "comms", "controller", "field", "modes", "scenario",
                     "turbulence", "wdm")


def test_namespace_is_the_modules_all_in_order():
    modules = [importlib.import_module(f"fsolink.{m}") for m in NAMESPACE_MODULES]
    names = [name for mod in modules for name in mod.__all__]
    assert fsolink.__all__ == names
    assert len(set(names)) == len(names)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(fsolink, name) is getattr(mod, name), name


def test_star_import_binds_exactly_the_namespace():
    namespace = {}
    exec("from fsolink import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(fsolink.__all__)


def test_init_spells_out_no_public_name():
    """fsolink/__init__.py imports the namespace modules and their * only."""
    tree = ast.parse(Path(fsolink.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported == {"*", *NAMESPACE_MODULES}
