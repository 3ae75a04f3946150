"""The shipped demo chain, pinned: every artifact of every command.

The chain runs synth, couple, couple --lossy, ber, wdm --scan, wdm --link
and report on configs/demo.json at --frames 8 --seed 3.  After each
command, the files it wrote or changed are compared with demo_chain.json:
by SHA-256 when the table holds digests for this numpy, scipy and SIMD
dispatch (frame bits depend on all three), otherwise by their decoded
CSV/JSON values, numbers at rtol=1e-12.  The test never skips.

A change that moves results on purpose records the table again
(`PYTHONPATH=src python tests/test_demo_chain.py --record`) and says so.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from fsolink.cli import main

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("demo_chain.json")
RTOL = 1e-12
CHAIN = (
    ("synth",), ("couple",), ("couple", "--lossy"), ("ber",),
    ("wdm", "--scan"), ("wdm", "--link"), ("report",),
)
NAMES = [" ".join(args) for args in CHAIN]


def platform_key() -> str:
    """numpy and scipy versions and numpy's active SIMD dispatch targets."""
    from numpy._core import _multiarray_umath as umath
    active = {name for name, on in umath.__cpu_features__.items() if on}
    simd = "+".join(sorted(set(umath.__cpu_dispatch__) & active))
    return f"numpy {np.__version__} scipy {scipy.__version__} {simd}"


def _decode(path: Path):
    """A CSV artifact as its lines of cells (numbers where they parse), a
    JSON artifact as its object, report.md as its text."""
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    if path.suffix == ".csv":
        return [[_number(cell) for cell in line.split(",")] for line in text.splitlines()]
    return text


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def _same(got, want, where):
    """Recursive comparison: numbers at RTOL, everything else exactly."""
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), f"{where}: {got!r} vs {want!r}"
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{k}]")
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for k in want:
            _same(got[k], want[k], f"{where}.{k}")
    else:
        assert got == want, where


def run_chain(out: Path) -> list:
    """Run the chain into out; per command, {artifact: (sha256, decoded)} of
    the files it wrote or changed."""
    config = str(ROOT / "configs" / "demo.json")
    steps, seen = [], {}
    for args in CHAIN:
        argv = [args[0]]
        if args[0] != "report":
            argv += ["--config", config, "--frames", "8", "--seed", "3"]
        code = main(argv + ["--out", str(out), *args[1:]])
        assert code == 0, f"{' '.join(args)} exited {code}"
        changed = {}
        for path in sorted(out.rglob("*")):
            if path.is_file():
                name = path.relative_to(out).as_posix()
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                if seen.get(name) != digest:
                    changed[name] = (digest, _decode(path))
                    seen[name] = digest
        steps.append(changed)
    return steps


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    return run_chain(tmp_path_factory.mktemp("demo"))


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text())


def test_each_command_writes_the_recorded_artifacts(chain, table):
    assert [sorted(step) for step in chain] == [sorted(table["values"][n]) for n in NAMES]


def test_artifacts_match_the_recorded_digests_or_values(chain, table):
    digests = table["digests"].get(platform_key())
    for name, step in zip(NAMES, chain):
        for artifact, (digest, decoded) in step.items():
            if digests is not None:
                assert digest == digests[name][artifact], f"{name}: {artifact}"
            else:
                _same(decoded, table["values"][name][artifact], f"{name}: {artifact}")


def test_artifacts_match_the_recorded_values(chain, table):
    """The comparison a platform without digests falls back to, run on every one."""
    for name, step in zip(NAMES, chain):
        for artifact, (_, decoded) in step.items():
            _same(decoded, table["values"][name][artifact], f"{name}: {artifact}")


def record(out: Path):
    """Write the table for this platform: its digests, and the decoded
    values every platform falls back to."""
    steps = run_chain(out)
    values = {n: {a: v for a, (_, v) in s.items()} for n, s in zip(NAMES, steps)}
    table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    if table.get("values") != values:  # moved results void every platform's digests
        table = {"digests": {}, "values": values}
    table["digests"][platform_key()] = {
        n: {a: d for a, (d, _) in s.items()} for n, s in zip(NAMES, steps)}
    steps = ["  %s: {\n%s\n  }" % (json.dumps(n), ",\n".join(  # one line per artifact
        f"   {json.dumps(a)}: {json.dumps(v, sort_keys=True)}" for a, v in sorted(s.items())))
        for n, s in table["values"].items()]
    digests = json.dumps(table["digests"], indent=1, sort_keys=True).replace("\n", "\n ")
    TABLE.write_text('{\n "digests": %s,\n "values": {\n%s\n }\n}\n' % (digests, ",\n".join(steps)))


if __name__ == "__main__":
    import tempfile
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_demo_chain.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
    print(f"recorded {TABLE.name} for {platform_key()}")
