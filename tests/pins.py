"""Recorded result tables: the digests and values a pinned run must reproduce.

A table maps each step of a run (a CLI command, say) to the artifacts it
wrote.  It holds, per platform, the SHA-256 of every artifact, and once,
every artifact decoded: CSV files as lines of cells, JSON as objects,
report.md as text.  Frame bits depend on the numpy and scipy versions and
on numpy's active SIMD dispatch, so the platform key names all three.  A
run is compared by digest where its platform has a record, and always by
decoded value, numbers at a relative RTOL, so a check never skips.

Tables: demo_chain.json (tests/test_demo_chain.py) and geo_downlink.json
(the 2-frame synth of configs/geo_downlink.json in tests/test_cli.py and
the 1000-frame reference coefficients in tests/test_acceptance.py).  A
change that moves results on purpose records both again with
`PYTHONPATH=src python tests/test_demo_chain.py --record` and says so.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
DEMO_TABLE = HERE / "demo_chain.json"
GEO_TABLE = HERE / "geo_downlink.json"
# the steps of GEO_TABLE
GEO_SYNTH = "synth --frames 2"
GEO_COEFFICIENTS = "reference coefficients"
RTOL = 1e-12


def platform_key() -> str:
    """numpy and scipy versions and numpy's active SIMD dispatch targets."""
    from numpy._core import _multiarray_umath as umath
    active = {name for name, on in umath.__cpu_features__.items() if on}
    simd = "+".join(sorted(set(umath.__cpu_dispatch__) & active))
    return f"numpy {np.__version__} scipy {scipy.__version__} {simd}"


def decode(path: Path):
    """A CSV artifact as its lines of cells (numbers where they parse), a
    JSON artifact as its object, any other file as its text."""
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


def artifact(path: Path) -> tuple:
    """(SHA-256, decoded value) of one artifact file."""
    return hashlib.sha256(path.read_bytes()).hexdigest(), decode(path)


def same(got, want, where):
    """Recursive comparison: numbers at RTOL, everything else exactly."""
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), f"{where}: {got!r} vs {want!r}"
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            same(g, w, f"{where}[{k}]")
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for k in want:
            same(got[k], want[k], f"{where}.{k}")
    else:
        assert got == want, where


def load(path: Path) -> dict:
    return json.loads(path.read_text())


def check(table: dict, step: str, artifacts: dict) -> None:
    """Compare one step's {artifact: (digest, decoded)} with the table: the
    same artifacts, the recorded digests where this platform has them, and
    the recorded values on every platform."""
    want = table["values"][step]
    assert sorted(artifacts) == sorted(want), step
    digests = table["digests"].get(platform_key())
    for name, (digest, decoded) in artifacts.items():
        if digests is not None:
            assert digest == digests[step][name], f"{step}: {name}"
        same(decoded, want[name], f"{step}: {name}")


def write(path: Path, steps: dict) -> None:
    """Record {step: {artifact: (digest, decoded)}} for this platform.

    Values that moved void every platform's digests; otherwise this
    platform's digests join those already recorded.
    """
    values = {n: {a: v for a, (_, v) in s.items()} for n, s in steps.items()}
    table = load(path) if path.exists() else {}
    if table.get("values") != values:
        table = {"digests": {}, "values": values}
    table["digests"][platform_key()] = {
        n: {a: d for a, (d, _) in s.items()} for n, s in steps.items()}
    lines = ["  %s: {\n%s\n  }" % (json.dumps(n), ",\n".join(  # one line per artifact
        f"   {json.dumps(a)}: {json.dumps(v, sort_keys=True)}" for a, v in sorted(s.items())))
        for n, s in table["values"].items()]
    digests = json.dumps(table["digests"], indent=1, sort_keys=True).replace("\n", "\n ")
    path.write_text('{\n "digests": %s,\n "values": {\n%s\n }\n}\n' % (digests, ",\n".join(lines)))
