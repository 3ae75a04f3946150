"""The shipped demo chain, pinned: every artifact of every command.

The chain runs synth, couple, couple --lossy, ber, wdm --scan, wdm --link
and report on configs/demo.json at --frames 8 --seed 3.  After each
command, the files it wrote or changed are compared with demo_chain.json
as pins.py describes: by SHA-256 where the table holds digests for this
numpy, scipy and SIMD dispatch, otherwise by their decoded values.  The
test never skips.

A change that moves results on purpose records this table and
geo_downlink.json again (`PYTHONPATH=src python tests/test_demo_chain.py
--record`, about two minutes: it builds the 1000-frame reference
sequence) and says so.
"""

import sys
from pathlib import Path

import pytest

from fsolink.cli import main
import pins

ROOT = Path(__file__).resolve().parents[1]
CHAIN = (
    ("synth",), ("couple",), ("couple", "--lossy"), ("ber",),
    ("wdm", "--scan"), ("wdm", "--link"), ("report",),
)
NAMES = [" ".join(args) for args in CHAIN]


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
                digest, decoded = pins.artifact(path)
                if seen.get(name) != digest:
                    changed[name] = (digest, decoded)
                    seen[name] = digest
        steps.append(changed)
    return steps


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    return run_chain(tmp_path_factory.mktemp("demo"))


@pytest.fixture(scope="module")
def table():
    return pins.load(pins.DEMO_TABLE)


def test_each_command_writes_the_recorded_artifacts(chain, table):
    assert [sorted(step) for step in chain] == [sorted(table["values"][n]) for n in NAMES]


def test_artifacts_match_the_recorded_digests_or_values(chain, table):
    for name, step in zip(NAMES, chain):
        pins.check(table, name, step)


def test_artifacts_match_the_recorded_values(chain, table):
    """The comparison a platform without digests falls back to, run on every one."""
    for name, step in zip(NAMES, chain):
        for artifact, (_, decoded) in step.items():
            pins.same(decoded, table["values"][name][artifact], f"{name}: {artifact}")


if __name__ == "__main__":
    import tempfile

    from test_acceptance import coefficient_pins, reference_run
    from test_cli import run_geo_synth
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_demo_chain.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        pins.write(pins.DEMO_TABLE, dict(zip(NAMES, run_chain(Path(tmp, "demo")))))
        pins.write(pins.GEO_TABLE, {pins.GEO_SYNTH: run_geo_synth(Path(tmp, "geo")),
                                    pins.GEO_COEFFICIENTS: coefficient_pins(reference_run())})
    print(f"recorded {pins.DEMO_TABLE.name} and {pins.GEO_TABLE.name} for {pins.platform_key()}")
