"""Record the reference results that frames512 and loop15 check against.

    python3 perfbench/record.py --seeds 0-15

Run from the root of a source checkout, at the commit whose results are the
reference.  Recorded seeds are merged into perfbench/reference.json.  A run
with a seed that is not recorded still checks every result against the
physics invariants and against what the same input gave earlier in the run.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def frames512(seed):
    """Physics seed -> the recorded values of the frames a run with this seed sees."""
    grid = workloads.GRID512
    basis = workloads.ModeBasis.build(grid, aperture_diameter_m=workloads.APERTURE_M)
    waist, _ = workloads.optimize_smf_waist(workloads.uniform_disc_field(grid, workloads.APERTURE_M))
    out = {}
    for j in range(workloads.SETUPS):
        n = workloads.PASS_FRAMES if j == workloads.SETUPS - 1 else 1
        frames = workloads.frame_series(seed, j)
        out[str(workloads.frame_seed(seed, j))] = [
            [float(f"{v:.12g}") for v in workloads.frame_values(next(frames), basis, waist)]
            for _ in range(n)
        ]
    return out


def loop15(seed):
    inputs = workloads.loop_inputs(seed)
    topology = workloads.CombinerTopology.balanced(15, 0.0, 0.0)
    config = workloads.ControllerConfig()
    blocks = {}
    for b in range(workloads.BLOCKS):
        result = workloads.block_result(workloads.run_closed_loop(inputs[b], topology, config, seed=seed))
        blocks[str(b)] = {k: result[k] for k in ("eff_db", "wraps", "digest")}
    amplitude = workloads.sweep_amplitude(seed)
    sweep = {f"{f:g}": workloads.sweep_point(f, amplitude, config, seed) for f in workloads.SWEEP_HZ}
    return {str(seed): {"blocks": blocks, "sweep": sweep}}


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_range, required=True, help="LO-HI, inclusive")
    p.add_argument("--workloads", default="frames512,loop15")
    args = p.parse_args()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from run import THREAD_VARS, THREADS

    for var in THREAD_VARS:  # the same settings as the benchmark, before numpy loads
        os.environ[var] = str(THREADS)
    import workloads

    ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in args.workloads.split(","):
        for seed in args.seeds:
            ref.setdefault(name, {}).update({"frames512": frames512, "loop15": loop15}[name](seed))
            REFERENCE.write_text(json.dumps(ref, sort_keys=True) + "\n")
            print(f"recorded {name} seed {seed}", flush=True)
