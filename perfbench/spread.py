"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload loop15 --seeds 1-10

Runs the benchmark once per seed, one run at a time, and prints for every
end-to-end metric its median and the distance between its first and third
quartiles as a share of the median, next to the metric's bound.  Spreads
above a third of the bound are marked.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="LO-HI, inclusive")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args()
    lo, _, hi = args.seeds.partition("-")
    values = {}
    for seed in range(int(lo), int(hi or lo) + 1):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=900)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, **result}), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        flag = "  above bound/3" if spread > m["bound"] / 3 else ""
        print(f"{m['name']:>14}: median {med:.6g} {m['unit']}, spread {spread:.3f} "
              f"(bound {m['bound']}){flag}")


if __name__ == "__main__":
    sys.exit(main())
