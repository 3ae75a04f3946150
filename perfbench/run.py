"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload frames512 --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
./src.  --trace 0 measures the end-to-end metrics with nothing patched.
--trace 1 runs the workload untraced for the first half of the window and
traced for the second half, prints the per-layer metrics and writes the
spans to .bench_out/.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
give the environment and the figures behind the metrics.
"""

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("frames512", "loop15", "pipeline256")
# One BLAS/OpenMP thread: the figures then do not depend on what else runs
# on the box's other cores.  Must be set before numpy is imported.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def peak_rss_mb():
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def tail(samples):
    """Highest whole percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    if n < 20:
        return None, None
    q = (100 * (n - 10)) // n
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def details(name, run):
    """The figures behind the metrics, under the names the documentation uses.

    Times here are wall-clock, not scaled by the speed factor.
    """
    med = statistics.median
    op, side = run.wall("op_ms"), run.wall("side_ms")
    d = {"ops_failed": run.failed, "ops_attempted": run.attempted,
         "speed_median": med(s for _, s in run.times["op_ms"]), "calibration_samples": len(run.cal.samples)}
    for key, scaled in run.times.items():  # the metrics' medians, quartiles and sample counts
        values = [w * s for w, s in scaled]
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        d[f"{key}_scaled"] = {"q1": q1, "median": med(values), "q3": q3, "n": len(values)}
    if name == "frames512":
        q, value = tail(op)
        d.update(frame_ms_p50=med(op), synthesis_ms_p50=med(side))
        if q is not None:
            d[f"frame_ms_p{q}"] = value
    elif name == "loop15":
        d.update(loop_us_per_eval=med(op) * 1e3 / 600, track_us_per_eval=med(side) * 1e3 / 600)
    else:
        d.update(pipeline_s=med(op) / 1e3, downstream_s=med(side) / 1e3)
    d.update({k: v for k, v in run.notes.items() if k != "bytes_written"})
    d["problems"] = run.problems
    return d


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/fsolink/__init__.py", "configs/demo.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not an fsolink checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import fsolink

    if Path(fsolink.__file__).resolve().parent != ROOT / "src" / "fsolink":
        print(f"perfbench: imported fsolink from {fsolink.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ref_path = HERE / "reference.json"
    ref = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
    workload = {
        "frames512": functools.partial(workloads.frames512, ref=ref),
        "loop15": functools.partial(workloads.loop15, ref=ref, inputs=workloads.loop_inputs(args.seed)),
        "pipeline256": functools.partial(workloads.pipeline256, root=str(ROOT)),
    }[args.workload]
    print("env " + json.dumps(environment()))

    if args.trace == 0:
        run = workload(args.seed, args.seconds, workloads.Lib())
        runs = [run]
        metrics = {
            "setup_s": run.scaled("setup_s"),
            "op_ms_p50": run.scaled("op_ms"),
            "side_ms_p50": run.scaled("side_ms"),
            "peak_rss_mb": peak_rss_mb(),
        }
        print("detail " + json.dumps(details(args.workload, run)))
    else:
        base = workload(args.seed, args.seconds / 2, workloads.Lib())
        tracer = tracing.Tracer()
        with tracer.patched(), tracer.span(tracing.ROOT):
            run = workload(args.seed, args.seconds / 2, workloads.Lib(tracer))
        runs = [base, run]
        run.notes["warnings"] = tracer.warnings
        overhead = run.scaled("op_ms") / base.scaled("op_ms") - 1.0
        spans = tracing.Spans(tracer)
        metrics = tracing.layer_metrics(spans, run.notes, overhead)
        wall = spans.root_duration()
        print("detail " + json.dumps({
            "traced_wall_s": wall,
            "layer_self_share": {lay: t / wall for lay, t in spans.layer_self().items()},
            "spans": len(spans.duration),
            "warnings": sorted(set(tracer.warnings)),
        }))
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.save(out / f"trace_{args.workload}_seed{args.seed}.npz")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
