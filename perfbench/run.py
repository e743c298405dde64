"""The stockalloc benchmark: timed `compare` calls on seeded workloads.

    python3 perfbench/run.py --workload synth_forest --seed 1 --seconds 36 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's `src/`. `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer metrics of one traced call. Human-readable lines come first;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Exits 2 without a result
when the program's source is missing. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, ".out")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stockalloc", "__init__.py")):
        print(f"perfbench: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # BLAS threads are capped at the CPU count before numpy is first imported;
    # child processes inherit the setting.
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
            calls, values = bench.traced_run(args.workload, args.seed, workdir, spans)
            units = bench.metric_units("per_layer")
        else:
            calls, values, log = bench.timed_run(args.workload, args.seed, args.seconds, workdir)
            units = bench.metric_units("end_to_end")
            for what, seconds in log.items():
                print(f"{what}, wall: " + ", ".join(f"{d:.3f}" for d in seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, BLAS threads {nproc}")
    for name, unit in units.items():
        if name in values:
            print(f"  {name:36s} {values[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':36s} {calls.failed / calls.attempted:>16.6g} fraction "
          f"({calls.failed} of {calls.attempted} calls)")
    for message in calls.messages[:10]:
        print(f"  FAILED: {message}")
    result = {
        "correct": calls.failed == 0,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
