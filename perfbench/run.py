"""raygraph benchmark: two closed-loop workloads (construct, serve)
driven through the package's public functions.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 25 --trace 0

Run from the repository root. The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. Everything
else (progress, the per-layer self-time table, Ray's own logging) goes to
stderr. Work files, Ray's session directory and span dumps live under
``.bench_work/`` in the repository root. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
RAY_TMP = os.path.join(WORK, "r")
DEFAULT_SEED = 1  # seed 2 is held out for confirming claims
# AF_UNIX socket paths are capped at 107 bytes; Ray puts
# "/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store" (about 64
# bytes) under its temp dir.
_RAY_TMP_MAX = 43


def nproc() -> int:
    out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
    return int(out.stdout.strip())


def start_ray(num_cpus: int) -> None:
    import ray

    # Ray worker processes import the package from the repository root
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    tmp = RAY_TMP
    if len(tmp) > _RAY_TMP_MAX:
        print(f"perfbench: {tmp} is too long for Ray's sockets; using Ray's "
              "default temp dir", file=sys.stderr)
        tmp = None
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 << 20, _temp_dir=tmp)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    import cattle_ray  # noqa: F401  (fails here, before any work, outside a checkout)

    cpus = nproc()
    # Ray's actor pool holds a whole CPU, so at 1 Ray CPU the pipeline's
    # read tasks never get scheduled: the job needs at least 2.
    num_cpus = max(2, cpus)
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    sessions = set(os.listdir(RAY_TMP)) if os.path.isdir(RAY_TMP) else set()
    phases = [("start", time.perf_counter())]
    start_ray(num_cpus)
    import ray

    phases.append(("ray_init", time.perf_counter()))
    try:
        bench = workloads.Bench(work, args.seed, args.seconds,
                                bool(args.trace))
        bench.counter.attach()
        metrics = workloads.WORKLOADS[args.workload](bench)
        phases.append(("workload", time.perf_counter()))
    finally:
        ray.shutdown()
        phases.append(("ray_shutdown", time.perf_counter()))
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(RAY_TMP):  # this run's Ray logs and spill files
            for s in set(os.listdir(RAY_TMP)) - sessions:
                if s.startswith("session_2"):
                    shutil.rmtree(os.path.join(RAY_TMP, s),
                                  ignore_errors=True)
    if args.trace:
        bench.tracer.write(os.path.join(
            WORK, f"trace-{args.workload}-s{args.seed}.json"))
        bench.print_self_times()
    import pyarrow

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "nproc": cpus,
        "ray_num_cpus": num_cpus, "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "cycle_ms": [round(c) for c in bench.cycles],
        "calls": len(bench.calls),
        "kind_p50_ms": {k: round(median(t for kk, t in bench.calls
                                        if kk == k), 1)
                        for k in sorted({k for k, _ in bench.calls})},
        "setup_runs_s": [round(s, 2) for s in bench.setup_runs],
        "phase_s": {b[0]: round(b[1] - a[1], 2)
                    for a, b in zip(phases, phases[1:])},
        "errors": bench.errors[:5],
    }), file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
