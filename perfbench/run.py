"""nwavelab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree (the directory holding src/nwavelab).
Workloads, metrics and the reasons for each are in BENCHMARK.json and
perfbench/README.md.

--trace 0 prints the end-to-end metrics of the workload:
  wall_s              median wall time of one workload call (each call
                      checked; failed calls are not samples)
  cell_updates_per_s  exact cell updates of one call / wall_s
  setup_s             median time from a fresh interpreter to the first
                      workload call (import nwavelab + load_config), over
                      SETUP_SAMPLES interpreters
  peak_rss_mb         peak resident memory of the process that ran the calls
--trace 1 prints the per-layer metrics of one extra, traced call.

Everything runs in child interpreters, one after another, with
NWAVE_THREADS pinned to the CPUs this process may run on and BLAS to
one thread.  The line
before the last carries the details: samples, quartiles, failed share,
seed, machine, and any hook that no longer resolves.

Exit status is 0 when a result line was printed, 2 otherwise (bad
arguments, no source tree, a child that crashed or overran).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("decay", "long_time_signed", "viscosity_sweep", "verify_mix")
SETUP_SAMPLES = 5  # interpreters timed for setup_s, the worker's own included
DEADLINE_S = 170.0  # every child is killed by then; the run must end within 180 s
HERE = os.path.dirname(os.path.abspath(__file__))


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child(args, env, deadline):
    """Run the worker with args; its last stdout line parsed, and the spawn time."""
    spawned = _monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--root", os.getcwd(), *args],
        env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - _monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1]), spawned


def _spread(values):
    """Sample count, quartiles, and the highest percentile with ten samples above it."""
    out = {"n": len(values)}
    if len(values) >= 2:
        out["q1"], out["median"], out["q3"] = statistics.quantiles(values, n=4)
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100.0 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken workloads, for testing the harness only")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "nwavelab", "__init__.py")):
        print("error: run from the root of an nwavelab source tree (no src/nwavelab here)",
              file=sys.stderr)
        return 2

    deadline = _monotonic() + DEADLINE_S
    env = dict(os.environ)
    env["NWAVE_THREADS"] = str(len(os.sched_getaffinity(0)))
    # One BLAS thread: OpenBLAS hands each np.dot over 10k elements to a
    # second thread, which costs ~1 ms instead of ~6 us whenever another
    # process holds the other CPU, so timings would follow the neighbours.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)  # nwavelab comes from ./src and nowhere else

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe, spawned = _child(["--setup-only"], env, deadline)
                setups.append(probe["ready"] - spawned)
        work = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res, spawned = _child(work + (["--smoke"] if args.smoke else []), env, deadline)
        setups.append(res["ready"] - spawned)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    walls = res["walls"]
    metrics = {}
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res.get("layer", {}).items()}
    elif walls:
        wall = statistics.median(walls)
        metrics["wall_s"] = {"value": wall, "unit": "s"}
        if res["cell_updates"] is not None:
            metrics["cell_updates_per_s"] = {"value": res["cell_updates"] / wall, "unit": "1/s"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_sets_inputs": res["seed_sets_inputs"],
        "wall_s": _spread(walls),
        "wall_samples_s": walls,
        "setup_samples_s": setups,
        "steps": res["steps"],
        "cell_updates": res["cell_updates"],
        "failed_frac": res["failed"] / res["attempted"],
        "problems": res["problems"],
        "absent": res.get("absent", []),
        "layer_detail": res.get("layer_detail"),
        "machine": res["machine"],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": res["failed"] == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
