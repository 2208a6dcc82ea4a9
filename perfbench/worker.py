"""One run of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py --root DIR --setup-only
    python3 perfbench/worker.py --root DIR --workload NAME --seed N \
        --seconds S --trace 0|1 [--smoke]

The process imports nwavelab from DIR/src, loads the default config and
reads the system-wide monotonic clock; run.py read the same clock just
before the spawn, so the difference is the set-up time.  --setup-only
stops there.

Otherwise the workload is called back to back until --seconds have
passed (at least once).  Each call is timed alone, its outputs are
checked, and a call that fails is counted and never used as a timing
sample.  The only hook during these calls is an integer counter on the
solver step (tracer.StepCounter), which gives the exact cell-update count.
With --trace 1 one more call follows with every tracer hook installed;
its spans become the per-layer metrics and are written to
DIR/.perfbench-out/trace-<workload>.jsonl.

The last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _setup(root: str, seed: int):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    # Every module up front: set-up time then covers all of them, and the
    # tracer finds every reference before a lazy import could bypass it.
    import nwavelab
    import nwavelab.cli  # noqa: F401
    import nwavelab.experiments  # noqa: F401
    import nwavelab.io  # noqa: F401

    nwavelab.load_config(None, [], seed)
    ready = monotonic()
    where = os.path.realpath(nwavelab.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"imported nwavelab from {where}, not from {src}")
    return ready


def _machine():
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "NWAVE_THREADS": os.environ.get("NWAVE_THREADS"),
        "blas_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                 "MKL_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def _attempt(call, check, seed, out_root, smoke, run=None):
    """One workload call: (wall seconds or None, failure message or None)."""
    out_dir = tempfile.mkdtemp(prefix="run-", dir=out_root)
    try:
        t0 = time.perf_counter()
        outcome = run(lambda: call(seed, out_dir, smoke)) if run else call(seed, out_dir, smoke)
        wall = time.perf_counter() - t0
        problem = check(outcome)
    except Exception:  # a failing workload is a counted failure, not a crash
        return None, traceback.format_exc(limit=4)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return (None, problem) if problem else (wall, None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    ready = _setup(args.root, args.seed)
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import StepCounter, Tracer, layer_metrics
    from workloads import SEEDED, WORKLOADS

    call, check = WORKLOADS[args.workload]
    out_root = os.path.join(args.root, ".perfbench-out")
    os.makedirs(out_root, exist_ok=True)

    attempted = 0
    failures = []  # failed calls
    problems = []  # checks across calls
    walls = []
    counts = []
    counter = StepCounter()
    counter.install()
    try:
        start = time.perf_counter()
        while True:
            steps0, cells0 = counter.steps, counter.cells
            wall, problem = _attempt(call, check, args.seed, out_root, args.smoke)
            attempted += 1
            if problem:
                failures.append(problem)
            else:
                walls.append(wall)
                counts.append((counter.steps - steps0, counter.cells - cells0))
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        counter.uninstall()
    if len(set(counts)) > 1:
        problems.append(f"step counts differ between identical calls: {sorted(set(counts))}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "ready": ready,
        "walls": walls,
        "steps": counts[0][0] if counts and counter.found else None,
        "cell_updates": counts[0][1] if counts and counter.found else None,
        "peak_rss_mb": peak_rss_mb,
        "seed_sets_inputs": args.workload in SEEDED,
        "machine": _machine(),
    }

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            wall, problem = _attempt(call, check, args.seed, out_root, args.smoke,
                                     run=tracer.root)
        finally:
            tracer.uninstall()
        attempted += 1
        if problem:
            failures.append(problem)
        elif not walls:
            problems.append("no untraced call succeeded; no overhead reference")
        else:
            metrics, detail, absent = layer_metrics(tracer, statistics.median(walls))
            traced_counts = (metrics.get("solver.steps", (None,))[0],
                             metrics.get("solver.cell_updates", (None,))[0])
            if counter.found and traced_counts != counts[0]:
                problems.append(f"traced call counted {traced_counts}, untraced {counts[0]}")
            result.update(layer=metrics, layer_detail=detail, absent=absent)
            _write_spans(os.path.join(out_root, f"trace-{args.workload}.jsonl"),
                         args, metrics, tracer.spans)

    for problem in failures + problems:
        print(f"workload {args.workload}: {problem}", file=sys.stderr)
    result.update(attempted=attempted, failed=len(failures), problems=problems)
    print(json.dumps(result))
    return 0


def _write_spans(path, args, metrics, spans):
    """Spans as JSON lines after one header line; written once, at the end."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {"workload": args.workload, "seed": args.seed,
                  "fields": ["sid", "parent", "name", "layer", "t0", "t1", "thread", "extra"],
                  "metrics": {k: v for k, (v, _u) in metrics.items()}}
        fh.write(json.dumps(header) + "\n")
        for s in spans:
            fh.write(json.dumps(s) + "\n")


if __name__ == "__main__":
    sys.exit(main())
