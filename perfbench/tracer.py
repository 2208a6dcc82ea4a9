"""Span tracing of nwavelab from outside the package.

Nothing under src/ carries instrumentation.  Instead, install() replaces
module and class attributes of an imported nwavelab by wrappers that
record spans, and restores them afterwards.  Each wrapper sits on a
reference through which one module calls another: `nwavelab.solver.flux`
is solver's reference to flux.flux, `nwavelab.solver.rfft` its reference
to scipy's transform.

Two kinds of hooks exist:

* generic: every public nwavelab function, at every module attribute that
  refers to it (its defining module too, so that lazy `from .io import`
  picks up the wrapper).  A generic span is skipped when the caller's
  innermost span already belongs to the same layer, so a layer calling
  itself is one span, not a chain of them;
* named (NAMED_HOOKS): private or foreign references that a per-layer
  metric depends on.  These always record.  A name that no longer
  resolves is listed in Tracer.missing and the metrics built on it are
  reported absent, never as zero.

Layers are the nwavelab modules.  The harness opens one root span per
traced workload call (layer "harness"); everything else nests under it.
Parents are tracked per thread; `_pmap` items run in pool threads and name
the `_pmap` span as their parent explicitly.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
import types
from collections import defaultdict

LAYERS = (
    "grid", "kernels", "nonlocal_op", "flux", "solver", "profiles",
    "diagnostics", "suites", "experiments", "io", "config", "cli",
)
ROOT_LAYER = "harness"


def _nbytes_fft(n_real: int) -> int:
    """Bytes one real transform of length n reads plus writes (computed)."""
    return 8 * n_real + 16 * (n_real // 2 + 1)


def _tap_cells(args, kwargs):
    """Stencil taps times cells of one _L_values(kernel, u) call."""
    kernel, u = args[:2]
    return kernel.weights.shape[0] * u.n


# Named hooks: dotted reference -> (span name, layer, extra(args, kwargs)).
# extra, when set, returns the per-call datum the metrics need.
NAMED_HOOKS = {
    "nwavelab.solver._Stepper.rate": (
        "solver._Stepper.rate", "solver", lambda a, k: a[1].size),
    "nwavelab.solver._Stepper.dt_budget": ("solver._Stepper.dt_budget", "solver", None),
    "nwavelab.solver.rfft": (
        "solver.rfft", "solver", lambda a, k: _nbytes_fft(a[0].size)),
    "nwavelab.solver.irfft": (
        "solver.irfft", "solver", lambda a, k: _nbytes_fft(k.get("n", 0))),
    "nwavelab.solver._L_values": ("nonlocal_op._L_values", "nonlocal_op", _tap_cells),
    "nwavelab.nonlocal_op._L_values": ("nonlocal_op._L_values", "nonlocal_op", _tap_cells),
    "nwavelab.kernels.fftconvolve": ("kernels.fftconvolve", "kernels", None),
    "nwavelab.suites._lockstep_runs": (
        "suites._lockstep_runs", "suites", lambda a, k: len(a[0])),
    "nwavelab.experiments._pmap": ("experiments._pmap", "experiments", None),
    "nwavelab.io._atomic": ("io._atomic", "io", lambda a, k: len(a[1])),
}
# Public names that per-layer metrics are built on; checked like named hooks.
GENERIC_NEEDED = (
    "nwavelab.solver.run",
    "nwavelab.kernels.convolve",
    "nwavelab.flux.flux",
    "nwavelab.flux.max_wave_speed",
    "nwavelab.config.load_config",
)
# Generic hooks that also need a per-call datum.
GENERIC_EXTRA = {
    "flux.flux": lambda a, k: float(a[1]),
}
# Counted, not timed: constructions of grid functions.
COUNT_HOOK = "nwavelab.grid.GridFunction.__post_init__"
# The exact work count the untraced run keeps (a lock and two adds per step).
STEP_HOOK = "nwavelab.solver._Stepper.rate"


def resolve(dotted: str):
    """(owner, attribute, value) for "nwavelab.<module>[.<Class>].<attr>", or None if gone."""
    package, module, *rest = dotted.split(".")
    try:
        owner = importlib.import_module(f"{package}.{module}")
        for name in rest[:-1]:
            owner = getattr(owner, name)
        return owner, rest[-1], getattr(owner, rest[-1])
    except (ImportError, AttributeError):
        return None


_MISSING = object()


class _Patches:
    """setattr with undo, restored in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()


class StepCounter:
    """Counts field updates and cells at STEP_HOOK; the untraced run's hook."""

    def __init__(self):
        self.steps = 0
        self.cells = 0
        self.found = False
        self._lock = threading.Lock()  # pool threads step concurrently
        self._patches = _Patches()

    def install(self):
        ref = resolve(STEP_HOOK)
        if ref is None:
            return
        owner, attr, fn = ref
        self.found = True

        @functools.wraps(fn)
        def counted(stepper, u, *args, **kwargs):
            with self._lock:
                self.steps += 1
                self.cells += u.size
            return fn(stepper, u, *args, **kwargs)

        self._patches.set(owner, attr, counted)

    def uninstall(self):
        self._patches.restore()


class Tracer:
    """In-memory span recorder; spans are tuples

        (sid, parent_sid, name, layer, t0, t1, thread_id, extra)
    """

    def __init__(self):
        self.spans = []
        self.missing = []
        self.grid_functions = None
        self._count_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = _Patches()

    # -- recording -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, fn, name, layer, extra, args, kwargs, parent=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1][0]
        datum = extra(args, kwargs) if extra is not None else None
        stack.append((sid, layer))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, parent, name, layer, t0, t1, threading.get_ident(), datum))

    def root(self, fn):
        """Call fn() inside the harness root span; returns its result."""
        return self._call(fn, "harness.workload", ROOT_LAYER, None, (), {})

    # -- wrappers --------------------------------------------------------

    def _generic(self, fn, name, layer):
        extra = GENERIC_EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            return self._call(fn, name, layer, extra, args, kwargs)

        return traced

    def _named(self, fn, name, layer, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(fn, name, layer, extra, args, kwargs)

        return traced

    def _pmap(self, fn, name, layer, _extra):
        @functools.wraps(fn)
        def traced(item_fn, items):
            def body():
                pmap_sid = self._stack()[-1][0]

                def item(x):
                    return self._call(item_fn, "experiments.pmap_item", layer, None,
                                      (x,), {}, parent=pmap_sid)

                return fn(item, items)

            return self._call(body, name, layer, None, (), {})

        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every hook that resolves; record the named ones that do not."""
        self.missing += [name for name in GENERIC_NEEDED if resolve(name) is None]
        wrapped = {}
        for dotted, (name, layer, extra) in NAMED_HOOKS.items():
            ref = resolve(dotted)
            if ref is None:
                self.missing.append(dotted)
                continue
            owner, attr, fn = ref
            if id(fn) not in wrapped:
                make = self._pmap if name == "experiments._pmap" else self._named
                wrapped[id(fn)] = make(fn, name, layer, extra)
            self._patches.set(owner, attr, wrapped[id(fn)])

        for modname in sorted(sys.modules):
            module = sys.modules[modname]
            if modname != "nwavelab" and not modname.startswith("nwavelab."):
                continue
            if not isinstance(module, types.ModuleType):
                continue
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                parts = fn.__module__.split(".")
                if parts[0] != "nwavelab" or len(parts) != 2 or parts[1] not in LAYERS:
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._generic(fn, f"{parts[1]}.{fn.__name__}", parts[1])
                self._patches.set(module, attr, wrapped[id(fn)])

        ref = resolve(COUNT_HOOK)
        if ref is None:
            self.missing.append(COUNT_HOOK)
        else:
            owner, attr, fn = ref
            self.grid_functions = 0

            @functools.wraps(fn)
            def counted(obj, *args, **kwargs):
                with self._count_lock:
                    self.grid_functions += 1
                return fn(obj, *args, **kwargs)

            self._patches.set(owner, attr, counted)

    def uninstall(self):
        self._patches.restore()


# ---------------------------------------------------------------------------
# analysis


def attributed_self_time(spans):
    """Wall-attributed self time per layer.

    Time is cut at every span boundary.  In each piece, the spans that are
    open and have no open child ("leaves") share the piece equally, so
    spans running on parallel threads split the wall instead of counting
    it twice, and a parent waiting on pool threads gets nothing.  The
    result sums to the wall time covered by the root span.
    """
    events = []
    parent_of = {}
    layer_of = {}
    for sid, parent, _name, layer, t0, t1, _tid, _x in spans:
        if t1 <= t0:
            continue  # holds no time, and its end would sort before its start
        events.append((t0, 1, sid))
        events.append((t1, 0, sid))
        parent_of[sid] = parent
        layer_of[sid] = layer
    events.sort()
    open_children = defaultdict(int)
    is_open = set()
    leaves = set()
    out = defaultdict(float)
    t_prev = None
    for t, kind, sid in events:
        if leaves and t > t_prev:
            share = (t - t_prev) / len(leaves)
            for leaf in leaves:
                out[layer_of[leaf]] += share
        t_prev = t
        parent = parent_of[sid]
        if kind == 1:
            is_open.add(sid)
            leaves.add(sid)
            if parent in is_open:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if parent in is_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return out


def _p50_p99(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=100, method="inclusive")
    return q[49], q[98]


def _mean(total, count):
    return total / count if count else 0.0


def layer_metrics(tracer: Tracer, untraced_wall: float):
    """Per-layer metrics of one traced workload call.

    Returns (metrics, detail, absent): metrics maps name -> (value, unit);
    absent lists metric names whose hooks no longer resolve.
    """
    spans = tracer.spans
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
        if s[1] is not None:
            children[s[1]].append(s)

    def dur(s):
        return s[5] - s[4]

    def same_thread_self(s):
        return dur(s) - sum(dur(c) for c in children[s[0]] if c[6] == s[6])

    roots = by_name["harness.workload"]
    wall = sum(dur(s) for s in roots)
    missing = set(tracer.missing)
    m = {}
    absent = []

    def put(name, value, unit, needs=()):
        if any(f"nwavelab.{n}" in missing for n in needs):
            absent.append(name)
        else:
            m[name] = (value, unit)

    # layer self times (wall-attributed; they add up to trace.wall_s)
    selfs = attributed_self_time(spans)
    for layer in LAYERS + (ROOT_LAYER,):
        m[f"{layer}.self_s"] = (selfs.get(layer, 0.0), "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_frac"] = (wall / untraced_wall - 1.0, "ratio")

    # solver
    rates = by_name["solver._Stepper.rate"]
    put("solver.steps", len(rates), "count", ["solver._Stepper.rate"])
    put("solver.cell_updates", sum(s[7] for s in rates), "count", ["solver._Stepper.rate"])
    runs = by_name["solver.run"]
    put("solver.run_s", sum(dur(s) for s in runs), "s", ["solver.run"])
    run_ids = {s[0] for s in runs}
    per_run = defaultdict(list)
    for s in rates:
        if s[1] in run_ids:
            per_run[s[1]].append(s[4])
    step_us = []
    for starts in per_run.values():
        starts.sort()
        step_us += [1e6 * (b - a) for a, b in zip(starts, starts[1:])]
    p50, p99 = _p50_p99(step_us)
    put("solver.step_us_p50", p50, "us", ["solver._Stepper.rate", "solver.run"])
    put("solver.step_us_p99", p99, "us", ["solver._Stepper.rate", "solver.run"])
    put("solver.rate_self_us",
        1e6 * _mean(sum(same_thread_self(s) for s in rates), len(rates)), "us",
        ["solver._Stepper.rate"])
    run_steps = sum(len(v) for v in per_run.values())
    put("solver.loop_self_us",
        1e6 * _mean(sum(same_thread_self(s) for s in runs), run_steps), "us",
        ["solver._Stepper.rate", "solver.run"])
    budgets = by_name["solver._Stepper.dt_budget"]
    put("solver.dt_budget_us", 1e6 * _mean(sum(dur(s) for s in budgets), len(budgets)),
        "us", ["solver._Stepper.dt_budget"])
    rate_ids = {s[0] for s in rates}
    ffts = [s for s in by_name["solver.rfft"] + by_name["solver.irfft"] if s[1] in rate_ids]
    n_lu_fft = sum(1 for s in ffts if s[2] == "solver.irfft")
    put("solver.lu_fft_us", 1e6 * _mean(sum(dur(s) for s in ffts), n_lu_fft), "us",
        ["solver.rfft", "solver.irfft", "solver._Stepper.rate"])
    put("solver.lu_fft_bytes_computed", sum(s[7] for s in ffts), "B",
        ["solver.rfft", "solver.irfft", "solver._Stepper.rate"])

    # kernels and nonlocal_op: every evaluation of J*u is exactly one of a
    # convolve call, a direct-path _L_values call, or a solver FFT pair.
    convolves = by_name["kernels.convolve"]
    conv_fft = sum(
        1 for s in convolves if any(c[2] == "kernels.fftconvolve" for c in children[s[0]]))
    l_direct = [
        s for s in by_name["nonlocal_op._L_values"]
        if not any(c[2] == "kernels.convolve" for c in children[s[0]])
    ]
    # solver's own reference to _L_values may go while nonlocal_op keeps it
    l_hooks = ["nonlocal_op._L_values", "kernels.convolve"]
    put("nonlocal_op.L_direct_calls", len(l_direct), "count", l_hooks)
    put("nonlocal_op.L_direct_us", 1e6 * _mean(sum(dur(s) for s in l_direct), len(l_direct)),
        "us", l_hooks)
    put("nonlocal_op.L_direct_tap_cells", sum(s[7] for s in l_direct), "count", l_hooks)
    put("kernels.convolve_calls", len(convolves), "count", ["kernels.convolve"])
    put("kernels.convolve_us", 1e6 * _mean(sum(dur(s) for s in convolves), len(convolves)),
        "us", ["kernels.convolve"])
    put("kernels.fft_path_frac",
        _mean(conv_fft + n_lu_fft, len(convolves) + len(l_direct) + n_lu_fft), "ratio",
        ["kernels.fftconvolve", "solver.irfft", "solver._Stepper.rate"] + l_hooks)

    # flux
    fluxes = by_name["flux.flux"]
    put("flux.flux_us", 1e6 * _mean(sum(dur(s) for s in fluxes), len(fluxes)), "us",
        ["flux.flux"])
    speeds = by_name["flux.max_wave_speed"]
    put("flux.max_wave_speed_us", 1e6 * _mean(sum(dur(s) for s in speeds), len(speeds)), "us",
        ["flux.max_wave_speed"])
    flux_by_q = defaultdict(list)
    for s in fluxes:
        flux_by_q[f"q{s[7]:g}"].append(dur(s))
    flux_split = {q: {"calls": len(d), "us": 1e6 * _mean(sum(d), len(d))}
                  for q, d in sorted(flux_by_q.items())}

    # experiments: the _pmap pool
    pmaps = by_name["experiments._pmap"]
    items = by_name["experiments.pmap_item"]
    items_of = defaultdict(list)
    for s in items:
        items_of[s[1]].append(s)
    wait = sum(s[4] - p[4] for p in pmaps for s in items_of[p[0]])
    capacity = sum(len({s[6] for s in items_of[p[0]]}) * dur(p) for p in pmaps)
    put("experiments.pmap_items", len(items), "count", ["experiments._pmap"])
    put("experiments.pmap_s", sum(dur(p) for p in pmaps), "s", ["experiments._pmap"])
    put("experiments.pmap_queue_wait_s", wait, "s", ["experiments._pmap"])
    put("experiments.pmap_busy_frac", _mean(sum(dur(s) for s in items), capacity), "ratio",
        ["experiments._pmap"])

    # suites: lockstep pair runs (shared-dt steps, each advancing every field)
    locks = by_name["suites._lockstep_runs"]
    lock_field_steps = defaultdict(int)
    for s in rates:
        lock_field_steps[s[1]] += 1
    put("suites.lockstep_steps",
        sum(lock_field_steps[s[0]] // max(s[7], 1) for s in locks), "count",
        ["suites._lockstep_runs", "solver._Stepper.rate"])
    put("suites.lockstep_s", sum(dur(s) for s in locks), "s", ["suites._lockstep_runs"])

    # diagnostics, profiles, grid: entries into the layer from another one
    for layer in ("diagnostics", "profiles"):
        entries = [s for s in spans if s[3] == layer]
        put(f"{layer}.calls", len(entries), "count")
        put(f"{layer}.s", sum(dur(s) for s in entries), "s")
    if tracer.grid_functions is None:
        absent.append("grid.functions_built")
    else:
        m["grid.functions_built"] = (tracer.grid_functions, "count")

    # io
    writes = by_name["io._atomic"]
    put("io.files", len(writes), "count", ["io._atomic"])
    put("io.bytes", sum(s[7] for s in writes), "B", ["io._atomic"])
    layer_of = {s[0]: s[3] for s in spans}
    io_entries = [s for s in spans if s[3] == "io" and layer_of.get(s[1]) != "io"]
    put("io.write_s", sum(dur(s) for s in io_entries), "s")

    # config
    put("config.load_s", sum(dur(s) for s in by_name["config.load_config"]), "s",
        ["config.load_config"])

    detail = {
        "flux_by_q": flux_split,
        "spans": len(spans),
        "self_sum_s": sum(selfs.values()),
        "missing_hooks": sorted(missing),
    }
    return m, detail, absent
