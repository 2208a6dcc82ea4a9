"""End-to-end studies: long-time profile convergence, vanishing viscosity
and the two-route rescaling consistency check.  The kernel bound, a sweep
with no run to step, is the verify suite kernel_bound (suites).

Each study's row in _STUDIES names its sweep key, its runner and its
datum.  A StudySpec builds every run of its study as it is built, each
with its parameters and datum, and checks each one, so a study that cannot
run, or a datum.* key it does not read (study_spec), is a ConfigError
before anything runs or is written.  The runners step spec.runs and
nothing else, one simulation after another in the calling thread, except
the vanishing-viscosity sweep: one forked child steps its middle mus
(_pmap).  run_study returns the Reports and writes the results through
io.write_results.

Long-time studies run in the unrescaled frame and evaluate at large times;
by the scaling identity u_lam(t, x) = lam u(lam^q t, lam x) this probes the
same limit as large rescale factors while keeping the kernel resolved on
the grid.  The rescaling study covers the other route at moderate lam and
checks the two agree.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .config import DEFAULTS, Config, ConfigError, check_run, require_nonnegative
from .diagnostics import (
    Report,
    energy_report,
    lp_norm,
    nwave_distance,
    sup_norm_bound_report,
    worst_max,
)
from .grid import GridFunction, grid_function
from .profiles import DATUM_PARAMS, NWave, check_datum, make_initial_datum
from .solver import SimParams, rescale_snapshot, run, run_lockstep

__all__ = [
    "StudySpec",
    "study_spec",
    "run_study",
    "run_long_time",
    "run_vanishing_viscosity",
    "run_rescaling_family",
]


def _pmap(fn, items):
    """[fn(x) for x in items] on two processes: the caller runs items[0],
    and one forked child runs items[1:] in order and sends their results
    back pickled over a pipe.  Results come back in item order.

    The decay suite maps its three q runs through here, longest first, so
    on 2 CPUs the child's two runs end inside the caller's one; the
    vanishing-viscosity study maps two batches of its mus, the caller's
    with the longest run (see run_vanishing_viscosity).  Threads do not
    pay: a step holds the GIL for most of its time, and on 2 CPUs the decay
    suite took 14.3-17.4 s on two threads against 8.7-11.8 s in the calling
    thread.  The map runs in the calling process, as a plain loop, when
    there are fewer than two items, when os.sched_getaffinity(0) holds one
    CPU (or does not exist), when there is no os.fork or it fails, or when
    another thread is alive (a fork copies the calling thread alone).

    An exception in the child re-raises here unchanged; one that cannot
    be pickled comes back as a RuntimeError naming it.  A child that dies
    without its results is a ChildProcessError naming its exit status.
    If the caller's item raises, the child is killed first; no child
    outlives the call.  The name stays because the benchmark's tracer
    times each item under it.
    """
    import threading

    items = list(items)
    if (len(items) < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2 or threading.active_count() > 1):
        return [fn(x) for x in items]
    import pickle
    import signal

    sys.stdout.flush()  # the child leaves by os._exit, so it prints no
    sys.stderr.flush()  # line the caller had buffered
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: every item runs here
        os.close(read_fd)
        os.close(write_fd)
        return [fn(x) for x in items]
    if pid == 0:
        os.close(read_fd)
        _pmap_child(fn, items[1:], write_fd)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            first = fn(items[0])
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0 or not data:
        raise ChildProcessError(f"the forked worker process died "
                                f"with exit status {status} before sending its results")
    ok, rest = pickle.loads(data)
    if not ok:
        raise rest
    return [first, *rest]


def _pmap_child(fn, items, write_fd):
    """_pmap's forked half: send (True, results) or (False, exception), then
    leave by os._exit without running the caller's exit handlers."""
    import pickle

    code = 1
    try:
        try:
            payload = (True, [fn(x) for x in items])
        except BaseException as exc:
            payload = (False, exc)
        try:
            data = pickle.dumps(payload)
            pickle.loads(data)  # what the caller cannot rebuild fails here
        except Exception as exc:
            what = repr(payload[1]) if not payload[0] else "its results"
            data = pickle.dumps((False, RuntimeError(
                f"a worker process could not send {what} back: "
                f"{type(exc).__name__}: {exc}")))
        sys.stdout.flush()
        sys.stderr.flush()
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _dump_snapshots(spec: StudySpec, name: str, times, snapshots):
    if spec.out_dir is None:
        return
    from .io import write_snapshots_csv

    write_snapshots_csv(times, snapshots, os.path.join(spec.out_dir, name))


def _l1(u: GridFunction, v: GridFunction) -> float:
    """||u - v||_1 on u's grid."""
    return lp_norm(u.with_values(u.values - v.values), 1)


def _decreasing(seq) -> bool:
    """Each value strictly below the one before it."""
    return all(b < a for a, b in zip(seq, seq[1:]))


@dataclass
class StudySpec:
    """One study: a kind, base parameters, a datum, and the sweep values.

    Building one checks, in order, the sweep and the datum's rules, then
    builds and checks every run of the study and what its runs need
    (_check_runs); the first broken rule raises ConfigError.  The runners
    step spec.runs: the runs as built here, with their final parameters
    and data.
    """

    kind: str
    base: SimParams
    datum_kind: str
    datum_params: dict = field(default_factory=dict)
    sweep: tuple = ()
    out_dir: str | None = None
    # Every run of the study as _check_runs built and checked it, each as
    # run's arguments (datum, params), by grid spacing (rescaling_family: the
    # base run and each lam's direct run).
    runs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        key = _study(self.kind)[0]
        sweep = tuple(float(v) for v in self.sweep)
        if len(sweep) < 2:
            raise ConfigError("a study needs at least two sweep values", origin=key)
        if not all(math.isfinite(v) and v > 0 for v in sweep):
            raise ConfigError("sweep values must be finite and positive", origin=key)
        diffs = np.diff(sweep)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("sweep values must be strictly monotone", origin=key)
        self.sweep = sweep
        try:
            self.datum_params = check_datum(self.datum_kind, **self.datum_params)
        except ValueError as exc:
            raise ConfigError(str(exc), origin=self._datum_origin()) from None
        _check_runs(self)

    def _datum_origin(self) -> str:
        """The config key to blame for a bad datum: the first of its
        parameters set away from its default, else datum.kind."""
        defaults = DATUM_PARAMS.get(self.datum_kind, self.datum_params)
        changed = [f"datum.{n}" for n, v in self.datum_params.items() if v != defaults.get(n)]
        return (changed or ["datum.kind"])[0]


def _study(kind: str) -> tuple:
    """kind's _STUDIES row; an unknown kind is a ConfigError."""
    if kind not in _STUDIES:
        raise ConfigError(f"unknown study kind {kind!r}; choose one of {', '.join(_STUDIES)}",
                          origin="study.kind")
    return _STUDIES[kind]


def study_spec(cfg: Config, out_dir: str | None = None) -> StudySpec:
    """The checked StudySpec for cfg.study_kind from a parsed config: the
    sweep its kind's key holds and the datum its _STUDIES row names.  The
    study reads datum.kind where it equals that datum's kind, and that
    kind's datum.* keys unless the row fixes them; any other datum.* key
    set away from its default is a ConfigError on that key."""
    key, _, datum_kind, fixed = _study(cfg.study_kind)
    datum_kind = datum_kind or cfg.datum_kind
    # load_config checks only the keys of the configured datum.kind; StudySpec checks these
    params = fixed or {name: cfg.raw[f"datum.{name}"] for name in DATUM_PARAMS[datum_kind]}
    reads = {"datum.kind"} if cfg.raw["datum.kind"] == datum_kind else set()
    if not fixed:
        reads |= {f"datum.{name}" for name in params}
    unread = [k for k, v in cfg.raw.items() if k.startswith("datum.") and k not in reads
              and v != DEFAULTS[k]]
    if unread:
        raise ConfigError(f"the {cfg.study_kind} study runs a {datum_kind} datum"
                          f"{' of fixed parameters' if fixed else ''} and does not read "
                          f"{unread[0]}", origin=unread[0])
    return StudySpec(kind=cfg.study_kind, base=cfg.params, datum_kind=datum_kind,
                     datum_params=params, sweep=cfg.raw[key], out_dir=out_dir)


def _check_runs(spec: StudySpec):
    """Build spec.runs, checking the grid and kernel of each run as it is
    built, then check what the runs need of q and of their data."""
    kind, sweep = spec.kind, spec.sweep
    if kind == "rescaling_family":
        if min(sweep) < 1.0:
            raise ConfigError("rescale factors must be >= 1", origin="study.lambdas")
        for dx in (_RESCALING_DX, _RESCALING_DX / 2.0):
            # the direct runs first: a lam too large to check would overflow lam^q
            grid = replace(spec.base, lam=1.0, mu=0.0, x_min=_RESCALING_EXTENT[0],
                           x_max=_RESCALING_EXTENT[1], dx=dx, output_times=(1.0,))
            direct = {}
            for lam in sweep:
                p = replace(grid, lam=lam)
                check_run(p, lam="study.lambdas")
                direct[lam] = (_datum_on(spec, p, lam), p)
            base = replace(grid, output_times=tuple(sorted(lam ** spec.base.q for lam in sweep)))
            check_run(base)
            spec.runs[dx] = (_datum_on(spec, base), base), direct
        (datum, _), _ = spec.runs[_RESCALING_DX]
    elif kind == "vanishing_viscosity":  # the one study on the configured extent
        params = replace(spec.base, lam=1.0, mu=0.0, dx=_VISCOSITY_DX, output_times=(1.0,))
        grids = (params, replace(params, dx=_VISCOSITY_DX / 2.0))
        for p in grids:
            check_run(p, f"the {kind} study's grid")
        spec.runs = {p.dx: (_datum_on(spec, p), p) for p in grids}
        if not np.any(spec.runs[_VISCOSITY_DX][0].values):
            raise ConfigError(
                f"the {spec.datum_kind} datum is zero on every cell of the vanishing-viscosity "
                f"grid, so every distance to the inviscid run would be 0",
                origin=spec._datum_origin(),
            )
        return  # the one study that measures no N-wave limit
    else:
        params = _long_time_params(spec)
        # the nonnegative study fixes its width, so only dx can misfit
        check_run(params, dx="study.times", kernel_width="grid.dx")
        datum = _datum_on(spec, params)
        spec.runs = {params.dx: (datum, params)}
    # the N-wave limit that the long-time and rescaling studies measure holds for q < 2 only
    if not spec.base.q < 2.0:
        raise ConfigError("the long-time profile limit needs q strictly below 2", origin="q")
    if abs(datum.mass()) < 1e-12:
        raise ConfigError(
            "zero-mass datum in a profile-convergence study; the limit "
            "profile needs nontrivial mass",
            origin=spec._datum_origin(),
        )
    if kind == "long_time_nonnegative":
        require_nonnegative(datum, f"the {kind} study", spec.datum_kind, spec._datum_origin())


def _datum_on(spec: StudySpec, params: SimParams, lam: float = 1.0) -> GridFunction:
    """The study's datum phi on params' grid; given lam, the rescaled datum
    lam phi(lam x), whose cell averages are lam times phi's on the grid
    scaled by lam."""
    phi = make_initial_datum(spec.datum_kind, lam * params.x_min, lam * params.dx,
                             params.grid_n(), **spec.datum_params)
    return grid_function(lam * phi.values, params.x_min, params.dx)


# ---------------------------------------------------------------------------
# long-time convergence to the self-similar profile


def _datum_mass(kind: str, params: dict) -> float:
    if kind == "box":
        return params["height"] * (params["right"] - params["left"])
    if kind == "two_boxes_signed":
        return (
            params["pos_height"] * (params["pos_right"] - params["pos_left"])
            - params["neg_height"] * (params["neg_right"] - params["neg_left"])
        )
    if kind == "gaussian":
        return params["mass"]
    return 0.0


def _long_time_params(spec: StudySpec) -> SimParams:
    q, times = spec.base.q, tuple(sorted(spec.sweep))
    mass = abs(_datum_mass(spec.datum_kind, spec.datum_params))
    # wave front position at the final time, padded by 20 on both sides
    r = NWave(max(mass, 1e-12), q).r(times[-1])
    # The two data have different finite-time bottlenecks.  For nonnegative
    # data it is the shock layer, whose L^1 content scales with m2 and decays
    # only like t^((q-2)/q), so a narrow kernel clears the asymptotic floor
    # within t <= 100.  For sign-changing data it is the annihilation of the
    # negative lobe, which the nonlocal diffusion accelerates, so there the
    # configured (wide) kernel is kept.
    width = 0.125 if spec.kind == "long_time_nonnegative" else spec.base.kernel_width
    return replace(
        spec.base,
        lam=1.0,
        mu=0.0,
        kernel_width=width,
        x_min=-20.0,
        x_max=float(math.ceil(r)) + 20.0,
        output_times=times,
    )


def run_long_time(spec: StudySpec):
    """Scaled distances to the self-similar profile across a decade grid.

    Pass requires the p = 1 scaled distance to decrease strictly across
    every checkpoint and by a factor >= 3 overall.  The p = 2 distance
    must decrease across decade boundaries (t, 10t, ...); between-decade
    checkpoints are reported but not gated, because the diffusive layer
    at the front re-equilibrates on a slower clock in L^2 and can wobble
    a few percent inside a decade while the decade trend is firmly down.
    """
    ((datum, params),) = spec.runs.values()
    times = params.output_times
    mass = datum.mass()
    traj = run(datum, params)
    _dump_snapshots(spec, f"{spec.kind}_snapshots.csv", traj.times, traj.snapshots)
    nw = NWave(m=mass, q=params.q)

    # Decade boundaries: keep a checkpoint once it is >= 10x the last kept.
    decades = [0]
    for i, t in enumerate(times):
        if t >= 10.0 * times[decades[-1]]:
            decades.append(i)

    rows, reports = [], []
    for p in (1.0, 2.0):
        d = [nwave_distance(u, nw, t, p) for t, u in zip(traj.times, traj.snapshots)]
        rows += [(t, f"scaled_distance_p{p:g}", v) for t, v in zip(traj.times, d)]
        factor = d[0] / d[-1] if d[-1] > 0 else np.inf
        if p == 1.0:
            flag, down = "monotone", _decreasing(d)
            ok = down and factor >= 3.0
            detail = f"checkpoints {times}"
        else:
            flag, down = "decades_down", _decreasing([d[i] for i in decades])
            ok = down and factor > 1.0
            detail = f"decade boundaries {tuple(times[i] for i in decades)}"
        reports.append(Report(
            name=f"profile convergence p={p:g} ({spec.datum_kind})",
            verdict="pass" if ok else "fail",
            values={"first": d[0], "last": d[-1], "factor": factor, flag: down},
            detail=detail,
        ))
    rows += [(t, "mass", m) for t, m in traj.mass_history]
    drift = float(np.max([abs(m - mass) for _, m in traj.mass_history]))
    reports.append(Report(
        name="mass conservation",
        verdict="pass" if drift <= params.tail_cap else "fail",
        values={"worst_drift": drift},
        tolerance=params.tail_cap,
    ))
    if spec.kind == "long_time_nonnegative":
        reports.append(sup_norm_bound_report(traj))
    reports.append(energy_report(traj))
    return reports, rows


# ---------------------------------------------------------------------------
# vanishing viscosity


def _coarsen(u: GridFunction) -> GridFunction:
    """2:1 cell-average aggregation onto the twice-coarser grid."""
    if u.n % 2:
        raise ValueError("need an even cell count to coarsen 2:1")
    return grid_function(u.values.reshape(-1, 2).mean(axis=1), u.x_min, 2.0 * u.dx)


# The mu runs' grid spacing; the floor estimate runs at half of it.
_VISCOSITY_DX = 1.0 / 128.0


def run_vanishing_viscosity(spec: StudySpec):
    """|| u^mu(1) - u^0(1) ||_1 strictly decreasing along the mu sweep.

    The sweep's mus (all positive) step in run_lockstep batches, one group
    per mu, largest mu first, mapped through _pmap.  When the viscous term
    binds the budget a run's step count scales with its mu, so the caller
    steps the largest and the smallest mu as one batch, then the mu = 0 run
    and its dx/2 rerun, while one forked child steps the middle mus as a
    second batch; a sweep of two mus has no middle and forks nothing.  Each
    batch steps the whole grid and each row rounds as it would in a batch
    of every mu, bit for bit; a lone middle mu steps on its window, as
    run() would.  The mu = 0 rerun at dx/2 estimates the scheme's own
    viscosity floor, an L^1 distance: a mu whose distance to the inviscid
    run is at or below it is reported informationally rather than gating
    the verdict.
    """
    mus = tuple(sorted(spec.sweep, reverse=True))
    (datum, params), fine = spec.runs.values()
    # (batch of mus, inviscid runs): the caller's item first, then the child's
    items = [((mus[0], mus[-1]), ((datum, params), fine))]
    if len(mus) > 2:
        items.append((mus[1:-1], ()))

    def step(item):
        batch, inviscid = item
        return run_lockstep([(datum,)] * len(batch), params, batch), [run(*r) for r in inviscid]

    results = _pmap(step, items)
    u0, u0_fine = (traj.snapshots[-1] for traj in results[0][1])
    finals = {0.0: u0} | {mu: group[0].snapshots[-1] for (batch, _), (groups, _)
                          in zip(items, results) for mu, group in zip(batch, groups)}
    for mu in (0.0, *mus):
        _dump_snapshots(spec, f"viscosity_mu_{mu:g}.csv", params.output_times, (finals[mu],))
    dists = {mu: _l1(finals[mu], u0) for mu in mus}
    floor = _l1(_coarsen(u0_fine), u0)

    rows = [(mu, "l1_distance_to_inviscid", dists[mu]) for mu in mus]
    rows.append((0.0, "viscosity_floor", floor))

    above = [mu for mu in mus if dists[mu] > floor]
    monotone = _decreasing([dists[mu] for mu in above])
    return [Report(
        name="vanishing-viscosity distances",
        verdict="pass" if monotone and len(above) >= 2 else "fail",
        values={f"mu={mu:g}": dists[mu] for mu in mus} | {"floor": floor},
        detail=(f"{len(mus) - len(above)} sweep value(s) at or below the "
                f"viscosity floor (informational)" if len(above) < len(mus) else ""),
    )], rows


# ---------------------------------------------------------------------------
# rescaling family: two routes to u_lam(1, .)


def _restrict(u: GridFunction, x_min: float, n: int) -> GridFunction:
    """Exact subgrid extraction (x_min must be grid-aligned with u)."""
    start_real = (x_min - u.x_min) / u.dx
    start = int(round(start_real))
    if abs(start_real - start) > 1e-9 or start < 0 or start + n > u.n:
        raise ValueError("restriction window is not grid-aligned or not contained")
    return grid_function(u.values[start:start + n].copy(), x_min, u.dx)


def _rescaling_routes(spec: StudySpec, dx: float):
    """Both computations of u_lam(1, .) on the target grid, for every lam.

    Route B simulates the lam-system on the same wide domain as the base
    run and restricts afterwards, so at lam = 1 the two routes are the
    same simulation and agree exactly.
    """
    base, direct = spec.runs[dx]
    lams = tuple(sorted(spec.sweep))
    x_min, x_max = -4.0, 6.0
    n = int(round((x_max - x_min) / dx))
    base_traj = run(*base)
    b_fields = {lam: _restrict(run(*direct[lam]).snapshots[-1], x_min, n) for lam in lams}
    a_fields = {lam: rescale_snapshot(base_traj, lam, 1.0, x_min, dx, n) for lam in lams}
    return lams, a_fields, b_fields


# The routes' grid spacing; the refinement check runs at half of it.
_RESCALING_DX = 1.0 / 128.0
# Both routes simulate on this extent and restrict to the target grid.
_RESCALING_EXTENT = (-8.0, 16.0)


def run_rescaling_family(spec: StudySpec):
    """u_lam(1, .) by trajectory rescaling vs by direct simulation.

    The two routes must agree in L^1, with the gap shrinking under mesh
    refinement, and the distance to the profile must decrease in lam
    along both routes.
    """
    (datum, _), _ = spec.runs[_RESCALING_DX]
    nw = NWave(m=datum.mass(), q=spec.base.q)
    lams, a_fields, b_fields = _rescaling_routes(spec, _RESCALING_DX)
    _, a_fine, b_fine = _rescaling_routes(spec, _RESCALING_DX / 2.0)

    rows, worst_ratio, lam1_gap = [], 0.0, 0.0
    dists = {"rescaled": {}, "direct": {}}
    for lam in lams:
        _dump_snapshots(spec, f"rescaling_lam_{lam:g}_rescaled.csv", (1.0,), (a_fields[lam],))
        _dump_snapshots(spec, f"rescaling_lam_{lam:g}_direct.csv", (1.0,), (b_fields[lam],))
        gap, gap_fine = _l1(a_fields[lam], b_fields[lam]), _l1(a_fine[lam], b_fine[lam])
        dists["rescaled"][lam] = nwave_distance(a_fields[lam], nw, 1.0, 1.0)
        dists["direct"][lam] = nwave_distance(b_fields[lam], nw, 1.0, 1.0)
        rows += [
            (lam, "route_gap_l1", gap),
            (lam, "route_gap_l1_refined", gap_fine),
            (lam, "profile_distance_rescaled", dists["rescaled"][lam]),
            (lam, "profile_distance_direct", dists["direct"][lam]),
        ]
        if lam == 1.0:  # the two routes are one simulation
            lam1_gap = gap
        else:
            worst_ratio = worst_max(worst_ratio, gap_fine / gap if gap > 0 else 0.0)

    reports = [
        Report(
            name="route agreement under refinement",
            verdict="pass" if worst_ratio <= 0.75 and lam1_gap <= 1e-10 else "fail",
            values={"worst_fine_to_coarse": worst_ratio, "lam1_gap": lam1_gap},
            tolerance=0.75,
        ),
    ]
    for label, by_lam in dists.items():
        reports.append(Report(
            name=f"profile distance decreasing in lam ({label})",
            verdict="pass" if _decreasing([by_lam[lam] for lam in lams]) else "fail",
            values={f"lam={lam:g}": by_lam[lam] for lam in lams},
        ))
    return reports, rows


# ---------------------------------------------------------------------------


# Each study kind's (sweep key, runner, datum kind, fixed datum parameters): a datum
# kind of None is the configured one, and parameters of None its datum.* keys.
_STUDIES = {
    # Height 0.711 puts the inviscid merge onto the limit profile at t ~ 5, strictly
    # between checkpoints; a 1 x 1 box of the same mass merges exactly at t = 3 and makes
    # the distance there transiently non-monotone against the later diffusive-layer decay.
    "long_time_nonnegative": ("study.times", run_long_time, "box",
                              {"height": 0.711, "left": 0.0, "right": 1.0 / 0.711}),
    "long_time_sign_changing": ("study.times", run_long_time, "two_boxes_signed", None),
    "vanishing_viscosity": ("study.mus", run_vanishing_viscosity, None, None),
    "rescaling_family": ("study.lambdas", run_rescaling_family, "box", DATUM_PARAMS["box"]),
}


def run_study(spec: StudySpec) -> list:
    """Run the study and return its Reports; given spec.out_dir, write its
    snapshot CSVs and, through io.write_results, its results there."""
    reports, rows = _STUDIES[spec.kind][1](spec)
    if spec.out_dir is not None:
        from .io import write_results

        write_results(spec.out_dir, spec.kind, reports, rows)
    return reports
