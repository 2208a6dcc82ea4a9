"""End-to-end studies: long-time profile convergence, vanishing viscosity,
the two-route rescaling consistency check, and the kernel bound sweep.

Each study is deterministic given its config and runs its simulations one
after another in the calling thread.  A study writes a run manifest, a
summary CSV and a verdicts JSON into its output directory and returns the
Reports.

Long-time studies run in the unrescaled frame and evaluate at large times;
by the scaling identity u_lam(t, x) = lam u(lam^q t, lam x) this probes the
same limit as large rescale factors while keeping the kernel resolved on
the grid.  The rescaling study covers the other route at moderate lam and
checks the two agree.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .config import (DEFAULTS, STUDY_KINDS, Config, ConfigError, build_kernel, check_grid,
                     rescale_kernel)
from .diagnostics import (
    Report,
    energy_report,
    lp_norm,
    nwave_distance,
    sup_norm_bound_report,
    worst_max,
)
from .grid import GridFunction, grid_function
from .nonlocal_op import second_order_bound_ratios
from .profiles import DATUM_PARAMS, NWave, check_datum, make_initial_datum
from .solver import ParamError, SimParams, rescale_snapshot, run

__all__ = [
    "StudySpec",
    "study_spec",
    "run_study",
    "run_long_time",
    "run_vanishing_viscosity",
    "run_rescaling_family",
    "kernel_bound_sweep",
]


def _pmap(fn, items):
    """[fn(x) for x in items], in the calling thread.

    The decay suite maps its three q runs through here.  A thread pool
    used to run them, but a step that works on the field's support alone
    holds the GIL for most of its time, so two threads mostly queue on
    it: on 2 CPUs the suite took 11.3-13.0 s on two threads against
    12.0-12.5 s in the calling thread.  The name stays because the
    benchmark's tracer times each item under it.
    """
    return [fn(x) for x in items]


def _dump_snapshots(spec: StudySpec, name: str, times, snapshots):
    if spec.out_dir is None:
        return
    from .io import write_snapshots_csv

    write_snapshots_csv(times, snapshots, os.path.join(spec.out_dir, name))


# The config key each study sweeps over; kernel_bound_sweep's is fixed.
_SWEEP_KEYS = {
    "long_time_nonnegative": "study.times",
    "long_time_sign_changing": "study.times",
    "vanishing_viscosity": "study.mus",
    "rescaling_family": "study.lambdas",
}


@dataclass
class StudySpec:
    """One study: a kind, base parameters, a datum, and the sweep values."""

    kind: str
    base: SimParams
    datum_kind: str
    datum_params: dict = field(default_factory=dict)
    sweep: tuple = ()
    out_dir: str | None = None
    # the kernel_bound sweep's kernels by rescale factor (1.0 the base),
    # as _build_kernels built and checked them; replace() starts empty
    kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in STUDY_KINDS:
            raise ConfigError(
                f"unknown study kind {self.kind!r}; choose one of {', '.join(STUDY_KINDS)}",
                origin="study.kind",
            )
        sweep = tuple(float(v) for v in self.sweep)
        key = _SWEEP_KEYS.get(self.kind, "study.kind")
        if len(sweep) < 2:
            raise ConfigError("a study needs at least two sweep values", origin=key)
        if not all(math.isfinite(v) and v > 0 for v in sweep):
            raise ConfigError("sweep values must be finite and positive", origin=key)
        diffs = np.diff(sweep)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("sweep values must be strictly monotone", origin=key)
        self.sweep = sweep


def study_spec(cfg: Config, out_dir: str | None = None) -> StudySpec:
    """Build the StudySpec for cfg.study_kind from a parsed config.

    It also builds every kernel the study will use, so a kernel that does
    not fit the study's own grids raises ConfigError before anything runs.
    """
    kind = cfg.study_kind
    if kind == "long_time_nonnegative":
        sweep = cfg.study_times
        datum_kind = "box"
        # Height 0.711 puts the inviscid merge onto the limit profile at
        # t ~ 5, strictly between checkpoints; a 1 x 1 box of the same mass
        # merges exactly at t = 3 and makes the distance there transiently
        # non-monotone against the later diffusive-layer decay.
        datum_params = {"height": 0.711, "left": 0.0, "right": 1.0 / 0.711}
    elif kind == "long_time_sign_changing":
        sweep = cfg.study_times
        datum_kind = "two_boxes_signed"
        # load_config checks only the keys of the configured datum.kind,
        # so these are checked here, blamed on the first that was changed
        names = DATUM_PARAMS[datum_kind]
        datum_params = {name: cfg.raw[f"datum.{name}"] for name in names}
        try:
            check_datum(datum_kind, **datum_params)
        except ValueError as exc:
            changed = [f"datum.{n}" for n in names
                       if datum_params[n] != DEFAULTS[f"datum.{n}"]]
            raise ConfigError(str(exc), origin=(changed or ["datum.kind"])[0]) from None
    elif kind == "vanishing_viscosity":
        sweep = cfg.study_mus
        datum_kind, datum_params = cfg.datum_kind, dict(cfg.datum_params)
    elif kind == "rescaling_family":
        sweep = cfg.study_lambdas
        datum_kind, datum_params = "box", {"height": 1.0, "left": 0.0, "right": 1.0}
    else:  # kernel_bound_sweep
        sweep = tuple(float(k) for k in range(1, 65))
        datum_kind, datum_params = cfg.datum_kind, dict(cfg.datum_params)
    spec = StudySpec(
        kind=kind,
        base=cfg.params,
        datum_kind=datum_kind,
        datum_params=datum_params,
        sweep=sweep,
        out_dir=out_dir,
    )
    _build_kernels(spec)
    return spec


def _build_kernels(spec: StudySpec):
    """Build the kernel of every grid and rescale factor the study will use."""
    kind, sweep, lam_key = spec.kind, spec.sweep, "lambda"
    if kind == "vanishing_viscosity":
        grids = [(dx, 1.0) for dx in (_VISCOSITY_DX, _VISCOSITY_DX / 2.0)]
    elif kind == "rescaling_family":
        if min(sweep) < 1.0:
            raise ConfigError("rescale factors must be >= 1", origin="study.lambdas")
        grids = [(dx, lam) for dx in (_RESCALING_DX, _RESCALING_DX / 2.0)
                 for lam in (1.0,) + sweep]
        lam_key = "study.lambdas"
    elif kind == "kernel_bound_sweep":
        # the sweep's factors are fixed, so only the width can make room;
        # one base kernel, rescaled by each factor
        base = build_kernel(replace(spec.base, dx=_SWEEP_GRID[2], lam=1.0))
        spec.kernels = {1.0: base}
        for lam in sweep:
            spec.kernels[lam] = rescale_kernel(base, lam, lam_key="kernel.width")
        return
    else:
        params = _long_time_params(spec, sorted(sweep))
        try:
            params.grid_n()
        except ParamError as exc:
            raise ConfigError(str(exc), origin="study.times") from None
        # the nonnegative study fixes its width, so only dx can misfit
        build_kernel(params, width_key="grid.dx")
        return
    for dx, lam in grids:
        params = replace(spec.base, dx=dx, lam=lam)
        if kind == "vanishing_viscosity":  # the one study on the configured extent
            check_grid(params, f"the {kind} study's grid")
        build_kernel(params, lam_key=lam_key)


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


def _long_time_params(spec: StudySpec, times) -> SimParams:
    q = spec.base.q
    t_final = times[-1]
    mass = abs(_datum_mass(spec.datum_kind, spec.datum_params))
    # wave front position at the final time, padded by 20 on both sides
    r = (q / (q - 1.0)) ** ((q - 1.0) / q) * max(mass, 1e-12) ** ((q - 1.0) / q) \
        * t_final ** (1.0 / q)
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
        output_times=tuple(times),
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
    if not spec.base.q < 2.0:
        raise ConfigError(
            "the long-time profile limit needs q strictly below 2",
            origin="q",
        )
    times = tuple(sorted(spec.sweep))
    params = _long_time_params(spec, times)
    datum = make_initial_datum(
        spec.datum_kind, params.x_min, params.dx, params.grid_n(), **spec.datum_params
    )
    mass = datum.mass()
    if abs(mass) < 1e-12:
        raise ConfigError(
            "zero-mass datum in a profile-convergence study; the limit "
            "profile needs nontrivial mass",
            origin="datum.kind",
        )
    traj = run(datum, params)
    _dump_snapshots(spec, f"{spec.kind}_snapshots.csv", traj.times, traj.snapshots)
    nw = NWave(m=mass, q=params.q)

    rows = []
    dists = {}
    for p in (1.0, 2.0):
        dists[p] = [nwave_distance(u, nw, t, p) for t, u in zip(traj.times, traj.snapshots)]
        rows += [(t, f"scaled_distance_p{p:g}", d) for t, d in zip(traj.times, dists[p])]
    rows += [(t, "mass", m) for t, m in traj.mass_history]

    # Decade boundaries: keep a checkpoint once it is >= 10x the last kept.
    decades = [0]
    for i, t in enumerate(times):
        if t >= 10.0 * times[decades[-1]]:
            decades.append(i)

    reports = []
    for p in (1.0, 2.0):
        d = dists[p]
        factor = d[0] / d[-1] if d[-1] > 0 else np.inf
        if p == 1.0:
            monotone = all(b < a for a, b in zip(d, d[1:]))
            ok = monotone and factor >= 3.0
            values = {"first": d[0], "last": d[-1], "factor": factor,
                      "monotone": monotone}
            detail = f"checkpoints {times}"
        else:
            dd = [d[i] for i in decades]
            decades_down = all(b < a for a, b in zip(dd, dd[1:]))
            ok = decades_down and factor > 1.0
            values = {"first": d[0], "last": d[-1], "factor": factor,
                      "decades_down": decades_down}
            detail = f"decade boundaries {tuple(times[i] for i in decades)}"
        reports.append(Report(
            name=f"profile convergence p={p:g} ({spec.datum_kind})",
            verdict="pass" if ok else "fail",
            values=values,
            detail=detail,
        ))
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

    Also estimates the scheme's own viscosity floor (the mu = 0 distance
    between two grid resolutions); any mu at or below that floor is
    reported informationally rather than gating the verdict.
    """
    mus = tuple(sorted(spec.sweep, reverse=True))
    t_eval = 1.0
    params = replace(
        spec.base,
        lam=1.0,
        dx=_VISCOSITY_DX,
        output_times=(t_eval,),
    )
    datum = make_initial_datum(
        spec.datum_kind, params.x_min, params.dx, params.grid_n(), **spec.datum_params
    )

    fields = [run(datum, replace(params, mu=mu)).snapshots[-1] for mu in (0.0,) + mus]
    for mu, u in zip((0.0,) + mus, fields):
        _dump_snapshots(spec, f"viscosity_mu_{mu:g}.csv", (t_eval,), (u,))
    u0, viscous = fields[0], dict(zip(mus, fields[1:]))
    dists = {
        mu: lp_norm(u0.with_values(viscous[mu].values - u0.values), 1) for mu in mus
    }

    fine = replace(params, mu=0.0, dx=params.dx / 2.0)
    fine_datum = make_initial_datum(
        spec.datum_kind, fine.x_min, fine.dx, fine.grid_n(), **spec.datum_params
    )
    u0_fine = _coarsen(run(fine_datum, fine).snapshots[-1])
    floor = lp_norm(u0.with_values(u0_fine.values - u0.values), 1)

    rows = [(mu, "l1_distance_to_inviscid", dists[mu]) for mu in mus]
    rows.append((0.0, "viscosity_floor", floor))

    above = [mu for mu in mus if mu > floor]
    d_above = [dists[mu] for mu in above]
    monotone = all(b < a for a, b in zip(d_above, d_above[1:]))
    reports = [Report(
        name="vanishing-viscosity distances",
        verdict="pass" if monotone and len(above) >= 2 else "fail",
        values={f"mu={mu:g}": dists[mu] for mu in mus} | {"floor": floor},
        detail=(f"{len(mus) - len(above)} sweep value(s) at or below the "
                f"viscosity floor (informational)" if len(above) < len(mus) else ""),
    )]
    return reports, rows


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
    q = spec.base.q
    lams = tuple(sorted(spec.sweep))
    x_min, x_max = -4.0, 6.0
    n = int(round((x_max - x_min) / dx))

    src_times = tuple(sorted(lam ** q for lam in lams))
    base_params = replace(
        spec.base, lam=1.0, mu=0.0,
        x_min=-8.0, x_max=16.0, dx=dx, output_times=src_times,
    )
    base_datum = make_initial_datum(
        spec.datum_kind, base_params.x_min, dx, base_params.grid_n(), **spec.datum_params
    )
    base_traj = run(base_datum, base_params)

    def route_b(lam):
        p = replace(base_params, lam=lam, output_times=(1.0,))
        datum_b = make_initial_datum(
            "box", p.x_min, dx, p.grid_n(),
            height=spec.datum_params["height"] * lam,
            left=spec.datum_params["left"] / lam,
            right=spec.datum_params["right"] / lam,
        )
        return _restrict(run(datum_b, p).snapshots[-1], x_min, n)

    b_fields = {lam: route_b(lam) for lam in lams}
    a_fields = {lam: rescale_snapshot(base_traj, lam, 1.0, x_min, dx, n) for lam in lams}
    return lams, a_fields, b_fields


# The routes' grid spacing; the refinement check runs at half of it.
_RESCALING_DX = 1.0 / 128.0


def run_rescaling_family(spec: StudySpec):
    """u_lam(1, .) by trajectory rescaling vs by direct simulation.

    The two routes must agree in L^1, with the gap shrinking under mesh
    refinement, and the distance to the profile must decrease in lam
    along both routes.
    """
    nw = NWave(m=1.0, q=spec.base.q)
    lams, a_fields, b_fields = _rescaling_routes(spec, _RESCALING_DX)
    _, a_fine, b_fine = _rescaling_routes(spec, _RESCALING_DX / 2.0)

    def l1(u, v):
        return lp_norm(u.with_values(u.values - v.values), 1)

    for lam in lams:
        _dump_snapshots(spec, f"rescaling_lam_{lam:g}_rescaled.csv", (1.0,), (a_fields[lam],))
        _dump_snapshots(spec, f"rescaling_lam_{lam:g}_direct.csv", (1.0,), (b_fields[lam],))

    rows = []
    gaps, gaps_fine, dist_a, dist_b = {}, {}, {}, {}
    for lam in lams:
        gaps[lam] = l1(a_fields[lam], b_fields[lam])
        gaps_fine[lam] = l1(a_fine[lam], b_fine[lam])
        dist_a[lam] = nwave_distance(a_fields[lam], nw, 1.0, 1.0)
        dist_b[lam] = nwave_distance(b_fields[lam], nw, 1.0, 1.0)
        rows += [
            (lam, "route_gap_l1", gaps[lam]),
            (lam, "route_gap_l1_refined", gaps_fine[lam]),
            (lam, "profile_distance_rescaled", dist_a[lam]),
            (lam, "profile_distance_direct", dist_b[lam]),
        ]

    lam1_gap = gaps[lams[0]] if lams[0] == 1.0 else 0.0
    worst_ratio = 0.0
    for lam in lams:
        if lam == 1.0:
            continue
        worst_ratio = worst_max(worst_ratio, gaps_fine[lam] / gaps[lam] if gaps[lam] > 0 else 0.0)
    reports = [
        Report(
            name="route agreement under refinement",
            verdict="pass" if worst_ratio <= 0.75 and lam1_gap <= 1e-10 else "fail",
            values={"worst_fine_to_coarse": worst_ratio, "lam1_gap": lam1_gap},
            tolerance=0.75,
        ),
    ]
    for label, dists in (("rescaled", dist_a), ("direct", dist_b)):
        seq = [dists[lam] for lam in lams]
        monotone = all(b < a for a, b in zip(seq, seq[1:]))
        reports.append(Report(
            name=f"profile distance decreasing in lam ({label})",
            verdict="pass" if monotone else "fail",
            values={f"lam={lam:g}": dists[lam] for lam in lams},
        ))
    return reports, rows


# ---------------------------------------------------------------------------
# kernel bound sweep


_PSI_NAMES = ("quadratic", "gaussian", "wave_packet")
_SWEEP_GRID = (-4.0, 4.0, 1.0 / 512.0)


def _psi_field(name: str, x_min: float, dx: float, n: int) -> GridFunction:
    x = x_min + (np.arange(n) + 0.5) * dx
    if name == "quadratic":
        v = x ** 2
    elif name == "gaussian":
        v = np.exp(-(x ** 2))
    elif name == "wave_packet":
        v = np.sin(2.0 * x) * np.exp(-(x ** 2) / 4.0)
    else:
        raise ValueError(f"unknown test function {name!r}")
    return grid_function(v, x_min, dx)


def kernel_bound_sweep(spec: StudySpec):
    """Ratios ||lam^2 (J_lam * psi - psi)||_p / ||psi_xx||_p over the sweep.

    The quadratic row must sit at m2/2 to 1e-10 for every lam and p; the
    smooth rows must stay below twice that.
    """
    lams = spec.sweep
    x_min, x_max, dx = _SWEEP_GRID
    n = int(round((x_max - x_min) / dx))
    if not spec.kernels:  # a spec made without study_spec
        _build_kernels(spec)
    half = spec.kernels[1.0].m2 / 2.0
    psis = {name: _psi_field(name, x_min, dx, n) for name in _PSI_NAMES}
    ps = (1.0, 2.0, np.inf)

    by_lam = {}
    for lam in lams:
        by_lam[lam] = {
            (name, p): ratio
            for name in _PSI_NAMES
            for p, ratio in zip(ps, second_order_bound_ratios(spec.kernels[lam], psis[name],
                                                              lam, ps))
        }
    rows = [
        (lam, f"{name}_p{p:g}", by_lam[lam][(name, p)])
        for lam in lams
        for name in _PSI_NAMES
        for p in ps
    ]

    quad_dev = float(np.max([
        abs(by_lam[lam][("quadratic", p)] - half) for lam in lams for p in ps
    ]))
    smooth_max = float(np.max([
        by_lam[lam][(name, p)]
        for lam in lams
        for name in ("gaussian", "wave_packet")
        for p in ps
    ]))
    reports = [
        Report(
            name="quadratic ratio pinned at m2/2",
            verdict="pass" if quad_dev <= 1e-10 else "fail",
            values={"worst_deviation": quad_dev, "m2_over_2": half},
            tolerance=1e-10,
        ),
        Report(
            name="smooth ratios bounded by 2 (m2/2)",
            verdict="pass" if smooth_max <= 2.0 * half * (1.0 + 1e-12) else "fail",
            values={"max_ratio": smooth_max, "bound": 2.0 * half},
        ),
    ]
    return reports, rows


# ---------------------------------------------------------------------------


_STUDIES = {
    "long_time_nonnegative": run_long_time,
    "long_time_sign_changing": run_long_time,
    "vanishing_viscosity": run_vanishing_viscosity,
    "rescaling_family": run_rescaling_family,
    "kernel_bound_sweep": kernel_bound_sweep,
}


def run_study(spec: StudySpec) -> list:
    """Run the study, write its outputs if an out_dir is set, return Reports."""
    reports, rows = _STUDIES[spec.kind](spec)
    if spec.out_dir is not None:
        from .io import write_summary_csv, write_verdicts_json

        write_summary_csv(rows, os.path.join(spec.out_dir, f"{spec.kind}_summary.csv"))
        write_verdicts_json(reports, os.path.join(spec.out_dir, f"{spec.kind}_verdicts.json"))
    return reports
