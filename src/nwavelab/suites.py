"""Named verification suites behind the `verify` command.

Each suite takes a Config alone, runs a fixed battery of checks and
returns (reports, rows): its Reports and its summary rows, empty for every
suite but kernel_bound.  run_suite is the one caller; given an out_dir it
writes the results through io.write_results, as run_study does for the
studies.  The CLI prints one line per report and maps any failure to exit
code 1.  Suites are deterministic given the config (and its seed, for the
randomized ones); their tolerances are constants, no config key moves a
gate, and the checks exact in the scheme share one (_exact).  A suite
that picks its own grid or rescale factor checks that run first, through
config.check_run, and oleinik its datum's sign, through
config.require_nonnegative, so a config that does not fit is a ConfigError
before anything runs.  contraction and comparison share one setup
(_random_pairs); oleinik and tails one run of the configured case, made
once per Config (_configured_run).

    oleinik              one-sided slope bound on the configured run,
                         with a half-dx rerun when an excess needs one
    decay                L^p decay exponents for q in {1.25, 1.5, 1.75}
    contraction          L^1 and positive-part contraction on random pairs
    comparison           ordered data stay ordered; sign preservation
    entropy              Kruzkov residuals on closed-form and simulated runs
    tails                tail-mass growth bound and L^1 shift moduli
    nonlocal_comparison  the pointwise inequality at a maximum, randomized
    kernel_bound         second-difference bound of J_lam for lam = 1, ..., 64
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import Config, ConfigError, check_run, require_nonnegative
from .diagnostics import (
    COMPARISON_TOL,
    Report,
    decay_fit,
    energy_report,
    entropy_residuals,
    l1_modulus,
    lp_norm,
    nonlocal_comparisons,
    oleinik_margin,
    random_smooth_field,
    random_smooth_rows,
    sup_norm_bound_report,
    tail_mass,
    worst_max,
)
from .grid import GridFunction, grid_function
from .nonlocal_op import second_order_bound_ratios
from .profiles import NWave, make_initial_datum, nwave_sample
from .solver import SimParams, run
from .solver import run_lockstep as _run_lockstep  # see _lockstep_runs

__all__ = ["SUITE_NAMES", "run_suite"]

# Rounding allowance for the checks that hold exactly in the scheme
# (contraction, ordering, sign preservation): absolute, on order-one data.
_ROUNDING = 1e-11


def _configured_run(cfg: Config):
    """(datum, run(datum, cfg.params)) for the configured case.

    oleinik and tails both check this run, so it is made once per Config
    and kept in cfg.run_memo: one entry, keyed by the values it is made
    from (cfg.params, the datum kind and parameters), so a Config whose
    params or datum are reassigned gets a fresh run.  Callers only read
    the returned datum and Trajectory, never write them: a later suite
    on the same Config reads the same objects.
    """
    key = (cfg.params, cfg.datum_kind, tuple(sorted(cfg.datum_params.items())))
    if key not in cfg.run_memo:
        datum = cfg.make_datum()
        traj = run(datum, cfg.params)
        cfg.run_memo.clear()
        cfg.run_memo[key] = (datum, traj)
    return cfg.run_memo[key]


def _exact(name: str, key: str, worst: float) -> Report:
    """The Report of a check exact in the scheme: its worst value, gated at _ROUNDING."""
    return Report(name, "pass" if worst <= _ROUNDING else "fail", {key: worst}, _ROUNDING)


# ---------------------------------------------------------------------------
# oleinik


def suite_oleinik(cfg: Config):
    """Slope bound t * max (u^(q-1))_x <= 1 + OLEINIK_TOL on the configured run.

    Any positive excess must at least halve when dx is halved, pinning the
    excess on the scheme rather than on the estimate.  The dx/2 rerun
    starts only when a snapshot's excess is positive or not finite; its
    grid and kernel are checked before the configured run all the same.
    """
    require_nonnegative(cfg.make_datum(), "the oleinik suite", cfg.datum_kind, "datum.kind")
    fine_params = replace(cfg.params, dx=cfg.params.dx / 2.0)
    check_run(fine_params, "the oleinik suite's refined grid", kernel_width="grid.dx")
    _, traj = _configured_run(cfg)

    reports = []
    excesses = []
    for t, u in zip(traj.times, traj.snapshots):
        rep = oleinik_margin(u, cfg.params.q, t)
        excesses.append(rep.values["excess"])
        reports.append(rep)

    worst_ratio = 0.0
    checked = 0
    # `excess <= 0.0` is the loop's own skip test, so a NaN excess is refined
    if not all(excess <= 0.0 for excess in excesses):
        fine_traj = run(cfg.make_datum(fine_params), fine_params)
        for t, u, excess in zip(fine_traj.times, fine_traj.snapshots, excesses):
            if excess <= 0.0:
                continue
            fine_excess = oleinik_margin(u, cfg.params.q, t).values["excess"]
            worst_ratio = worst_max(worst_ratio, fine_excess / excess)
            checked += 1
    reports.append(
        Report(
            name="oleinik excess refinement",
            verdict="pass" if worst_ratio <= 0.5 + 1e-9 else "fail",
            values={"worst_ratio": worst_ratio, "snapshots_checked": checked},
            tolerance=0.5,
            detail="" if checked else "no positive excess to refine",
        )
    )
    reports.append(sup_norm_bound_report(traj))
    reports.append(energy_report(traj))
    return reports, []


# ---------------------------------------------------------------------------
# decay

# Domains sized so the wave front r_q(100) plus spreading stays well inside
# through t=100; the left margin covers the diffusive tail (~4 sigma).
_DECAY_GRIDS = {
    1.25: (-12.0, 160.0),
    1.5: (-12.0, 80.0),
    1.75: (-12.0, 56.0),
}
# Log-spaced out to 316; the fit uses the last decade.  The slope converges
# on the clock (m2/2) t^((q-2)/q) (shock-layer width over wave extent), so
# the narrow width-0.25 kernel below is what makes the window sufficient:
# with the default width-1 kernel the q = 1.25 sup slope would still be
# ~0.14 shy of its target at t = 100.
_DECAY_TIMES = tuple(10.0 ** (i / 4.0) for i in range(11))


def suite_decay(cfg: Config):
    """Fitted log-log decay slopes against -(1/q)(1 - 1/p) over a decade.

    Box datum of mass 1, q in {1.25, 1.5, 1.75}, p in {1, 2, inf}; the
    p = inf fit also enforces the explicit amplitude bound and p = 1
    enforces no L^1 growth.  The q runs are independent: q = 1.25, about
    two thirds of the work, steps in the calling process while one forked
    child steps q = 1.5 and q = 1.75, unless experiments._pmap falls back
    to running all three here.  Reports come back in q order.
    """
    from .experiments import _pmap

    runs = [
        replace(cfg.params, q=q, kernel_width=0.25, x_min=x_min, x_max=x_max,
                dx=1.0 / 128.0, output_times=_DECAY_TIMES)
        for q, (x_min, x_max) in sorted(_DECAY_GRIDS.items())
    ]
    check_run(runs[0])  # the three runs share its kernel

    def at_q(params):
        datum = make_initial_datum("box", params.x_min, params.dx, params.grid_n())
        traj = run(datum, params)
        return [decay_fit(traj, p) for p in (1.0, 2.0, np.inf)] + [energy_report(traj)]

    return [r for rs in _pmap(at_q, runs) for r in rs], []


# ---------------------------------------------------------------------------
# contraction / comparison

_PAIR_COUNT = 20


def _random_pairs(cfg: Config):
    """The pair suites' (rng, params, pairs): the rng seeded from cfg.seed, their
    checked run, and _PAIR_COUNT pairs of random_smooth_field data drawn in one call."""
    rng = np.random.default_rng(cfg.seed)
    # random data may genuinely flow out; that is fine here, hence the tail cap
    params = replace(cfg.params, x_min=-6.0, x_max=6.0, dx=1.0 / 64.0,
                     output_times=(0.5, 1.0), tail_cap=1e9)
    check_run(params)
    rows = random_smooth_rows(rng, params.x_min, params.dx, params.grid_n(),
                              (1.0,) * (2 * _PAIR_COUNT), (False,) * (2 * _PAIR_COUNT))
    fields = [grid_function(row, params.x_min, params.dx) for row in rows]
    return rng, params, list(zip(fields[0::2], fields[1::2]))


def _lockstep_runs(pairs, params: SimParams):
    """solver.run_lockstep on every pair at once, each pair its own group.

    The call goes through a private reference, which perfbench's tracer
    leaves unwrapped: it times this span for its suites.lockstep_*
    metrics and counts the batched steps, one rate call each, under it.
    """
    return _run_lockstep(pairs, params)


def suite_contraction(cfg: Config):
    """L^1 and positive-part contraction on random datum pairs.

    || u~(t) - u(t) ||_1 <= || phi~ - phi ||_1 and the same with positive
    parts, exact in the scheme up to rounding.
    """
    _, params, pairs = _random_pairs(cfg)
    worst_l1 = -np.inf
    worst_pos = -np.inf
    for (phi_a, phi_b), (traj_a, traj_b) in zip(pairs, _lockstep_runs(pairs, params)):
        d0 = phi_b.with_values(phi_b.values - phi_a.values)
        l1_0 = lp_norm(d0, 1)
        pos_0 = float(np.sum(np.maximum(d0.values, 0.0)) * d0.dx)
        for ua, ub in zip(traj_a.snapshots, traj_b.snapshots):
            d = ub.values - ua.values
            worst_l1 = worst_max(worst_l1, float(np.sum(np.abs(d)) * ua.dx) - l1_0)
            worst_pos = worst_max(worst_pos, float(np.sum(np.maximum(d, 0.0)) * ua.dx) - pos_0)
    return [
        _exact(f"l1 contraction ({_PAIR_COUNT} pairs)", "worst_growth", worst_l1),
        _exact(f"positive-part contraction ({_PAIR_COUNT} pairs)", "worst_growth", worst_pos),
    ], []


def suite_comparison(cfg: Config):
    """Order preservation of the scheme on random ordered pairs.

    phi <= phi~ cellwise implies u(t) <= u~(t) cellwise to rounding;
    nonnegative data stay nonnegative; equal data give identical runs.
    """
    rng, params, pairs = _random_pairs(cfg)
    ordered = [(a.with_values(np.minimum(a.values, b.values)),
                a.with_values(np.maximum(a.values, b.values)))
               for a, b in pairs]
    worst_order = -np.inf
    for traj_lo, traj_hi in _lockstep_runs(ordered, params):
        for ul, uh in zip(traj_lo.snapshots, traj_hi.snapshots):
            worst_order = worst_max(worst_order, float(np.max(ul.values - uh.values)))

    phi_pos = random_smooth_field(rng, params.x_min, params.dx, params.grid_n(),
                                  nonnegative=True)
    traj_pos = run(phi_pos, params)
    worst_neg = -float(np.min([np.min(u.values) for u in traj_pos.snapshots]))

    rerun = run(phi_pos, params)
    determinism = float(np.max([
        np.max(np.abs(u.values - v.values))
        for u, v in zip(traj_pos.snapshots, rerun.snapshots)
    ]))
    return [
        _exact(f"order preservation ({_PAIR_COUNT} pairs)", "worst_violation", worst_order),
        _exact("sign preservation", "worst_negative", worst_neg),
        Report(name="rerun determinism", verdict="pass" if determinism == 0.0 else "fail",
               values={"max_diff": determinism}, tolerance=0.0),
    ], []


# ---------------------------------------------------------------------------
# entropy

_ENTROPY_KS = (-1.0, 0.0, 0.5, 1.0)
# The quadrature allowance of a residual; the refined one gets half of it.
_ENTROPY_TOL = 2e-2
_ENTROPY_TIMES = tuple(0.5 + 0.05 * i for i in range(51))  # [0.5, 3.0]
_ENTROPY_BUMPS = tuple(
    (tc, 0.45, xc, 1.0)
    for tc in (1.0, 1.75, 2.5)
    for xc in (-0.5, 0.75, 2.0, 3.25)
)


def _closed_form_snapshots(q: float, times, x_min: float, dx: float, n: int):
    nw = NWave(m=1.0, q=q)
    return [nwave_sample(nw, t, x_min, dx, n) for t in times]


def suite_entropy(cfg: Config):
    """Kruzkov residuals >= -_ENTROPY_TOL for each k, worst over _ENTROPY_BUMPS.

    One entropy_residuals call gives a run's whole k x bump array, and a
    k's line reads its row's minimum; the minimum keeps a NaN, so a
    non-finite residual fails its line.  Checked on (a) the closed-form
    self-similar profile with the nonlocal term disabled, and (b) a
    simulated run with the full operator, viscous term included.  The k of
    the most negative closed-form residual, or of the first non-finite
    one, is recomputed at half the mesh and half the snapshot spacing:
    quadrature error must shrink with it.
    """
    q = cfg.params.q
    tol = _ENTROPY_TOL
    x_min, x_max, dx = -4.0, 8.0, 1.0 / 128.0
    times = np.asarray(_ENTROPY_TIMES)
    params = replace(cfg.params, x_min=x_min, x_max=x_max, dx=dx,
                     output_times=tuple(times))
    kernel = check_run(params)  # J_lam, the operator's own kernel
    n = params.grid_n()

    def residual_lines(kind: str, worst_by_k: np.ndarray) -> list:
        return [Report(
            name=f"{kind} residual k={k:g}",
            verdict="pass" if worst >= -tol else "fail",
            values={"worst_residual": worst},
            tolerance=tol,
        ) for k, worst in zip(_ENTROPY_KS, worst_by_k.tolist())]

    snaps = _closed_form_snapshots(q, times, x_min, dx, n)
    closed = entropy_residuals(times, snaps, q, _ENTROPY_KS, _ENTROPY_BUMPS).min(axis=1)
    reports = residual_lines("closed-form", closed)

    bad = int(np.argmin(closed))  # the first NaN if any, else the most negative
    k_bad = _ENTROPY_KS[bad]
    if not closed[bad] >= 0.0:
        times2 = np.arange(0.5, 3.0 + 1e-9, 0.025)
        snaps2 = _closed_form_snapshots(q, times2, x_min, dx / 2.0, 2 * n)
        refined = float(entropy_residuals(times2, snaps2, q, (k_bad,), _ENTROPY_BUMPS).min())
        ok = refined >= -tol / 2.0
        detail = f"k={k_bad:g}"
    else:
        refined = float(closed[bad])
        ok = True
        detail = "no negative residual to refine"
    reports.append(Report(
        name="residual quadrature refinement",
        verdict="pass" if ok else "fail",
        values={"worst_refined": refined},
        tolerance=tol / 2.0,
        detail=detail,
    ))

    datum = make_initial_datum("box", x_min, dx, n)
    traj = run(datum, params)
    simulated = entropy_residuals(traj.times, traj.snapshots, q, _ENTROPY_KS, _ENTROPY_BUMPS,
                                  alpha=params.alpha, kernel=kernel, mu=params.mu)
    return reports + residual_lines("simulated", simulated.min(axis=1)), []


# ---------------------------------------------------------------------------
# tails and moduli

_TAIL_RS = (3.0, 4.0, 5.0)
_TAIL_CAL = (8.0, 3.0)  # (t, R) used to fit the constant
_TAIL_MARGIN = 1.5


def suite_tails(cfg: Config):
    """Tail growth against C (t/R^2 + t^(1/q)/R), and shift moduli.

    The radii are chosen so 2R sits outside the bulk of the solution at
    every snapshot (the regime the bound is about).  The constant is fit
    at the single point where the tail is a priori largest relative to
    the envelope (final time, smallest radius) and the bound, widened by
    1.5x, is tested at every other (t, R).  Shift moduli must not expand
    in time.  output.times must end at the fit time (snapshot_at's rule),
    checked before the configured run.
    """
    t_cal, r_cal = _TAIL_CAL
    if not abs(cfg.params.t_final - t_cal) <= 1e-9 * max(1.0, t_cal):
        raise ConfigError(f"the tails suite fits its constant at t = {t_cal:g}, "
                          f"so the output times must end there", origin="output.times")
    datum, traj = _configured_run(cfg)
    q = cfg.params.q

    def phi_tail(r):
        # integral of |phi| over |x| > R  (tail_mass integrates |x| > 2R)
        return tail_mass(datum, r / 2.0)

    def envelope(t, r):
        return t / r ** 2 + t ** (1.0 / q) / r

    u_cal = traj.snapshot_at(t_cal)
    c_fit = worst_max(0.0, (tail_mass(u_cal, r_cal) - phi_tail(r_cal)) / envelope(t_cal, r_cal))
    worst = -np.inf
    for t, u in zip(traj.times, traj.snapshots):
        for r in _TAIL_RS:
            if (t, r) == _TAIL_CAL:
                continue
            bound = phi_tail(r) + _TAIL_MARGIN * c_fit * envelope(t, r)
            worst = worst_max(worst, tail_mass(u, r) - bound)
    reports = [Report(
        name="tail growth bound",
        verdict="pass" if worst <= 1e-12 else "fail",
        values={"c_fit": c_fit, "worst_excess": worst},
        tolerance=1e-12,
        detail=f"fit at t={t_cal:g}, R={r_cal:g}, margin {_TAIL_MARGIN:g}x",
    )]

    worst_mod = -np.inf
    for m in (1, 4, 16):
        h = m * cfg.params.dx
        mod0 = l1_modulus(datum, h)
        for u in traj.snapshots:
            worst_mod = worst_max(worst_mod, l1_modulus(u, h) - mod0)
    reports.append(Report(
        name="shift modulus non-expansion",
        verdict="pass" if worst_mod <= 1e-9 else "fail",
        values={"worst_growth": worst_mod},
        tolerance=1e-9,
        detail="h in {dx, 4dx, 16dx}",
    ))
    return reports, []


# ---------------------------------------------------------------------------
# nonlocal comparison

_COMPARISON_CASES = 1000
# Cases drawn and checked together: 100 rows of 256 cells, 0.2 MB.  Chunks
# of 100 cases ran no faster and left verify_mix's peak RSS 0.5 MB higher;
# all 1000 cases at once left it 11 MB higher.
_COMPARISON_CHUNK = 50


def suite_nonlocal_comparison(cfg: Config):
    """Randomized check of the pointwise inequality at a maximum of w.

    1000 seeded cases of smooth z >= 0 and smooth w, cycling beta through
    {0, 1/2, 1, (2-q)/(q-1)}; both A_z(x0) <= COMPARISON_TOL and the
    two-sided inequality must hold in every case.  Cases are drawn and
    checked _COMPARISON_CHUNK at a time; the fields and values are those of
    one random_smooth_field pair and one one-row nonlocal_comparisons call
    per case.
    """
    q = cfg.params.q
    rng = np.random.default_rng(cfg.seed)
    x_min, dx, n = -4.0, 1.0 / 32.0, 256
    kernel = check_run(replace(cfg.params, lam=1.0, x_min=x_min, x_max=x_min + n * dx, dx=dx))
    betas = (0.0, 0.5, 1.0, (2.0 - q) / (q - 1.0))

    violations = 0
    worst_a = -np.inf
    worst_gap = -np.inf
    for start in range(0, _COMPARISON_CASES, _COMPARISON_CHUNK):
        m = min(_COMPARISON_CHUNK, _COMPARISON_CASES - start)
        # each case draws its z, then its w
        rows = random_smooth_rows(rng, x_min, dx, n, (1.5, 1.0) * m, (True, False) * m)
        z, w = rows[0::2], rows[1::2]
        flip = np.max(w, axis=1) < 0.0
        w[flip] = -w[flip]
        x0 = np.argmax(w, axis=1)
        for j, beta in enumerate(betas):
            cases = slice((j - start) % len(betas), m, len(betas))  # case i has betas[i % 4]
            a_z, lhs, rhs, ok = nonlocal_comparisons(kernel, beta, z[cases], w[cases], x0[cases])
            violations += int(np.count_nonzero(~ok))
            worst_a = worst_max(worst_a, np.max(a_z))
            worst_gap = worst_max(worst_gap, np.max(lhs - rhs))
    return [Report(
        name=f"nonlocal comparison ({_COMPARISON_CASES} cases)",
        verdict="pass" if violations == 0 else "fail",
        values={"violations": violations, "worst_a_z": worst_a, "worst_gap": worst_gap},
        tolerance=COMPARISON_TOL,
        detail=f"betas {betas}",
    )], []


# ---------------------------------------------------------------------------
# kernel bound


_PSI_NAMES = ("quadratic", "gaussian", "wave_packet")
_SWEEP_GRID = (-4.0, 4.0, 1.0 / 512.0)


def _psi_field(name: str, x_min: float, dx: float, n: int) -> GridFunction:
    x = x_min + (np.arange(n) + 0.5) * dx
    if name == "quadratic":
        v = x ** 2
    elif name == "gaussian":
        v = np.exp(-(x ** 2))
    else:  # wave_packet
        v = np.sin(2.0 * x) * np.exp(-(x ** 2) / 4.0)
    return grid_function(v, x_min, dx)


def suite_kernel_bound(cfg: Config):
    """Ratios ||lam^2 (J_lam * psi - psi)||_p / ||psi_xx||_p for lam = 1, ..., 64.

    The quadratic row must sit at m2/2 to 1e-10 for every lam and p; the
    smooth rows must stay below twice that.  The configured kernel on
    _SWEEP_GRID and each of its rescalings are checked before any ratio;
    the factors are fixed, so only the width can make room.
    """
    lams = tuple(float(k) for k in range(1, 65))  # 1: the base kernel itself
    x_min, x_max, dx = _SWEEP_GRID
    params = replace(cfg.params, x_min=x_min, x_max=x_max, dx=dx, lam=1.0)
    base = check_run(params, "the kernel_bound suite's own grid")
    kernels = [check_run(replace(params, lam=lam), base=base, lam="kernel.width")
               for lam in lams]
    n = params.grid_n()
    half = kernels[0].m2 / 2.0
    psis = {name: _psi_field(name, x_min, dx, n) for name in _PSI_NAMES}
    ps = (1.0, 2.0, np.inf)

    rows = [
        (kernel.lam, f"{name}_p{p:g}", ratio)
        for kernel in kernels
        for name in _PSI_NAMES
        for p, ratio in zip(ps, second_order_bound_ratios(kernel, psis[name], ps))
    ]
    quad_dev = float(np.max([abs(ratio - half) for _, label, ratio in rows
                             if label.startswith("quadratic_")]))
    smooth_max = float(np.max([ratio for _, label, ratio in rows
                               if not label.startswith("quadratic_")]))
    return [
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
    ], rows


_SUITES = {
    "oleinik": suite_oleinik,
    "decay": suite_decay,
    "contraction": suite_contraction,
    "comparison": suite_comparison,
    "entropy": suite_entropy,
    "tails": suite_tails,
    "nonlocal_comparison": suite_nonlocal_comparison,
    "kernel_bound": suite_kernel_bound,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, cfg: Config, out_dir: str | None = None) -> list:
    """Run the named suite and return its Reports; given out_dir, write
    its results there through io.write_results."""
    if name not in _SUITES:
        raise ConfigError(
            f"unknown suite {name!r}; choose one of {', '.join(SUITE_NAMES)}",
            origin="verify",
        )
    reports, rows = _SUITES[name](cfg)
    if out_dir is not None:
        from .io import write_results

        write_results(out_dir, name, reports, rows)
    return reports
