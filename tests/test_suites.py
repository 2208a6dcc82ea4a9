import os
import threading

import numpy as np
import pytest

from nwavelab.config import ConfigError, load_config
from nwavelab.io import read_verdicts_json
from nwavelab.suites import SUITE_NAMES, run_suite, suite_kernel_bound


def test_unknown_suite_raises_config_error():
    with pytest.raises(ConfigError, match="unknown suite"):
        run_suite("nope", load_config())


def test_suite_names_stable():
    assert SUITE_NAMES == (
        "oleinik",
        "decay",
        "contraction",
        "comparison",
        "entropy",
        "tails",
        "nonlocal_comparison",
        "kernel_bound",
    )


def test_nonlocal_comparison_suite_passes_and_writes(tmp_path):
    out = str(tmp_path / "nc")
    reports = run_suite("nonlocal_comparison", load_config(), out_dir=out)
    assert all(r.passed for r in reports)
    back = read_verdicts_json(os.path.join(out, "nonlocal_comparison_verdicts.json"))
    assert [r.name for r in back] == [r.name for r in reports]
    assert any("1000 cases" in r.name for r in back)


def test_nonlocal_comparison_ignores_a_configured_extent_its_grid_does_not_tile():
    # its cases live on [-4, 4] at dx = 1/32, not on the configured [-8, 12.05]
    cfg = load_config(overrides=["grid.x_max=12.05", "grid.dx=0.05"])
    assert all(r.passed for r in run_suite("nonlocal_comparison", cfg))


def test_oleinik_suite_rejects_sign_changing_datum():
    cfg = load_config(overrides=["datum.kind=two_boxes_signed"])
    with pytest.raises(ConfigError) as exc:
        run_suite("oleinik", cfg)
    assert exc.value.origin == "datum.kind"


def test_suite_seed_determinism(tmp_path):
    cfg_a = load_config(seed=5)
    cfg_b = load_config(seed=5)
    ra = run_suite("nonlocal_comparison", cfg_a)
    rb = run_suite("nonlocal_comparison", cfg_b)
    va = [r.values for r in ra]
    vb = [r.values for r in rb]
    assert va == vb


def _counted_runs(monkeypatch):
    """The trajectories of every suites.run call, in order."""
    import nwavelab.suites as suites

    runs = []
    real = suites.run

    def counted(phi, params):
        runs.append(real(phi, params))
        return runs[-1]

    monkeypatch.setattr(suites, "run", counted)
    return runs


def test_oleinik_suite_skips_the_refinement_without_an_excess(monkeypatch):
    from nwavelab.diagnostics import Report, energy_report, oleinik_margin, sup_norm_bound_report

    cfg = load_config()
    runs = _counted_runs(monkeypatch)
    reports = run_suite("oleinik", cfg)
    assert len(runs) == 1
    traj = runs[0]
    expected = [oleinik_margin(u, cfg.params.q, t)
                for t, u in zip(traj.times, traj.snapshots)]
    expected += [
        Report(name="oleinik excess refinement", verdict="pass",
               values={"worst_ratio": 0.0, "snapshots_checked": 0}, tolerance=0.5,
               detail="no positive excess to refine"),
        sup_norm_bound_report(traj),
        energy_report(traj),
    ]
    assert reports == expected


_SMALL_OLEINIK = ["grid.dx=0.015625", "output.times=1,2"]


def _excess_at_t1(monkeypatch, coarse, fine=None):
    """suites.oleinik_margin, with the t = 1 excess set on the coarse grid
    (and on the refined grid when fine is given)."""
    import nwavelab.suites as suites
    from nwavelab.diagnostics import Report

    real = suites.oleinik_margin

    def margin(u, q, t):
        rep = real(u, q, t)
        excess = coarse if u.dx == 0.015625 else fine
        if t != 1.0 or excess is None:
            return rep
        return Report(rep.name, rep.verdict, {**rep.values, "excess": excess}, rep.tolerance)

    monkeypatch.setattr(suites, "oleinik_margin", margin)


def test_oleinik_suite_refines_a_positive_excess(monkeypatch):
    cfg = load_config(overrides=_SMALL_OLEINIK)
    _excess_at_t1(monkeypatch, coarse=0.5, fine=0.125)
    runs = _counted_runs(monkeypatch)
    reports = run_suite("oleinik", cfg)
    assert [traj.initial.dx for traj in runs] == [0.015625, 0.0078125]
    refine = [r for r in reports if r.name == "oleinik excess refinement"][0]
    assert refine.values == {"worst_ratio": 0.25, "snapshots_checked": 1}
    assert refine.passed and refine.detail == ""


def test_oleinik_suite_refines_a_nan_excess_and_fails(monkeypatch):
    import math

    cfg = load_config(overrides=_SMALL_OLEINIK)
    _excess_at_t1(monkeypatch, coarse=float("nan"))
    runs = _counted_runs(monkeypatch)
    reports = run_suite("oleinik", cfg)
    assert len(runs) == 2
    refine = [r for r in reports if r.name == "oleinik excess refinement"][0]
    assert math.isnan(refine.values["worst_ratio"])
    assert refine.values["snapshots_checked"] == 1
    assert not refine.passed


# a configured case both oleinik and tails accept, small enough to run often
_SMALL_SHARED = ["grid.dx=0.015625", "output.times=1,8"]


def test_oleinik_and_tails_share_one_configured_run(monkeypatch):
    cfg = load_config(overrides=_SMALL_SHARED)
    runs = _counted_runs(monkeypatch)
    run_suite("oleinik", cfg)
    run_suite("tails", cfg)
    assert [traj.params for traj in runs] == [cfg.params]


def test_equal_configs_each_make_their_own_run(monkeypatch):
    # the memo lives on the Config instance: two loads with equal values,
    # or a dataclasses.replace copy, share nothing
    from dataclasses import replace

    cfg_a = load_config(overrides=_SMALL_SHARED)
    cfg_b = load_config(overrides=_SMALL_SHARED)
    assert cfg_a == cfg_b
    runs = _counted_runs(monkeypatch)
    run_suite("tails", cfg_a)
    run_suite("tails", cfg_b)
    run_suite("tails", replace(cfg_a, seed=cfg_a.seed + 1))
    assert len(runs) == 3


@pytest.mark.parametrize("change", ["params", "datum_params"])
def test_a_changed_config_gets_a_fresh_run(monkeypatch, change):
    from dataclasses import replace

    cfg = load_config(overrides=_SMALL_SHARED)
    runs = _counted_runs(monkeypatch)
    run_suite("oleinik", cfg)
    if change == "params":
        cfg.params = replace(cfg.params, alpha=0.5)
    else:
        cfg.datum_params["height"] = 0.5  # in place: the key is the values
    run_suite("tails", cfg)
    assert len(runs) == 2
    assert runs[1].params == cfg.params
    assert float(np.max(runs[1].initial.values)) == cfg.datum_params["height"]


def test_tails_on_the_shared_run_equals_tails_alone():
    cfg = load_config()
    run_suite("oleinik", cfg)
    shared = run_suite("tails", cfg)
    alone = run_suite("tails", load_config())
    assert repr(shared) == repr(alone)
    assert shared == alone


@pytest.mark.parametrize("seed", [5, 7])
def test_nonlocal_comparison_suite_matches_the_per_case_loop(seed):
    from dataclasses import replace

    from nwavelab.config import check_run
    from nwavelab.diagnostics import nonlocal_comparisons, random_smooth_field, worst_max

    cfg = load_config(seed=seed)
    q = cfg.params.q
    kernel = check_run(replace(cfg.params, lam=1.0, x_min=-4.0, x_max=4.0, dx=1.0 / 32.0))
    betas = (0.0, 0.5, 1.0, (2.0 - q) / (q - 1.0))
    rng = np.random.default_rng(seed)
    violations, worst_a, worst_gap = 0, -np.inf, -np.inf
    for i in range(1000):
        z = random_smooth_field(rng, -4.0, 1.0 / 32.0, 256, amplitude=1.5, nonnegative=True)
        w = random_smooth_field(rng, -4.0, 1.0 / 32.0, 256)
        if float(np.max(w.values)) < 0.0:
            w = w.with_values(-w.values)
        (a_z,), (lhs,), (rhs,), (ok,) = nonlocal_comparisons(
            kernel, betas[i % 4], z.values[None], w.values[None],
            np.array([np.argmax(w.values)]))
        violations += not ok
        worst_a = worst_max(worst_a, a_z)
        worst_gap = worst_max(worst_gap, lhs - rhs)
    (report,) = run_suite("nonlocal_comparison", cfg)
    assert report.values == {"violations": violations, "worst_a_z": worst_a,
                             "worst_gap": worst_gap}


@pytest.mark.parametrize("seed", [5, 7])
@pytest.mark.parametrize("suite", ["contraction", "comparison"])
def test_pair_suites_step_every_pair_in_one_batch(monkeypatch, suite, seed):
    # One _lockstep_runs call takes all 20 pairs, each pair its own group,
    # and the Reports equal those of one-group runs made pair by pair.
    # comparison's rerun determinism still makes two separate runs.
    import nwavelab.suites as suites
    from nwavelab.solver import run_lockstep

    batches, runs = [], []
    batched, single = suites._lockstep_runs, suites.run

    def counted_batch(pairs, params):
        batches.append(len(pairs))
        return batched(pairs, params)

    def counted_run(phi, params):
        runs.append(phi)
        return single(phi, params)

    monkeypatch.setattr(suites, "_lockstep_runs", counted_batch)
    monkeypatch.setattr(suites, "run", counted_run)
    together = run_suite(suite, load_config(seed=seed))
    assert batches == [20]
    assert len(runs) == (2 if suite == "comparison" else 0)
    monkeypatch.setattr(suites, "_lockstep_runs",
                        lambda pairs, params: [run_lockstep([pair], params)[0] for pair in pairs])
    pair_by_pair = run_suite(suite, load_config(seed=seed))
    assert together == pair_by_pair
    assert repr(together) == repr(pair_by_pair)


def _small_decay(monkeypatch, times=9):
    import nwavelab.suites as suites

    monkeypatch.setattr(suites, "_DECAY_GRIDS",
                        {q: suites._DECAY_GRIDS[q] for q in (1.5, 1.75)})
    monkeypatch.setattr(suites, "_DECAY_TIMES", suites._DECAY_TIMES[:times])
    reports = run_suite("decay", load_config())
    return [(r.name, r.verdict, r.values) for r in reports]


def test_decay_suite_starts_no_thread(monkeypatch, cpus):
    # Its steps hold the GIL for most of their time, so threads would only
    # queue on it: the second q run steps in a forked child process, and no
    # two steps share one GIL.
    def no_thread(self):
        raise AssertionError("the decay suite started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    forks = cpus(2)
    first = _small_decay(monkeypatch)
    assert [name for name, _, _ in first] == [
        name
        for q in (1.5, 1.75)
        for name in (f"decay exponent p=1 q={q:g}", f"decay exponent p=2 q={q:g}",
                     f"decay exponent p=inf q={q:g}", "energy dissipation")
    ]
    # dict equality compares the floats exactly: bit-identical values
    assert _small_decay(monkeypatch) == first
    assert len(forks) == 2


def test_decay_suite_on_one_cpu_forks_nothing_and_reports_the_same(monkeypatch, cpus):
    cpus(2)
    forked = _small_decay(monkeypatch, times=5)
    cpus(1)  # os.fork raises
    assert _small_decay(monkeypatch, times=5) == forked


def test_nan_measurement_fails_its_check(monkeypatch):
    import nwavelab.suites as suites

    real = suites.l1_modulus
    calls = []

    def one_nan(u, h):
        calls.append(h)
        return np.nan if len(calls) == 3 else real(u, h)

    monkeypatch.setattr(suites, "l1_modulus", one_nan)
    reports = {r.name: r for r in run_suite("tails", load_config())}
    modulus = reports["shift modulus non-expansion"]
    assert not modulus.passed
    assert np.isnan(modulus.values["worst_growth"])
    assert reports["tail growth bound"].passed


def test_tails_fails_closed_on_a_nan_calibration(monkeypatch):
    # max(0.0, nan) is 0.0, which would record a fit that was never measured
    import nwavelab.suites as suites

    t_cal, r_cal = suites._TAIL_CAL
    runs = _counted_runs(monkeypatch)
    real = suites.tail_mass

    def nan_at_cal(u, r):
        if r == r_cal and u is runs[0].snapshot_at(t_cal):
            return np.nan
        return real(u, r)

    monkeypatch.setattr(suites, "tail_mass", nan_at_cal)
    reports = {r.name: r for r in run_suite("tails", load_config(overrides=_SMALL_SHARED))}
    tail = reports["tail growth bound"]
    assert not tail.passed
    assert np.isnan(tail.values["c_fit"])


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_run_suite_writes_the_suites_file_set(monkeypatch, tmp_path, suite):
    # run_suite writes every suite's verdicts, and a summary only for
    # kernel_bound, the one suite with summary rows
    import nwavelab.suites as suites

    monkeypatch.setattr(suites, "_DECAY_GRIDS", {1.75: suites._DECAY_GRIDS[1.75]})
    monkeypatch.setattr(suites, "_DECAY_TIMES", suites._DECAY_TIMES[:5])
    out = tmp_path / "o"
    reports = run_suite(suite, load_config(overrides=_SMALL_SHARED), out_dir=str(out))
    summary = {"kernel_bound_summary.csv"} if suite == "kernel_bound" else set()
    assert set(os.listdir(out)) == {f"{suite}_verdicts.json"} | summary
    back = read_verdicts_json(str(out / f"{suite}_verdicts.json"))
    assert [(r.name, r.verdict) for r in back] == [(r.name, r.verdict) for r in reports]


def test_kernel_bound_sweep_reports():
    reports, rows = suite_kernel_bound(load_config())
    names = [r.name for r in reports]
    assert any("quadratic" in n for n in names)
    assert all(r.passed for r in reports)
    # one row per (lam, psi, p)
    assert len(rows) == 64 * 3 * 3
    lams = sorted({v for v, _, _ in rows})
    assert lams[0] == 1.0 and lams[-1] == 64.0


def test_kernel_bound_builds_its_base_kernel_once(monkeypatch):
    # one base kernel and its 63 rescalings (lam = 1 is the base itself),
    # built while checking the sweep; running it reuses them
    import nwavelab.kernels as kernels

    cfg = load_config()
    builds = []
    real = kernels._build

    def counted(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "_build", counted)
    reports = run_suite("kernel_bound", cfg)
    assert all(r.passed for r in reports)
    assert len(builds) <= 64


def test_entropy_suite_rescales_the_kernel_once(monkeypatch):
    # the simulated residuals at lambda = 2 must convolve with J_2, the
    # kernel the run used, not with J_2 rescaled once more to J_4
    import nwavelab.diagnostics as diagnostics

    seen = set()
    real = diagnostics.convolve

    def spy(kernel, u):
        seen.add(kernel.lam)
        return real(kernel, u)

    monkeypatch.setattr(diagnostics, "convolve", spy)
    reports = run_suite("entropy", load_config(overrides=["lambda=2"]))
    assert seen == {2.0}
    simulated = [r for r in reports if r.name.startswith("simulated residual")]
    assert len(simulated) == 4 and all(r.passed for r in simulated)


def test_entropy_suite_skips_the_refinement_without_a_negative_residual(monkeypatch):
    # closed-form residuals made nonnegative leave nothing to refine: the
    # refinement line passes as skipped and no dx/2 snapshots are built
    import nwavelab.suites as suites
    from nwavelab.diagnostics import Report

    real_residuals, real_snapshots = suites.entropy_residuals, suites._closed_form_snapshots
    grids = []

    def nonnegative(times, snaps, q, ks, bumps, **nonlocal_terms):
        residuals = real_residuals(times, snaps, q, ks, bumps, **nonlocal_terms)
        return residuals if nonlocal_terms else np.abs(residuals)

    def snapshots(q, times, x_min, dx, n):
        grids.append((dx, n))
        return real_snapshots(q, times, x_min, dx, n)

    monkeypatch.setattr(suites, "entropy_residuals", nonnegative)
    monkeypatch.setattr(suites, "_closed_form_snapshots", snapshots)
    reports = run_suite("entropy", load_config())
    assert grids == [(1.0 / 128.0, 1536)]
    closed = [r.values["worst_residual"] for r in reports if r.name.startswith("closed-form")]
    refinement = [r for r in reports if r.name == "residual quadrature refinement"]
    assert refinement == [Report(name="residual quadrature refinement", verdict="pass",
                                 values={"worst_refined": min(closed)},
                                 tolerance=suites._ENTROPY_TOL / 2.0,
                                 detail="no negative residual to refine")]
    assert all(r.passed for r in reports)


def _mirrored(u):
    """u(-x) on u's grid, zero where -x leaves it; x = 0 must be a cell edge."""
    j = int(round(-2.0 * u.x_min / u.dx)) - 1 - np.arange(u.n)
    inside = (j >= 0) & (j < u.n)
    return u.with_values(np.where(inside, u.values[np.clip(j, 0, u.n - 1)], 0.0))


def _nan_cell(u):
    values = u.values.copy()
    values[u.n // 2] = np.nan
    return u.with_values(values)


def _failing_entropy_lines(monkeypatch, source, corrupt):
    """The entropy suite's FAIL lines by name when source's snapshots are corrupted.

    source "closed-form" corrupts suites._closed_form_snapshots, "simulated"
    the trajectory of suites.run; corrupt maps one snapshot list to another.
    """
    import nwavelab.suites as suites

    if source == "closed-form":
        real = suites._closed_form_snapshots
        monkeypatch.setattr(suites, "_closed_form_snapshots", lambda *a: corrupt(real(*a)))
    else:
        real = suites.run

        def corrupted_run(datum, params):
            traj = real(datum, params)
            traj.snapshots = corrupt(traj.snapshots)
            return traj

        monkeypatch.setattr(suites, "run", corrupted_run)
    return {r.name: r for r in run_suite("entropy", load_config()) if not r.passed}


def test_entropy_suite_fails_the_mirrored_nwave(monkeypatch):
    # w(t, -x) carries an expansion shock: a weak solution, not an entropy one
    failing = _failing_entropy_lines(
        monkeypatch, "closed-form", lambda snaps: [_mirrored(u) for u in snaps])
    assert failing.keys() == {"closed-form residual k=0.5", "closed-form residual k=1",
                       "residual quadrature refinement"}


def test_entropy_suite_fails_the_mirrored_run(monkeypatch):
    failing = _failing_entropy_lines(
        monkeypatch, "simulated", lambda snaps: [_mirrored(u) for u in snaps])
    assert failing.keys() == {"simulated residual k=0.5", "simulated residual k=1"}


@pytest.mark.parametrize("source", ["closed-form", "simulated"])
def test_entropy_suite_fails_a_nan_cell(monkeypatch, source):
    def one_nan(snaps):
        return [_nan_cell(u) if i == 25 else u for i, u in enumerate(snaps)]

    failing = _failing_entropy_lines(monkeypatch, source, one_nan)
    lines = {f"{source} residual k={k:g}" for k in (-1.0, 0.0, 0.5, 1.0)}
    if source == "closed-form":
        lines.add("residual quadrature refinement")
        # every k's residual is NaN; the first is refined, not skipped
        refinement = failing["residual quadrature refinement"]
        assert refinement.detail == "k=-1"
        assert np.isnan(refinement.values["worst_refined"])
    assert failing.keys() == lines


def _nudge_last_snapshot(monkeypatch, nudge):
    """Patch suites.run so that nudge(call, values) edits each run's last snapshot."""
    import nwavelab.suites as suites

    real, calls = suites.run, []

    def nudged(datum, params):
        traj = real(datum, params)
        calls.append(traj)
        last = traj.snapshots[-1]
        traj.snapshots[-1] = last.with_values(nudge(len(calls), last.values.copy()))
        return traj

    monkeypatch.setattr(suites, "run", nudged)


def _one_cell(values, value):
    values[int(np.argmax(np.abs(values)))] = value
    return values


def _leak_mass(monkeypatch):
    """Patch experiments.run so that each run reports twice its tail cap of mass gone."""
    import nwavelab.experiments as experiments

    real = experiments.run

    def leaking(datum, params):
        traj = real(datum, params)
        traj.mass_history = [(t, m - 2.0 * params.tail_cap) for t, m in traj.mass_history]
        return traj

    monkeypatch.setattr(experiments, "run", leaking)


def _verdicts(kind):
    from nwavelab.experiments import run_study, study_spec

    if kind == "comparison":
        reports = run_suite("comparison", load_config(seed=7))
    else:  # a long-time study on a short clock and a coarse grid
        cfg = load_config(overrides=["study.times=0.25,0.5", "grid.dx=0.03125"])
        cfg.study_kind = kind
        reports = run_study(study_spec(cfg))
    return {r.name: r.verdict for r in reports}


@pytest.mark.parametrize("gate, kind, defect", [
    # one cell of the positive run goes negative, in both of its runs
    pytest.param("sign preservation", "comparison",
                 lambda mp: _nudge_last_snapshot(mp, lambda call, v: _one_cell(v, -1e-9)),
                 id="sign"),
    # the rerun's largest cell is one ulp higher
    pytest.param("rerun determinism", "comparison",
                 lambda mp: _nudge_last_snapshot(
                     mp, lambda call, v: v if call == 1 else
                     _one_cell(v, np.nextafter(v.max(), np.inf))),
                 id="determinism"),
    # mass the loop never saw leave, as a leaking boundary would lose it
    pytest.param("mass conservation", "long_time_nonnegative", _leak_mass, id="mass"),
])
def test_a_gate_fails_on_its_defect_and_only_it_moves(monkeypatch, gate, kind, defect):
    clean = _verdicts(kind)
    defect(monkeypatch)
    broken = _verdicts(kind)
    assert clean[gate] == "pass" and broken[gate] == "fail"
    assert {k: v for k, v in broken.items() if k != gate} == \
        {k: v for k, v in clean.items() if k != gate}
