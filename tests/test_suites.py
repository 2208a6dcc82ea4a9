import os
import threading

import numpy as np
import pytest

from nwavelab.config import ConfigError, load_config
from nwavelab.io import read_verdicts_json
from nwavelab.suites import SUITE_NAMES, run_suite


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
    expected = [oleinik_margin(u, cfg.params.q, t, cfg.tol_scheme)
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

    def margin(u, q, t, tol):
        rep = real(u, q, t, tol)
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

    from nwavelab.config import build_kernel
    from nwavelab.diagnostics import (ComparisonCase, check_nonlocal_comparison,
                                      random_smooth_field, worst_max)

    cfg = load_config(seed=seed)
    q = cfg.params.q
    kernel = build_kernel(replace(cfg.params, lam=1.0, dx=1.0 / 32.0))
    betas = (0.0, 0.5, 1.0, (2.0 - q) / (q - 1.0))
    rng = np.random.default_rng(seed)
    violations, worst_a, worst_gap = 0, -np.inf, -np.inf
    for i in range(1000):
        z = random_smooth_field(rng, -4.0, 1.0 / 32.0, 256, amplitude=1.5, nonnegative=True)
        w = random_smooth_field(rng, -4.0, 1.0 / 32.0, 256)
        if float(np.max(w.values)) < 0.0:
            w = w.with_values(-w.values)
        rep = check_nonlocal_comparison(kernel, ComparisonCase.at_argmax(betas[i % 4], z, w))
        violations += not rep.passed
        worst_a = worst_max(worst_a, rep.values["a_z"])
        worst_gap = worst_max(worst_gap, rep.values["lhs"] - rep.values["rhs"])
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


def _small_decay(monkeypatch):
    import nwavelab.suites as suites

    monkeypatch.setattr(suites, "_DECAY_GRIDS",
                        {q: suites._DECAY_GRIDS[q] for q in (1.5, 1.75)})
    monkeypatch.setattr(suites, "_DECAY_TIMES", suites._DECAY_TIMES[:9])
    reports = run_suite("decay", load_config())
    return [(r.name, r.verdict, r.values) for r in reports]


def test_decay_suite_starts_no_thread(monkeypatch):
    # Its steps hold the GIL for most of their time, so pool threads would
    # only queue on it; the q runs go one after another.
    def no_thread(self):
        raise AssertionError("the decay suite started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    first = _small_decay(monkeypatch)
    assert [name for name, _, _ in first] == [
        name
        for q in (1.5, 1.75)
        for name in (f"decay exponent p=1 q={q:g}", f"decay exponent p=2 q={q:g}",
                     f"decay exponent p=inf q={q:g}", "energy dissipation")
    ]
    # dict equality compares the floats exactly: bit-identical values
    assert _small_decay(monkeypatch) == first


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
