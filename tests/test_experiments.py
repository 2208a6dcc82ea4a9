import os
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import nwavelab.config as config
import nwavelab.experiments as experiments
import nwavelab.suites as suites
from nwavelab.config import ConfigError, load_config
from nwavelab.experiments import (
    _RESCALING_DX,
    StudySpec,
    _coarsen,
    _datum_mass,
    _restrict,
    run_rescaling_family,
    run_study,
    study_spec,
)
from nwavelab.diagnostics import lp_norm
from nwavelab.grid import grid_function
from nwavelab.profiles import DATUM_KINDS
from nwavelab.solver import NumericalAbort, SimParams, run, run_lockstep


def test_study_spec_kinds_and_sweeps():
    cfg = load_config()
    for kind, sweep_len in [
        ("long_time_nonnegative", 5),
        ("long_time_sign_changing", 5),
        ("vanishing_viscosity", 4),
        ("rescaling_family", 4),
    ]:
        cfg.study_kind = kind
        spec = study_spec(cfg)
        assert spec.kind == kind
        assert len(spec.sweep) == sweep_len


@pytest.mark.parametrize("key, value", [
    ("study.times", (2.0, 20.0)),
    ("study.mus", (0.3, 0.15)),
    ("study.lambdas", (1.0, 3.0)),
])
def test_a_sweep_override_reaches_only_the_kinds_that_sweep_it(key, value):
    swept_by = {
        "long_time_nonnegative": "study.times",
        "long_time_sign_changing": "study.times",
        "vanishing_viscosity": "study.mus",
        "rescaling_family": "study.lambdas",
    }
    cfg = load_config(overrides=[f"{key}={','.join(map(str, value))}"])
    for kind, swept in swept_by.items():
        spec = study_spec(replace(cfg, study_kind=kind))
        assert spec.sweep == (value if swept == key else config.DEFAULTS[swept]), kind


def test_a_config_of_an_unknown_study_kind_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown study kind") as exc:
        study_spec(replace(load_config(), study_kind="nope"))
    assert exc.value.origin == "study.kind"


def test_each_registry_names_its_runners_in_one_order():
    # a kind StudySpec accepts has a sweep key, a runner and a datum, and a
    # suite name a runner, so neither lookup needs a default
    assert config.STUDY_KINDS == tuple(experiments._STUDIES)
    for key, _, datum_kind, _ in experiments._STUDIES.values():
        assert key in config.DEFAULTS and datum_kind in (None, *DATUM_KINDS)
    assert suites.SUITE_NAMES == tuple(suites._SUITES)


def test_studies_on_an_extent_of_their_own_ignore_the_configured_one():
    # the configured [-8, 12.05] is not tiled by the study's dx, but its
    # runs use an extent of their own, so its spec checks that
    cfg = load_config(overrides=["grid.x_max=12.05", "grid.dx=0.05"])
    assert study_spec(replace(cfg, study_kind="rescaling_family")).kind == "rescaling_family"


def test_long_time_sign_changing_uses_two_boxes():
    cfg = load_config()
    cfg.study_kind = "long_time_sign_changing"
    spec = study_spec(cfg)
    assert spec.datum_kind == "two_boxes_signed"
    assert _datum_mass(spec.datum_kind, spec.datum_params) == pytest.approx(1.0)


@pytest.mark.parametrize("path, overrides", [
    pytest.param(None, ["study.kind=long_time_sign_changing", "datum.neg_height=3"], id="set"),
    pytest.param(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "configs", "sign_changing_study.cfg"),
                 ["datum.neg_height=3"], id="config-file"),
])
def test_the_sign_changing_study_reads_its_two_box_keys(path, overrides):
    # with datum.kind the default box or two_boxes_signed itself
    spec = study_spec(load_config(path, overrides))
    assert spec.datum_kind == "two_boxes_signed"
    assert spec.datum_params["neg_height"] == 3.0
    assert _datum_mass(spec.datum_kind, spec.datum_params) == pytest.approx(-1.0)


def test_sweep_validation():
    base = load_config().params
    with pytest.raises(ConfigError, match="unknown study kind"):
        StudySpec(kind="nope", base=base, datum_kind="box", datum_params={}, sweep=(1.0, 2.0))
    with pytest.raises(ConfigError, match="at least two"):
        StudySpec(kind="vanishing_viscosity", base=base, datum_kind="box",
                  datum_params={}, sweep=(1.0,))
    with pytest.raises(ConfigError, match="monotone"):
        StudySpec(kind="vanishing_viscosity", base=base, datum_kind="box",
                  datum_params={}, sweep=(1.0, 3.0, 2.0))
    with pytest.raises(ConfigError, match="positive"):
        StudySpec(kind="vanishing_viscosity", base=base, datum_kind="box",
                  datum_params={}, sweep=(-1.0, 2.0))


def test_a_hand_built_spec_is_checked_at_construction():
    # StudySpec runs every check of its study, as it does for study_spec
    base = load_config().params
    with pytest.raises(ConfigError, match="zero on every cell") as exc:
        StudySpec(kind="vanishing_viscosity", base=base, datum_kind="box",
                  datum_params={"height": 0.0}, sweep=(0.1, 0.05))
    assert exc.value.origin == "datum.height"
    with pytest.raises(ConfigError, match="right > left") as exc:
        StudySpec(kind="vanishing_viscosity", base=base, datum_kind="box",
                  datum_params={"right": -1.0}, sweep=(0.1, 0.05))
    assert exc.value.origin == "datum.right"
    # the rescaling study measures an N-wave of the datum's mass
    with pytest.raises(ConfigError, match="zero-mass datum") as exc:
        StudySpec(kind="rescaling_family", base=base, datum_kind="dipole_zero_mass",
                  sweep=(1.0, 2.0))
    assert exc.value.origin == "datum.kind"
    # the nonnegative study's amplitude bound concerns nonnegative data
    with pytest.raises(ConfigError, match="needs a nonnegative datum") as exc:
        StudySpec(kind="long_time_nonnegative", base=base, datum_kind="two_boxes_signed",
                  sweep=(1.0, 3.0, 10.0))
    assert exc.value.origin == "datum.kind"


def test_datum_mass_formulas():
    assert _datum_mass("box", {"height": 2.0, "left": -1.0, "right": 3.0}) == 8.0
    assert _datum_mass("gaussian", {"mass": 1.5, "center": 0.0, "sigma": 1.0}) == 1.5
    assert _datum_mass("dipole_zero_mass", {}) == 0.0


def test_long_time_rejects_q2_and_zero_mass():
    cfg = load_config(overrides=["q=2.0"])
    with pytest.raises(ConfigError, match="below 2"):
        study_spec(cfg)
    with pytest.raises(ConfigError, match="mass"):
        StudySpec(kind="long_time_nonnegative", base=load_config().params,
                  datum_kind="dipole_zero_mass",
                  datum_params={"height": 1.0, "width": 1.0, "center": 0.0},
                  sweep=(1.0, 2.0))


def test_coarsen_2_to_1():
    u = grid_function([1.0, 3.0, 5.0, 7.0], 0.0, 0.25)
    v = _coarsen(u)
    np.testing.assert_allclose(v.values, [2.0, 6.0])
    assert v.dx == 0.5 and v.mass() == pytest.approx(u.mass())
    with pytest.raises(ValueError, match="even"):
        _coarsen(grid_function([1.0, 2.0, 3.0], 0.0, 0.25))


def test_restrict_exact_window():
    u = grid_function(np.arange(16.0), -2.0, 0.25)
    v = _restrict(u, -1.0, 8)
    np.testing.assert_array_equal(v.values, np.arange(4.0, 12.0))
    assert v.x_min == -1.0
    with pytest.raises(ValueError, match="grid-aligned"):
        _restrict(u, -1.1, 4)
    with pytest.raises(ValueError, match="grid-aligned"):
        _restrict(u, -1.0, 14)


def test_small_grid_studies_start_no_thread(monkeypatch):
    # Their steps hold the GIL for most of their time, so pool threads
    # would only queue on it; the sweeps run in the calling thread.
    def no_thread(self):
        raise AssertionError("a small-grid study started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    cfg = load_config(overrides=[
        "grid.x_min=-3", "grid.x_max=5", "study.mus=0.05,0.025", "study.lambdas=1,2",
    ])
    for kind in ("vanishing_viscosity", "rescaling_family"):
        cfg.study_kind = kind
        assert run_study(study_spec(cfg))


def _sweep(mus, *overrides):
    cfg = load_config(overrides=[*overrides, f"study.mus={mus}"])
    return study_spec(replace(cfg, study_kind="vanishing_viscosity"))


_NARROW = ("grid.x_min=-3", "grid.x_max=5")


def test_the_viscosity_sweep_steps_the_outer_mus_and_the_middle_mus_as_two_batches(
        monkeypatch, cpus):
    # the caller's batch holds the largest and the smallest mu, the child's
    # the middle ones, each largest first; in-process the caller's steps
    # first.  The mu = 0 runs step alone
    cpus(1)  # the spy records in this process only
    calls = []
    real = experiments.run_lockstep

    def spied(groups, params, mus):
        calls.append(list(mus))
        return real(groups, params, mus)

    monkeypatch.setattr(experiments, "run_lockstep", spied)
    (report,) = run_study(_sweep("0.025,0.05,0.1", *_NARROW))
    assert report.passed
    assert calls == [[0.1, 0.025], [0.05]]


def test_a_two_mu_sweep_forks_nothing(cpus):
    forks = cpus(2)
    (report,) = run_study(_sweep("0.05,0.025", *_NARROW))
    assert report.passed
    assert forks == []


def test_a_lone_middle_mu_steps_on_its_window_near_its_one_batch_distance(cpus):
    # on the default grid (n = 2560, windowed) the child's lone mu = 0.05
    # steps as run() does, on its window, so its distance moves off a batch
    # of every mu by rounding alone; the outer mus step in a batch of
    # whole-grid rows and keep their distances bit for bit
    forks = cpus(2)
    spec = _sweep("0.1,0.05,0.025")
    (report,) = run_study(spec)
    assert len(forks) == 1
    (datum, params), _fine = spec.runs.values()
    mus = (0.1, 0.05, 0.025)
    u0 = run(datum, params).snapshots[-1]

    def distance(u):
        return lp_norm(u0.with_values(u.snapshots[-1].values - u0.values), 1)

    batch = {mu: distance(group[0])
             for mu, group in zip(mus, run_lockstep([(datum,)] * 3, params, mus))}
    assert report.values["mu=0.05"] == distance(run(datum, replace(params, mu=0.05)))
    assert report.values["mu=0.05"] == pytest.approx(batch[0.05], rel=1e-12, abs=0)
    assert [report.values[f"mu={mu:g}"] for mu in (0.1, 0.025)] == [batch[0.1], batch[0.025]]
    # the same verdict: the one-batch distances decrease too, all above the floor
    assert report.passed
    assert batch[0.1] > batch[0.05] > batch[0.025] > report.values["floor"]


# Crafted routes for the rescaling study's gates: every field is a multiple
# of one box on [4, 5), outside the N-wave's support at t = 1, so each
# profile distance is the N-wave's norm plus the multiple, and each route
# gap is the difference of the two multiples.  On the fine grid the direct
# route sits `fine` of the coarse gap away from the rescaled route.
_ROUTES = {"rescaled": {2.0: 1.0, 4.0: 0.5}, "direct": {2.0: 1.2, 4.0: 0.6}}


def _crafted_routes(routes, fine):
    def routes_at(spec, dx):
        x_min, n = -4.0, int(round(10.0 / dx))
        centers = x_min + (np.arange(n) + 0.5) * dx
        box = np.where((centers >= 4.0) & (centers < 5.0), 1.0, 0.0)
        a, b = routes["rescaled"], routes["direct"]
        if dx != _RESCALING_DX:
            b = {lam: a[lam] + fine * (b[lam] - a[lam]) for lam in b}

        def fields(scale):
            return {lam: grid_function(c * box, x_min, dx) for lam, c in scale.items()}

        return tuple(sorted(spec.sweep)), fields(a), fields(b)

    return routes_at


@pytest.mark.parametrize("gate, routes, fine", [
    pytest.param(None, _ROUTES, 0.5, id="clean"),
    # the fine grid's gap is as wide as the coarse one's
    pytest.param("route agreement under refinement", _ROUTES, 1.0, id="refinement"),
    # one route's distance grows from lam = 2 to lam = 4
    pytest.param("profile distance decreasing in lam (rescaled)",
                 _ROUTES | {"rescaled": {2.0: 1.0, 4.0: 1.1}}, 0.5, id="rescaled"),
    pytest.param("profile distance decreasing in lam (direct)",
                 _ROUTES | {"direct": {2.0: 1.2, 4.0: 1.3}}, 0.5, id="direct"),
])
def test_a_rescaling_gate_fails_on_its_defect_and_only_it(monkeypatch, gate, routes, fine):
    monkeypatch.setattr(experiments, "_rescaling_routes", _crafted_routes(routes, fine))
    spec = StudySpec(kind="rescaling_family", base=SimParams(), datum_kind="box",
                     sweep=(2.0, 4.0))
    reports, _rows = run_rescaling_family(spec)
    verdicts = {r.name: r.verdict for r in reports}
    assert len(verdicts) == 3
    assert verdicts == {name: "fail" if name == gate else "pass" for name in verdicts}


# Small cases of every study kind: a short long-time schedule, a narrow
# viscosity grid and two rescale factors.
_SMALL_STUDY = ["grid.x_min=-3", "grid.x_max=5", "study.mus=0.05,0.025",
                "study.lambdas=1,2", "study.times=1,3"]
_STUDY_KINDS = ("long_time_nonnegative", "long_time_sign_changing", "vanishing_viscosity",
                "rescaling_family")


def _spied_study(monkeypatch, cpus, kind):
    """Build and run a small study of kind in this process, recording every
    SimParams that check_run saw, every (datum, params) stepped by run or
    run_lockstep and the kind of every datum built."""
    cpus(1)  # a forked child's calls would be recorded in its memory alone
    checked, stepped, built = [], [], []
    real_check, real_run, real_lockstep = (
        experiments.check_run, experiments.run, experiments.run_lockstep)
    real_datum = experiments.make_initial_datum

    def check(params, *args, **kwargs):
        checked.append(params)
        return real_check(params, *args, **kwargs)

    def run(datum, params):
        stepped.append((datum, params))
        return real_run(datum, params)

    def run_lockstep(groups, params, mus):
        stepped.extend((datum, params) for group in groups for datum in group)
        return real_lockstep(groups, params, mus)

    def make_datum(datum_kind, *args, **params):
        built.append(datum_kind)
        return real_datum(datum_kind, *args, **params)

    monkeypatch.setattr(experiments, "check_run", check)
    monkeypatch.setattr(experiments, "run", run)
    monkeypatch.setattr(experiments, "run_lockstep", run_lockstep)
    monkeypatch.setattr(experiments, "make_initial_datum", make_datum)
    spec = study_spec(replace(load_config(overrides=_SMALL_STUDY), study_kind=kind))
    assert run_study(spec)
    return spec, checked, stepped, built


def _stored_runs(spec):
    """Every (datum, params) in spec.runs."""
    if spec.kind != "rescaling_family":
        return list(spec.runs.values())
    return [run for base, direct in spec.runs.values() for run in (base, *direct.values())]


@pytest.mark.parametrize("kind", _STUDY_KINDS)
def test_a_study_steps_only_the_runs_its_spec_checked(monkeypatch, cpus, kind):
    spec, checked, stepped, _built = _spied_study(monkeypatch, cpus, kind)
    assert stepped
    for datum, params in stepped:
        # the same final mu, lam, extent, dx and output times
        assert params in checked
        # and the very datum the spec built for that run
        assert any(d is datum and p == params for d, p in _stored_runs(spec))


@pytest.mark.parametrize("kind", _STUDY_KINDS)
def test_a_study_builds_each_runs_datum_once(monkeypatch, cpus, kind):
    # the spec builds one datum per run, and the runners build none
    _spec, _checked, stepped, built = _spied_study(monkeypatch, cpus, kind)
    assert len(built) == len({id(datum) for datum, _params in stepped})


def test_a_hand_built_rescaling_spec_runs_on_the_default_box():
    # StudySpec keeps the datum's full parameter set, so the direct route
    # finds the box's height and ends even when none was given
    spec = StudySpec(kind="rescaling_family", base=SimParams(), datum_kind="box",
                     sweep=(1, 2))
    assert spec.datum_params == {"height": 1.0, "left": 0.0, "right": 1.0}
    reports = run_study(spec)
    assert [r.verdict for r in reports] == ["pass"] * 3


@pytest.mark.parametrize("datum_kind, datum_params, mass", [
    pytest.param("gaussian", {}, 1.0, id="gaussian"),
    pytest.param("box", {"height": 2.0}, 2.0, id="height-2-box"),
])
def test_the_rescaling_study_measures_its_datums_own_nwave(monkeypatch, datum_kind,
                                                           datum_params, mass):
    # the direct route starts from lam phi(lam x), of phi's mass, and both
    # routes measure the N-wave of that mass
    masses = []
    real = experiments.NWave

    def spied(**kwargs):
        masses.append(kwargs["m"])
        return real(**kwargs)

    monkeypatch.setattr(experiments, "NWave", spied)
    spec = StudySpec(kind="rescaling_family", base=SimParams(), datum_kind=datum_kind,
                     datum_params=datum_params, sweep=(1, 2))
    for (phi, _), direct in spec.runs.values():
        for datum, _params in direct.values():
            assert datum.mass() == pytest.approx(phi.mass(), abs=1e-12)
    assert [r.verdict for r in run_study(spec)] == ["pass"] * 3
    assert masses == [pytest.approx(mass, abs=1e-12)]


# ---------------------------------------------------------------------------
# _pmap: the caller runs item 0, one forked child runs the rest


class _Unpicklable(Exception):
    """Pickles, but cannot be rebuilt: its __init__ needs two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def test_the_map_runs_items_after_the_first_in_one_child_in_order(cpus):
    forks = cpus(2)
    got = experiments._pmap(lambda x: (x, os.getpid()), [0, 1, 2])
    assert [x for x, _ in got] == [0, 1, 2]
    pids = [pid for _, pid in got]
    assert pids[0] == os.getpid() and pids[1] == pids[2] == forks[0]
    assert len(forks) == 1


def test_an_abort_in_the_callers_item_kills_and_reaps_the_child(cpus):
    forks = cpus(2)

    def item(x):
        if x == 0:
            raise NumericalAbort("non-finite value in cell 3 (x=0) at t=1", t=1.0, cell=3)
        time.sleep(60)  # killed long before it wakes

    start = time.monotonic()
    with pytest.raises(NumericalAbort, match="cell 3") as exc:
        experiments._pmap(item, [0, 1])
    assert (exc.value.t, exc.value.cell) == (1.0, 3)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)


def test_a_child_exception_that_cannot_be_pickled_is_a_runtime_error_naming_it(cpus):
    cpus(2)

    def item(x):
        if x:
            raise _Unpicklable(1, 2)

    with pytest.raises(RuntimeError, match=r"could not send _Unpicklable\('1/2'\) back"):
        experiments._pmap(item, [0, 1])


def test_the_map_runs_in_the_calling_process_when_it_should_not_fork(cpus):
    cpus(1)  # os.fork raises on one CPU
    assert experiments._pmap(lambda x: (x, os.getpid()), [0, 1]) == [(0, os.getpid()),
                                                                      (1, os.getpid())]
    forks = cpus(2)
    assert experiments._pmap(lambda x: x + 1, [0]) == [1]
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert experiments._pmap(lambda x: x + 1, [0, 1]) == [1, 2]
    finally:
        release.set()
        other.join()
    assert forks == []


def test_a_line_printed_before_the_map_is_printed_once():
    # a piped stdout is block-buffered: unflushed at the fork, the line would
    # leave once from the caller and once from the child
    code = ("import os; os.sched_getaffinity = lambda _pid: {0, 1}\n"
            "from nwavelab.experiments import _pmap\n"
            "print('before')\n"
            "print(_pmap(lambda x: x + 1, [0, 1, 2]))\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "before\n[1, 2, 3]\n", "")
