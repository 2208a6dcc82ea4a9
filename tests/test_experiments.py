import threading

import numpy as np
import pytest

from nwavelab.config import ConfigError, load_config
from nwavelab.experiments import (
    StudySpec,
    _coarsen,
    _datum_mass,
    _restrict,
    kernel_bound_sweep,
    run_long_time,
    run_study,
    study_spec,
)
from nwavelab.grid import grid_function


def test_study_spec_kinds_and_sweeps():
    cfg = load_config()
    for kind, sweep_len in [
        ("long_time_nonnegative", 5),
        ("long_time_sign_changing", 5),
        ("vanishing_viscosity", 4),
        ("rescaling_family", 4),
        ("kernel_bound_sweep", 64),
    ]:
        cfg.study_kind = kind
        spec = study_spec(cfg)
        assert spec.kind == kind
        assert len(spec.sweep) == sweep_len


def test_long_time_sign_changing_uses_two_boxes():
    cfg = load_config()
    cfg.study_kind = "long_time_sign_changing"
    spec = study_spec(cfg)
    assert spec.datum_kind == "two_boxes_signed"
    assert _datum_mass(spec.datum_kind, spec.datum_params) == pytest.approx(1.0)


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


def test_datum_mass_formulas():
    assert _datum_mass("box", {"height": 2.0, "left": -1.0, "right": 3.0}) == 8.0
    assert _datum_mass("gaussian", {"mass": 1.5, "center": 0.0, "sigma": 1.0}) == 1.5
    assert _datum_mass("dipole_zero_mass", {}) == 0.0


def test_long_time_rejects_q2_and_zero_mass():
    cfg = load_config(overrides=["q=2.0"])
    spec = study_spec(cfg)
    with pytest.raises(ConfigError, match="below 2"):
        run_long_time(spec)
    cfg2 = load_config(overrides=["datum.kind=dipole_zero_mass"])
    spec2 = study_spec(cfg2)
    spec2 = StudySpec(kind=spec2.kind, base=spec2.base, datum_kind="dipole_zero_mass",
                      datum_params={"height": 1.0, "width": 1.0, "center": 0.0},
                      sweep=(1.0, 2.0))
    with pytest.raises(ConfigError, match="mass"):
        run_long_time(spec2)


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


def test_kernel_bound_sweep_reports():
    cfg = load_config()
    cfg.study_kind = "kernel_bound_sweep"
    reports, rows = kernel_bound_sweep(study_spec(cfg))
    names = [r.name for r in reports]
    assert any("quadratic" in n for n in names)
    assert all(r.passed for r in reports)
    # one row per (lam, psi, p)
    assert len(rows) == 64 * 3 * 3
    lams = sorted({v for v, _, _ in rows})
    assert lams[0] == 1.0 and lams[-1] == 64.0


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
    assert run_study(StudySpec(kind="kernel_bound_sweep", base=cfg.params, datum_kind="box",
                               sweep=(1.0, 2.0)))
