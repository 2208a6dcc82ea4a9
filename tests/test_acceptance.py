"""End-to-end acceptance gate: one test per headline guarantee.

Each test prints a single PASS line with its measured numbers (visible
under pytest -s or -rA); an assertion failure is the FAIL line.  The
heavy simulations are shared through module-scoped fixtures, so the
whole gate runs in well under a minute of margin against the per-test
runtime caps asserted below.
"""

import time

import numpy as np
import pytest

from nwavelab.config import load_config
from nwavelab.diagnostics import OLEINIK_TOL, energy_report
from nwavelab.experiments import run_study, study_spec
from nwavelab.profiles import NWave, make_initial_datum, nwave_eval, nwave_sample
from nwavelab.solver import run
from nwavelab.suites import _ENTROPY_TOL, run_suite


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _by_name(reports, prefix):
    return [r for r in reports if r.name.startswith(prefix)]


@pytest.fixture(scope="module")
def cfg():
    return load_config()


@pytest.fixture(scope="module")
def oleinik(cfg):
    return _timed(run_suite, "oleinik", cfg)


@pytest.fixture(scope="module")
def decay(cfg):
    return _timed(run_suite, "decay", cfg)


@pytest.fixture(scope="module")
def long_time():
    t0 = time.perf_counter()
    bundles = {}
    for kind in ("long_time_nonnegative", "long_time_sign_changing"):
        c = load_config()
        c.study_kind = kind
        bundles[kind] = run_study(study_spec(c))
    return bundles, time.perf_counter() - t0


def test_nwave_closed_form():
    nw = NWave(m=1.0, q=1.5)
    r1 = nw.r(1.0)
    assert abs(r1 - 3.0 ** (1.0 / 3.0)) <= 1e-12

    dx = 1.0 / 256.0
    w = nwave_sample(nw, 1.0, -2.0, dx, 1152)  # grid covers [-2, 2.5]
    mass_err = abs(w.mass() - 1.0)
    assert mass_err <= 1e-10

    # On the profile the Oleinik inequality is an equality: forward
    # differences of w^(q-1) at interior cell centers are exactly dx/t.
    x = w.x_min + (np.arange(w.n) + 0.5) * dx
    v = nwave_eval(nw, 1.0, x) ** 0.5
    interior = (x > 2.0 * dx) & (x + 3.0 * dx < r1)
    slopes = np.diff(v)[interior[:-1] & interior[1:]] / dx
    slope_err = float(np.max(np.abs(slopes - 1.0)))
    assert slope_err <= 1e-10
    print(f"PASS n-wave closed form: r(1) err={abs(r1 - 3.0 ** (1/3)):.2e}, "
          f"mass err={mass_err:.2e}, slope err={slope_err:.2e}")


def test_one_sided_slope_bound(cfg, oleinik):
    reports, elapsed = oleinik
    assert elapsed < 120.0
    margins = _by_name(reports, "oleinik margin")
    assert len(margins) == len(cfg.params.output_times)
    worst = max(r.values["margin"] for r in margins)
    assert worst <= 1.0 + OLEINIK_TOL
    refine = _by_name(reports, "oleinik excess refinement")[0]
    assert refine.passed
    print(f"PASS one-sided slope bound: worst margin={worst:.4f} "
          f"(cap {1.0 + OLEINIK_TOL}), refinement ratio="
          f"{refine.values['worst_ratio']:.3f}, {elapsed:.1f} s")


def test_amplitude_bound(oleinik, decay):
    o_reports, _ = oleinik
    amp = _by_name(o_reports, "amplitude bound")[0]
    assert amp.passed and amp.values["worst_excess"] <= 1e-10
    d_reports, _ = decay
    sup_excesses = [
        r.values["sup_excess"] for r in _by_name(d_reports, "decay exponent p=inf")
    ]
    assert sup_excesses and max(sup_excesses) <= 1e-10
    print(f"PASS amplitude bound: worst excess="
          f"{max([amp.values['worst_excess']] + sup_excesses):+.3e} (tol 1e-10)")


def test_decay_exponents(decay):
    reports, elapsed = decay
    assert elapsed < 600.0
    gaps = {}
    for p in ("2", "inf"):
        for r in _by_name(reports, f"decay exponent p={p}"):
            gaps[r.name] = abs(r.values["slope"] - r.values["target"])
    assert len(gaps) == 6  # p in {2, inf} x q in {1.25, 1.5, 1.75}
    worst = max(gaps.values())
    assert worst <= 0.1
    print(f"PASS decay exponents: worst |slope - target|={worst:.4f} "
          f"(tol 0.1), {elapsed:.1f} s")


def test_contraction_and_order(cfg):
    con = run_suite("contraction", cfg)
    cmp_ = run_suite("comparison", cfg)
    l1 = _by_name(con, "l1 contraction")[0].values["worst_growth"]
    pos = _by_name(con, "positive-part contraction")[0].values["worst_growth"]
    order = _by_name(cmp_, "order preservation")[0].values["worst_violation"]
    assert l1 <= 1e-11 and pos <= 1e-11 and order <= 1e-11
    assert all(r.passed for r in con + cmp_)
    print(f"PASS contraction and order: l1 growth={l1:+.2e}, "
          f"positive part={pos:+.2e}, order violation={order:+.2e} (tol 1e-11)")


def test_pointwise_comparison_randomized(cfg):
    reports, elapsed = _timed(run_suite, "nonlocal_comparison", cfg)
    assert elapsed < 60.0
    rep = _by_name(reports, "nonlocal comparison")[0]
    assert rep.passed and rep.values["violations"] == 0
    print(f"PASS pointwise comparison: {rep.name}, violations=0, "
          f"{elapsed:.1f} s")


def test_entropy_residuals(cfg):
    reports = run_suite("entropy", cfg)
    residual_reports = [r for r in reports if "residual k=" in r.name]
    worst = min(r.values["worst_residual"] for r in residual_reports)
    assert worst >= -_ENTROPY_TOL
    refine = _by_name(reports, "residual quadrature refinement")[0]
    assert refine.passed
    assert all(r.passed for r in reports)
    print(f"PASS entropy residuals: worst={worst:+.4f} (floor -{_ENTROPY_TOL}), "
          f"refined={refine.values['worst_refined']:+.2e}")


def test_long_time_convergence(long_time):
    bundles, elapsed = long_time
    assert elapsed < 1800.0
    factors = {}
    for kind, reports in bundles.items():
        p1 = _by_name(reports, "profile convergence p=1")[0]
        assert p1.values["monotone"] and p1.values["factor"] >= 3.0
        factors[kind] = p1.values["factor"]
        assert all(r.passed for r in reports)
    print(f"PASS long-time convergence: factors "
          f"nonnegative={factors['long_time_nonnegative']:.1f}, "
          f"sign-changing={factors['long_time_sign_changing']:.1f} "
          f"(floor 3), {elapsed:.1f} s")


def test_kernel_second_order_bound(cfg):
    reports = run_suite("kernel_bound", cfg)
    pin = _by_name(reports, "quadratic ratio pinned")[0]
    bound = _by_name(reports, "smooth ratios bounded")[0]
    assert pin.passed and bound.passed
    print(f"PASS kernel second-order bound: quadratic pin dev="
          f"{pin.values['worst_deviation']:.2e} (tol 1e-10), "
          f"worst smooth ratio={bound.values['max_ratio']:.4f} "
          f"(cap {bound.values['bound']:.4f})")


def test_vanishing_viscosity():
    c = load_config()
    c.study_kind = "vanishing_viscosity"
    reports = run_study(study_spec(c))
    rep = _by_name(reports, "vanishing-viscosity distances")[0]
    assert rep.passed
    mus = sorted(c.raw["study.mus"], reverse=True)
    ds = [rep.values[f"mu={mu:g}"] for mu in mus]
    assert all(b < a for a, b in zip(ds, ds[1:]))
    assert min(ds) > rep.values["floor"]
    print(f"PASS vanishing viscosity: distances "
          f"{', '.join(f'{d:.3f}' for d in ds)} strictly decreasing, "
          f"floor={rep.values['floor']:.2e}")


def test_energy_dissipation(cfg, oleinik, decay, long_time):
    gathered = []
    for reports in (oleinik[0], decay[0]):
        gathered += _by_name(reports, "energy dissipation")
    for reports in long_time[0].values():
        gathered += _by_name(reports, "energy dissipation")

    # One explicitly viscous run too: the tracked dissipation is only the
    # nonlocal part, so mu > 0 can only add slack to the inequality.
    from dataclasses import replace
    params = replace(cfg.params, mu=0.1, x_min=-4.0, x_max=6.0, dx=1.0 / 128.0,
                     output_times=(0.5, 1.0))
    datum = make_initial_datum("box", params.x_min, params.dx, params.grid_n(),
                               height=1.0, left=0.0, right=1.0)
    gathered.append(energy_report(run(datum, params)))

    assert len(gathered) >= 7
    worst = max(r.values["worst_gain"] for r in gathered)
    assert worst <= 1e-10
    assert all(r.passed for r in gathered)
    print(f"PASS energy dissipation: worst gain={worst:+.3e} over "
          f"{len(gathered)} runs (tol 1e-10)")
