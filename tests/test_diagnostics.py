import numpy as np
import pytest

from nwavelab.diagnostics import (
    ComparisonCase,
    EntropyTestCase,
    Report,
    check_nonlocal_comparison,
    decay_fit,
    entropy_residual,
    l1_modulus,
    lp_norm,
    nwave_distance,
    oleinik_margin,
    random_smooth_field,
    tail_mass,
    worst_max,
)
from nwavelab.grid import grid_function
from nwavelab.kernels import make_kernel
from nwavelab.profiles import NWave, make_initial_datum, nwave_eval, nwave_sample
from nwavelab.solver import SimParams, Trajectory, run


def test_report_verdicts():
    r = Report(name="x", verdict="pass", values={"v": 1.0})
    assert r.passed and "PASS" in r.line()
    assert not Report(name="x", verdict="fail", values={}).passed
    assert Report(name="x", verdict="informational", values={}).passed
    with pytest.raises(ValueError, match="bad verdict"):
        Report(name="x", verdict="maybe", values={})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("verdict", ["pass", "informational"])
def test_report_fails_on_non_finite_value(verdict, bad):
    r = Report(name="x", verdict=verdict, values={"ok": 1.0, "v": bad, "n": 3})
    assert r.verdict == "fail" and not r.passed
    assert r.line().startswith("FAIL")


def test_lp_norm_hand_values():
    u = grid_function([3.0, -4.0, 0.0, 0.0], 0.0, 0.5)
    assert lp_norm(u, 1) == pytest.approx(3.5)
    assert lp_norm(u, 2) == pytest.approx(np.sqrt(12.5))
    assert lp_norm(u, np.inf) == 4.0
    assert lp_norm(u, 1, window=(0.9, 2.0)) == 0.0
    assert lp_norm(u, np.inf, window=(0.0, 0.6)) == 3.0
    with pytest.raises(ValueError):
        lp_norm(u, 0.5)


def test_oleinik_margin_exact_nwave():
    # pointwise samples of w: increments of w^(q-1) are exactly dx/t inside
    nw = NWave(1.0, 1.5)
    for t in (1.0, 2.0, 4.0):
        dx = 1.0 / 256.0
        u = grid_function(nwave_eval(nw, t, -1.0 + dx * (np.arange(1024) + 0.5)), -1.0, dx)
        rep = oleinik_margin(u, 1.5, t, tol_scheme=0.05)
        assert rep.passed
        assert rep.values["margin"] == pytest.approx(1.0, abs=1e-10)


def test_oleinik_margin_rejects_negative_field():
    u = grid_function([0.5, -0.5, 0.1], 0.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        oleinik_margin(u, 1.5, 1.0, 0.05)


def test_oleinik_margin_tolerates_rounding_noise():
    u = grid_function([0.0, -1e-13, 0.5, 1.0], 0.0, 1.0)
    assert oleinik_margin(u, 1.5, 1.0, 0.05) is not None


def test_oleinik_margin_flags_violation():
    # jump up by 1 in one cell at t=4: margin = 4 >> 1
    u = grid_function([0.0, 0.0, 1.0, 1.0], 0.0, 1.0)
    rep = oleinik_margin(u, 2.0, 4.0, tol_scheme=0.05)
    assert not rep.passed and rep.values["margin"] == pytest.approx(4.0)


def _nwave_trajectory(q, p_times):
    """Closed-form snapshots dressed as a Trajectory (exact power laws)."""
    nw = NWave(1.0, q)
    # grid must cover the front out to r(t_last) (~55 at t=100 for q=1.25)
    params = SimParams(q=q, alpha=0.0, x_min=-2.0, x_max=58.0, dx=1.0 / 128.0,
                       output_times=tuple(p_times))
    traj = Trajectory(params=params)
    traj.initial = nwave_sample(nw, p_times[0], params.x_min, params.dx, params.grid_n())
    for t in p_times:
        traj.times.append(t)
        traj.snapshots.append(nwave_sample(nw, t, params.x_min, params.dx, params.grid_n()))
    return traj


@pytest.mark.parametrize("q", [1.25, 1.5, 1.75])
@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_decay_fit_recovers_exact_exponents(q, p):
    times = [10.0 ** (i / 4.0) for i in range(9)]  # 1 .. 100
    rep = decay_fit(_nwave_trajectory(q, times), p)
    assert rep.passed
    target = 0.0 if p == 1.0 else (1.0 / q) * (1.0 - (0.0 if p == np.inf else 1.0 / p))
    assert rep.values["slope"] == pytest.approx(-target, abs=5e-3)


def test_decay_fit_needs_a_decade():
    with pytest.raises(ValueError, match="decade"):
        decay_fit(_nwave_trajectory(1.5, [1.0, 2.0, 3.0, 4.0, 5.0]), 2.0)
    with pytest.raises(ValueError, match=">= 5"):
        decay_fit(_nwave_trajectory(1.5, [1.0, 100.0]), 2.0)


def test_tail_mass():
    u = grid_function(np.ones(80), -4.0, 0.1)
    # |x| > 2 holds for 4 units of length in [-4, 4]
    assert tail_mass(u, 1.0) == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ValueError):
        tail_mass(u, 0.0)


def test_l1_modulus_hand_value():
    u = grid_function([0.0, 1.0, 0.0], 0.0, 1.0)
    assert l1_modulus(u, 1.0) == pytest.approx(2.0)
    assert l1_modulus(u, 0.0) == 0.0
    with pytest.raises(ValueError, match="multiple of dx"):
        l1_modulus(u, 0.5001)


def test_nwave_distance_vanishes_on_exact_profile():
    nw = NWave(1.0, 1.5)
    u = nwave_sample(nw, 3.0, -2.0, 1.0 / 64.0, 512)
    for p in (1.0, 2.0):
        assert nwave_distance(u, nw, 3.0, p) == pytest.approx(0.0, abs=1e-13)
    assert nwave_distance(u.with_values(u.values + 0.1), nw, 3.0, np.inf) == pytest.approx(
        3.0 ** (2.0 / 3.0) * 0.1, rel=1e-10
    )


def test_entropy_case_bump_derivative_consistent():
    case = EntropyTestCase(k=0.0, t_center=1.0, t_halfwidth=0.5, x_center=0.0, x_halfwidth=1.0)
    x = np.linspace(-1.5, 1.5, 7)
    h = 1e-6
    fd = (case.phi(1.2 + h, x) - case.phi(1.2 - h, x)) / (2.0 * h)
    np.testing.assert_allclose(case.phi_t(1.2, x), fd, atol=1e-7)
    fd_x = (case.phi(1.2, x + h) - case.phi(1.2, x - h)) / (2.0 * h)
    np.testing.assert_allclose(case.phi_x(1.2, x), fd_x, atol=1e-7)
    # compact support
    assert case.phi(2.9, x).max() == 0.0
    assert case.phi(1.0, np.array([1.5, -2.0])).max() == 0.0


def test_entropy_case_needs_positive_time_support():
    with pytest.raises(ValueError, match="positive times"):
        EntropyTestCase(k=0.0, t_center=0.3, t_halfwidth=0.5, x_center=0.0, x_halfwidth=1.0)


def _nwave_entropy_inputs(dt=0.05, dx=1.0 / 128.0):
    nw = NWave(1.0, 1.5)
    times = [0.5 + dt * i for i in range(int(round(2.0 / dt)) + 1)]
    snaps = [nwave_sample(nw, t, -4.0, dx, int(round(12.0 / dx))) for t in times]
    return times, snaps


def test_entropy_residual_zero_for_weak_solution_k0():
    # k=0 on a nonnegative solution reduces to the weak-form identity:
    # the residual is pure quadrature error
    times, snaps = _nwave_entropy_inputs()
    case = EntropyTestCase(k=0.0, t_center=1.75, t_halfwidth=0.45, x_center=2.0, x_halfwidth=1.0)
    rep = entropy_residual(times, snaps, 1.5, case, tol_quad=2e-2)
    assert rep.passed
    assert abs(rep.values["residual"]) < 5e-3


def test_entropy_residual_production_at_shock():
    # k between 0 and max u: the shock produces entropy, residual >> 0
    times, snaps = _nwave_entropy_inputs()
    case = EntropyTestCase(k=0.5, t_center=1.75, t_halfwidth=0.45, x_center=2.0, x_halfwidth=1.0)
    rep = entropy_residual(times, snaps, 1.5, case, tol_quad=2e-2)
    assert rep.values["residual"] > 0.05


def test_entropy_residual_error_paths():
    times, snaps = _nwave_entropy_inputs()
    case = EntropyTestCase(k=0.0, t_center=1.75, t_halfwidth=0.45, x_center=2.0, x_halfwidth=1.0)
    with pytest.raises(ValueError, match="too sparse"):
        entropy_residual(times[:3], snaps[:3], 1.5, case, tol_quad=2e-2)
    with pytest.raises(ValueError, match="needs the kernel"):
        entropy_residual(times, snaps, 1.5, case, tol_quad=2e-2, alpha=1.0)


def test_comparison_constant_z_saturates():
    # constant z deep inside the grid: A_z = 0 exactly by algebra
    k = make_kernel("uniform", 1.0, 1.0 / 16.0)
    z = grid_function(np.full(128, 0.7), -4.0, 1.0 / 16.0)
    w_vals = np.exp(-((np.arange(128) - 64.0) ** 2) / 50.0)
    case = ComparisonCase.at_argmax(2.0, z, grid_function(w_vals, -4.0, 1.0 / 16.0))
    rep = check_nonlocal_comparison(k, case)
    assert rep.passed
    assert rep.values["a_z"] == pytest.approx(0.0, abs=1e-13)


def test_comparison_random_cases_pass():
    rng = np.random.default_rng(23)
    k = make_kernel("triangle", 1.0, 1.0 / 32.0)
    for i in range(50):
        z = random_smooth_field(rng, -4.0, 1.0 / 32.0, 256, nonnegative=True)
        w = random_smooth_field(rng, -4.0, 1.0 / 32.0, 256)
        if w.values.max() < 0.0:
            w = w.with_values(-w.values)
        case = ComparisonCase.at_argmax(float(i % 4), z, w)
        assert check_nonlocal_comparison(k, case).passed


def test_comparison_case_validation():
    z = grid_function(np.ones(16), 0.0, 1.0)
    w = grid_function(np.arange(16.0), 0.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        ComparisonCase(beta=-1.0, z=z, w=w, x0=15)
    with pytest.raises(ValueError, match="maximum"):
        ComparisonCase(beta=1.0, z=z, w=w, x0=3)
    with pytest.raises(ValueError, match="nonnegative"):
        ComparisonCase(beta=1.0, z=z.with_values(-np.ones(16)), w=w, x0=15)


def test_random_smooth_field_properties():
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    a = random_smooth_field(rng1, -2.0, 1.0 / 32.0, 128)
    b = random_smooth_field(rng2, -2.0, 1.0 / 32.0, 128)
    np.testing.assert_array_equal(a.values, b.values)
    c = random_smooth_field(rng1, -2.0, 1.0 / 32.0, 128, nonnegative=True, margin_cells=16)
    assert c.values.min() >= 0.0
    assert abs(c.values[0]) < 0.05 * max(c.values.max(), 1e-30)


def test_energy_and_sup_reports_on_a_run():
    from nwavelab.diagnostics import energy_report, sup_norm_bound_report

    p = SimParams(q=1.5, x_min=-4.0, x_max=4.0, dx=1.0 / 64.0, output_times=(0.2, 0.4))
    traj = run(make_initial_datum("box", p.x_min, p.dx, p.grid_n()), p)
    assert energy_report(traj).passed
    assert sup_norm_bound_report(traj).passed
    bad = run(make_initial_datum("two_boxes_signed", p.x_min, p.dx, p.grid_n(),
                                 pos_left=0.0, pos_right=1.0, pos_height=1.0,
                                 neg_left=-2.0, neg_right=-1.0, neg_height=1.0), p)
    with pytest.raises(ValueError, match="nonnegative"):
        sup_norm_bound_report(bad)


def test_worst_max_keeps_nan():
    assert worst_max(-np.inf, 1.0) == 1.0
    assert np.isnan(worst_max(-np.inf, np.nan))
    assert np.isnan(worst_max(np.nan, 1.0))


def test_sup_report_fails_on_one_nan_snapshot():
    from nwavelab.diagnostics import sup_norm_bound_report

    p = SimParams(q=1.5, x_min=-4.0, x_max=4.0, dx=1.0 / 64.0, output_times=(0.2, 0.4))
    traj = run(make_initial_datum("box", p.x_min, p.dx, p.grid_n()), p)
    traj.snapshots[1].values[40] = np.nan
    rep = sup_norm_bound_report(traj)
    assert not rep.passed
    assert np.isnan(rep.values["worst_excess"])
