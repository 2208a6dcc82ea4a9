import numpy as np
import pytest

from nwavelab.diagnostics import (
    _amplitude_bound,
    _bump,
    Report,
    decay_fit,
    entropy_residuals,
    l1_modulus,
    lp_norm,
    nonlocal_comparisons,
    nwave_distance,
    oleinik_margin,
    random_smooth_field,
    random_smooth_rows,
    tail_mass,
    worst_max,
)
from nwavelab.grid import grid_function
from nwavelab.flux import flux
from nwavelab.kernels import convolve, make_kernel, rescale
from nwavelab.nonlocal_op import apply_L
from nwavelab.profiles import NWave, make_initial_datum, nwave_eval, nwave_sample
from nwavelab.solver import SimParams, Trajectory, run


def test_report_verdicts():
    r = Report(name="x", verdict="pass", values={"v": 1.0})
    assert r.passed and "PASS" in r.line()
    assert not Report(name="x", verdict="fail", values={}).passed
    for verdict in ("maybe", "informational"):
        with pytest.raises(ValueError, match="bad verdict"):
            Report(name="x", verdict=verdict, values={})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("verdict", ["pass", "fail"])
def test_report_fails_on_non_finite_value(verdict, bad):
    r = Report(name="x", verdict=verdict, values={"ok": 1.0, "v": bad, "n": 3})
    assert r.verdict == "fail" and not r.passed
    assert r.line().startswith("FAIL")


def test_lp_norm_hand_values():
    u = grid_function([3.0, -4.0, 0.0, 0.0], 0.0, 0.5)
    assert lp_norm(u, 1) == pytest.approx(3.5)
    assert lp_norm(u, 2) == pytest.approx(np.sqrt(12.5))
    assert lp_norm(u, np.inf) == 4.0
    with pytest.raises(ValueError):
        lp_norm(u, 0.5)


def test_oleinik_margin_exact_nwave():
    # pointwise samples of w: increments of w^(q-1) are exactly dx/t inside
    nw = NWave(1.0, 1.5)
    for t in (1.0, 2.0, 4.0):
        dx = 1.0 / 256.0
        u = grid_function(nwave_eval(nw, t, -1.0 + dx * (np.arange(1024) + 0.5)), -1.0, dx)
        rep = oleinik_margin(u, 1.5, t)
        assert rep.passed
        assert rep.values["margin"] == pytest.approx(1.0, abs=1e-10)


def test_oleinik_margin_rejects_negative_field():
    u = grid_function([0.5, -0.5, 0.1], 0.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        oleinik_margin(u, 1.5, 1.0)


def test_oleinik_margin_tolerates_rounding_noise():
    u = grid_function([0.0, -1e-13, 0.5, 1.0], 0.0, 1.0)
    assert oleinik_margin(u, 1.5, 1.0) is not None


def test_oleinik_margin_flags_violation():
    # jump up by 1 in one cell at t=4: margin = 4 >> 1
    u = grid_function([0.0, 0.0, 1.0, 1.0], 0.0, 1.0)
    rep = oleinik_margin(u, 2.0, 4.0)
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


# The test function of one bump (t_center, t_halfwidth, x_center, x_halfwidth),
# and its t and x derivatives, case by case in entropy_residuals' operand order;
# _bump(s) gives (b, b', b'').
def _phi(bump, t, x):
    tc, tw, xc, xw = bump
    return _bump((t - tc) / tw)[0] * _bump((x - xc) / xw)[0]


def _phi_t(bump, t, x):
    tc, tw, xc, xw = bump
    return _bump((t - tc) / tw)[1] / tw * _bump((x - xc) / xw)[0]


def _phi_x(bump, t, x):
    tc, tw, xc, xw = bump
    return _bump((t - tc) / tw)[0] * _bump((x - xc) / xw)[1] / xw


def _phi_xx(bump, t, x):
    tc, tw, xc, xw = bump
    return _bump((t - tc) / tw)[0] * _bump((x - xc) / xw)[2] / xw ** 2


def test_entropy_case_bump_derivative_consistent():
    bump = (1.0, 0.5, 0.0, 1.0)
    x = np.linspace(-1.5, 1.5, 7)
    h = 1e-6
    fd = (_phi(bump, 1.2 + h, x) - _phi(bump, 1.2 - h, x)) / (2.0 * h)
    np.testing.assert_allclose(_phi_t(bump, 1.2, x), fd, atol=1e-7)
    fd_x = (_phi(bump, 1.2, x + h) - _phi(bump, 1.2, x - h)) / (2.0 * h)
    np.testing.assert_allclose(_phi_x(bump, 1.2, x), fd_x, atol=1e-7)
    # compact support
    assert _phi(bump, 2.9, x).max() == 0.0
    assert _phi(bump, 1.0, np.array([1.5, -2.0])).max() == 0.0


def _nwave_entropy_inputs(dt=0.05, dx=1.0 / 128.0):
    nw = NWave(1.0, 1.5)
    times = [0.5 + dt * i for i in range(int(round(2.0 / dt)) + 1)]
    snaps = [nwave_sample(nw, t, -4.0, dx, int(round(12.0 / dx))) for t in times]
    return times, snaps


def test_entropy_case_needs_positive_time_support():
    times, snaps = _nwave_entropy_inputs()
    with pytest.raises(ValueError, match="positive times"):
        entropy_residuals(times, snaps, 1.5, (0.0,), [(0.3, 0.5, 0.0, 1.0)])
    for bump in [(1.75, 0.0, 2.0, 1.0), (1.75, 0.45, 2.0, -1.0)]:
        with pytest.raises(ValueError, match="halfwidths must be positive"):
            entropy_residuals(times, snaps, 1.5, (0.0,), [bump])


def test_entropy_residual_zero_for_weak_solution_k0():
    # k=0 on a nonnegative solution reduces to the weak-form identity:
    # the residual is pure quadrature error
    times, snaps = _nwave_entropy_inputs()
    residual = entropy_residuals(times, snaps, 1.5, (0.0,), [(1.75, 0.45, 2.0, 1.0)])[0, 0]
    assert residual >= -2e-2
    assert abs(residual) < 5e-3


def test_entropy_residual_production_at_shock():
    # k between 0 and max u: the shock produces entropy, residual >> 0
    times, snaps = _nwave_entropy_inputs()
    residual = entropy_residuals(times, snaps, 1.5, (0.5,), [(1.75, 0.45, 2.0, 1.0)])[0, 0]
    assert residual > 0.05


def test_entropy_residual_error_paths():
    times, snaps = _nwave_entropy_inputs()
    bumps = [(1.75, 0.45, 2.0, 1.0)]
    with pytest.raises(ValueError, match="too sparse"):
        entropy_residuals(times[:3], snaps[:3], 1.5, (0.0,), bumps)
    with pytest.raises(ValueError, match="needs the kernel"):
        entropy_residuals(times, snaps, 1.5, (0.0,), bumps, alpha=1.0)


def test_entropy_residuals_need_one_grid():
    times, snaps = _nwave_entropy_inputs()
    snaps[5] = nwave_sample(NWave(1.0, 1.5), times[5], -4.0, 1.0 / 64.0, 768)
    with pytest.raises(ValueError, match="different grids"):
        entropy_residuals(times, snaps, 1.5, (0.0,), [(1.75, 0.45, 2.0, 1.0)])


@pytest.mark.parametrize("alpha", [0.0, 0.7])
def test_entropy_residuals_match_the_per_case_formula(alpha):
    # entropy_residuals computes f(u), J*u and the bump factors once for
    # every (k, bump) entry; each residual must equal, bit for bit, the
    # formula taken case by case with _phi, _phi_t and _phi_x.
    q, lam, dx = 1.5, 2.0, 1.0 / 64.0
    times, snaps = _nwave_entropy_inputs(dt=0.1, dx=dx)
    kernel = rescale(make_kernel("uniform", 1.0, dx), lam)  # J_lam, support 0.5
    ks = (-1.0, 0.0, 0.5)
    bumps = [(tc, 0.45, xc, xw) for tc in (1.0, 1.75) for xc, xw in ((-0.5, 1.0), (2.0, 0.75))]
    got = entropy_residuals(times, snaps, q, ks, bumps, alpha=alpha, kernel=kernel)
    assert got.shape == (len(ks), len(bumps))
    for j, k in enumerate(ks):
        for b, bump in enumerate(bumps):
            tc, tw = bump[:2]
            integrand = np.zeros(len(times))
            for i, (t, u) in enumerate(zip(times, snaps)):
                if not tc - tw < t < tc + tw:
                    continue
                x, v = u.centers, u.values
                sgn = np.sign(v - k)
                a = np.sum(np.abs(v - k) * _phi_t(bump, t, x)
                           + sgn * (flux(v, q) - flux(k, q)) * _phi_x(bump, t, x)) * u.dx
                c = 0.0
                if alpha > 0.0:
                    conv = convolve(kernel, u).values - k
                    c = alpha * lam ** q * np.sum((np.abs(v - k) - sgn * conv)
                                                  * _phi(bump, t, x)) * u.dx
                integrand[i] = a - c
            assert got[j, b] == float(np.trapezoid(integrand, times))


def test_entropy_case_bump_second_derivative_consistent():
    bump = (1.0, 0.5, 0.3, 0.8)
    x = np.linspace(-0.6, 1.2, 9)
    h = 1e-6
    fd = (_phi_x(bump, 1.2, x + h) - _phi_x(bump, 1.2, x - h)) / (2.0 * h)
    np.testing.assert_allclose(_phi_xx(bump, 1.2, x), fd, atol=1e-6)
    assert _phi_xx(bump, 1.2, np.array([-0.6, 1.2])).max() == 0.0


@pytest.mark.parametrize("alpha", [0.0, 0.7])
def test_entropy_residuals_viscous_term_matches_the_per_case_formula(alpha):
    # a run with mu u_xx adds mu intint |u-k| phi_xx to each residual; each
    # entry must equal, bit for bit, the formula taken case by case
    q, lam, dx, mu = 1.5, 2.0, 1.0 / 64.0, 0.05
    times, snaps = _nwave_entropy_inputs(dt=0.1, dx=dx)
    kernel = rescale(make_kernel("uniform", 1.0, dx), lam)  # J_lam, support 0.5
    ks = (-1.0, 0.0, 0.5)
    bumps = [(tc, 0.45, xc, xw) for tc in (1.0, 1.75) for xc, xw in ((-0.5, 1.0), (2.0, 0.75))]
    got = entropy_residuals(times, snaps, q, ks, bumps, alpha=alpha, kernel=kernel, mu=mu)
    for j, k in enumerate(ks):
        for b, bump in enumerate(bumps):
            tc, tw = bump[:2]
            integrand = np.zeros(len(times))
            for i, (t, u) in enumerate(zip(times, snaps)):
                if not tc - tw < t < tc + tw:
                    continue
                x, v = u.centers, u.values
                sgn = np.sign(v - k)
                a = np.sum(np.abs(v - k) * _phi_t(bump, t, x)
                           + sgn * (flux(v, q) - flux(k, q)) * _phi_x(bump, t, x)) * u.dx
                c = 0.0
                if alpha > 0.0:
                    conv = convolve(kernel, u).values - k
                    c = alpha * lam ** q * np.sum((np.abs(v - k) - sgn * conv)
                                                  * _phi(bump, t, x)) * u.dx
                m = mu * np.sum(np.abs(v - k) * _phi_xx(bump, t, x)) * u.dx
                integrand[i] = a - c + m
            assert got[j, b] == float(np.trapezoid(integrand, times))
    # mu = 0 adds nothing: the inviscid residuals, bit for bit
    inviscid = entropy_residuals(times, snaps, q, ks, bumps, alpha=alpha, kernel=kernel)
    assert np.array_equal(entropy_residuals(times, snaps, q, ks, bumps, alpha=alpha,
                                            kernel=kernel, mu=0.0), inviscid)
    assert not np.array_equal(got, inviscid)


def _one_comparison(kernel, beta, z, w):
    # nonlocal_comparisons for one (z, w) pair at w's maximum
    a_z, lhs, rhs, ok = nonlocal_comparisons(kernel, beta, z.values[None], w.values[None],
                                             np.array([np.argmax(w.values)]))
    return a_z[0], lhs[0], rhs[0], ok[0]


def test_comparison_constant_z_saturates():
    # constant z deep inside the grid: A_z = 0 exactly by algebra
    k = make_kernel("uniform", 1.0, 1.0 / 16.0)
    z = grid_function(np.full(128, 0.7), -4.0, 1.0 / 16.0)
    w_vals = np.exp(-((np.arange(128) - 64.0) ** 2) / 50.0)
    a_z, _, _, ok = _one_comparison(k, 2.0, z, grid_function(w_vals, -4.0, 1.0 / 16.0))
    assert ok
    assert a_z == pytest.approx(0.0, abs=1e-13)


def test_comparison_random_cases_pass():
    rng = np.random.default_rng(23)
    k = make_kernel("triangle", 1.0, 1.0 / 32.0)
    for i in range(50):
        z = random_smooth_field(rng, -4.0, 1.0 / 32.0, 256, nonnegative=True)
        w = random_smooth_field(rng, -4.0, 1.0 / 32.0, 256)
        if w.values.max() < 0.0:
            w = w.with_values(-w.values)
        assert _one_comparison(k, float(i % 4), z, w)[3]


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("x0", [128, 5])
def test_comparison_gather_matches_apply_l(beta, x0):
    # the stencil gathered at x0 gives the lhs of the whole-field J*u - u
    # values and the A_z of a direct sum over the stencil, also where x0
    # sits within K cells of the edge and the stencil is clipped
    rng = np.random.default_rng(31)
    dx = 1.0 / 32.0
    k = make_kernel("triangle", 0.5, dx)
    assert 5 < k.half_cells < 128
    z = random_smooth_field(rng, -4.0, dx, 256, amplitude=1.5, nonnegative=True)
    w = grid_function(np.exp(-((np.arange(256) - x0) ** 2) / 40.0), -4.0, dx)
    (a_z,), (lhs,), _, _ = nonlocal_comparisons(k, beta, z.values[None], w.values[None],
                                                np.array([x0]))
    zv, z0, w0, c = z.values, z.values[x0], w.values[x0], beta / (beta + 1.0)
    l_zbw = apply_L(k, z.with_values(zv ** beta * w.values)).values[x0]
    l_zb1 = apply_L(k, z.with_values(zv ** (beta + 1.0))).values[x0]
    ref_lhs = z0 * l_zbw - c * w0 * l_zb1
    ref_a_z = 0.0
    for offset, weight in zip(k.offsets, k.weights):
        y = x0 - offset  # off the grid z^b is 0^b, which is 1 when b = 0
        zb, zb1 = (zv[y] ** beta, zv[y] ** (beta + 1.0)) if 0 <= y < 256 else (0.0 ** beta, 0.0)
        ref_a_z += weight * (z0 * zb - c * zb1 - z0 ** (beta + 1.0) / (beta + 1.0))
    for got, ref in ((lhs, ref_lhs), (a_z, ref_a_z)):
        assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))


def test_comparison_case_validation():
    k = make_kernel("uniform", 1.0, 1.0 / 16.0)
    z, w, x0 = np.ones((1, 16)), np.arange(16.0)[None], np.array([15])
    with pytest.raises(ValueError, match="nonnegative"):
        nonlocal_comparisons(k, -1.0, z, w, x0)
    with pytest.raises(ValueError, match="maximum"):
        nonlocal_comparisons(k, 1.0, z, w, np.array([3]))
    with pytest.raises(ValueError, match="nonnegative"):
        nonlocal_comparisons(k, 1.0, -z, w, x0)


def _entropy_call(reorder):
    times, snaps = reorder(*_nwave_entropy_inputs())
    entropy_residuals(times, snaps, 1.5, (0.0,), [(1.75, 0.45, 2.0, 1.0)])


def _comparison_call(w, x0, z=np.ones(16)):
    nonlocal_comparisons(make_kernel("uniform", 1.0, 1.0 / 16.0), 1.0, np.array([z]),
                         np.array([w]), np.array([x0]))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: oleinik_margin(grid_function([0.0, 1.0], 0.0, 1.0), 1.5, 0.0),
                 "need t > 0", id="oleinik-time"),
    pytest.param(lambda: decay_fit(_nwave_trajectory(1.5, [1.0, 2.0, 3.0, 4.0, 100.0]), 2.0),
                 ">= 5 snapshots in the last decade", id="decay-last-decade"),
    pytest.param(lambda: l1_modulus(grid_function([0.0, 1.0], 0.0, 1.0), -1.0),
                 "need h >= 0", id="modulus-shift"),
    pytest.param(lambda: _entropy_call(lambda times, snaps: (times, snaps[:-1])),
                 "need matching times and snapshots", id="entropy-lengths"),
    pytest.param(lambda: _entropy_call(lambda times, snaps: (times[::-1], snaps)),
                 "strictly increasing", id="entropy-times"),
    pytest.param(lambda: _comparison_call(np.arange(16.0), 15, z=np.r_[np.nan, np.ones(15)]),
                 "z and w must be finite", id="comparison-finite"),
    pytest.param(lambda: _comparison_call(np.arange(16.0), 16),
                 "x0 out of range", id="comparison-range"),
    pytest.param(lambda: _comparison_call(np.r_[0.0, 1.0, 1.0, np.zeros(13)], 2),
                 "ties in the maximum", id="comparison-ties"),
    pytest.param(lambda: _comparison_call(-1.0 - np.arange(16.0), 0),
                 "maximum off-grid", id="comparison-negative-max"),
])
def test_each_diagnostics_input_check_raises_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_random_smooth_field_properties():
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    a = random_smooth_field(rng1, -2.0, 1.0 / 32.0, 128)
    b = random_smooth_field(rng2, -2.0, 1.0 / 32.0, 128)
    np.testing.assert_array_equal(a.values, b.values)
    c = random_smooth_field(rng1, -2.0, 1.0 / 32.0, 128, nonnegative=True)
    assert c.values.min() >= 0.0
    assert abs(c.values[0]) < 0.05 * max(c.values.max(), 1e-30)


def _reference_field(rng, x_min, dx, n, amplitude=1.0, nonnegative=False):
    # random_smooth_field as three scalar draws per bump, one call per field
    x = x_min + (np.arange(n) + 0.5) * dx
    span = n * dx
    values = np.zeros(n)
    for _ in range(3):
        c = x_min + span * rng.uniform(0.25, 0.75)
        width = span * rng.uniform(0.03, 0.15)
        a = amplitude * rng.uniform(-1.0, 1.0)
        values += a * np.exp(-(((x - c) / width) ** 2))
    if nonnegative:
        values = np.abs(values)
    margin = max(n // 16, 2)
    taper = np.ones(n)
    ramp = 0.5 - 0.5 * np.cos(np.pi * (np.arange(margin) + 0.5) / margin)
    taper[:margin] = ramp
    taper[n - margin:] = ramp[::-1]
    return values * taper


def test_random_smooth_field_matches_scalar_draws():
    rng1, rng2 = np.random.default_rng(41), np.random.default_rng(41)
    for amplitude, nonnegative in ((1.5, True), (1.0, False), (0.5, False), (2.0, True)):
        got = random_smooth_field(rng1, -4.0, 1.0 / 32.0, 256, amplitude, nonnegative)
        ref = _reference_field(rng2, -4.0, 1.0 / 32.0, 256, amplitude, nonnegative)
        np.testing.assert_array_equal(got.values, ref)


def test_random_smooth_rows_match_sequential_calls():
    # three chunks of the nonlocal_comparison suite's interleaved z/w draws
    from nwavelab.suites import _COMPARISON_CHUNK as m

    rng_rows, rng_seq = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(3):
        rows = random_smooth_rows(rng_rows, -4.0, 1.0 / 32.0, 256,
                                  (1.5, 1.0) * m, (True, False) * m)
        assert rows.shape == (2 * m, 256)
        seq = []
        for _ in range(m):
            seq.append(random_smooth_field(rng_seq, -4.0, 1.0 / 32.0, 256,
                                           amplitude=1.5, nonnegative=True).values)
            seq.append(random_smooth_field(rng_seq, -4.0, 1.0 / 32.0, 256).values)
        assert np.array_equal(rows, np.array(seq))


def test_nonlocal_comparisons_match_the_one_case_check():
    # rows checked together give each row's values of a one-row call
    rng = np.random.default_rng(13)
    k = make_kernel("triangle", 1.0, 1.0 / 32.0)
    rows = random_smooth_rows(rng, -4.0, 1.0 / 32.0, 256, (1.5, 1.0) * 12, (True, False) * 12)
    z, w = rows[0::2], rows[1::2]
    w = np.where(w.max(axis=1, keepdims=True) < 0.0, -w, w)
    x0 = np.argmax(w, axis=1)
    together = nonlocal_comparisons(k, 0.5, z, w, x0)
    for i in range(len(x0)):
        alone = _one_comparison(k, 0.5, grid_function(z[i], -4.0, 1.0 / 32.0),
                                grid_function(w[i], -4.0, 1.0 / 32.0))
        assert alone == tuple(v[i] for v in together)
    with pytest.raises(ValueError, match="maximum"):
        nonlocal_comparisons(k, 0.5, z, w, (x0 + 1) % 256)


def test_nonlocal_comparisons_fail_closed_on_non_finite_values():
    k = make_kernel("uniform", 1.0, 1.0 / 16.0)
    z = np.full((1, 64), 1e200)
    w = np.exp(-((np.arange(64) - 32.0) ** 2) / 50.0)[None]
    with np.errstate(all="ignore"):
        a_z, lhs, rhs, ok = nonlocal_comparisons(k, 2.0, z, w, np.array([32]))
    assert not np.isfinite(a_z[0]) or not np.isfinite(lhs[0])
    assert not ok[0]


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


@pytest.mark.parametrize("q", [1.25, 1.5, 1.75])
@pytest.mark.parametrize("m", [0.5, 1.0, 8.0])
def test_amplitude_bound_is_the_nwave_sup_norm(q, m):
    # max |w_M(t)| = (r(t)/t)^(1/(q-1)); at q = 1.5, M = 1 it is (3/t)^(2/3)
    nw = NWave(m=m, q=q)
    times = np.array([0.5, 1.0, 8.0, 100.0])
    bounds = _amplitude_bound(q, m, times)
    for t, bound in zip(times.tolist(), bounds.tolist()):
        assert bound == pytest.approx((nw.r(t) / t) ** (1.0 / (q - 1.0)), rel=1e-14)
        assert _amplitude_bound(q, m, t) == pytest.approx(bound, rel=1e-15)
    assert _amplitude_bound(1.5, 1.0, 1.0) == pytest.approx(3.0 ** (2.0 / 3.0), rel=1e-14)
    assert _amplitude_bound(1.5, 1.0, 8.0) == pytest.approx((3.0 / 8.0) ** (2.0 / 3.0), rel=1e-14)


def test_sup_report_passes_a_zero_datum():
    from nwavelab.diagnostics import sup_norm_bound_report

    p = SimParams(q=1.5, x_min=-4.0, x_max=4.0, dx=1.0 / 64.0, output_times=(0.2, 0.4))
    traj = run(make_initial_datum("box", p.x_min, p.dx, p.grid_n(), height=0.0), p)
    rep = sup_norm_bound_report(traj)
    assert rep.passed and rep.values["worst_excess"] == 0.0


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
