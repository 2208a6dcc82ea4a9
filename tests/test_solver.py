import numpy as np
import pytest

from nwavelab.diagnostics import lp_norm, random_smooth_field
from nwavelab.flux import _power
from nwavelab.grid import grid_function
from nwavelab.profiles import make_initial_datum
from nwavelab.solver import (
    DomainTooSmall,
    NumericalAbort,
    ParamError,
    SimParams,
    _Stepper,
    rescale_trajectory,
    run,
    run_lockstep,
)


def _params(**kw):
    base = dict(
        q=1.5, x_min=-4.0, x_max=4.0, dx=1.0 / 64.0, output_times=(0.5,), tail_cap=1e-3
    )
    base.update(kw)
    return SimParams(**base)


def test_single_step_riemann_hand_value():
    # q=1.5, dt/dx = 1/2, pure convection: the cell past the jump gains
    # (dt/dx) f(1) = (1/2)(2/3) = 1/3; the inflow cell loses the same.
    u = grid_function([1.0, 1.0, 1.0, 0.0, 0.0, 0.0], 0.0, 0.5)
    p = SimParams(q=1.5, alpha=0.0, x_min=0.0, x_max=3.0, dx=0.5, output_times=(1.0,))
    v = u.values + 0.25 * _Stepper(p).rate(u.values, np.abs(u.values))[0]
    np.testing.assert_allclose(v, [2.0 / 3.0, 1.0, 1.0, 1.0 / 3.0, 0.0, 0.0],
                               atol=1e-15)


@pytest.mark.parametrize("q, width, mu", [(1.25, 2.0, 0.0), (1.5, 0.125, 0.05), (1.8, 1.0, 0.3)])
def test_rate_is_bit_identical_to_the_plain_expression(q, width, mu):
    # The step writes into reused buffers; every operation keeps the
    # operand order of this expression, so not one bit may move.  Every
    # width takes the stepper's FFT; 0.125 rescales to a stencil narrow
    # enough that kernels.convolve would sum it directly.  The flux power
    # is the stepper's own, which differs from ** by up to 2 ulp at q = 1.25
    # and q = 1.75.
    p = _params(q=q, kernel_width=width, mu=mu, lam=2.0, alpha=0.7)
    stepper = _Stepper(p)
    rng = np.random.default_rng(5)
    for u in (rng.standard_normal(p.grid_n()), np.zeros(p.grid_n())):
        lu = stepper._lu(u).copy()
        f = _power(np.abs(u), q) * u / q
        expect = -np.diff(f, prepend=0.0) / p.dx + p.alpha * stepper.lamq * lu
        padded = np.concatenate(([0.0], u, [0.0]))
        if mu > 0.0:
            expect = expect + mu * (padded[2:] - 2.0 * padded[1:-1] + padded[:-2]) / p.dx ** 2
        dirichlet = -2.0 * p.alpha * stepper.lamq * float(np.einsum("i,i->", u, lu)) * p.dx
        rhs, got = stepper.rate(u, np.abs(u))
        np.testing.assert_array_equal(rhs, expect)
        assert got == dirichlet


def test_snapshots_hit_schedule_exactly():
    p = _params(output_times=(0.25, 0.4, 0.5))
    traj = run(make_initial_datum("box", p.x_min, p.dx, p.grid_n()), p)
    assert traj.times == [0.25, 0.4, 0.5]
    assert traj.steps > 0
    assert len(traj.snapshots) == 3


def test_mass_conserved_to_rounding():
    # domain wide enough that the zero extension sees only rounding-level mass
    p = _params(x_min=-8.0, x_max=8.0, output_times=(0.25, 0.5))
    traj = run(make_initial_datum("box", p.x_min, p.dx, p.grid_n()), p)
    for _, m in traj.mass_history:
        assert m == pytest.approx(1.0, abs=1e-12)


def test_maximum_principle_nonnegative_datum():
    p = _params(output_times=(0.25, 1.0))
    traj = run(make_initial_datum("box", p.x_min, p.dx, p.grid_n()), p)
    for u in traj.snapshots:
        assert u.values.max() <= 1.0 + 1e-12
        assert u.values.min() >= -1e-12


def test_l1_contraction_and_order_preservation():
    # contraction survives boundary loss, so the tail cap is irrelevant here
    rng = np.random.default_rng(17)
    p = _params(output_times=(0.3,), tail_cap=1e9)
    n = p.grid_n()
    a = random_smooth_field(rng, p.x_min, p.dx, n, margin_cells=40)
    b = random_smooth_field(rng, p.x_min, p.dx, n, margin_cells=40)
    lo = a.with_values(np.minimum(a.values, b.values))
    hi = a.with_values(np.maximum(a.values, b.values))
    ua, ub, ulo, uhi = (traj.snapshots[-1] for traj in run_lockstep((a, b, lo, hi), p))
    d0 = lp_norm(a.with_values(a.values - b.values), 1)
    d1 = lp_norm(ua.with_values(ua.values - ub.values), 1)
    assert d1 <= d0 + 1e-11
    # ordered pair stays ordered
    assert (uhi.values - ulo.values).min() >= -1e-11


def test_lockstep_shares_one_schedule_and_keeps_run_bookkeeping():
    p = _params(output_times=(0.1, 0.3))
    box = make_initial_datum("box", p.x_min, p.dx, p.grid_n())
    # the taller box has the tighter CFL budget, so it sets the shared dt
    tall = box.with_values(2.0 * box.values)
    low, high = run_lockstep((box, tall), p)
    alone = run(tall, p)
    assert low.steps == high.steps == alone.steps
    assert low.times == high.times == alone.times
    for got, want in zip(high.snapshots, alone.snapshots):
        np.testing.assert_array_equal(got.values, want.values)
    assert high.mass_history == alone.mass_history
    assert high.dissipation_history == alone.dissipation_history
    assert low.steps > run(box, p).steps
    assert low.initial is not box and np.array_equal(low.initial.values, box.values)


def test_viscous_term_dissipates():
    p = _params(mu=0.1, dx=1.0 / 32.0, output_times=(0.2,))
    datum = make_initial_datum("box", p.x_min, p.dx, p.grid_n())
    u = run(datum, p).snapshots[-1]
    assert np.sum(u.values**2) * p.dx < np.sum(datum.values**2) * p.dx


def test_dissipation_history_monotone():
    p = _params(output_times=(0.1, 0.2, 0.4))
    traj = run(make_initial_datum("box", p.x_min, p.dx, p.grid_n()), p)
    d = [v for _, v in traj.dissipation_history]
    assert d[0] > 0.0
    assert all(b >= a for a, b in zip(d, d[1:]))


def test_energy_inequality_every_snapshot():
    p = _params(output_times=(0.1, 0.3, 0.5))
    datum = make_initial_datum("box", p.x_min, p.dx, p.grid_n())
    traj = run(datum, p)
    e_prev = np.sum(datum.values**2) * p.dx
    d_prev = 0.0
    for u, (_, d) in zip(traj.snapshots, traj.dissipation_history):
        e = np.sum(u.values**2) * p.dx
        assert e + (d - d_prev) <= e_prev + 1e-10
        e_prev, d_prev = e, d


def test_rescaled_system_runs():
    p = _params(lam=4.0, dx=1.0 / 128.0, output_times=(0.25,))
    datum = make_initial_datum("box", p.x_min, p.dx, p.grid_n(), height=4.0, right=0.25)
    traj = run(datum, p)
    assert traj.snapshots[-1].mass() == pytest.approx(1.0, abs=1e-6)


def test_abort_names_cell_and_time_on_overflow():
    # constant huge state: fluxes overflow to inf, differences go NaN
    u = grid_function(np.full(10, 1e200), 0.0, 1.0)
    p = SimParams(q=2.0, alpha=0.0, x_min=0.0, x_max=10.0, dx=1.0,
                  output_times=(1e-210,), tail_cap=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalAbort, match=r"non-finite value in cell \d+ .* at t=") as exc:
            run(u, p)
    assert exc.value.cell is not None
    assert exc.value.t > 0.0


def test_lockstep_pair_aborts_on_overflow():
    # the huge field overflows; its partner is harmless and must not hide it
    p = SimParams(q=2.0, alpha=0.0, x_min=0.0, x_max=10.0, dx=1.0,
                  output_times=(1e-210,), tail_cap=1e300)
    huge = grid_function(np.full(10, 1e200), 0.0, 1.0)
    zero = grid_function(np.zeros(10), 0.0, 1.0)
    for k, pair in enumerate(((huge, zero), (zero, huge))):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalAbort, match=rf"non-finite value in cell \d+ of field {k}"):
                run_lockstep(pair, p)


def test_abort_on_collapsed_timestep():
    u = grid_function(np.full(10, 1e15), 0.0, 1.0)
    u.values[5] = 1e15
    p = SimParams(q=2.0, alpha=0.0, x_min=0.0, x_max=10.0, dx=1.0,
                  output_times=(1.0,), tail_cap=1e300)
    with pytest.raises(NumericalAbort, match="collapsed"):
        run(u, p)


def test_abort_when_mass_escapes():
    p = SimParams(q=1.5, x_min=-1.0, x_max=1.5, dx=1.0 / 64.0,
                  output_times=(2.0,), tail_cap=1e-3)
    datum = make_initial_datum("box", p.x_min, p.dx, p.grid_n(), left=0.0, right=0.5)
    with pytest.raises(DomainTooSmall, match="widen the domain"):
        run(datum, p)


def test_run_rejects_mismatched_grid():
    p = _params()
    datum = make_initial_datum("box", p.x_min, p.dx, p.grid_n() // 2)
    with pytest.raises(ValueError, match="does not match params grid"):
        run(datum, p)
    good = make_initial_datum("box", p.x_min, p.dx, p.grid_n())
    with pytest.raises(ValueError, match="does not match params grid"):
        run_lockstep((good, datum), p)


def test_rescale_trajectory_lam1_identity():
    p = _params(output_times=(0.25, 0.5))
    traj = run(make_initial_datum("box", p.x_min, p.dx, p.grid_n()), p)
    back = rescale_trajectory(traj, 1.0, (0.25, 0.5), p.x_min, p.dx, p.grid_n())
    for a, b in zip(back.snapshots, traj.snapshots):
        np.testing.assert_array_equal(a.values, b.values)


def test_rescale_trajectory_interpolates_time():
    p = _params(output_times=(0.2, 0.4))
    traj = run(make_initial_datum("box", p.x_min, p.dx, p.grid_n()), p)
    mid = rescale_trajectory(traj, 1.0, (0.3,), p.x_min, p.dx, p.grid_n())
    expect = 0.5 * (traj.snapshots[0].values + traj.snapshots[1].values)
    np.testing.assert_allclose(mid.snapshots[0].values, expect, atol=1e-15)


def test_rescale_trajectory_rejects_unbracketed_time():
    p = _params(output_times=(0.2, 0.4))
    traj = run(make_initial_datum("box", p.x_min, p.dx, p.grid_n()), p)
    with pytest.raises(ValueError, match="outside"):
        rescale_trajectory(traj, 2.0, (0.4,), p.x_min, p.dx, p.grid_n())


def test_rescale_trajectory_scales_amplitude_and_space():
    p = _params(output_times=(2.0 ** 1.5,), tail_cap=1e9)
    traj = run(make_initial_datum("box", p.x_min, p.dx, p.grid_n()), p)
    lam = 2.0
    out = rescale_trajectory(traj, lam, (1.0,), -2.0, p.dx / lam, 256)
    src = traj.snapshots[-1]
    # u_lam(1, x) = lam * u(lam^q, lam x), here sampled exactly at source centers
    expect = lam * np.interp(lam * out.snapshots[0].centers, src.centers, src.values,
                             left=0.0, right=0.0)
    np.testing.assert_allclose(out.snapshots[0].values, expect, atol=1e-15)


def test_infinite_dt_budget_steps_to_each_snapshot():
    # a zero field with alpha = mu = 0 has no CFL constraint at all
    p = _params(alpha=0.0, mu=0.0, output_times=(0.25, 0.5))
    traj = run(grid_function(np.zeros(p.grid_n()), p.x_min, p.dx), p)
    assert traj.times == [0.25, 0.5]
    assert traj.steps == 2
    for u in traj.snapshots:
        assert not np.any(u.values)


def test_nan_dt_budget_still_aborts():
    p = _params(alpha=0.0, mu=0.0)
    u = np.zeros(p.grid_n())
    u[10] = np.nan
    with pytest.raises(NumericalAbort, match="collapsed to dt=nan"):
        run(grid_function(u, p.x_min, p.dx), p)


@pytest.mark.parametrize("x_max, width, taps", [
    pytest.param(80.0, 0.25, 65, id="80.0"),
    pytest.param(56.0, 0.25, 65, id="56.0"),
    pytest.param(4.0, 0.125, 33, id="narrow"),
])
def test_fft_path_matches_direct_convolution(x_max, width, taps):
    # The decay grids (65-tap kernel, n = 11776 and 8704) whose padded
    # length used to be 7- or 11-smooth, and a stencil of at most 64 taps,
    # which the stepper also convolves by FFT.  Two different fields in a
    # row, so a stale padded buffer would show.
    p = SimParams(q=1.5, kernel_width=width, x_min=-12.0, x_max=x_max, dx=1.0 / 128.0)
    stepper = _Stepper(p)
    kernel = p.kernel()
    assert kernel.weights.size == taps
    k = kernel.half_cells
    rng = np.random.default_rng(7)
    n = p.grid_n()
    box = np.where(np.arange(n) < n // 3, 1.0, 0.0)
    for values in (rng.random(n), box):
        expect = np.convolve(kernel.weights, values)[k : k + n] - values
        np.testing.assert_allclose(stepper._lu(values), expect, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("name", ["q", "lam", "mu", "alpha", "cfl", "kernel_width",
                                  "x_min", "x_max", "dx", "tail_cap"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_every_float_field_must_be_finite(name, value):
    with pytest.raises(ParamError, match="finite") as exc:
        _params(**{name: value})
    assert exc.value.field == name


def test_time_loop_makes_no_blas_call(monkeypatch):
    # OpenBLAS runs large dot products on a helper thread that spins
    # against concurrent runs; the per-step reductions must not reach it.
    # The kernel is built beforehand: its moments use np.dot once per run,
    # on a stencil far below OpenBLAS's threading threshold.
    p = _params(alpha=1.0, mu=0.05, output_times=(0.05, 0.1))
    kernel = p.kernel()
    datum = make_initial_datum("box", p.x_min, p.dx, p.grid_n())

    def no_dot(*args, **kwargs):
        raise AssertionError("np.dot called in the time loop")

    monkeypatch.setattr(SimParams, "kernel", lambda self: kernel)
    monkeypatch.setattr(np, "dot", no_dot)
    traj = run(datum, p)
    assert traj.times == [0.05, 0.1]
    assert traj.dissipation_history[-1][1] > 0.0
