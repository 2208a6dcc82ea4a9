import importlib.util
import os
import pickle
from dataclasses import replace
from pathlib import Path

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
    _Window,
    rescale_snapshot,
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
    v = u.values.copy()
    _Stepper(p).rate(v, np.abs(v), 0.25, p.mu)
    np.testing.assert_allclose(v, [2.0 / 3.0, 1.0, 1.0, 1.0 / 3.0, 0.0, 0.0],
                               atol=1e-15)


@pytest.mark.parametrize("q, width, mu", [(1.25, 2.0, 0.0), (1.5, 0.125, 0.05), (1.8, 1.0, 0.3)])
def test_rate_is_bit_identical_to_the_plain_expression(q, width, mu):
    # The step writes into reused buffers and then into u; every operation
    # keeps the operand order of this expression, with its three scalars,
    # so not one bit may move.  Every width takes the stepper's FFT; 0.125
    # rescales to the 9-tap minimum stencil, the narrowest a kernel may be.
    # The flux power is the stepper's own, which differs from ** by up to
    # 2 ulp at q = 1.25 and q = 1.75.
    p = _params(q=q, kernel_width=width, mu=mu, lam=2.0, alpha=0.7)
    stepper = _Stepper(p)
    dt = 1e-3
    rng = np.random.default_rng(5)
    for u0 in (rng.standard_normal(p.grid_n()), np.zeros(p.grid_n())):
        lu = stepper._lu(u0).copy()
        g = _power(np.abs(u0), q) * u0
        rhs = dt / (q * p.dx) * -np.diff(g, prepend=0.0) + p.alpha * stepper.lamq * dt * lu
        padded = np.concatenate(([0.0], u0, [0.0]))
        if mu > 0.0:
            lap = padded[2:] - 2.0 * padded[1:-1] + padded[:-2]
            rhs = rhs + mu * dt / p.dx ** 2 * lap
        dirichlet = -2.0 * p.alpha * stepper.lamq * float(np.einsum("i,i->", u0, lu)) * p.dx
        u = u0.copy()
        got = stepper.rate(u, np.abs(u), dt, mu)
        np.testing.assert_array_equal(u, u0 + rhs)
        assert got == dirichlet


def _two_groups(p):
    # a pair and a lone field; the pair's tall box has the tighter CFL
    # budget, so the pair takes more steps to each snapshot
    box = make_initial_datum("box", p.x_min, p.dx, p.grid_n())
    return [(box, box.with_values(2.0 * box.values)), (box,)]


def test_rate_runs_once_per_batched_step_on_the_moving_rows(monkeypatch):
    # perfbench counts cell updates by wrapping _Stepper.rate: one call per
    # batched step, whose first argument holds exactly the rows that move,
    # as whole grids; a batch steps all their cells even on a grid where a
    # lone field would step on a window.  The lone field waits at each
    # snapshot time while the pair catches up.
    p = _params(x_min=-16.0, x_max=16.0, output_times=(0.1, 0.2))
    n = p.grid_n()
    assert _Stepper(p).windowed
    shapes = []
    rate = _Stepper.rate

    def counted(self, u, *args, **kwargs):
        shapes.append(u.shape)
        return rate(self, u, *args, **kwargs)

    monkeypatch.setattr(_Stepper, "rate", counted)
    (low, high), (lone,) = run_lockstep(_two_groups(p), p)
    assert low.steps == high.steps > lone.steps > 2
    assert len(shapes) == low.steps
    assert {cols for _, cols in shapes} == {n}
    assert sorted({rows for rows, _ in shapes}) == [2, 3]
    assert sum(rows * cols for rows, cols in shapes) == (2 * low.steps + lone.steps) * n


def test_benchmark_step_counter_counts_every_group_s_cells():
    # perfbench's untraced runs read cell updates from tracer.StepCounter
    tracer_path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    if not tracer_path.exists():
        pytest.skip("no benchmark harness in this tree")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer_path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    p = _params(output_times=(0.1, 0.2))
    counter = tracer.StepCounter()
    counter.install()
    try:
        groups = run_lockstep(_two_groups(p), p)
    finally:
        counter.uninstall()
    assert counter.found
    assert groups[0][0].steps != groups[1][0].steps
    assert counter.cells == sum(len(g) * g[0].steps * p.grid_n() for g in groups)


def _assert_same_run(got, want):
    assert got.steps == want.steps
    assert got.times == want.times
    for a, b in zip(got.snapshots, want.snapshots, strict=True):
        np.testing.assert_array_equal(a.values, b.values)
    assert got.mass_history == want.mass_history
    assert got.dissipation_history == want.dissipation_history


@pytest.mark.parametrize("mus", [
    pytest.param((0.0, 0.0, 0.0), id="0.0"),
    pytest.param((0.02, 0.02, 0.02), id="0.02"),
    pytest.param((0.0, 0.05, 0.02), id="per-group-mu"),
])
def test_each_group_of_a_batch_runs_as_it_does_alone(mus):
    # Groups share the batched steps, never a clock: each must come out bit
    # for bit as its own one-group run, with its own mu where they differ.
    # The tall box pair takes several times the steps of the others to
    # every snapshot, so they wait at each snapshot time while it steps on
    # alone.
    rng = np.random.default_rng(3)
    times = (0.1, 0.2, 0.3)
    p = _params(lam=2.0, alpha=0.7, output_times=times, tail_cap=1e9)
    per_group = [replace(p, mu=mu) for mu in mus]
    n = p.grid_n()
    assert not _Stepper(p).windowed
    box = make_initial_datum("box", p.x_min, p.dx, n)
    smooth = [random_smooth_field(rng, p.x_min, p.dx, n) for _ in range(3)]
    groups = [(smooth[0],), (box.with_values(4.0 * box.values), box), (smooth[1], smooth[2])]
    together = run_lockstep(groups, p, mus)
    for group, got, pg in zip(groups, together, per_group, strict=True):
        for a, b in zip(got, run_lockstep([group], pg)[0], strict=True):
            assert a.params == pg
            _assert_same_run(a, b)
    for k in range(1, len(times) + 1):
        lone, tall, pair = (run_lockstep([g], replace(pg, output_times=times[:k]))[0][0].steps
                            for g, pg in zip(groups, per_group))
        assert tall >= max(lone, pair) + 5


def test_per_group_params_come_one_per_group():
    p = _params()
    box = make_initial_datum("box", p.x_min, p.dx, p.grid_n())
    for count in (1, 3):
        with pytest.raises(ValueError, match=f"^{count} viscosities for 2 groups"):
            run_lockstep([(box,), (box,)], p, [0.1] * count)


def test_a_group_s_mu_keeps_simparams_rules():
    p = _params()
    box = make_initial_datum("box", p.x_min, p.dx, p.grid_n())
    for mu in (-0.1, float("nan")):
        with pytest.raises(ParamError) as info:
            run_lockstep([(box,), (box,)], p, [0.1, mu])
        assert info.value.field == "mu"


def test_contiguous_moving_rows_step_in_place_as_the_gathered_rows_do(monkeypatch):
    # Two viscous boxes outlast an inviscid one.  Ordered slow, slow, fast,
    # the moving rows stay a prefix and every batch is a view of the loop's
    # rows; ordered slow, fast, slow, the two slow rows are gathered.  Each
    # group comes out bit for bit the same either way.
    p = _params(output_times=(0.1, 0.2))
    box = make_initial_datum("box", p.x_min, p.dx, p.grid_n())
    slow, fast = 0.05, 0.0
    owns = []
    rate = _Stepper.rate

    def recorded(self, u, *args, **kwargs):
        if u.ndim == 2:  # a fancy-index gather owns its data; a view does not
            owns.append((len(u), u.flags.owndata))
        return rate(self, u, *args, **kwargs)

    monkeypatch.setattr(_Stepper, "rate", recorded)
    groups = [(box,), (box.with_values(0.5 * box.values),), (box,)]
    in_place = run_lockstep(groups, p, [slow, slow, fast])
    assert {own for _, own in owns} == {False} and {2, 3} <= {rows for rows, _ in owns}
    owns.clear()
    gathered = run_lockstep([groups[0], groups[2], groups[1]], p, [slow, fast, slow])
    assert (2, True) in owns
    assert in_place[2][0].steps < in_place[0][0].steps
    for a, b in zip(in_place, [gathered[0], gathered[2], gathered[1]], strict=True):
        _assert_same_run(a[0], b[0])


def test_windowed_batch_matches_lone_runs_to_rounding():
    # On a windowed grid a lone field steps on its window but a batch
    # steps the whole grid, so a one-field group in a batch rounds as it
    # does alone only to the transform's noise.  The far box lies apart
    # from the pair.
    p = _params(x_min=-16.0, x_max=16.0, output_times=(0.1, 0.2))
    n = p.grid_n()
    far = make_initial_datum("box", p.x_min, p.dx, n, left=8.0, right=9.0)
    groups = _two_groups(p) + [(far,)]
    for group, got in zip(groups, run_lockstep(groups, p), strict=True):
        for a, b in zip(got, run_lockstep([group], p)[0], strict=True):
            assert a.steps == b.steps and a.times == b.times
            for x, y in zip(a.snapshots, b.snapshots, strict=True):
                np.testing.assert_allclose(x.values, y.values, rtol=0.0, atol=1e-13)


def test_a_lone_field_steps_on_a_window_and_a_batch_on_the_whole_grid(monkeypatch):
    p = _params(x_min=-16.0, x_max=16.0, output_times=(0.1, 0.2))
    n = p.grid_n()
    assert _Stepper(p).windowed
    seen = []
    rate = _Stepper.rate

    def recorded(self, u, abs_u, dt, mu, cells=slice(None)):
        seen.append(cells.indices(n))
        return rate(self, u, abs_u, dt, mu, cells)

    monkeypatch.setattr(_Stepper, "rate", recorded)
    lone = run(make_initial_datum("box", p.x_min, p.dx, n), p)
    assert len(seen) == lone.steps > 2
    assert all(b - a < n for a, b, _ in seen)
    seen.clear()
    (pair, _), (alone,) = run_lockstep(_two_groups(p), p)
    assert len(seen) == pair.steps > alone.steps
    assert set(seen) == {(0, n, 1)}


def test_a_lone_window_fits_the_floored_support_after_every_step(monkeypatch):
    # After each step the window is the floored field's nonzero cells
    # widened by the stepper's reach, clipped to the grid: the next step
    # can move no value farther, and a wider window only does dead work.
    p = _params(x_min=-16.0, x_max=16.0, output_times=(0.1, 0.2))
    n, reach = p.grid_n(), _Stepper(p).reach
    fits = []
    settle = _Window.settle

    def checked(self, u, abs_u, max_abs):
        settle(self, u, abs_u, max_abs)
        nonzero = np.flatnonzero(u)
        fits.append((self.cells.start, self.cells.stop)
                    == (max(0, nonzero[0] - reach), min(n, nonzero[-1] + 1 + reach)))

    monkeypatch.setattr(_Window, "settle", checked)
    lone = run(make_initial_datum("box", p.x_min, p.dx, n), p)
    assert len(fits) == lone.steps > 8
    assert all(fits)


@pytest.mark.parametrize("n", [768, 8192])
def test_batch_rates_equal_the_lone_rates_bit_for_bit(n):
    # One einsum gives every row's Dirichlet rate; up to 8192 cells a row
    # it sums each row as the lone field's sum does.  The pair suites'
    # rows have 768 cells.  A numpy whose einsum sums a batch in another
    # order fails here, not as a drift in the pair suites' lines.  Each
    # row has its own mu, as the rows of a viscosity sweep do.
    p = SimParams(q=1.5, mu=0.02, x_min=0.0, x_max=n / 64.0, dx=1.0 / 64.0,
                  output_times=(1.0,))
    rows = 40
    stepper = _Stepper(p, rows)
    u = np.random.default_rng(11).standard_normal((rows, n))
    dt = 1e-3
    mus = np.linspace(0.0, p.mu, rows)
    batch = u.copy()
    rates = stepper.rate(batch, np.abs(batch), dt, mus[:, None])
    for i in range(rows):
        alone = u[i].copy()
        assert stepper.rate(alone, np.abs(alone), dt, float(mus[i])) == rates[i]
        np.testing.assert_array_equal(alone, batch[i])


def test_zero_group_with_infinite_budget_beside_a_moving_group():
    # alpha = mu = 0: the zero field has no CFL constraint and steps
    # straight to each snapshot while the box beside it takes many steps
    p = _params(alpha=0.0, mu=0.0, output_times=(0.25, 0.5))
    zero = grid_function(np.zeros(p.grid_n()), p.x_min, p.dx)
    box = make_initial_datum("box", p.x_min, p.dx, p.grid_n())
    (z,), (moved,) = run_lockstep([(zero,), (box,)], p)
    _assert_same_run(z, run(zero, p))
    _assert_same_run(moved, run(box, p))
    assert z.steps == 2 and moved.steps > 10
    assert not any(np.any(u.values) for u in z.snapshots)


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
    a = random_smooth_field(rng, p.x_min, p.dx, n)
    b = random_smooth_field(rng, p.x_min, p.dx, n)
    lo = a.with_values(np.minimum(a.values, b.values))
    hi = a.with_values(np.maximum(a.values, b.values))
    ua, ub, ulo, uhi = (traj.snapshots[-1] for traj in run_lockstep([(a, b, lo, hi)], p)[0])
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
    low, high = run_lockstep([(box, tall)], p)[0]
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
                run_lockstep([pair], p)


def test_abort_on_collapsed_timestep():
    u = grid_function(np.full(10, 1e15), 0.0, 1.0)
    u.values[5] = 1e15
    p = SimParams(q=2.0, alpha=0.0, x_min=0.0, x_max=10.0, dx=1.0,
                  output_times=(1.0,), tail_cap=1e300)
    with pytest.raises(NumericalAbort, match="collapsed"):
        run(u, p)


def test_abort_in_a_group_names_the_field_and_the_group():
    p = SimParams(q=2.0, alpha=0.0, x_min=0.0, x_max=10.0, dx=1.0,
                  output_times=(1e-210,), tail_cap=1e300)
    huge = grid_function(np.full(10, 1e200), 0.0, 1.0)
    zero = grid_function(np.zeros(10), 0.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalAbort,
                           match=r"non-finite value in cell \d+ of field 1 in group 1 "):
            run_lockstep([(zero,), (zero, huge), (zero,)], p)
    p = replace(p, output_times=(1.0,))
    steep = grid_function(np.full(10, 1e15), 0.0, 1.0)
    with pytest.raises(NumericalAbort, match=r"collapsed .* cell \d+ of field 0 in group 2 "):
        run_lockstep([(zero,), (zero,), (steep, zero)], p)


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
        run_lockstep([(good, datum)], p)


def test_rescale_trajectory_lam1_identity():
    p = _params(output_times=(0.25, 0.5))
    traj = run(make_initial_datum("box", p.x_min, p.dx, p.grid_n()), p)
    back = [rescale_snapshot(traj, 1.0, t, p.x_min, p.dx, p.grid_n()) for t in (0.25, 0.5)]
    for a, b in zip(back, traj.snapshots):
        np.testing.assert_array_equal(a.values, b.values)


def test_rescale_trajectory_rejects_unbracketed_time():
    # lam^q t must be a snapshot time: 2^1.5 * 0.4 is past the last one,
    # 0.3 lies between two
    p = _params(output_times=(0.2, 0.4))
    traj = run(make_initial_datum("box", p.x_min, p.dx, p.grid_n()), p)
    with pytest.raises(ValueError, match="no snapshot"):
        rescale_snapshot(traj, 2.0, 0.4, p.x_min, p.dx, p.grid_n())
    with pytest.raises(ValueError, match="no snapshot"):
        rescale_snapshot(traj, 1.0, 0.3, p.x_min, p.dx, p.grid_n())


def test_rescale_trajectory_scales_amplitude_and_space():
    p = _params(output_times=(2.0 ** 1.5,), tail_cap=1e9)
    traj = run(make_initial_datum("box", p.x_min, p.dx, p.grid_n()), p)
    lam = 2.0
    out = rescale_snapshot(traj, lam, 1.0, -2.0, p.dx / lam, 256)
    src = traj.snapshots[-1]
    # u_lam(1, x) = lam * u(lam^q, lam x), here sampled exactly at source centers
    expect = lam * np.interp(lam * out.centers, src.centers, src.values,
                             left=0.0, right=0.0)
    np.testing.assert_allclose(out.values, expect, atol=1e-15)


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


@pytest.mark.parametrize("n, k, block, windowed", [
    pytest.param(22016, 32, 1024, True, id="decay"),
    pytest.param(18432, 256, 2048, True, id="long_time_signed"),
    pytest.param(2560, 128, 1024, True, id="viscosity_sweep"),
    pytest.param(5120, 256, 2048, True, id="viscosity_refined"),
    pytest.param(10240, 512, 4096, True, id="oleinik"),
    pytest.param(1536, 128, 1024, False, id="two_blocks"),
    pytest.param(768, 64, 900, False, id="one_transform"),
    pytest.param(256, 4, 270, False, id="minimum_stencil"),
])
def test_block_length_rule(n, k, block, windowed):
    # Blocks are the smallest power of two >= max(1024, 3(2k + 1)), or one
    # 5-smooth transform when the padded grid is shorter; fields step on
    # windows past two blocks.  The grids are the benchmark workloads'.
    p = SimParams(x_min=0.0, x_max=n / 128.0, dx=1.0 / 128.0, kernel_width=k / 128.0)
    stepper = _Stepper(p)
    assert (p.grid_n(), stepper.kernel.half_cells) == (n, k)
    assert (stepper._block, stepper.windowed) == (block, windowed)


@pytest.mark.parametrize("k", [4, 170, 171, 340, 341, 682, 683, 1364, 1365, 2730, 2731, 4096])
def test_the_pair_suites_grid_takes_no_window(k):
    # A grid is windowed only when n + 2k + 1 > 2 * block with
    # block >= max(1024, 3(2k + 1)); at n = 768 that needs 2k + 1 > 1280
    # and 2k + 1 < 154 at once.  So the pair suites' batches, which step
    # the whole grid, lose no window whatever the kernel.  The half-widths
    # sit on both sides of each power-of-two step of the block length.
    p = SimParams(x_min=-6.0, x_max=6.0, dx=1.0 / 64.0, kernel_width=k / 64.0)
    stepper = _Stepper(p)
    assert (p.grid_n(), stepper.kernel.half_cells) == (768, k)
    assert not stepper.windowed


@pytest.mark.parametrize("x_max, width, taps", [
    pytest.param(80.0, 0.25, 65, id="80.0"),
    pytest.param(56.0, 0.25, 65, id="56.0"),
    pytest.param(4.0, 0.125, 33, id="narrow"),
    pytest.param(4.0, 1.0 / 32.0, 9, id="K4"),
    pytest.param(56.0, 1.0, 257, id="K128"),
    pytest.param(56.0, 2.0, 513, id="K256"),
    pytest.param(56.0, 4.0, 1025, id="K512"),
])
def test_fft_path_matches_direct_convolution(x_max, width, taps):
    # The decay grids (65-tap kernel, n = 11776 and 8704) whose padded
    # length used to be 7- or 11-smooth, and stencils of 9 to 1025 taps.
    # Windows of one cell, one block's output, one cell more and the whole
    # grid, in an order that narrows and widens them: a stale padded
    # buffer or a wrong plan would show.  Two fields in a row.
    p = SimParams(q=1.5, kernel_width=width, x_min=-12.0, x_max=x_max, dx=1.0 / 128.0)
    stepper = _Stepper(p)
    kernel = p.kernel()
    assert kernel.weights.size == taps
    assert stepper.windowed
    k = kernel.half_cells
    rng = np.random.default_rng(7)
    n = p.grid_n()
    box = np.where(np.arange(n) < n // 3, 1.0, 0.0)
    for values in (rng.random(n), box):
        for m in (n, 1, stepper._step + 1, stepper._step):
            v = values[:m]
            expect = np.convolve(kernel.weights, v)[k : k + m] - v
            np.testing.assert_allclose(stepper._lu(v), expect, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("name", ["q", "lam", "mu", "alpha", "cfl", "kernel_width",
                                  "x_min", "x_max", "dx", "tail_cap"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_every_float_field_must_be_finite(name, value):
    with pytest.raises(ParamError, match="finite") as exc:
        _params(**{name: value})
    assert exc.value.field == name


_BAD_SCHEDULE = "output times must be finite, positive and strictly increasing"


@pytest.mark.parametrize("times, message", [
    pytest.param((), "output schedule is empty", id="empty"),
    pytest.param((0.5, np.nan), _BAD_SCHEDULE, id="nan"),
    pytest.param((0.5, np.inf), _BAD_SCHEDULE, id="inf"),
    pytest.param((0.0, 0.5), _BAD_SCHEDULE, id="zero"),
    pytest.param((-0.5, 0.5), _BAD_SCHEDULE, id="negative"),
    pytest.param((0.25, 0.5, 0.5), _BAD_SCHEDULE, id="repeated"),
    pytest.param((0.5, 0.25), _BAD_SCHEDULE, id="decreasing"),
])
def test_a_bad_output_schedule_is_a_param_error_on_output_times(times, message):
    with pytest.raises(ParamError) as exc:
        _params(output_times=times)
    assert exc.value.field == "output_times"
    assert str(exc.value) == message


@pytest.mark.parametrize("error", [
    NumericalAbort("non-finite value in cell 7 (x=0.1) at t=0.25", t=0.25, cell=7),
    DomainTooSmall("mass drift 0.5 exceeds tail cap 0.001 at t=2", t=2.0),
    ParamError("mu", "mu must be nonnegative, got -1.0"),
], ids=["NumericalAbort", "DomainTooSmall", "ParamError"])
def test_aborts_survive_a_pickle_round_trip(error):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    for name in ("t", "cell", "field"):
        assert getattr(back, name, None) == getattr(error, name, None)


def _run_a_nan_datum(_):
    p = _params(output_times=(0.1,))
    box = make_initial_datum("box", p.x_min, p.dx, p.grid_n())
    values = box.values.copy()
    values[300] = np.nan
    return run(box.with_values(values), p)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_an_abort_in_a_worker_process_re_raises_unchanged(cpus):
    from nwavelab.experiments import _pmap

    with pytest.raises(NumericalAbort) as here:
        _run_a_nan_datum(0)
    forks = cpus(2)
    with pytest.raises(NumericalAbort) as there:  # item 1 runs in the child
        _pmap(lambda item: item and _run_a_nan_datum(item), [0, 1])
    assert len(forks) == 1
    assert type(there.value) is type(here.value)
    assert str(there.value) == str(here.value)
    assert (there.value.t, there.value.cell) == (here.value.t, here.value.cell) == (0.0, 300)


@pytest.mark.parametrize("kw, name, message", [
    ({"dx": 0.5}, "kernel_width", "too coarse"),  # dx > width/4
    ({"dx": 0.25, "lam": 200.0}, "lam", "lambda = 200 rescales the kernel too far"),
])
def test_a_kernel_that_cannot_be_built_names_its_field(kw, name, message):
    with pytest.raises(ParamError, match=message) as exc:
        _params(**kw).kernel()
    assert exc.value.field == name


def test_a_kernel_rescaled_from_its_base_is_the_kernel_built_whole():
    whole = _params(lam=4.0).kernel()
    from_base = _params(lam=4.0).kernel(_params().kernel())
    np.testing.assert_array_equal(from_base.samples, whole.samples)
    assert from_base.lam == whole.lam == 4.0


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
