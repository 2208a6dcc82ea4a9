"""Structural invariants of the scheme over generated inputs.

Every field of a lockstep run sees the same discrete update operator, so
L^1 contraction, positive-part contraction and order preservation hold
for any pair of them up to rounding, whatever q, kernel, stencil width,
alpha, mu and lambda are, and a rerun reproduces every bit.

run() is also held to reference_run, the same scheme written out plainly,
over the same inputs: same steps, same snapshots, mass that changes only
by what crosses the boundary, the same nonlocal dissipation, and no L^2
energy created.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nwavelab.diagnostics import random_smooth_field
from nwavelab.grid import grid_function
from nwavelab.kernels import KERNEL_FAMILIES
from nwavelab.solver import DomainTooSmall, SimParams, run, run_lockstep

_ROUNDING = 1e-11
_DX = 1.0 / 32.0
_N = 256

qs = st.one_of(
    st.sampled_from([1.25, 1.5, 1.75, 2.0]),
    st.floats(1.0, 2.0, exclude_min=True),
)
# alpha = 0 or mu = 0 switch the nonlocal or the viscous term off
alphas = st.one_of(st.just(0.0), st.floats(0.1, 2.0))
mus = st.one_of(st.just(0.0), st.floats(0.01, 0.5))


@st.composite
def params(draw):
    lam = draw(st.sampled_from([1.0, 2.0]))
    # rescaled support of `half` cells each side: 9 to about 80 taps
    half = draw(st.integers(4, 40))
    return SimParams(
        q=draw(qs),
        lam=lam,
        mu=draw(mus),
        alpha=draw(alphas),
        kernel_family=draw(st.sampled_from(KERNEL_FAMILIES)),
        kernel_width=half * lam * _DX,
        x_min=-4.0,
        x_max=-4.0 + _N * _DX,
        dx=_DX,
        output_times=(0.05, 0.1),
        tail_cap=1e9,  # generated data may flow out of the domain
    )


@st.composite
def fields(draw):
    kind = draw(st.sampled_from(["signed", "nonnegative", "zero"]))
    if kind == "zero":
        return grid_function(np.zeros(_N), -4.0, _DX)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_smooth_field(rng, -4.0, _DX, _N, nonnegative=kind == "nonnegative")


def _l1(values):
    return float(np.sum(np.abs(values)) * _DX)


def _l2sq(values):
    return float(np.sum(values * values) * _DX)


def _positive_part(values):
    return float(np.sum(np.maximum(values, 0.0)) * _DX)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=params(), a=fields(), b=fields())
def test_lockstep_contraction_order_and_determinism(p, a, b):
    lo = a.with_values(np.minimum(a.values, b.values))
    hi = a.with_values(np.maximum(a.values, b.values))
    trajs = run_lockstep((a, b, lo, hi), p)
    ta, tb, tlo, thi = trajs
    d0 = b.values - a.values
    for ua, ub, ulo, uhi in zip(ta.snapshots, tb.snapshots, tlo.snapshots, thi.snapshots):
        d = ub.values - ua.values
        assert _l1(d) <= _l1(d0) + _ROUNDING
        assert _positive_part(d) <= _positive_part(d0) + _ROUNDING
        assert float(np.max(ulo.values - uhi.values)) <= _ROUNDING

    for first, again in zip(trajs, run_lockstep((a, b, lo, hi), p)):
        for u, v in zip(first.snapshots, again.snapshots):
            np.testing.assert_array_equal(u.values, v.values)


def reference_run(phi, p):
    """The scheme of nwavelab.solver written out plainly.

    A new array for every quantity of every step, np.convolve for J*u,
    ** for the flux, and run()'s dt rule and snapshot schedule.  Returns
    (steps, times, snapshots, dissipation, leaked): dissipation is the
    cumulative nonlocal Dirichlet integral at each snapshot, and leaked is
    the mass that has left the domain by then, summed from the boundary
    terms alone: the convective outflow f(u_last), the viscous flux through
    both ends, and the part of J*u that falls outside the grid.
    """
    kernel = p.kernel() if p.alpha > 0.0 else None
    c = p.alpha * p.lam ** p.q
    dx = p.dx
    u = phi.values.copy()
    n = u.size
    t, steps, dissipated, leaked = 0.0, 0, 0.0, 0.0
    times, snapshots, dissipation, leaks = [], [], [], []
    for t_next in p.output_times:
        while t < t_next:
            denom = float(np.max(np.abs(u))) ** (p.q - 1.0) / dx + c + 2.0 * p.mu / dx ** 2
            dt = np.inf if denom == 0.0 else p.cfl / denom
            if dt >= t_next - t:
                dt, t = t_next - t, t_next
            else:
                t = t + dt
            f = np.abs(u) ** (p.q - 1.0) * u / p.q
            rhs = -np.diff(f, prepend=0.0) / dx
            leak = f[-1]
            if kernel is not None:
                k = kernel.half_cells
                full = np.convolve(kernel.weights, u)
                lu = full[k:k + n] - u
                rhs = rhs + c * lu
                dissipated += dt * -2.0 * c * float(np.sum(u * lu)) * dx
                outside = full[:k].sum() + full[k + n:].sum()
                leak += c * dx * (outside + (1.0 - kernel.weights.sum()) * u.sum())
            if p.mu > 0.0:
                padded = np.concatenate(([0.0], u, [0.0]))
                rhs = rhs + p.mu * (padded[2:] - 2.0 * padded[1:-1] + padded[:-2]) / dx ** 2
                leak += p.mu * (u[0] + u[-1]) / dx
            leaked += dt * leak
            u = u + dt * rhs
            steps += 1
        times.append(t)
        snapshots.append(u)
        dissipation.append(dissipated)
        leaks.append(leaked)
    return steps, times, snapshots, dissipation, leaks


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=params(), phi=fields(), cap=st.sampled_from([1e-3, 1e9]))
def test_run_matches_reference_stepper(p, phi, cap):
    p = replace(p, tail_cap=cap)
    steps, times, snapshots, dissipation, leaked = reference_run(phi, p)
    mass0 = phi.mass()
    try:
        traj = run(phi, p)
    except DomainTooSmall as exc:
        # run stops at the first snapshot whose mass drift exceeds the cap
        i = times.index(exc.t)
        assert abs(leaked[i]) > cap
        assert all(abs(m) <= cap for m in leaked[:i])
        return
    assert traj.steps == steps
    assert traj.times == times
    for u, want in zip(traj.snapshots, snapshots):
        np.testing.assert_allclose(u.values, want, rtol=0.0, atol=1e-12)
    for (_, m), gone in zip(traj.mass_history, leaked):
        assert abs(m - (mass0 - gone)) <= 1e-12
        assert abs(m - mass0) <= cap
    for (_, d), want in zip(traj.dissipation_history, dissipation):
        assert abs(d - want) <= 1e-12
    # No L^2 energy is created.  energy_report's sharper form, which also
    # credits the accumulated dissipation, is not a property of the forward
    # Euler step: the nonlocal part alone gains (alpha lam^q dt)^2 ||Lu||^2
    # on it, which the convective numerical viscosity covers only when it
    # dominates the CFL budget.
    energies = [_l2sq(phi.values)] + [_l2sq(u.values) for u in traj.snapshots]
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))
