"""Explicit monotone finite-volume scheme for

    u_t + (f(u))_x = alpha * lam^q (J_lam * u - u) + mu * u_xx,
    f(u) = |u|^(q-1) u / q,

on a bounded domain with zero ghost values on both sides.  One forward-Euler
step reads

    u'_j = u_j - (dt/dx) (f(u_j) - f(u_{j-1}))
               + dt * alpha * lam^q ((J_lam * u)_j - u_j)
               + dt * mu * (u_{j+1} - 2 u_j + u_{j-1}) / dx^2,

with the upwind interface flux f(u_j) (equal to the Godunov flux here).  The
step is order preserving whenever

    dt * ( max_j |u_j|^(q-1) / dx + alpha * lam^q + 2 mu / dx^2 ) <= cfl < 1,

and run() picks dt adaptively from that budget.  Order preservation is what
the comparison, contraction and sign-preservation checks lean on, so the
budget is enforced every step, not just at t=0.

run() also accumulates the nonlocal energy-dissipation integral

    int_0^t  alpha * lam^q  intint J_lam(x - y) (u(x) - u(y))^2 dx dy  dt'

step by step (left endpoint in time), using the identity
intint J (u(x)-u(y))^2 = -2 <u, J*u - u> evaluated with the operator values
the step already computed.  Snapshot-level quadrature of the same integral
would inject O(dt_snapshot^2) errors of either sign and drown the
energy-inequality check, so it is done here, exactly where the scheme is.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .flux import flux, max_wave_speed, validate_q
from .grid import GridFunction, grid_function
from .kernels import Kernel, make_kernel, rescale
from .nonlocal_op import _L_values

__all__ = [
    "SimParams",
    "Trajectory",
    "NumericalAbort",
    "DomainTooSmall",
    "run",
    "run_lockstep",
    "rescale_trajectory",
]


class NumericalAbort(RuntimeError):
    """The time loop hit NaN/overflow or an unusably small dt."""

    def __init__(self, message: str, t: float, cell: int | None = None):
        super().__init__(message)
        self.t = t
        self.cell = cell


class DomainTooSmall(NumericalAbort):
    """Mass leaking past the boundary exceeded the configured tail cap."""


@dataclass(frozen=True)
class SimParams:
    """Everything a run needs besides the initial datum.

    The grid fields must match the datum's grid; run() checks.  lam >= 1
    selects the rescaled system (1 is the plain one); alpha scales the
    nonlocal term; mu adds viscosity.  output_times is the strictly
    increasing snapshot schedule; tail_cap aborts the run when the mass
    drift (mass that left the domain) exceeds it.
    """

    q: float = 1.5
    lam: float = 1.0
    mu: float = 0.0
    alpha: float = 1.0
    cfl: float = 0.9
    kernel_family: str = "uniform"
    kernel_width: float = 1.0
    x_min: float = -8.0
    x_max: float = 12.0
    dx: float = 1.0 / 256.0
    output_times: tuple = (1.0, 2.0, 4.0, 8.0)
    tail_cap: float = 1e-3

    def __post_init__(self):
        self.validate()

    @property
    def t_final(self) -> float:
        return float(self.output_times[-1])

    def validate(self):
        validate_q(self.q)
        if not self.lam >= 1.0:
            raise ValueError(f"lambda must be >= 1, got {self.lam}")
        if not self.mu >= 0.0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")
        if not self.alpha >= 0.0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError(f"cfl must lie in (0, 1), got {self.cfl}")
        if not self.dx > 0.0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if len(self.output_times) == 0:
            raise ValueError("output schedule is empty")
        times = np.asarray(self.output_times, dtype=float)
        if not np.all(times > 0.0) or not np.all(np.diff(times) > 0.0):
            raise ValueError("output times must be positive and strictly increasing")
        if not self.tail_cap > 0.0:
            raise ValueError(f"tail cap must be positive, got {self.tail_cap}")

    def kernel(self) -> Kernel:
        j = make_kernel(self.kernel_family, self.kernel_width, self.dx)
        return rescale(j, self.lam) if self.lam != 1.0 else j

    def grid_n(self) -> int:
        n = int(round((self.x_max - self.x_min) / self.dx))
        if abs(self.x_max - self.x_min - n * self.dx) > 1e-9 * max(self.dx, 1.0):
            raise ValueError("dx does not tile [x_min, x_max]")
        return n


@dataclass
class Trajectory:
    """Snapshots of one run plus per-run bookkeeping.

    mass_history[i] and dissipation_history[i] belong to times[i];
    dissipation_history is the cumulative nonlocal Dirichlet integral from
    t=0 (left-endpoint rule, accumulated every step).  initial is the t=0
    datum the run started from.
    """

    params: SimParams
    initial: GridFunction | None = None
    times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    mass_history: list = field(default_factory=list)
    dissipation_history: list = field(default_factory=list)
    steps: int = 0

    def snapshot_at(self, t: float) -> GridFunction:
        times = np.asarray(self.times)
        i = int(np.argmin(np.abs(times - t)))
        if abs(times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"no snapshot at t={t}; have {list(times)}")
        return self.snapshots[i]


class _Stepper:
    """Precomputed pieces of one forward-Euler step."""

    def __init__(self, params: SimParams):
        self.p = params
        # alpha = 0 runs never touch the kernel, so don't demand one
        self.kernel = params.kernel() if params.alpha > 0.0 else None
        self.lamq = params.lam ** params.q
        self.dx = params.dx
        # Wide stencils go through a cached-spectrum circular FFT: the
        # kernel transform is computed once, each step pays one rfft/irfft
        # pair.  Padding by the stencil half-width keeps the circular wrap
        # inside the zero region, so the result matches zero extension.
        # The length is 5-smooth (real=True): pocketfft's real transforms
        # are markedly slower at the 7- and 11-smooth lengths the default
        # picks.  The padded buffer is kept (a stepper serves one run, so
        # one thread); only its first n cells are ever written, so the
        # padding stays zero.
        self._n = params.grid_n()
        self._kspec = None
        if self.kernel is not None and self.kernel.use_fft:
            self._nfft = next_fast_len(self._n + 2 * self.kernel.half_cells + 1, real=True)
            ker = np.zeros(self._nfft)
            ker[self.kernel.offsets % self._nfft] = self.kernel.weights
            self._kspec = rfft(ker)
            self._buf = np.zeros(self._nfft)

    def _lu(self, u_values: np.ndarray) -> np.ndarray:
        if self._kspec is None:
            return _L_values(self.kernel, grid_function(u_values, 0.0, self.dx))
        self._buf[: u_values.size] = u_values
        spec = rfft(self._buf)
        spec *= self._kspec
        conv = irfft(spec, n=self._nfft, overwrite_x=True)[: u_values.size]
        return conv - u_values

    def rate(self, u_values: np.ndarray):
        """Right-hand side and the nonlocal Dirichlet rate at this state."""
        p, dx = self.p, self.dx
        lu = self._lu(u_values) if p.alpha > 0.0 else None
        f = flux(u_values, p.q)
        dflux = np.empty_like(u_values)
        dflux[0] = f[0]
        dflux[1:] = f[1:] - f[:-1]
        rhs = -dflux / dx
        dirichlet = 0.0
        if lu is not None:
            rhs = rhs + p.alpha * self.lamq * lu
            # intint J (u(x)-u(y))^2 dx dy = -2 <u, Lu>.  einsum, not np.dot:
            # OpenBLAS hands dots over ~10k cells to a helper thread, which
            # spins against any other run sharing the CPUs.
            u_lu = float(np.einsum("i,i->", u_values, lu))
            dirichlet = -2.0 * p.alpha * self.lamq * u_lu * dx
        if p.mu > 0.0:
            lap = np.empty_like(u_values)
            lap[1:-1] = u_values[2:] - 2.0 * u_values[1:-1] + u_values[:-2]
            lap[0] = u_values[1] - 2.0 * u_values[0]
            lap[-1] = u_values[-2] - 2.0 * u_values[-1]
            rhs = rhs + p.mu * lap / dx ** 2
        return rhs, dirichlet

    def dt_budget(self, u_values: np.ndarray) -> float:
        p = self.p
        speed = max_wave_speed(u_values, p.q)
        denom = speed / self.dx + p.alpha * self.lamq + 2.0 * p.mu / self.dx ** 2
        if denom == 0.0:
            return np.inf
        return p.cfl / denom


def run(phi: GridFunction, params: SimParams) -> Trajectory:
    """Advance phi through params.output_times, snapshotting at each.

    Aborts (NumericalAbort) on NaN/overflow naming the first bad cell and
    the time, on a NaN dt or dt collapsing below 1e-12 * t_final, and
    (DomainTooSmall) when the mass drift exceeds params.tail_cap.  An
    infinite dt budget (a zero field with alpha = mu = 0 cannot move) is
    not a collapse: the run steps straight to the next snapshot.
    """
    return run_lockstep((phi,), params)[0]


def run_lockstep(data, params: SimParams) -> list:
    """run() for several fields at once, all on one shared dt schedule.

    Contraction and order preservation are statements about a single
    discrete update operator applied to every field (Crandall-Majda), so
    the fields must see the same sequence of steps; separate adaptive
    schedules would only test the (true but weaker) statement that nearby
    trajectories stay close.  dt is the minimum of the per-field budgets
    each step.  Every field gets run()'s checks, and an abort names the
    field (when there are several) and its cell.
    """
    n = params.grid_n()
    for phi in data:
        if phi.n != n or abs(phi.x_min - params.x_min) > 1e-9 or abs(phi.dx - params.dx) > 1e-12:
            raise ValueError("initial datum grid does not match params grid")
    stepper = _Stepper(params)
    dt_min = 1e-12 * params.t_final

    def which(k):
        return f" of field {k}" if len(data) > 1 else ""

    us = [phi.values.copy() for phi in data]
    t = 0.0
    mass0 = [float(u.sum() * params.dx) for u in us]
    dissipated = [0.0] * len(us)
    trajs = [Trajectory(params=params, initial=phi.copy()) for phi in data]
    steps = 0

    for t_next in params.output_times:
        while t < t_next:
            budgets = [stepper.dt_budget(u) for u in us]
            for k, (u, dt) in enumerate(zip(us, budgets)):
                if not dt >= dt_min:
                    cell = int(np.argmax(np.abs(u)))
                    raise NumericalAbort(
                        f"time step collapsed to dt={dt:g} at t={t:g}, driven by "
                        f"cell {cell}{which(k)} (|u|={abs(u[cell]):g}); cfl budget "
                        f"unsatisfiable",
                        t=t,
                        cell=cell,
                    )
            dt = min(budgets)  # the checks above leave no NaN for min to drop
            hit = dt >= t_next - t
            if hit:
                dt = t_next - t
            t = t_next if hit else t + dt
            for k, u in enumerate(us):
                rhs, dirichlet = stepper.rate(u)
                u = us[k] = u + dt * rhs
                dissipated[k] += dt * dirichlet
                if not np.isfinite(u).all():  # .all(): np.all's dispatch costs ~2 us a call
                    cell = int(np.flatnonzero(~np.isfinite(u))[0])
                    x_bad = params.x_min + (cell + 0.5) * params.dx
                    raise NumericalAbort(
                        f"non-finite value in cell {cell}{which(k)} (x={x_bad:g}) "
                        f"at t={t:g}",
                        t=t,
                        cell=cell,
                    )
            steps += 1
        for k, (u, traj) in enumerate(zip(us, trajs)):
            mass = float(u.sum() * params.dx)
            drift = abs(mass - mass0[k])
            if drift > params.tail_cap:
                raise DomainTooSmall(
                    f"mass drift {drift:g}{which(k)} exceeds tail cap "
                    f"{params.tail_cap:g} at t={t:g}; widen the domain "
                    f"[{params.x_min:g}, {params.x_max:g}] or raise tail_cap",
                    t=t,
                )
            traj.times.append(t)
            traj.snapshots.append(grid_function(u.copy(), params.x_min, params.dx))
            traj.mass_history.append((t, mass))
            traj.dissipation_history.append((t, dissipated[k]))
    for traj in trajs:
        traj.steps = steps
    return trajs


def rescale_trajectory(
    traj: Trajectory, lam: float, times, x_min: float, dx: float, n: int
) -> Trajectory:
    """The rescaled field u_lam(t, x) = lam * u(lam^q t, lam x), resampled.

    Each requested time t needs a source snapshot at lam^q * t (taken
    exactly when one exists, otherwise linearly interpolated between the
    two bracketing snapshots; unbracketed times raise).  Space is linear
    interpolation from cell centers, zero outside the source domain.
    """
    if not lam >= 1.0:
        raise ValueError(f"lambda must be >= 1, got {lam}")
    q = traj.params.q
    src_times = np.asarray(traj.times)
    centers = x_min + (np.arange(n) + 0.5) * dx
    out = Trajectory(
        params=replace(
            traj.params,
            lam=traj.params.lam * lam,
            x_min=x_min,
            x_max=x_min + n * dx,
            dx=dx,
            output_times=tuple(times),
        )
    )
    for t in times:
        t_src = lam ** q * t
        i = int(np.argmin(np.abs(src_times - t_src)))
        if abs(src_times[i] - t_src) <= 1e-9 * max(1.0, t_src):
            src = traj.snapshots[i]
            values = src.values
        else:
            after = int(np.searchsorted(src_times, t_src))
            if after == 0 or after == len(src_times):
                raise ValueError(
                    f"time {t} needs a source snapshot near {t_src:g}, outside "
                    f"[{src_times[0]:g}, {src_times[-1]:g}]"
                )
            lo, hi = traj.snapshots[after - 1], traj.snapshots[after]
            w = (t_src - src_times[after - 1]) / (src_times[after] - src_times[after - 1])
            values = (1.0 - w) * lo.values + w * hi.values
            src = lo
        sampled = lam * np.interp(lam * centers, src.centers, values, left=0.0, right=0.0)
        u = grid_function(sampled, x_min, dx)
        out.times.append(float(t))
        out.snapshots.append(u)
        out.mass_history.append((float(t), u.mass()))
        out.dissipation_history.append((float(t), np.nan))
    return out
