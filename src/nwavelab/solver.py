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

J*u is computed by overlap-save: batched real FFTs over blocks of at least
1024 cells, or one transform of the whole grid when it fits in two blocks.
On a grid that takes several blocks, a step visits only a window of cells.
After each step, cells with |u_j| < ROUNDING_FLOOR * max|u| (1e-16, the
rounding noise the transform of J*u leaves anyway) are set to exact zero,
so the field is exactly zero outside its support, and one step moves a
value at most K + 1 cells (K the stencil half-width).  The window is the
support widened by K + 1 each step, and every few steps it shrinks back to
the nonzero cells; once it spans the grid, it stays there unfloored.

run() also accumulates the nonlocal energy-dissipation integral

    int_0^t  alpha * lam^q  intint J_lam(x - y) (u(x) - u(y))^2 dx dy  dt'

step by step (left endpoint in time), using the identity
intint J (u(x)-u(y))^2 = -2 <u, J*u - u> evaluated with the operator values
the step already computed.  Snapshot-level quadrature of the same integral
would inject O(dt_snapshot^2) errors of either sign and drown the
energy-inequality check, so it is done here, exactly where the scheme is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .flux import flux, validate_q
from .grid import GridFunction, grid_function
from .kernels import KERNEL_FAMILIES, Kernel, make_kernel, rescale

__all__ = [
    "SimParams",
    "ParamError",
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


class ParamError(ValueError):
    """A SimParams field breaks its rule; `field` names the field."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


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
        """Check every field against its rule; the first break raises ParamError."""

        def need(ok, name, message):
            if not ok:
                raise ParamError(name, message)

        for name, value in vars(self).items():
            if isinstance(value, float):
                need(math.isfinite(value), name, f"{name} must be finite, got {value}")
        try:
            validate_q(self.q)
        except ValueError as exc:
            raise ParamError("q", str(exc)) from None
        need(self.lam >= 1.0, "lam", f"lambda must be >= 1, got {self.lam}")
        need(self.mu >= 0.0, "mu", f"mu must be nonnegative, got {self.mu}")
        need(self.alpha >= 0.0, "alpha", f"alpha must be nonnegative, got {self.alpha}")
        need(0.0 < self.cfl < 1.0, "cfl", f"cfl must lie in (0, 1), got {self.cfl}")
        need(self.kernel_family in KERNEL_FAMILIES, "kernel_family",
             f"unknown kernel family {self.kernel_family!r}; choose one of {KERNEL_FAMILIES}")
        need(self.kernel_width > 0.0, "kernel_width",
             f"kernel width must be positive, got {self.kernel_width}")
        need(self.dx > 0.0, "dx", f"dx must be positive, got {self.dx}")
        need(self.x_max > self.x_min, "x_max", "x_max must exceed x_min")
        need(len(self.output_times) > 0, "output_times", "output schedule is empty")
        times = np.asarray(self.output_times, dtype=float)
        need(np.all(np.isfinite(times)) and np.all(times > 0.0) and np.all(np.diff(times) > 0.0),
             "output_times", "output times must be finite, positive and strictly increasing")
        need(self.tail_cap > 0.0, "tail_cap", f"tail cap must be positive, got {self.tail_cap}")

    def kernel(self) -> Kernel:
        j = make_kernel(self.kernel_family, self.kernel_width, self.dx)
        return rescale(j, self.lam) if self.lam != 1.0 else j

    def grid_n(self) -> int:
        n = int(round((self.x_max - self.x_min) / self.dx))
        if abs(self.x_max - self.x_min - n * self.dx) > 1e-9 * max(self.dx, 1.0):
            raise ParamError("dx", "dx does not tile [x_min, x_max]")
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


# While a field steps on a window narrower than the grid, cells with
# |u| < ROUNDING_FLOOR * max|u| are set to exact zero after every step.
# That is at or below the rounding noise the transform of J*u leaves on
# every cell anyway.  It keeps the field exactly zero outside its support,
# so the window can shrink back to it (see _Window), and it keeps every
# value normal: left alone, the edges of the support decay into
# subnormals, on which the transforms and the flux power run an order of
# magnitude slower.
ROUNDING_FLOOR = 1e-16
# A window shrinks back to its field's nonzero cells every this many steps.
_TIGHTEN_EVERY = 8


class _Stepper:
    """Precomputed pieces of one forward-Euler step, and its work buffers.

    A stepper serves one run, so one thread.  The loop owns one |u| buffer
    per field; everything else a step writes goes into the buffers here,
    which every field of a lockstep run reuses in turn.  A step may work on
    a window of cells outside which the field vanishes; its first cells
    are the front of every buffer.  `windowed` says whether fields step on
    windows at all: only where J*u takes several blocks, since a window
    saves no transform work on a grid that one transform covers.
    """

    def __init__(self, params: SimParams):
        self.p = params
        # alpha = 0 runs never touch the kernel, so don't demand one
        self.kernel = params.kernel() if params.alpha > 0.0 else None
        self.lamq = params.lam ** params.q
        self.dx = params.dx
        n = params.grid_n()
        k = self.kernel.half_cells if self.kernel is not None else 0
        # how far one step can move a value: k cells through J*u, one
        # through the upwind flux and the Laplacian
        self.reach = k + 1
        self._f = np.empty(n)
        self._rhs = np.empty(n)
        self._lap = np.empty(n) if params.mu > 0.0 else None
        self.windowed = False
        if self.kernel is None:
            return
        # J*u by overlap-save against a cached kernel spectrum: a window of
        # m cells, zero-padded by k on both sides, is cut into blocks of
        # `block` cells that overlap by 2k; one batched rfft/irfft pair
        # convolves them all circularly, and each block's middle `block - 2k`
        # cells are free of wrap-around.  Blocks are the smallest power of
        # two >= max(1024, 4(2k + 1)): above that, longer transforms cost
        # more per cell.  A grid that fits in two blocks takes one 5-smooth
        # transform of the whole grid instead (pocketfft's real transforms
        # are markedly slower at the 7- and 11-smooth lengths the default
        # picks), and its fields step whole.
        block = 1024
        while block < 4 * (2 * k + 1):
            block *= 2
        self.windowed = n + 2 * k + 1 > 2 * block
        if not self.windowed:
            block = next_fast_len(n + 2 * k + 1, real=True)
        step = block - 2 * k
        count = -(-n // step)
        self._block, self._step = block, step
        ker = np.zeros(block)
        ker[self.kernel.offsets % block] = self.kernel.weights
        self._kspec = rfft(ker)
        # only pad[k:k + m] is ever written, and cleared again when a
        # narrower window follows, so the padding stays zero
        self._pad = np.zeros(count * step + 2 * k)
        self._filled = 0
        self._lu_out = np.empty(count * step)
        self._plans = {}

    def _plan(self, count: int):
        """The views a transform of `count` blocks reads and writes, made once.

        One block is a plain 1-D transform, which scipy runs faster than a
        batch of one.
        """
        plan = self._plans.get(count)
        if plan is None:
            k, step, block = self.kernel.half_cells, self._step, self._block
            if count == 1:
                blocks, shape = self._pad[:block], (step,)
            else:
                blocks = np.lib.stride_tricks.as_strided(
                    self._pad, shape=(count, block), strides=(8 * step, 8), writeable=False)
                shape = (count, step)
            plan = self._plans[count] = (
                blocks,
                self._pad[k:k + count * step].reshape(shape),
                self._lu_out[:count * step].reshape(shape),
            )
        return plan

    def _lu(self, u_values: np.ndarray) -> np.ndarray:
        """J*u - u on the cells of u_values, taking u = 0 outside them."""
        m, k = u_values.size, self.kernel.half_cells
        self._pad[k:k + m] = u_values
        if self._filled > m:
            self._pad[k + m:k + self._filled] = 0.0
        self._filled = m
        blocks, u_blocks, lu_blocks = self._plan(-(-m // self._step))
        spec = rfft(blocks)
        spec *= self._kspec
        conv = irfft(spec, n=self._block, overwrite_x=True)[..., k:k + self._step]
        np.subtract(conv, u_blocks, out=lu_blocks)
        return self._lu_out[:m]

    def rate(self, u_values: np.ndarray, abs_u: np.ndarray, cells: slice = slice(None)):
        """Right-hand side and the nonlocal Dirichlet rate at this state.

        abs_u is |u_values|.  The rate is computed on `cells`, a slice of
        the grid outside which u_values vanishes; there it equals the rate
        of the whole field.  The returned rhs covers those cells and is the
        stepper's own buffer: the next call overwrites it, so use it before
        stepping another field.  Every operation keeps the operand order of
        the plain expression -(f_j - f_{j-1}) / dx + alpha lam^q Lu
        + mu lap / dx^2, so results are bit-identical to it.
        """
        p, dx = self.p, self.dx
        u, abs_u = u_values[cells], abs_u[cells]
        m = u.size
        rhs = self._rhs[:m]
        lu = self._lu(u) if p.alpha > 0.0 else None
        f = flux(u, p.q, abs_u=abs_u, out=self._f[:m])
        rhs[0] = f[0]
        np.subtract(f[1:], f[:-1], out=rhs[1:])
        # -d / dx and d / (-dx) round alike: IEEE division is sign-symmetric
        np.divide(rhs, -dx, out=rhs)
        dirichlet = 0.0
        if lu is not None:
            # intint J (u(x)-u(y))^2 dx dy = -2 <u, Lu>.  einsum, not np.dot:
            # OpenBLAS hands dots over ~10k cells to a helper thread, which
            # spins against any other run sharing the CPUs.
            u_lu = float(np.einsum("i,i->", u, lu))
            dirichlet = -2.0 * p.alpha * self.lamq * u_lu * dx
            if p.alpha * self.lamq != 1.0:  # x * 1.0 is x: skip the pass
                lu *= p.alpha * self.lamq
            rhs += lu
        if p.mu > 0.0:
            lap = self._lap[:m]
            np.multiply(u[1:-1], 2.0, out=lap[1:-1])
            np.subtract(u[2:], lap[1:-1], out=lap[1:-1])
            lap[1:-1] += u[:-2]
            lap[0] = u[1] - 2.0 * u[0]
            lap[-1] = u[-2] - 2.0 * u[-1]
            lap *= p.mu
            lap /= dx ** 2
            rhs += lap
        return rhs, dirichlet

    def dt_budget(self, max_abs_u: float) -> float:
        """Largest order-preserving dt for a field with max_j |u_j| = max_abs_u."""
        p = self.p
        speed = float(max_abs_u ** (p.q - 1.0))
        denom = speed / self.dx + p.alpha * self.lamq + 2.0 * p.mu / self.dx ** 2
        if denom == 0.0:
            return np.inf
        return p.cfl / denom


class _Window:
    """The cells a step of one field works on, and their views.

    The field u is exactly zero outside its support, cells lo..hi-1.  A
    step moves values at most `reach` cells, so it works on the support
    widened by reach on both sides (clipped to the grid), and every other
    cell stays zero; that window is the next step's support.  Every
    _TIGHTEN_EVERY steps the support shrinks back to the nonzero cells,
    which the rounding floor keeps few.  A window that spans the grid stays
    there, views and all, and is no longer floored: the transform's
    rounding noise then reaches every cell, as in a step of the whole grid.
    reach None, or a zero field, means the whole grid from the start.
    """

    def __init__(self, u: np.ndarray, abs_u: np.ndarray, reach: int | None):
        self.u, self.abs_u, self.reach = u, abs_u, reach
        self.cells, self.u_w, self.abs_w = slice(0, u.size), u, abs_u
        self.whole = True
        nonzero = np.flatnonzero(u) if reach is not None else ()
        if len(nonzero):
            self._small = np.empty(u.size, dtype=bool)
            self._age = 0
            self._fit(nonzero[0], nonzero[-1] + 1)

    def _fit(self, lo: int, hi: int):
        a, b = max(0, lo - self.reach), min(self.u.size, hi + self.reach)
        if (a, b) != (self.cells.start, self.cells.stop):
            self.cells = slice(a, b)
            self.u_w, self.abs_w = self.u[a:b], self.abs_u[a:b]
            self.whole = a == 0 and b == self.u.size

    def settle(self, max_abs: float):
        """After a step: apply the rounding floor and move the window on."""
        if self.whole:
            return
        small = np.less(self.abs_w, ROUNDING_FLOOR * max_abs,
                        out=self._small[:self.abs_w.size])
        np.copyto(self.u_w, 0.0, where=small)
        np.copyto(self.abs_w, 0.0, where=small)
        a, b = self.cells.start, self.cells.stop
        self._age += 1
        if self._age % _TIGHTEN_EVERY == 0:
            # the nonzero cells are the ones the floor left alone; argmin
            # stops at the first of them
            a, b = a + int(small.argmin()), b - int(small[::-1].argmin())
        self._fit(a, b)


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
    # |u| of each field, refreshed after every update: its max is both the
    # finite check (max propagates NaN and inf) and the next CFL speed
    abs_us = [np.abs(u) for u in us]
    max_abs = [a.max() for a in abs_us]
    reach = stepper.reach if stepper.windowed else None
    windows = [_Window(u, a, reach) for u, a in zip(us, abs_us)]
    t = 0.0
    mass0 = [float(u.sum() * params.dx) for u in us]
    dissipated = [0.0] * len(us)
    trajs = [Trajectory(params=params, initial=phi.copy()) for phi in data]
    steps = 0

    for t_next in params.output_times:
        while t < t_next:
            budgets = [stepper.dt_budget(m) for m in max_abs]
            for k, (u, dt) in enumerate(zip(us, budgets)):
                if not dt >= dt_min:
                    cell = int(np.argmax(abs_us[k]))
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
            for k, (u, w) in enumerate(zip(us, windows)):
                rhs, dirichlet = stepper.rate(u, w.abs_u, w.cells)
                rhs *= dt
                w.u_w += rhs
                dissipated[k] += dt * dirichlet
                np.abs(w.u_w, out=w.abs_w)
                max_abs[k] = w.abs_w.max()
                if not math.isfinite(max_abs[k]):
                    cell = int(np.flatnonzero(~np.isfinite(u))[0])
                    x_bad = params.x_min + (cell + 0.5) * params.dx
                    raise NumericalAbort(
                        f"non-finite value in cell {cell}{which(k)} (x={x_bad:g}) "
                        f"at t={t:g}",
                        t=t,
                        cell=cell,
                    )
                w.settle(max_abs[k])
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
