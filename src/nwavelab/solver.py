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

The step runs as u += a (g_{j-1} - g_j) + b (J*u - u) + c lap_j, g = |u|^(q-1) u,
with a = dt / (q dx), b = alpha lam^q dt and c = mu dt / dx^2: three scalar
multiplies, no array division, and a few ulp per step off the formula above.

J*u is computed by overlap-save: batched real FFTs (numpy.fft) over blocks
of the smallest power of two >= max(1024, 3(2K + 1)) cells (K the stencil
half-width), or one 5-smooth transform of the padded grid if that is
shorter.  On a grid that takes more than two blocks, a step visits only a
window of cells.  After each step, cells with |u_j| < ROUNDING_FLOOR * max|u|
(1e-16, the rounding noise the transform of J*u leaves anyway) are set to
exact zero, so the field is exactly zero outside its support, and one step
moves a value at most K + 1 cells.  The window is the support widened by
K + 1 each step, and every few steps it shrinks back to the nonzero cells;
once it spans the grid, it stays there unfloored.

run_lockstep() is the one time loop.  It runs groups of fields: the fields
of a group share one dt schedule, and each group keeps its own clock, dt,
step count and snapshots.  A step advances the rows of every group still
short of the next snapshot time as one (rows, n) array, each row by its
group's dt; rows of groups that have reached it are gathered out and
scattered back, never stepped with dt = 0.  Each row rounds as it does
alone: budgets are scalar per row, the Dirichlet rate is one einsum per
row, and the batched transforms round every row as a transform of that
row would.  On a windowed grid a batch steps on the union of its rows'
windows and floors each row against its own max; one field alone steps
on its own window.  run() is the one-group, one-field case.

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
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import irfft, rfft

from .flux import _power, validate_q
from .grid import MAX_CELLS, GridFunction, grid_function
from .kernels import KERNEL_FAMILIES, Kernel, fast_len, make_kernel, rescale

__all__ = [
    "SimParams",
    "ParamError",
    "Trajectory",
    "NumericalAbort",
    "DomainTooSmall",
    "run",
    "run_lockstep",
    "rescale_snapshot",
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
        cells = (self.x_max - self.x_min) / self.dx
        if not cells <= MAX_CELLS:
            raise ParamError("dx", f"the grid would have {cells:.3g} cells; "
                                   f"at most MAX_CELLS = {MAX_CELLS} are allowed")
        n = int(round(cells))
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
# The diagnostics read values down to -UNDERSHOOT_FLOOR (times the field's
# amplitude where they scale it) as zero: FFT rounding leaves that much.
UNDERSHOOT_FLOOR = 1e-12
# A window shrinks back to its field's nonzero cells every this many steps.
_TIGHTEN_EVERY = 8


class _Stepper:
    """Precomputed pieces of one forward-Euler step, and its work buffers.

    A stepper serves one run, so one thread.  A step advances one field,
    or a batch of up to `rows` fields, the rows of a (rows, n) array, each
    by its own dt; every buffer here has room for `rows` fields, and the
    loop owns the |u| rows.  A step may work on a window of cells outside
    which every field of the batch vanishes.  `windowed` says whether
    fields step on windows at all: only where the padded grid takes more
    than two blocks, since a window saves little transform work on fewer.
    """

    def __init__(self, params: SimParams, rows: int = 1):
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
        self._f = np.empty((rows, n))
        self._rhs = np.empty((rows, n))
        self._lap = np.empty((rows, n)) if params.mu > 0.0 else None
        self.windowed = False
        if self.kernel is None:
            return
        # J*u by overlap-save against a cached kernel spectrum: a window of
        # m cells, zero-padded by k on both sides, is cut into blocks of
        # `block` cells that overlap by 2k; one batched rfft/irfft pair
        # convolves them all, for every row, circularly, and each block's
        # middle `block - 2k` cells are free of wrap-around.  Blocks are the
        # smallest power of two >= max(1024, 3(2k + 1)), at least a third
        # output; longer ones cost more per cell.  A shorter padded grid
        # takes one 5-smooth transform (kernels.fast_len).  No timing:
        # reruns must round alike.
        block = 1024
        while block < 3 * (2 * k + 1):
            block *= 2
        block = min(block, fast_len(n + 2 * k + 1))
        self.windowed = n + 2 * k + 1 > 2 * block
        step = block - 2 * k
        count = -(-n // step)
        self._block, self._step = block, step
        ker = np.zeros(block)
        ker[self.kernel.offsets % block] = self.kernel.weights
        self._kspec = rfft(ker)
        # only pad[:, k:k + m] is ever written, and cleared again when a
        # narrower window follows, so the padding stays zero
        self._pad = np.zeros((rows, count * step + 2 * k))
        self._filled = 0
        self._lu_out = np.empty((rows, count * step))
        # the transforms write into these through out=
        self._spec = np.empty((rows, count, block // 2 + 1), dtype=complex)
        self._conv = np.empty((rows, count, block))
        self._plans = {}

    def _plan(self, rows, count: int):
        """The views a transform of `count` blocks reads and writes, made
        once: of one field for rows 0, else of the first `rows` rows.

        One block is a batch of one too: numpy.fft runs that as fast as a
        plain 1-D transform, and each row of a batch rounds as it does
        alone.
        """
        plan = self._plans.get((rows, count))
        if plan is None:
            k, step = self.kernel.half_cells, self._step
            at = slice(rows) if rows else 0
            pad = self._pad[at]
            lead = pad.shape[:-1]
            plan = self._plans[rows, count] = (
                np.lib.stride_tricks.as_strided(
                    pad, shape=lead + (count, self._block),
                    strides=pad.strides[:-1] + (8 * step, 8), writeable=False),
                self._spec[at, :count],
                self._conv[at, :count],
                pad[..., k:k + count * step].reshape(lead + (count, step)),
                self._lu_out[at, :count * step].reshape(lead + (count, step)),
            )
        return plan

    def _lu(self, u_values: np.ndarray) -> np.ndarray:
        """J*u - u on the cells of u_values, taking u = 0 outside them.

        u_values is one field or a (rows, m) batch; the result has its shape.
        """
        m, k = u_values.shape[-1], self.kernel.half_cells
        rows = len(u_values) if u_values.ndim == 2 else 0
        at = slice(rows) if rows else 0
        self._pad[at, k:k + m] = u_values
        if self._filled > m:
            self._pad[:, k + m:k + self._filled] = 0.0
        self._filled = m
        blocks, spec, conv, u_blocks, lu_blocks = self._plan(rows, -(-m // self._step))
        rfft(blocks, out=spec)
        spec *= self._kspec
        irfft(spec, n=self._block, out=conv)
        np.subtract(conv[..., k:k + self._step], u_blocks, out=lu_blocks)
        return self._lu_out[at, :m]

    def rate(self, u_values: np.ndarray, abs_u: np.ndarray, dt,
             cells: slice = slice(None)) -> np.ndarray:
        """Step the fields of u_values by dt in place; their nonlocal
        Dirichlet rates.

        u_values is one field or a (rows, n) batch of fields, and abs_u is
        |u_values|; dt is one scalar for every field, or a (rows, 1) column.
        numpy steps one field faster as a plain vector than as a batch of
        one row.  The rates, one float for one field and one per row for a
        batch, are the states' before the step.  The step works on
        `cells`, a slice of the grid outside which every field vanishes and
        stays zero.  Every operation keeps the operand order of
        u + (a (g_{j-1} - g_j) + b Lu + c lap), with the module docstring's
        scalars, so each field is bit-identical to that plain expression.
        """
        p, dx = self.p, self.dx
        u, abs_u = u_values[..., cells], abs_u[..., cells]
        # the buffers' cells for these fields, shaped as u
        at = (slice(len(u)) if u.ndim == 2 else 0, slice(u.shape[-1]))
        rhs = self._rhs[at]
        lu = self._lu(u) if p.alpha > 0.0 else None
        g = _power(abs_u, p.q, out=self._f[at])
        g *= u
        np.negative(g[..., :1], out=rhs[..., :1])
        np.subtract(g[..., :-1], g[..., 1:], out=rhs[..., 1:])
        rhs *= dt / (p.q * dx)
        if lu is None:
            dirichlet = np.zeros(u.shape[:-1])
        else:
            # intint J (u(x)-u(y))^2 dx dy = -2 <u, Lu>.  einsum, not np.dot:
            # OpenBLAS hands dots over ~10k cells to a helper thread, which
            # spins against any other run sharing the CPUs.  One "i,i->" per
            # field: "ij,ij->i" sums in another order past 8192 cells.
            if u.ndim == 1:
                u_lu = float(np.einsum("i,i->", u, lu))
            else:
                u_lu = np.array([np.einsum("i,i->", a, b) for a, b in zip(u, lu)])
            dirichlet = -2.0 * p.alpha * self.lamq * u_lu * dx
            lu *= p.alpha * self.lamq * dt
            rhs += lu
        if p.mu > 0.0:
            lap = self._lap[at]
            # (u_{j+1} - 2 u_j) + u_{j-1}, with the ghost zeros left out:
            # -2 u + u_{m-2} at the right edge is u_{m-2} - 2 u exactly
            np.multiply(u, 2.0, out=lap)
            np.subtract(u[..., 1:], lap[..., :-1], out=lap[..., :-1])
            np.negative(lap[..., -1:], out=lap[..., -1:])
            lap[..., 1:] += u[..., :-1]
            lap *= p.mu * dt / dx ** 2
            rhs += lap
        u += rhs
        return dirichlet

    def dt_budget(self, max_abs_u: float) -> float:
        """Largest order-preserving dt for a field with max_j |u_j| = max_abs_u."""
        p = self.p
        speed = float(max_abs_u ** (p.q - 1.0))
        denom = speed / self.dx + p.alpha * self.lamq + 2.0 * p.mu / self.dx ** 2
        if denom == 0.0:
            return np.inf
        return p.cfl / denom


class _Windows:
    """The cells the steps of each row of a run work on.

    Row i is exactly zero outside its support.  A step moves values at
    most `reach` cells, so the row's window is its support widened by
    reach on both sides (clipped to the grid), cells lo[i]..hi[i]-1, and
    every other cell stays zero.  A batch of rows steps on the union of
    their windows, which becomes each stepped row's support.  Each row is
    then floored against its own max, and every _TIGHTEN_EVERY of its
    steps its support shrinks back to its nonzero cells, which the
    rounding floor keeps few.  A row whose window spans the grid stays
    there and is no longer floored: the transform's rounding noise then
    reaches every cell, as in a step of the whole grid.  reach None, or a
    zero row, means the whole grid from the start.  One row alone steps on
    its own window.
    """

    def __init__(self, u: np.ndarray, reach: int | None):
        rows, self.n = u.shape
        self.reach = reach
        self._grid = slice(0, self.n)
        self.lo, self.hi, self.whole = [0] * rows, [self.n] * rows, [True] * rows
        self._narrow = 0  # rows whose window is narrower than the grid
        self._age = [0] * rows
        self._small = np.empty(self.n, dtype=bool)
        if reach is None:
            return
        for i, row in enumerate(u):
            nonzero = np.flatnonzero(row)
            if len(nonzero):
                self._fit(i, nonzero[0], nonzero[-1] + 1)

    def _fit(self, i: int, lo: int, hi: int):
        a, b = max(0, lo - self.reach), min(self.n, hi + self.reach)
        self.lo[i], self.hi[i] = a, b
        whole = bool(a == 0 and b == self.n)
        if whole != self.whole[i]:
            self._narrow += -1 if whole else 1
            self.whole[i] = whole

    def cells(self, rows) -> slice:
        """The union of the windows of `rows`."""
        if not self._narrow:
            return self._grid
        return slice(min(map(self.lo.__getitem__, rows)), max(map(self.hi.__getitem__, rows)))

    def settle(self, rows, u, abs_u, max_abs, cells: slice):
        """After a step of `rows` on cells, row rows[j] held by u[j] and
        abs_u[j]: apply each row's rounding floor and move its window on."""
        if not self._narrow:
            return
        a, b = cells.start, cells.stop
        for i, u_i, abs_i, max_i in zip(rows, u, abs_u, max_abs):
            if self.whole[i]:
                continue
            small = np.less(abs_i[a:b], ROUNDING_FLOOR * max_i, out=self._small[:b - a])
            # abs_u keeps the floored cells' old |u|: rate multiplies its
            # power by u, which is 0 there, and the loop's np.abs then
            # rewrites it
            np.copyto(u_i[a:b], 0.0, where=small)
            lo, hi = a, b
            self._age[i] += 1
            if self._age[i] % _TIGHTEN_EVERY == 0:
                # the nonzero cells are the ones the floor left alone;
                # argmin stops at the first of them
                lo, hi = a + int(small.argmin()), b - int(small[::-1].argmin())
            self._fit(i, lo, hi)


def run(phi: GridFunction, params: SimParams) -> Trajectory:
    """Advance phi through params.output_times, snapshotting at each.

    Aborts (NumericalAbort) on NaN/overflow naming the first bad cell and
    the time, on a NaN dt or dt collapsing below 1e-12 * t_final, and
    (DomainTooSmall) when the mass drift exceeds params.tail_cap.  An
    infinite dt budget (a zero field with alpha = mu = 0 cannot move) is
    not a collapse: the run steps straight to the next snapshot.
    """
    return run_lockstep([[phi]], params)[0][0]


def run_lockstep(groups, params: SimParams) -> list:
    """run() for groups of fields at once: one list of Trajectories per group.

    Contraction and order preservation are statements about a single
    discrete update operator applied to every field (Crandall-Majda), so
    the fields of a group see the same sequence of steps: dt is the
    minimum of their budgets each step.  Separate adaptive schedules
    would only test the (true but weaker) statement that nearby
    trajectories stay close.  Groups are independent runs: each keeps its
    own t, dt, step count and snapshots.  `groups` is a sequence of
    groups, each a sequence of fields; a plain sequence of fields is one
    group.

    A step advances the rows of every group still short of the next
    snapshot time as one (rows, n) batch, each row by its group's dt.  The
    rows of groups that have reached it are gathered out and scattered
    back around the step, never stepped with dt = 0.  Off windowed grids,
    and on them for one field, every group rounds as it does alone, bit
    for bit; on a windowed grid a batch of several rows steps on the
    union of their windows (see _Windows).  Every field gets run()'s
    checks, and an abort names the field (when its group has several)
    and the group (when there are several) and the cell.
    """
    if isinstance(groups[0], GridFunction):
        groups = [groups]
    data = [phi for group in groups for phi in group]
    n = params.grid_n()
    for phi in data:
        if phi.n != n or abs(phi.x_min - params.x_min) > 1e-9 or abs(phi.dx - params.dx) > 1e-12:
            raise ValueError("initial datum grid does not match params grid")
    stepper = _Stepper(params, len(data))
    dt_min = 1e-12 * params.t_final
    spans, start = [], 0
    for group in groups:
        spans.append(range(start, start + len(group)))
        start += len(group)

    def which(g, i):
        field = f" of field {i - spans[g].start}"
        if len(groups) > 1:
            return f"{field} in group {g}"
        return field if len(data) > 1 else ""

    u = np.array([phi.values for phi in data])
    # |u| of each row, refreshed after every update: its max is both the
    # finite check (max propagates NaN and inf) and the next CFL speed
    abs_u = np.abs(u)
    max_abs = list(abs_u.max(axis=1))
    windows = _Windows(u, stepper.reach if stepper.windowed else None)
    t = [0.0] * len(groups)
    steps = [0] * len(groups)
    mass0 = [float(row.sum() * params.dx) for row in u]
    dissipated = [0.0] * len(data)
    trajs = [[Trajectory(params=params, initial=phi.copy()) for phi in group]
             for group in groups]

    for t_next in params.output_times:
        while True:
            rows, dts, moving = [], [], 0
            for g, span in enumerate(spans):
                if t[g] >= t_next:
                    continue
                budgets = [stepper.dt_budget(max_abs[i]) for i in span]
                for i, dt in zip(span, budgets):
                    if not dt >= dt_min:
                        cell = int(np.argmax(abs_u[i]))
                        raise NumericalAbort(
                            f"time step collapsed to dt={dt:g} at t={t[g]:g}, driven by "
                            f"cell {cell}{which(g, i)} (|u|={abs(u[i, cell]):g}); cfl "
                            f"budget unsatisfiable",
                            t=t[g],
                            cell=cell,
                        )
                dt = min(budgets)  # the checks above leave no NaN for min to drop
                hit = dt >= t_next - t[g]
                if hit:
                    dt = t_next - t[g]
                t[g] = t_next if hit else t[g] + dt
                steps[g] += 1
                moving += 1
                rows.extend(span)
                dts.extend([dt] * len(span))
            if not moving:
                break
            # one row steps as a plain vector; rows of groups that wait at
            # t_next sit the step out
            gathered = 1 < len(rows) < len(data)
            if len(rows) == 1:
                u_b, abs_b = u[rows[0]], abs_u[rows[0]]
            else:
                u_b, abs_b = (u[rows], abs_u[rows]) if gathered else (u, abs_u)
            cells = windows.cells(rows)
            dt = dts[0] if moving == 1 else np.array(dts)[:, None]
            rates = stepper.rate(u_b, abs_b, dt, cells)
            abs_w = abs_b[..., cells]
            np.abs(u_b[..., cells], out=abs_w)
            peaks = abs_w.max(axis=-1)
            if u_b.ndim == 1:  # from here on, index the one row as row 0
                u_b, abs_b, rates, peaks = (u_b,), (abs_b,), (rates,), (peaks,)
            for j, i in enumerate(rows):
                dissipated[i] += dts[j] * rates[j]
                max_abs[i] = peaks[j]
                if not math.isfinite(max_abs[i]):
                    g = next(g for g, span in enumerate(spans) if i in span)
                    cell = int(np.flatnonzero(~np.isfinite(u_b[j]))[0])
                    x_bad = params.x_min + (cell + 0.5) * params.dx
                    raise NumericalAbort(
                        f"non-finite value in cell {cell}{which(g, i)} (x={x_bad:g}) "
                        f"at t={t[g]:g}",
                        t=t[g],
                        cell=cell,
                    )
            windows.settle(rows, u_b, abs_b, peaks, cells)
            if gathered:
                u[rows], abs_u[rows] = u_b, abs_b
        for g, span in enumerate(spans):
            for i, traj in zip(span, trajs[g]):
                mass = float(u[i].sum() * params.dx)
                drift = abs(mass - mass0[i])
                if drift > params.tail_cap:
                    raise DomainTooSmall(
                        f"mass drift {drift:g}{which(g, i)} exceeds tail cap "
                        f"{params.tail_cap:g} at t={t[g]:g}; widen the domain "
                        f"[{params.x_min:g}, {params.x_max:g}] or raise tail_cap",
                        t=t[g],
                    )
                traj.times.append(t[g])
                traj.snapshots.append(grid_function(u[i].copy(), params.x_min, params.dx))
                traj.mass_history.append((t[g], mass))
                traj.dissipation_history.append((t[g], float(dissipated[i])))
    for group_trajs, count in zip(trajs, steps):
        for traj in group_trajs:
            traj.steps = count
    return trajs


def rescale_snapshot(
    traj: Trajectory, lam: float, t: float, x_min: float, dx: float, n: int
) -> GridFunction:
    """The rescaled field u_lam(t, x) = lam * u(lam^q t, lam x), resampled.

    The source is traj's snapshot at lam^q * t, which must exist.  Space is
    linear interpolation from cell centers, zero outside the source domain.
    """
    if not lam >= 1.0:
        raise ValueError(f"lambda must be >= 1, got {lam}")
    src = traj.snapshot_at(lam ** traj.params.q * t)
    centers = x_min + (np.arange(n) + 0.5) * dx
    sampled = lam * np.interp(lam * centers, src.centers, src.values, left=0.0, right=0.0)
    return grid_function(sampled, x_min, dx)
