"""Quantitative checks tied to the estimates the scheme is supposed to honor.

Each check either measures a number (norms, tails, moduli, distances) or
produces a Report with a pass/fail verdict at an explicit tolerance:

* oleinik_margin: the one-sided slope bound (u^(q-1))_x <= 1/t.
* decay_fit: L^p decay exponents -(1/q)(1 - 1/p), plus the explicit sup
  bound (q ||phi||_1 / ((q-1) t))^(1/q) snapshot by snapshot.
* entropy_residuals: the Kruzkov-type inequality for every constant k
  against every smooth bump test function, one (k, bump) array of
  residuals per snapshot series; midpoint in space, trapezoid in time.
* nonlocal_comparisons: the pointwise inequality at a maximum of w,
      z L(z^b w)(x0) - b/(b+1) w L(z^(b+1))(x0) <= A_z(x0) w(x0),
  with A_z(x0) <= 0, for many (z, w) rows at once; both sides are sums over
  the one stencil gathered at x0.
* nwave_distance: t^((1/q)(1-1/p)) || u(t) - w_M(t) ||_p, the quantity whose
  decay expresses convergence to the N-wave.

Fields are zero-extended, so every continuum inequality quoted above is
applied to fields that genuinely exist on all of R; the checks are then
legitimate up to rounding, not up to discretization courtesy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .flux import flux, validate_q
from .grid import GridFunction, grid_function
from .kernels import Kernel, convolve
from .profiles import NWave, nwave_sample
from .solver import UNDERSHOOT_FLOOR

__all__ = [
    "Report",
    "lp_norm",
    "oleinik_margin",
    "decay_fit",
    "energy_report",
    "sup_norm_bound_report",
    "tail_mass",
    "l1_modulus",
    "nwave_distance",
    "entropy_residuals",
    "nonlocal_comparisons",
    "random_smooth_rows",
    "random_smooth_field",
    "worst_max",
]


@dataclass
class Report:
    """Outcome of one named check."""

    name: str
    verdict: str  # "pass" | "fail"
    values: dict = field(default_factory=dict)
    tolerance: float | None = None
    detail: str = ""

    def __post_init__(self):
        if self.verdict not in ("pass", "fail"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        # Fail closed: a NaN or inf measurement never reads as a pass.
        if any(isinstance(v, float) and not math.isfinite(v) for v in self.values.values()):
            self.verdict = "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def line(self) -> str:
        shown = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in self.values.items())
        tol = f" (tol {self.tolerance:g})" if self.tolerance is not None else ""
        tail = f"  [{self.detail}]" if self.detail else ""
        return f"{self.verdict.upper():<6} {self.name}: {shown}{tol}{tail}"


def worst_max(worst: float, value: float) -> float:
    """Running worst case max(worst, value) that keeps a NaN from either side.

    Python's max(-inf, nan) is -inf, so a NaN measurement would drop out of
    the accumulator and the check would print PASS.  Kept, the NaN reaches
    the check's `<=` test and fails it.
    """
    return float(np.maximum(worst, value))


def lp_norm(u: GridFunction, p: float) -> float:
    """||u||_p with cell-average quadrature."""
    if p != np.inf and p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    v = u.values
    if p == np.inf:
        return float(np.max(np.abs(v)))
    return float((np.sum(np.abs(v) ** p) * u.dx) ** (1.0 / p))


def oleinik_margin(u: GridFunction, q: float, t: float) -> Report:
    """max forward difference of u^(q-1), scaled by t; passes iff <= 1 + OLEINIK_TOL.

    Genuinely negative values are a usage error (the one-sided bound
    concerns nonnegative solutions) and raise rather than being clipped.
    Cells within rounding noise of zero (no lower than -UNDERSHOOT_FLOOR
    times the field amplitude; the FFT convolution path leaves that much)
    are treated as exactly zero, since u^(q-1) amplifies subnormal junk.
    """
    validate_q(q)
    if not t > 0:
        raise ValueError(f"need t > 0, got {t}")
    floor = UNDERSHOOT_FLOOR * max(1.0, float(np.max(np.abs(u.values))))
    if np.min(u.values) < -floor:
        raise ValueError(
            f"oleinik margin needs a nonnegative field; min is {np.min(u.values):g}"
        )
    v = np.maximum(u.values, 0.0) ** (q - 1.0)
    m = float(np.max(np.diff(v)) / u.dx) if u.n > 1 else 0.0
    margin = m * t
    return Report(
        name=f"oleinik margin at t={t:g}",
        verdict="pass" if margin <= 1.0 + OLEINIK_TOL else "fail",
        values={"margin": margin, "excess": margin - 1.0},
        tolerance=OLEINIK_TOL,
    )


# oleinik_margin's allowance over the slope bound 1, decay_fit's slope
# allowance, the rounding allowance of the bounds that hold exactly in the
# scheme (amplitude, no L^1 growth, no L^2 energy gain), and that of both
# sides of nonlocal_comparisons
OLEINIK_TOL = 0.05
SLOPE_TOL = 0.1
ROUNDING_TOL = 1e-10
COMPARISON_TOL = 1e-10


def _amplitude_bound(q: float, phi_l1: float, t):
    """(q ||phi||_1 / ((q-1) t))^(1/q), the sup of the N-wave of mass
    ||phi||_1 at t and the amplitude bound of nonnegative data; t a scalar
    or an array."""
    return (q * phi_l1 / ((q - 1.0) * t)) ** (1.0 / q)


def decay_fit(traj, p: float) -> Report:
    """Least-squares log-log slope of ||u(t)||_p over the last time decade.

    Needs at least 5 snapshots spanning a decade.  Target slope is
    -(1/q)(1 - 1/p).  For p = inf the explicit amplitude bound
    (q ||phi||_1 / ((q-1) t))^(1/q) is also enforced at every snapshot
    (worst excess reported); for p = 1 the target slope is 0 and the norm
    must stay below ||phi||_1.
    """
    q = traj.params.q
    times = np.asarray(traj.times)
    if len(times) < 5 or times[-1] < 10.0 * times[0]:
        raise ValueError("decay fit needs >= 5 snapshots spanning a decade")
    norms = np.array([lp_norm(s, p) for s in traj.snapshots])
    sel = times >= times[-1] / 10.0 * (1.0 - 1e-12)
    if sel.sum() < 5:
        raise ValueError("decay fit needs >= 5 snapshots in the last decade")
    slope = float(np.polyfit(np.log(times[sel]), np.log(norms[sel]), 1)[0])
    target = -(1.0 / q) if p == np.inf else -(1.0 / q) * (1.0 - 1.0 / p)
    values = {"slope": slope, "target": target}
    ok = abs(slope - target) <= SLOPE_TOL

    phi_l1 = lp_norm(traj.initial, 1)
    if p == np.inf:
        excess = float(np.max(norms - _amplitude_bound(q, phi_l1, times)))
        values["sup_excess"] = excess
        ok = ok and excess <= ROUNDING_TOL
    if p == 1:
        values["l1_growth"] = float(np.max(norms) - phi_l1)
        ok = ok and values["l1_growth"] <= ROUNDING_TOL
    return Report(
        name=f"decay exponent p={p:g} q={q:g}",
        verdict="pass" if ok else "fail",
        values=values,
        tolerance=SLOPE_TOL,
    )


def energy_report(traj) -> Report:
    """Scheme never creates L^2 energy: for consecutive snapshots (t=0 in),

        ||u(t2)||_2^2 + dissipation(t1, t2) <= ||u(t1)||_2^2 + ROUNDING_TOL,

    where dissipation is the nonlocal Dirichlet integral the run
    accumulated.  Consecutive pairs imply all pairs by telescoping.
    Reports the worst energy gain.
    """
    norms2 = [lp_norm(traj.initial, 2) ** 2] + [lp_norm(s, 2) ** 2 for s in traj.snapshots]
    diss = [0.0] + [d for _, d in traj.dissipation_history]
    gains = [
        norms2[i] + (diss[i] - diss[i - 1]) - norms2[i - 1]
        for i in range(1, len(norms2))
    ]
    worst = float(np.max(gains))
    return Report(
        name="energy dissipation",
        verdict="pass" if worst <= ROUNDING_TOL else "fail",
        values={"worst_gain": worst, "dissipated": diss[-1]},
        tolerance=ROUNDING_TOL,
    )


def sup_norm_bound_report(traj) -> Report:
    """||u(t)||_inf <= (q ||phi||_1 / ((q-1) t))^(1/q) + ROUNDING_TOL at every snapshot.

    The amplitude bound for nonnegative data; the initial datum must be
    nonnegative (to UNDERSHOOT_FLOOR).
    """
    if float(np.min(traj.initial.values)) < -UNDERSHOOT_FLOOR:
        raise ValueError("the amplitude bound concerns nonnegative data")
    q = traj.params.q
    phi_l1 = lp_norm(traj.initial, 1)
    worst = -np.inf
    for t, u in zip(traj.times, traj.snapshots):
        worst = worst_max(worst, lp_norm(u, np.inf) - _amplitude_bound(q, phi_l1, t))
    return Report(
        name="amplitude bound",
        verdict="pass" if worst <= ROUNDING_TOL else "fail",
        values={"worst_excess": float(worst)},
        tolerance=ROUNDING_TOL,
    )


def tail_mass(u: GridFunction, r: float) -> float:
    """int_{|x| > 2R} |u| dx."""
    if not r > 0:
        raise ValueError(f"need R > 0, got {r}")
    x = u.centers
    sel = np.abs(x) > 2.0 * r
    return float(np.sum(np.abs(u.values[sel])) * u.dx)


def l1_modulus(u: GridFunction, h: float) -> float:
    """int |u(x + h) - u(x)| dx for a grid-aligned shift h."""
    if h < 0:
        raise ValueError(f"need h >= 0, got {h}")
    m_real = h / u.dx
    m = int(round(m_real))
    if abs(m_real - m) > 1e-9 * max(1.0, m_real):
        raise ValueError(f"shift {h:g} is not a multiple of dx={u.dx:g}")
    if m == 0:
        return 0.0
    w = np.pad(u.values, (m, m))
    return float(np.sum(np.abs(w[m:] - w[:-m])) * u.dx)


def nwave_distance(u: GridFunction, nw: NWave, t: float, p: float) -> float:
    """t^((1/q)(1-1/p)) || u - w_M(t) ||_p on u's grid."""
    w = nwave_sample(nw, t, u.x_min, u.dx, u.n)
    inv_p = 0.0 if p == np.inf else 1.0 / p
    scale = t ** ((1.0 / nw.q) * (1.0 - inv_p))
    return scale * lp_norm(u.with_values(u.values - w.values), p)


# ---------------------------------------------------------------------------
# Kruzkov entropy residual


def _bump(s: np.ndarray) -> tuple:
    """(b, b', b'') for b = exp(1 - 1/(1 - s^2)) on |s| < 1, zero outside; peak 1."""
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0 - 1e-12
    safe = np.where(inside, s, 0.0)
    gap = 1.0 - safe ** 2
    with np.errstate(over="ignore"):
        b = np.where(inside, np.exp(1.0 - 1.0 / gap), 0.0)
    return (b,
            np.where(inside, b * (-2.0 * safe) / gap ** 2, 0.0),
            np.where(inside, b * (6.0 * safe ** 4 - 2.0) / gap ** 4, 0.0))


def entropy_residuals(
    times,
    snapshots,
    q: float,
    ks,
    bumps,
    alpha: float = 0.0,
    kernel: Kernel | None = None,
    mu: float = 0.0,
) -> np.ndarray:
    """Residuals of the Kruzkov-type inequality for every k in ks and every bump:

    R = intint |u-k| phi_t + sgn(u-k)(f(u)-f(k)) phi_x dx dt
        - alpha lam^q intint (|u-k| - sgn(u-k) (J_lam*(u-k))) phi dx dt
        + mu intint |u-k| phi_xx dx dt,

    midpoint in space, trapezoid over the snapshot times; entry [j, b] of
    the returned (len(ks), len(bumps)) array is R for ks[j] and bumps[b].
    Each bump (t_center, t_halfwidth, x_center, x_halfwidth) is the test
    function

        phi(t, x) = bump((t - t_center)/t_halfwidth) * bump((x - x_center)/x_halfwidth),

    smooth and compactly supported in (0, inf) x R (so t_center > t_halfwidth).
    alpha = 0 drops the nonlocal term (the pure conservation-law form, e.g.
    for the closed-form N-wave).  sgn(0) = 0.  kernel is J_lam itself,
    already rescaled (SimParams.kernel()); the lam^q factor reads lam from
    it, kernel.lam.  J_lam*(u-k) is evaluated as J_lam*u - k, exact for the
    zero-extended u because the kernel has unit mass.  mu is the viscosity
    of a run with mu u_xx; mu = 0 drops its term and adds nothing.

    Every snapshot lives on one grid, so the x factors of the bumps are
    computed once; each snapshot's f(u) and J_lam*u, and each (snapshot, k)
    pair's factors, once per snapshot.
    """
    validate_q(q)
    times = np.asarray(times, dtype=float)
    if len(times) != len(snapshots) or len(times) < 2:
        raise ValueError("need matching times and snapshots, at least two")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    tc, tw, xc, xw = np.array(bumps, dtype=float).reshape(-1, 4).T[:, :, None]
    if not (np.all(tw > 0) and np.all(xw > 0)):
        raise ValueError("bump halfwidths must be positive")
    if not np.all(tc - tw > 0):
        raise ValueError("test function must be supported in positive times")
    inside = (times > tc - tw) & (times < tc + tw)
    if np.any(inside.sum(axis=1) < 5):
        raise ValueError("snapshot schedule too sparse across the test function's time support")
    if alpha > 0.0 and kernel is None:
        raise ValueError("nonlocal form needs the kernel")
    for u in snapshots[1:]:
        snapshots[0].require_same_geometry(u, "snapshots")

    dx = snapshots[0].dx
    s = (snapshots[0].centers - xc) / xw
    # row by row, so _bump's temporaries stay one grid long and the peak memory low
    bx, bx_prime, bx_second = zip(*(_bump(row) for row in s))
    bt, bt_prime, _ = _bump((times - tc) / tw)
    bt_prime = bt_prime / tw
    integrands = np.zeros((len(ks), len(bumps), len(times)))
    for i, u in enumerate(snapshots):
        active = np.flatnonzero(inside[:, i])
        if not len(active):
            continue
        v = u.values
        fv = flux(v, q)
        ju = convolve(kernel, u).values if alpha > 0.0 else None
        parts = []
        for k in ks:
            sgn = np.sign(v - k)
            dist = np.abs(v - k)
            parts.append((dist, sgn * (fv - flux(k, q)),
                          dist - sgn * (ju - k) if ju is not None else None))
        for b in active:
            phi_t = bt_prime[b, i] * bx[b]
            phi_x = bt[b, i] * bx_prime[b] / xw[b, 0]
            phi = bt[b, i] * bx[b] if ju is not None else None
            phi_xx = bt[b, i] * bx_second[b] / xw[b, 0] ** 2 if mu > 0.0 else None
            for j, (dist, flux_part, nonlocal_part) in enumerate(parts):
                integrands[j, b, i] = (dist * phi_t + flux_part * phi_x).sum() * dx
                if ju is not None:
                    integrands[j, b, i] -= alpha * kernel.lam ** q * (nonlocal_part * phi).sum() * dx
                if mu > 0.0:
                    integrands[j, b, i] += mu * (dist * phi_xx).sum() * dx
    return np.trapezoid(integrands, times, axis=-1)


# ---------------------------------------------------------------------------
# Pointwise nonlocal comparison at a maximum


def _check_comparison_rows(beta: float, z: np.ndarray, w: np.ndarray, x0: np.ndarray):
    """nonlocal_comparisons' rules, row by row: raise ValueError on the first broken one."""
    if not beta >= 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if not np.all(np.isfinite(z)) or not np.all(np.isfinite(w)):
        raise ValueError("z and w must be finite")
    if np.min(z) < 0:
        raise ValueError("z must be nonnegative")
    if not np.all((0 <= x0) & (x0 < w.shape[1])):
        raise ValueError("x0 out of range")
    w0 = w[np.arange(len(x0)), x0]
    if np.any(w0 < np.max(w, axis=1)):
        raise ValueError("x0 must attain the maximum of w")
    if np.any(np.argmax(w, axis=1) != x0):
        raise ValueError("ties in the maximum must resolve to the lowest index")
    if np.any(w0 < 0):
        raise ValueError("the zero-extended w attains its maximum off-grid; invalid case")


def nonlocal_comparisons(kernel: Kernel, beta: float, z: np.ndarray, w: np.ndarray,
                         x0: np.ndarray):
    """Check A_z(x0) <= COMPARISON_TOL and LHS <= A_z(x0) w(x0) + COMPARISON_TOL
    at w's maximum, for rows of z and w on one grid, sharing beta.

    LHS = z(x0) L(z^b w)(x0) - b/(b+1) w(x0) L(z^(b+1))(x0) and

    A_z(x0) = sum_k J_k dx [ z(x0) z^b(x0 - k dx) - b/(b+1) z^(b+1)(x0 - k dx)
                             - 1/(b+1) z^(b+1)(x0) ],

    with z^b extended by 0^b off-grid (1 when b = 0, matching the continuum
    convention z^0 == 1).  Both sides are sums over the one stencil
    gathered at x0, where L(v)(x0) = sum_k J_k dx v(x0 - k dx) - v(x0);
    z is raised to b and b+1 on the gathered cells only.

    z and w are (rows, n) arrays and x0 the rows' maximum indices: z and w
    finite, z >= 0, beta >= 0, and x0 the lowest index at which a row of w
    attains its maximum, which must be the maximum of the zero-extended
    field too, so w[x0] >= 0.  A broken rule raises ValueError.  Returns
    the arrays a_z, lhs and rhs and the boolean pass mask, which is False
    wherever a value is not finite.
    """
    _check_comparison_rows(beta, z, w, x0)
    b = beta
    rows = np.arange(len(x0))
    n = z.shape[1]
    yi = x0[:, None] - kernel.offsets
    valid = (yi >= 0) & (yi < n)
    yi = np.clip(yi, 0, n - 1)
    z_y = z[rows[:, None], yi]
    zb_y = np.where(valid, z_y ** b, 1.0 if b == 0.0 else 0.0)
    zb1_y = np.where(valid, z_y ** (b + 1.0), 0.0)
    w_y = np.where(valid, w[rows[:, None], yi], 0.0)
    z0, w0 = z[rows, x0], w[rows, x0]
    zb10 = z0 ** (b + 1.0)
    wgt = kernel.weights
    mixed_y = z0[:, None] * zb_y - b / (b + 1.0) * zb1_y
    sums = np.array([(np.dot(wgt, p), np.dot(wgt, r), np.dot(wgt, s))
                     for p, r, s in zip(zb_y * w_y, zb1_y, mixed_y)])
    l_zbw = sums[:, 0] - z0 ** b * w0
    l_zb1 = sums[:, 1] - zb10
    a_z = sums[:, 2] - (1.0 / (b + 1.0)) * zb10 * wgt.sum()
    lhs = z0 * l_zbw - b / (b + 1.0) * w0 * l_zb1
    rhs = a_z * w0
    finite = np.isfinite(a_z) & np.isfinite(lhs) & np.isfinite(rhs)
    return a_z, lhs, rhs, finite & (a_z <= COMPARISON_TOL) & (lhs <= rhs + COMPARISON_TOL)


# ---------------------------------------------------------------------------
# Random smooth fields for randomized checks


def random_smooth_rows(
    rng: np.random.Generator,
    x_min: float,
    dx: float,
    n: int,
    amplitudes,
    nonnegative,
) -> np.ndarray:
    """A (rows, n) array of random_smooth_field values, one row per amplitude.

    Row i has amplitude amplitudes[i] and takes |.| where nonnegative[i]
    holds.  Rows are drawn in order, each bump's (center, width, height)
    in turn, so row i equals the i-th of len(amplitudes) sequential
    random_smooth_field calls with the same arguments, bit for bit.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    x = x_min + (np.arange(n) + 0.5) * dx
    span = n * dx
    draws = rng.uniform([0.25, 0.03, -1.0], [0.75, 0.15, 1.0], size=(len(amplitudes), 3, 3))
    values = np.zeros((len(amplitudes), n))
    for j in range(3):
        c = x_min + span * draws[:, j, 0, None]
        width = span * draws[:, j, 1, None]
        a = amplitudes[:, None] * draws[:, j, 2, None]
        values += a * np.exp(-(((x - c) / width) ** 2))
    nonnegative = np.asarray(nonnegative, dtype=bool)
    values[nonnegative] = np.abs(values[nonnegative])
    margin = max(n // 16, 2)
    taper = np.ones(n)
    ramp = 0.5 - 0.5 * np.cos(np.pi * (np.arange(margin) + 0.5) / margin)
    taper[:margin] = ramp
    taper[n - margin:] = ramp[::-1]
    return values * taper


def random_smooth_field(
    rng: np.random.Generator,
    x_min: float,
    dx: float,
    n: int,
    amplitude: float = 1.0,
    nonnegative: bool = False,
) -> GridFunction:
    """Three random Gaussian bumps, tapered to zero near the boundary.

    The taper guarantees the zero-extended field is smooth-ish across the
    domain edge and that its global extrema sit inside the grid, which the
    comparison checks rely on.  This is random_smooth_rows' one-row case,
    so a run of calls draws the same fields as one call for all the rows.
    """
    values = random_smooth_rows(rng, x_min, dx, n, (amplitude,), (nonnegative,))
    return grid_function(values[0], x_min, dx)
