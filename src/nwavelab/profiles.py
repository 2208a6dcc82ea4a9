"""Closed-form N-wave profiles and reference initial data.

The N-wave of mass M > 0 is

    w_M(t, x) = (x/t)^(1/(q-1))   on 0 < x < r(t),    0 elsewhere,
    r(t) = (q/(q-1))^((q-1)/q) * M^((q-1)/q) * t^(1/q),

a rarefaction fan closed by a right-moving shock at r(t).  It carries mass M
for all t, saturates the one-sided slope bound ((w^(q-1))_x = 1/t on the fan)
and is invariant under lam * w_M(lam^q t, lam x) = w_M(t, x).  Negative mass
profiles are the odd reflection w_M(t, x) = -w_{|M|}(t, -x).

Grid sampling integrates the exact antiderivative over each cell, so the
discrete mass equals M to rounding regardless of dx.  Pointwise values at
the cell centers (nwave_eval) are the variant whose forward differences of
w^(q-1) reproduce 1/t exactly on the fan interior (a cell average of w
raised to q-1 is not a cell average of w^(q-1), so the averaged field meets
the slope bound only to O(dx^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .flux import validate_q
from .grid import GridFunction, grid_function

__all__ = ["NWave", "nwave_eval", "nwave_sample", "make_initial_datum", "DATUM_KINDS"]

DATUM_KINDS = ("box", "gaussian", "two_boxes_signed", "dipole_zero_mass")


@dataclass(frozen=True)
class NWave:
    """N-wave profile of mass `m` for exponent `q`."""

    m: float
    q: float

    def __post_init__(self):
        validate_q(self.q)
        if self.m == 0.0:
            raise ValueError("N-wave mass must be nonzero")

    def r(self, t: float) -> float:
        """Shock position at time t (reflected for negative mass)."""
        _check_time(t)
        q = self.q
        return (q / (q - 1.0)) ** ((q - 1.0) / q) * abs(self.m) ** ((q - 1.0) / q) * t ** (1.0 / q)

    def sup_norm(self, t: float) -> float:
        """max |w_M(t)| = (r(t)/t)^(1/(q-1)), equal to (q|M|/((q-1)t))^(1/q)."""
        return (self.r(t) / t) ** (1.0 / (self.q - 1.0))


def _check_time(t: float):
    if not t > 0.0:
        raise ValueError(f"N-wave is defined for t > 0 only, got t={t}")


def nwave_eval(nw: NWave, t: float, x) -> np.ndarray:
    """w_M(t, x) pointwise."""
    _check_time(t)
    x = np.asarray(x, dtype=float)
    if nw.m < 0.0:
        return -nwave_eval(NWave(-nw.m, nw.q), t, -x)
    r = nw.r(t)
    inside = (x > 0.0) & (x < r)
    safe = np.where(inside, x, 0.0)
    return np.where(inside, (safe / t) ** (1.0 / (nw.q - 1.0)), 0.0)


def _antiderivative(nw: NWave, t: float, x: np.ndarray) -> np.ndarray:
    """W(t, x) = int_{-inf}^x w_M(t, s) ds, exact."""
    x = np.asarray(x, dtype=float)
    if nw.m < 0.0:
        pos = NWave(-nw.m, nw.q)
        return _antiderivative(pos, t, -x) - (-nw.m)
    q = nw.q
    r = nw.r(t)
    xc = np.clip(x, 0.0, r)
    return (q - 1.0) / q * xc ** (q / (q - 1.0)) * t ** (-1.0 / (q - 1.0))


def nwave_sample(nw: NWave, t: float, x_min: float, dx: float, n: int) -> GridFunction:
    """Exact cell averages of w_M(t) on a grid of n cells starting at x_min.

    The discrete mass equals M to rounding when the grid covers the support.
    """
    _check_time(t)
    if n < 1:
        raise ValueError("need at least one cell")
    edges = x_min + dx * np.arange(n + 1)
    return grid_function(np.diff(_antiderivative(nw, t, edges)) / dx, x_min, dx)


def _box_cell_averages(edges: np.ndarray, height: float, left: float, right: float) -> np.ndarray:
    """Exact cell averages of height * 1_[left, right)."""
    dx = edges[1] - edges[0]
    lo = np.clip(edges[:-1], left, right)
    hi = np.clip(edges[1:], left, right)
    return height * (hi - lo) / dx


def make_initial_datum(
    kind: str, x_min: float, dx: float, n: int, **params
) -> GridFunction:
    """Reference initial data, discretized by exact cell averages.

    Kinds
    -----
    box: height `height` on [`left`, `right`)  (defaults 1 on [0, 1)).
    gaussian: mass `mass`, center `center`, width `sigma`, truncated at
        +-4 sigma and scaled so the discrete mass equals `mass` exactly.
    two_boxes_signed: +2 on [0, 1) and -1 on [-2, -1); mass 1, L1 norm 3.
        Heights/intervals overridable via pos_height, pos_left, pos_right,
        neg_height, neg_left, neg_right.
    dipole_zero_mass: +`height` on [`center`, `center`+`width`) and
        -`height` on [`center`-`width`, `center`); mass exactly 0.
    """
    if n < 1:
        raise ValueError("need at least one cell")
    edges = x_min + dx * np.arange(n + 1)

    def pick(name, default):
        return float(params.pop(name, default))

    if kind == "box":
        height, left, right = pick("height", 1.0), pick("left", 0.0), pick("right", 1.0)
        if not right > left:
            raise ValueError("box needs right > left")
        values = _box_cell_averages(edges, height, left, right)
    elif kind == "gaussian":
        mass, center, sigma = pick("mass", 1.0), pick("center", 0.0), pick("sigma", 1.0)
        if not sigma > 0:
            raise ValueError("gaussian needs sigma > 0")
        cut = 4.0 * sigma
        lo = np.clip(edges[:-1], center - cut, center + cut)
        hi = np.clip(edges[1:], center - cut, center + cut)
        root2 = math.sqrt(2.0)
        cell_mass = 0.5 * (
            erf((hi - center) / (root2 * sigma)) - erf((lo - center) / (root2 * sigma))
        )
        total = cell_mass.sum()
        if total <= 0:
            raise ValueError("gaussian support lies outside the grid")
        values = mass * cell_mass / (total * dx)
    elif kind == "two_boxes_signed":
        values = _box_cell_averages(
            edges, pick("pos_height", 2.0), pick("pos_left", 0.0), pick("pos_right", 1.0)
        ) + _box_cell_averages(
            edges, -pick("neg_height", 1.0), pick("neg_left", -2.0), pick("neg_right", -1.0)
        )
    elif kind == "dipole_zero_mass":
        height, width, center = pick("height", 1.0), pick("width", 1.0), pick("center", 0.0)
        if not (height > 0 and width > 0):
            raise ValueError("dipole needs positive height and width")
        values = _box_cell_averages(edges, height, center, center + width) + _box_cell_averages(
            edges, -height, center - width, center
        )
    else:
        raise ValueError(f"unknown datum kind {kind!r}; choose one of {DATUM_KINDS}")
    if params:
        raise ValueError(f"unknown parameters for datum {kind!r}: {sorted(params)}")
    return grid_function(values, x_min, dx)
