"""Closed-form N-wave profiles and reference initial data.

The N-wave of mass M > 0 is

    w_M(t, x) = (x/t)^(1/(q-1))   on 0 < x < r(t),    0 elsewhere,
    r(t) = (q/(q-1))^((q-1)/q) * M^((q-1)/q) * t^(1/q),

a rarefaction fan closed by a right-moving shock at r(t).  It carries mass M
for all t, saturates the one-sided slope bound ((w^(q-1))_x = 1/t on the fan)
and is invariant under lam * w_M(lam^q t, lam x) = w_M(t, x).  The flux is
odd, so -w solves the equation wherever w does, and the N-wave of mass
M < 0 is w_M(t, x) = -w_{|M|}(t, x): the same fan and shock, negated.

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

from .flux import validate_q
from .grid import GridFunction, grid_function

__all__ = ["NWave", "nwave_eval", "nwave_sample", "make_initial_datum", "check_datum",
           "DATUM_KINDS", "DATUM_PARAMS"]

# math.erf elementwise; it returns an object array
_erf = np.frompyfunc(math.erf, 1, 1)

# The parameters of each datum kind, in order, with their defaults.
DATUM_PARAMS = {
    "box": {"height": 1.0, "left": 0.0, "right": 1.0},
    "gaussian": {"mass": 1.0, "center": 0.0, "sigma": 1.0},
    "two_boxes_signed": {
        "pos_height": 2.0, "pos_left": 0.0, "pos_right": 1.0,
        "neg_height": 1.0, "neg_left": -2.0, "neg_right": -1.0,
    },
    "dipole_zero_mass": {"height": 1.0, "width": 1.0, "center": 0.0},
}
DATUM_KINDS = tuple(DATUM_PARAMS)


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
        """Shock position at time t, the same for mass M and -M."""
        _check_time(t)
        q = self.q
        return (q / (q - 1.0)) ** ((q - 1.0) / q) * abs(self.m) ** ((q - 1.0) / q) * t ** (1.0 / q)


def _check_time(t: float):
    if not t > 0.0:
        raise ValueError(f"N-wave is defined for t > 0 only, got t={t}")


def nwave_eval(nw: NWave, t: float, x) -> np.ndarray:
    """w_M(t, x) pointwise."""
    _check_time(t)
    x = np.asarray(x, dtype=float)
    if nw.m < 0.0:
        return -nwave_eval(NWave(-nw.m, nw.q), t, x)
    r = nw.r(t)
    inside = (x > 0.0) & (x < r)
    safe = np.where(inside, x, 0.0)
    return np.where(inside, (safe / t) ** (1.0 / (nw.q - 1.0)), 0.0)


def _antiderivative(nw: NWave, t: float, x: np.ndarray) -> np.ndarray:
    """W(t, x) = int_{-inf}^x w_M(t, s) ds, exact."""
    x = np.asarray(x, dtype=float)
    if nw.m < 0.0:
        return -_antiderivative(NWave(-nw.m, nw.q), t, x)
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


def check_datum(kind: str, extent=None, **params) -> dict:
    """kind's full parameter set, params over its defaults, checked.

    Applies every rule of the datum that needs no grid: a known kind and
    parameter names, finite values, right > left for a box and for each box
    of two_boxes_signed, gaussian sigma > 0, dipole height and width > 0.
    Given extent = (x_min, x_max), it also requires a gaussian's truncated
    support to carry mass inside it, computed from erf at the two ends,
    with no array.  Raises ValueError on the first break.
    """
    if kind not in DATUM_PARAMS:
        raise ValueError(f"unknown datum kind {kind!r}; choose one of {DATUM_KINDS}")
    defaults = DATUM_PARAMS[kind]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown parameters for datum {kind!r}: {unknown}")
    p = {name: float(params.get(name, default)) for name, default in defaults.items()}
    for name, value in p.items():
        if not math.isfinite(value):
            raise ValueError(f"datum {kind!r} needs finite parameters, got {name}={value}")
    if kind == "box" and not p["right"] > p["left"]:
        raise ValueError("box needs right > left")
    for box in ("pos", "neg") if kind == "two_boxes_signed" else ():
        if not p[f"{box}_right"] > p[f"{box}_left"]:
            raise ValueError(f"two_boxes_signed needs {box}_right > {box}_left")
    if kind == "gaussian" and not p["sigma"] > 0:
        raise ValueError("gaussian needs sigma > 0")
    if kind == "dipole_zero_mass" and not (p["height"] > 0 and p["width"] > 0):
        raise ValueError("dipole needs positive height and width")
    if kind == "gaussian" and extent is not None:
        center, cut, scale = p["center"], 4.0 * p["sigma"], math.sqrt(2.0) * p["sigma"]
        lo, hi = max(extent[0], center - cut), min(extent[1], center + cut)
        if not (hi > lo and math.erf((hi - center) / scale) > math.erf((lo - center) / scale)):
            raise ValueError(
                f"gaussian support [{center - cut:g}, {center + cut:g}] lies outside "
                f"the grid [{extent[0]:g}, {extent[1]:g}]")
    return p


def make_initial_datum(kind: str, x_min: float, dx: float, n: int, **params) -> GridFunction:
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
    p = check_datum(kind, extent=(x_min, x_min + n * dx), **params)
    edges = x_min + dx * np.arange(n + 1)
    if kind == "box":
        values = _box_cell_averages(edges, p["height"], p["left"], p["right"])
    elif kind == "gaussian":
        mass, center, sigma = p["mass"], p["center"], p["sigma"]
        cut = 4.0 * sigma
        lo = np.clip(edges[:-1], center - cut, center + cut)
        hi = np.clip(edges[1:], center - cut, center + cut)
        root2 = math.sqrt(2.0)
        cell_mass = 0.5 * (
            _erf((hi - center) / (root2 * sigma)) - _erf((lo - center) / (root2 * sigma))
        ).astype(float)
        values = mass * cell_mass / (cell_mass.sum() * dx)
    elif kind == "two_boxes_signed":
        values = _box_cell_averages(
            edges, p["pos_height"], p["pos_left"], p["pos_right"]
        ) + _box_cell_averages(edges, -p["neg_height"], p["neg_left"], p["neg_right"])
    else:  # dipole_zero_mass
        height, width, center = p["height"], p["width"], p["center"]
        values = _box_cell_averages(edges, height, center, center + width) + _box_cell_averages(
            edges, -height, center - width, center
        )
    return grid_function(values, x_min, dx)
