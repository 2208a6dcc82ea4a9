"""Convection flux f(u) = |u|^(q-1) u / q and its CFL speed.

f' (u) = |u|^(q-1) >= 0, so characteristics always travel rightward and the
Godunov interface flux reduces to the upwind value f(uL): for uL <= uR the
minimum of the nondecreasing f over [uL, uR] sits at uL, for uL > uR the
maximum over [uR, uL] sits at uL as well.
"""

from __future__ import annotations

import numpy as np

__all__ = ["validate_q", "flux", "max_wave_speed"]


def validate_q(q: float):
    if not 1.0 < q <= 2.0:
        raise ValueError(f"q must lie in (1, 2], got {q}")


def flux(u, q: float, abs_u=None, out=None):
    """f(u), elementwise.

    abs_u, when given, is |u| already computed; out, when given, is an
    array of u's shape that receives the result.  Neither changes a bit
    of the value.
    """
    validate_q(q)
    u = np.asarray(u, dtype=float)
    out = np.power(np.abs(u) if abs_u is None else abs_u, q - 1.0, out=out)
    out *= u
    out /= q
    return out if out.ndim else float(out)


def max_wave_speed(u, q: float) -> float:
    """max_j |u_j|^(q-1), the CFL speed."""
    validate_q(q)
    u = np.asarray(u, dtype=float)
    if u.size == 0:
        return 0.0
    return float(np.max(np.abs(u)) ** (q - 1.0))
