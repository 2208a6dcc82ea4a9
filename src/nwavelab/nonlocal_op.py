"""The convolution-minus-identity operator L u = J * u - u.

L is the generator of the nonlocal diffusion: alpha * (J * u - u) relaxes u
toward its kernel average and conserves mass.  For smooth fields
lam^2 (J_lam * u - u) approaches (m2 / 2) * u_xx; second_order_bound_ratios
measures that correspondence in L^p.

apply_L subtracts, kernels.convolve(J, u) - u.  At large rescale factors
J*u hugs u, and lam^2 L u carries the subtraction's rounding, eps max|u|,
times lam^2.  So second_order_bound_ratios uses the exact discrete Peano
form of the even, unit-mass stencil w, with D2 the stencil (1, -2, 1):

    J - delta = D2 H,   H_j = sum_{i > |j|} w_i (i - |j|),   |j| < K.

H is nonnegative and sums to m2 / (2 dx^2), so J*u - u = H * D2 u is a
positive average of second differences: nothing nearly equal is subtracted.
"""

from __future__ import annotations

import numpy as np

from .grid import GridFunction
from .kernels import Kernel, convolve, fftconvolve

__all__ = ["apply_L", "second_order_bound_ratios"]


def _L_values(kernel: Kernel, u: GridFunction) -> np.ndarray:
    return convolve(kernel, u).values - u.values


def _peano_taps(kernel: Kernel) -> np.ndarray:
    """H with J - delta = D2 H: 2K - 1 nonnegative taps on offsets 1-K..K-1."""
    tail = np.cumsum(kernel.weights[:kernel.half_cells:-1])[::-1]  # sum_{i >= m} w_i, m = 1..K
    right = np.cumsum(tail[::-1])[::-1]  # H_j = sum_{m > j} tail_m, j = 0..K-1
    return np.concatenate((right[:0:-1], right))


def apply_L(kernel: Kernel, u: GridFunction) -> GridFunction:
    """J * u - u on u's grid, with u extended by zero.

    Mass-neutral up to what leaks past the boundary: summed over cells whose
    stencil stays inside the domain the result integrates to ~0.
    """
    return u.with_values(_L_values(kernel, u))


def second_order_bound_ratios(j_lam: Kernel, psi: GridFunction, ps) -> list:
    """|| lam^2 (J_lam * psi - psi) ||_p  /  || psi_xx ||_p for each p in ps.

    j_lam is the rescaled kernel, rescale(J, lam); lam is read from it,
    j_lam.lam.  psi_xx is the centered second difference.  Both norms are
    taken over the interior window where the full rescaled stencil fits, so
    boundary zero-extension never pollutes the ratio.  For an interior
    quadratic the ratio equals m2/2 for every lam; for smooth psi it tends
    to m2/2 as lam grows, and it stays below the Taylor bound m2/2 up to
    discretization.  One convolution serves every p.
    """
    for p in ps:
        if p not in (1, 2, np.inf):
            raise ValueError(f"p must be 1, 2 or inf, got {p}")
    lo = j_lam.half_cells
    hi = psi.n - lo
    if hi - lo < 3:
        raise ValueError("grid too small for an interior window; widen psi's domain")
    j_lam.require_spacing(psi.dx)
    # D2 psi at cells 1..n-2; on [lo, hi) the Peano form reads only those
    d2 = psi.values[2:] - 2.0 * psi.values[1:-1] + psi.values[:-2]
    lam = j_lam.lam
    num = lam * lam * fftconvolve(_peano_taps(j_lam), d2)[2 * lo - 2 : hi + lo - 2]
    den = d2[lo - 1 : hi - 1] / psi.dx ** 2
    ratios = []
    for p in ps:
        if p == np.inf:
            norm_num, norm_den = np.max(np.abs(num)), np.max(np.abs(den))
        else:
            norm_num = (np.sum(np.abs(num) ** p) * psi.dx) ** (1.0 / p)
            norm_den = (np.sum(np.abs(den) ** p) * psi.dx) ** (1.0 / p)
        if norm_den == 0.0:
            raise ValueError("psi has vanishing second difference on the window")
        ratios.append(float(norm_num / norm_den))
    return ratios
