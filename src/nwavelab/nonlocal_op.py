"""The convolution-minus-identity operator L u = J * u - u.

L is the generator of the nonlocal diffusion: alpha * (J * u - u) relaxes u
toward its kernel average and conserves mass.  For smooth fields
lam^2 (J_lam * u - u) approaches (m2 / 2) * u_xx; second_order_bound_ratio
measures that correspondence in L^p.

For small stencils L is evaluated in difference form,
sum_k J_k dx (u_{j-k} - u_j), which keeps every term the size of a local
increment of u.  The subtraction form J*u - u loses up to lam^2 / eps digits
to cancellation at large rescale factors, where J*u hugs u; the difference
form is what lets the lam-sweep identities hold to 1e-10.
"""

from __future__ import annotations

import numpy as np

from .grid import GridFunction
from .kernels import Kernel, convolve, rescale

__all__ = ["apply_L", "second_order_bound_ratio"]


def _shifted(values: np.ndarray, k: int) -> np.ndarray:
    """values[j - k] with zero extension."""
    out = np.zeros_like(values)
    if k == 0:
        out[:] = values
    elif k > 0:
        out[k:] = values[:-k]
    else:
        out[:k] = values[-k:]
    return out


def _L_values(kernel: Kernel, u: GridFunction) -> np.ndarray:
    if abs(kernel.dx - u.dx) > 1e-12 * max(kernel.dx, u.dx):
        raise ValueError(
            f"kernel spacing {kernel.dx:g} does not match grid spacing {u.dx:g}"
        )
    if kernel.use_fft:
        return convolve(kernel, u).values - u.values
    weights = kernel.weights
    out = (weights.sum() - 1.0) * u.values
    half = kernel.half_cells
    for i, w in enumerate(weights):
        k = i - half
        if k == 0:
            continue
        out += w * (_shifted(u.values, k) - u.values)
    return out


def apply_L(kernel: Kernel, u: GridFunction, alpha: float = 1.0) -> GridFunction:
    """alpha * (J * u - u) on u's grid, with u extended by zero.

    Mass-neutral up to what leaks past the boundary: summed over cells whose
    stencil stays inside the domain the result integrates to ~0.
    """
    if not alpha >= 0.0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    return u.with_values(alpha * _L_values(kernel, u))


def second_order_bound_ratio(kernel: Kernel, psi: GridFunction, lam: float, p: float) -> float:
    """|| lam^2 (J_lam * psi - psi) ||_p  /  || psi_xx ||_p.

    psi_xx is the centered second difference.  Both norms are taken over the
    interior window where the full rescaled stencil fits, so boundary
    zero-extension never pollutes the ratio.  For an interior quadratic the
    ratio equals m2/2 for every lam; for smooth psi it tends to m2/2 as lam
    grows, and it stays below the Taylor bound m2/2 up to discretization.
    """
    if p not in (1, 2, np.inf):
        raise ValueError(f"p must be 1, 2 or inf, got {p}")
    j_lam = rescale(kernel, lam)
    lpsi = lam * lam * _L_values(j_lam, psi)
    d2 = np.zeros_like(psi.values)
    d2[1:-1] = (psi.values[2:] - 2.0 * psi.values[1:-1] + psi.values[:-2]) / (psi.dx ** 2)
    lo = max(j_lam.half_cells, 1)
    hi = psi.n - lo
    if hi - lo < 3:
        raise ValueError("grid too small for an interior window; widen psi's domain")
    num, den = lpsi[lo:hi], d2[lo:hi]
    if p == np.inf:
        norm_num, norm_den = np.max(np.abs(num)), np.max(np.abs(den))
    else:
        norm_num = (np.sum(np.abs(num) ** p) * psi.dx) ** (1.0 / p)
        norm_den = (np.sum(np.abs(den) ** p) * psi.dx) ** (1.0 / p)
    if norm_den == 0.0:
        raise ValueError("psi has vanishing second difference on the window")
    return float(norm_num / norm_den)
