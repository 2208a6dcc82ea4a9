"""Compactly supported convolution kernels and their discretization.

A kernel J is a nonnegative, even probability density with finite second
moment m2 = int x^2 J(x) dx.  Discretely it is a stencil of samples at
offsets k*dx, k = -K..K, acting on fields of the same spacing by

    (J * u)_j = sum_k J_k u_{j-k} dx.

Discretization: each sample starts from the exact cell average of the
continuum density (closed-form antiderivatives per family), then the whole
stencil is reweighted by a factor a + b x^2 chosen so that the discrete
moments hit the continuum ones exactly:  sum J_k dx = 1 and
sum (k dx)^2 J_k dx = m2.  The reweighting is an O(dx^2) perturbation; it is
what makes quadratic fields exact test cases for the nonlocal operator and
keeps m2(rescale(J, lam)) = m2(J)/lam^2 to rounding for every lam, instead
of drifting by the O((lam dx)^2) quadrature error of plain sampling.

Rescaling follows J_lam(x) = lam * J(lam * x): support shrinks by lam, mass
stays 1, m2 drops by lam^2.  The stencil spacing is kept, so a rescaled
kernel applies to the same grids as its parent; it must still span at least
9 cells to resolve anything.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from .grid import MAX_CELLS, GridFunction

__all__ = ["Kernel", "make_kernel", "rescale", "convolve", "fast_len", "KERNEL_FAMILIES"]

KERNEL_FAMILIES = ("uniform", "triangle", "truncated_gaussian")

# Truncated Gaussians cut the density at 4 standard deviations.
_GAUSS_CUT_SIGMAS = 4.0

_MIN_SUPPORT_CELLS = 9

# math.erf elementwise; it returns an object array
_erf = np.frompyfunc(math.erf, 1, 1)


def _family_cdf(family: str, a: float, x: np.ndarray) -> np.ndarray:
    """Antiderivative of the continuum density, clamped to [0, 1] outside [-a, a]."""
    x = np.clip(x, -a, a)
    if family == "uniform":
        return (x + a) / (2.0 * a)
    if family == "triangle":
        # density (a - |x|)/a^2
        neg = (a + x) ** 2 / (2.0 * a * a)
        pos = 1.0 - (a - x) ** 2 / (2.0 * a * a)
        return np.where(x <= 0.0, neg, pos)
    if family == "truncated_gaussian":
        sigma = a / _GAUSS_CUT_SIGMAS
        z = math.erf(a / (sigma * math.sqrt(2.0)))
        return (_erf(x / (sigma * math.sqrt(2.0))).astype(float) + z) / (2.0 * z)
    raise ValueError(f"unknown kernel family {family!r}; choose one of {KERNEL_FAMILIES}")


def _family_m2(family: str, a: float) -> float:
    """Exact second moment of the continuum density with half-width a."""
    if family == "uniform":
        return a * a / 3.0
    if family == "triangle":
        return a * a / 6.0
    if family == "truncated_gaussian":
        # variance of a normal truncated at +-t sigma, t = _GAUSS_CUT_SIGMAS
        t = _GAUSS_CUT_SIGMAS
        sigma = a / t
        z = math.erf(t / math.sqrt(2.0))
        phi_t = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        return sigma * sigma * (1.0 - 2.0 * t * phi_t / z)
    raise ValueError(f"unknown kernel family {family!r}; choose one of {KERNEL_FAMILIES}")


@dataclass(frozen=True)
class Kernel:
    """Discretized convolution kernel.

    Fields
    ------
    samples : ndarray, shape (2K+1,)
        Density values at offsets k*dx, k = -K..K.
    dx : float
        Stencil spacing; must match the grid of any field it convolves.
    m0, m2 : float
        Discrete moments sum J_k dx and sum (k dx)^2 J_k dx.  By
        construction m0 = 1 and m2 equals the continuum second moment.
    family, width, lam : str, float, float
        The continuum recipe: base family, base half-width, accumulated
        rescale factor; the continuum support is [-width/lam, width/lam].
    """

    samples: np.ndarray
    dx: float
    m0: float
    m2: float
    family: str
    width: float
    lam: float

    @property
    def half_cells(self) -> int:
        """K: samples run over offsets -K..K."""
        return (self.samples.shape[0] - 1) // 2

    @property
    def offsets(self) -> np.ndarray:
        k = self.half_cells
        return np.arange(-k, k + 1)

    @property
    def weights(self) -> np.ndarray:
        """Quadrature weights J_k dx; they sum to 1."""
        return self.samples * self.dx

    def require_spacing(self, dx: float):
        """Raise unless the stencil spacing equals a grid's dx (no resampling)."""
        if abs(self.dx - dx) > 1e-12 * max(self.dx, dx):
            raise ValueError(f"kernel spacing {self.dx:g} does not match grid spacing {dx:g}")


def _build(family: str, width: float, dx: float, lam: float) -> Kernel:
    a = width / lam
    half = int(min(np.ceil(a / dx + 0.5), MAX_CELLS)) + 1  # min: a / dx may be inf
    if 2 * half + 1 > MAX_CELLS:  # checked before np.arange allocates the stencil
        raise ValueError(f"kernel width {a:g} at dx={dx:g} needs more than "
                         f"MAX_CELLS = {MAX_CELLS} stencil cells")
    k = np.arange(-half, half + 1)
    x = k * dx
    # exact mass of the continuum density in each cell
    masses = _family_cdf(family, a, x + 0.5 * dx) - _family_cdf(family, a, x - 0.5 * dx)
    nonzero = np.nonzero(masses > 0.0)[0]
    k_lo, k_hi = nonzero[0], nonzero[-1]
    trim = min(k_lo, 2 * half - k_hi)  # keep the stencil symmetric
    masses = masses[trim : 2 * half + 1 - trim]
    x = x[trim : 2 * half + 1 - trim]
    if masses.shape[0] < _MIN_SUPPORT_CELLS:
        raise ValueError(
            f"kernel support [{-a:g}, {a:g}] spans only {masses.shape[0]} cells of "
            f"width {dx:g}; at least {_MIN_SUPPORT_CELLS} are required"
        )

    masses = 0.5 * (masses + masses[::-1])  # evenness exactly, not just to rounding
    masses = masses / masses.sum()
    # reweight by a + b x^2 so the discrete moments match the continuum ones
    m2_target = _family_m2(family, width) / (lam * lam)
    mu2 = float(np.dot(masses, x * x))
    mu4 = float(np.dot(masses, x ** 4))
    var = mu4 - mu2 * mu2
    if var <= 0.0:
        raise ValueError("degenerate kernel stencil; refine dx")
    b = (m2_target - mu2) / var
    weights = masses * (1.0 - b * mu2 + b * x * x)
    if weights.min() < -1e-13 * weights.max():
        raise ValueError(
            f"moment correction drove kernel samples negative at dx={dx:g}; refine dx"
        )
    weights = np.maximum(weights, 0.0)
    weights = weights / weights.sum()

    samples = weights / dx
    m0 = float(weights.sum())
    m2 = float(np.dot(weights, x * x))
    return Kernel(
        samples=samples,
        dx=dx,
        m0=m0,
        m2=m2,
        family=family,
        width=width,
        lam=lam,
    )


def make_kernel(family: str, width: float, dx: float) -> Kernel:
    """Discretize the named density with half-width `width` at spacing `dx`.

    Families: "uniform" (density 1/(2w) on [-w, w]), "triangle" (hat of
    height 1/w), "truncated_gaussian" (normal with sigma = w/4, cut at
    +-w and renormalized).  Requires dx <= width/4 so the stencil spans at
    least 9 cells.
    """
    if family not in KERNEL_FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}; choose one of {KERNEL_FAMILIES}")
    if not width > 0:
        raise ValueError(f"kernel width must be positive, got {width}")
    if not dx > 0:
        raise ValueError(f"dx must be positive, got {dx}")
    if dx > width / 4.0 * (1.0 + 1e-12):
        raise ValueError(
            f"dx={dx:g} too coarse for kernel width {width:g}; need dx <= width/4"
        )
    return _build(family, width, dx, 1.0)


def rescale(kernel: Kernel, lam: float) -> Kernel:
    """The kernel of J_lam(x) = lam J(lam x), on the same stencil spacing.

    Support shrinks by the factor lam; mass stays 1; the second moment
    becomes m2/lam^2 exactly.  Raises if the shrunken support would span
    fewer than 9 cells.
    """
    if not lam >= 1.0:
        raise ValueError(f"rescale factor must be >= 1, got {lam}")
    if lam == 1.0:
        return kernel
    return _build(kernel.family, kernel.width, kernel.dx, kernel.lam * lam)


def _five_smooth(limit: int) -> list:
    """Every 2^a 3^b 5^c <= limit, ascending."""
    out = [1]
    for p in (2, 3, 5):
        out = [m * p ** e for m in out for e in range(limit.bit_length())
               if m * p ** e <= limit]
    return sorted(out)


# The transform lengths pocketfft runs fastest: its real transforms are
# markedly slower at the 7- and 11-smooth lengths.
_SMOOTH = _five_smooth(2 * MAX_CELLS)


def fast_len(n: int) -> int:
    """The smallest 5-smooth number (2^a 3^b 5^c) >= n, for 1 <= n <= 2 * MAX_CELLS."""
    if not 1 <= n <= _SMOOTH[-1]:
        raise ValueError(f"no transform length for {n} cells; need 1 <= n <= {_SMOOTH[-1]}")
    return _SMOOTH[bisect_left(_SMOOTH, n)]


def fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real 1-D arrays by a zero-padded real FFT."""
    n = a.size + b.size - 1
    m = fast_len(n)
    return irfft(rfft(a, m) * rfft(b, m), m)[:n]


def convolve(kernel: Kernel, u: GridFunction) -> GridFunction:
    """J * u on u's grid, extending u by zero outside its domain.

    The stencil spacing must equal u.dx.  Every stencil width goes through
    the same zero-padded real FFT (fftconvolve); its rounding is a few ulp
    of max|u| on every cell.
    """
    kernel.require_spacing(u.dx)
    full = fftconvolve(kernel.weights, u.values)
    k = kernel.half_cells
    return u.with_values(full[k : k + u.n])
