"""Uniform cell-centered grids.

Every field in this package lives on a uniform mesh of cell averages: cell j
owns [x_min + j*dx, x_min + (j+1)*dx] and reports one value at its center.
Operators extend fields by zero outside [x_min, x_max]; nothing is ever
resampled silently, so two fields interact only when their meshes agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GridFunction", "grid_function", "MAX_CELLS"]

# The most cells a grid or a kernel stencil may have.  Sizes are checked
# against it arithmetically, before anything is allocated; the largest
# shipped grid has 22,016 cells.
MAX_CELLS = 2 ** 22

# Relative slack for "same spacing" / "same offset" decisions.
_ALIGN_RTOL = 1e-9


@dataclass
class GridFunction:
    """A real-valued field on a uniform cell-centered grid.

    Parameters
    ----------
    values : ndarray, shape (n,)
        Cell values, one per cell, left to right.
    x_min, x_max : float
        Domain endpoints (cell edges, not centers).
    dx : float
        Cell width; n * dx must reproduce x_max - x_min.
    """

    values: np.ndarray
    x_min: float
    x_max: float
    dx: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if not self.dx > 0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        n = self.values.shape[0]
        if n == 0:
            raise ValueError("grid must contain at least one cell")
        width = self.x_max - self.x_min
        if abs(width - n * self.dx) > _ALIGN_RTOL * max(abs(width), self.dx):
            raise ValueError(
                f"inconsistent geometry: {n} cells of width {self.dx} "
                f"do not tile [{self.x_min}, {self.x_max}]"
            )

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n) + 0.5) * self.dx

    def mass(self) -> float:
        return float(self.values.sum() * self.dx)

    def copy(self) -> "GridFunction":
        return GridFunction(self.values.copy(), self.x_min, self.x_max, self.dx)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        """Same geometry, new values."""
        return GridFunction(np.asarray(values, dtype=float), self.x_min, self.x_max, self.dx)

    def same_geometry(self, other: "GridFunction") -> bool:
        scale = max(self.dx, abs(self.x_min), 1.0)
        return (
            self.n == other.n
            and abs(self.dx - other.dx) <= _ALIGN_RTOL * self.dx
            and abs(self.x_min - other.x_min) <= _ALIGN_RTOL * scale
        )

    def require_same_geometry(self, other: "GridFunction", what: str = "operands"):
        if not self.same_geometry(other):
            raise ValueError(f"{what} live on different grids; resample explicitly")


def grid_function(values, x_min: float, dx: float) -> GridFunction:
    """Build a GridFunction from values, left edge and spacing."""
    values = np.asarray(values, dtype=float)
    return GridFunction(values, x_min, x_min + values.shape[0] * dx, dx)
