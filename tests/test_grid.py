import numpy as np
import pytest

from nwavelab.grid import GridFunction, grid_function


def test_centers_and_mass():
    u = grid_function([1.0, 2.0, 3.0, 4.0], x_min=0.0, dx=0.5)
    assert u.n == 4
    assert u.x_max == 2.0
    np.testing.assert_allclose(u.centers, [0.25, 0.75, 1.25, 1.75])
    assert u.mass() == pytest.approx(0.5 * 10.0)


def test_geometry_must_tile():
    with pytest.raises(ValueError, match="tile"):
        GridFunction(np.zeros(4), x_min=0.0, x_max=2.1, dx=0.5)


def test_rejects_empty_and_2d():
    with pytest.raises(ValueError):
        grid_function([], 0.0, 0.5)
    with pytest.raises(ValueError, match="one-dimensional"):
        grid_function(np.zeros((2, 2)), 0.0, 0.5)


def test_with_values_keeps_geometry():
    u = grid_function(np.arange(8.0), -1.0, 0.25)
    v = u.with_values(np.zeros(8))
    assert v.same_geometry(u)
    assert v.values.sum() == 0.0
    # the original is untouched
    assert u.values.sum() == 28.0


def test_same_geometry_detects_offset():
    u = grid_function(np.zeros(8), 0.0, 0.25)
    v = grid_function(np.zeros(8), 0.125, 0.25)
    assert not u.same_geometry(v)
    with pytest.raises(ValueError, match="different grids"):
        u.require_same_geometry(v)


def test_copy_is_independent():
    u = grid_function(np.ones(4), 0.0, 1.0)
    v = u.copy()
    v.values[0] = 7.0
    assert u.values[0] == 1.0


@pytest.mark.parametrize("dx", [0.0, -0.5, np.nan])
def test_a_grid_needs_a_positive_dx(dx):
    with pytest.raises(ValueError, match="dx must be positive"):
        GridFunction(np.zeros(4), x_min=0.0, x_max=2.0, dx=dx)
