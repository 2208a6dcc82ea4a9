import math

import numpy as np
import pytest

from nwavelab.profiles import NWave, check_datum, make_initial_datum, nwave_eval, nwave_sample


def test_front_position_closed_form():
    # q=1.5, M=1: r(t) = 3^(1/3) t^(2/3)
    nw = NWave(m=1.0, q=1.5)
    assert nw.r(1.0) == pytest.approx(3.0 ** (1.0 / 3.0), abs=1e-15)
    assert nw.r(8.0) == pytest.approx(3.0 ** (1.0 / 3.0) * 4.0, rel=1e-15)
    # mass scaling: r is M^((q-1)/q) homogeneous
    assert NWave(m=8.0, q=1.5).r(1.0) == pytest.approx(2.0 * nw.r(1.0), rel=1e-15)


def test_sup_norm_closed_form():
    nw = NWave(m=1.0, q=1.5)
    # (q M / ((q-1) t))^(1/q) = 3^(2/3) at t=1
    assert nw.sup_norm(1.0) == pytest.approx(3.0 ** (2.0 / 3.0), rel=1e-14)
    assert nw.sup_norm(8.0) == pytest.approx((3.0 / 8.0) ** (2.0 / 3.0), rel=1e-14)


def test_eval_inside_and_outside():
    nw = NWave(m=1.0, q=1.5)
    x = np.array([-0.5, 0.25, 1.0, nw.r(1.0) - 1e-9, nw.r(1.0) + 1e-9, 5.0])
    w = nwave_eval(nw, 1.0, x)
    assert w[0] == 0.0
    assert w[1] == pytest.approx(0.0625)  # (x/t)^(1/(q-1)) = x^2
    assert w[2] == pytest.approx(1.0)
    assert w[3] > 0.0
    assert w[4] == 0.0 and w[5] == 0.0


def test_negative_mass_is_odd_reflection():
    pos, neg = NWave(m=1.0, q=1.4), NWave(m=-1.0, q=1.4)
    x = np.linspace(-3.0, 3.0, 101)
    np.testing.assert_allclose(nwave_eval(neg, 2.0, x), -nwave_eval(pos, 2.0, -x), atol=1e-15)
    assert neg.r(2.0) == pos.r(2.0)


@pytest.mark.parametrize("m", [1.0, -1.0, 2.5])
@pytest.mark.parametrize("q", [1.25, 1.5, 1.75, 2.0])
def test_cell_average_sampling_captures_mass_exactly(q, m):
    nw = NWave(m=m, q=q)
    u = nwave_sample(nw, 1.0, -4.0, 1.0 / 128.0, 1024)
    assert u.mass() == pytest.approx(m, abs=1e-12)


def test_cell_average_beats_pointwise_at_the_front():
    nw = NWave(m=1.0, q=1.5)
    dx = 1.0 / 32.0
    avg = nwave_sample(nw, 1.0, -1.0, dx, 96)
    pt = nwave_eval(nw, 1.0, -1.0 + dx * (np.arange(96) + 0.5))
    assert avg.mass() == pytest.approx(1.0, abs=1e-13)
    assert abs(pt.sum() * dx - 1.0) > 1e-3  # pointwise misses the jump cell
    # away from the front the two samplings agree to O(dx^2)
    interior = slice(32, 64)
    np.testing.assert_allclose(avg.values[interior], pt[interior], atol=1e-3)


def test_nwave_rejects_bad_arguments():
    with pytest.raises(ValueError, match="t > 0"):
        nwave_eval(NWave(1.0, 1.5), 0.0, np.zeros(3))
    with pytest.raises(ValueError, match="nonzero"):
        NWave(0.0, 1.5)
    with pytest.raises(ValueError, match=r"\(1, 2\]"):
        NWave(1.0, 2.5)


def test_box_datum_partial_cells():
    # box [0.1, 0.35) at dx=0.25: cells get averages 0.6 and 0.4
    u = make_initial_datum("box", 0.0, 0.25, 4, height=1.0, left=0.1, right=0.35)
    np.testing.assert_allclose(u.values, [0.6, 0.4, 0.0, 0.0], atol=1e-14)
    assert u.mass() == pytest.approx(0.25)


def test_two_boxes_signed_defaults():
    u = make_initial_datum("two_boxes_signed", -4.0, 1.0 / 64.0, 512)
    assert u.mass() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(u.values).sum() * u.dx == pytest.approx(3.0, abs=1e-12)
    assert u.values.max() == pytest.approx(2.0) and u.values.min() == pytest.approx(-1.0)


def test_gaussian_datum_mass_exact_by_construction():
    u = make_initial_datum("gaussian", -6.0, 1.0 / 32.0, 384, mass=2.0, center=0.5, sigma=0.7)
    assert u.mass() == pytest.approx(2.0, abs=1e-13)
    assert u.values.min() >= 0.0
    assert u.values[np.argmin(np.abs(u.centers - 0.5))] == u.values.max()


def test_dipole_has_zero_mass():
    u = make_initial_datum("dipole_zero_mass", -4.0, 1.0 / 32.0, 256, height=1.5, width=0.8)
    assert u.mass() == pytest.approx(0.0, abs=1e-14)


def test_datum_error_paths():
    with pytest.raises(ValueError, match="unknown datum kind"):
        make_initial_datum("blob", 0.0, 0.1, 10)
    with pytest.raises(ValueError, match="unknown parameters"):
        make_initial_datum("box", 0.0, 0.1, 10, heigth=2.0)
    with pytest.raises(ValueError, match="right > left"):
        make_initial_datum("box", 0.0, 0.1, 10, left=1.0, right=0.0)


def test_check_datum_applies_the_grid_free_rules():
    assert check_datum("box", right=2.0) == {"height": 1.0, "left": 0.0, "right": 2.0}
    for kind, params, msg in [
        ("box", {"right": -1.0}, "right > left"),
        ("gaussian", {"sigma": 0.0}, "sigma > 0"),
        ("dipole_zero_mass", {"width": -1.0}, "positive height and width"),
        ("two_boxes_signed", {"neg_left": np.inf}, "finite"),
        ("box", {"height": np.nan}, "finite"),
    ]:
        with pytest.raises(ValueError, match=msg):
            check_datum(kind, **params)


def test_gaussian_support_must_meet_the_grid():
    # support center +- 4 sigma against the extent, with no array
    assert check_datum("gaussian", extent=(-8.0, 12.0), center=15.0)["center"] == 15.0
    for center in (100.0, 16.0, -12.0):
        with pytest.raises(ValueError, match="outside the grid"):
            check_datum("gaussian", extent=(-8.0, 12.0), center=center)
    with pytest.raises(ValueError, match="outside the grid"):
        make_initial_datum("gaussian", -8.0, 0.5, 40, center=100.0)
    # a support that only clips the grid still carries the full mass
    u = make_initial_datum("gaussian", -8.0, 0.5, 40, center=15.0)
    assert u.mass() == pytest.approx(1.0, abs=1e-12)
