import numpy as np
import pytest

from nwavelab.flux import _power, flux, max_wave_speed, validate_q
from nwavelab.solver import SimParams, _Stepper


def interface_flux(u_left, u_right, q):
    """The interface flux the solver applies between two neighbouring cells.

    On a two-cell state with no diffusion, the first cell's rate is
    -(F_{1/2} - f(ghost = 0)) / dx, so F_{1/2} = -dx * rhs[0].
    """
    p = SimParams(q=q, alpha=0.0, mu=0.0, x_min=0.0, x_max=2.0, dx=1.0, output_times=(1.0,))
    u = np.array([u_left, u_right], dtype=float)
    rhs, _ = _Stepper(p).rate(u, np.abs(u))
    return -p.dx * rhs[0]


@pytest.mark.parametrize("q, ulps", [(1.25, 1.0), (1.75, 2.0), (1.5, 0.0)])
def test_power_is_pow_to_an_ulp_or_two(q, ulps):
    # sqrt chains for q = 1.25 and 1.75, pow itself for every other q
    rng = np.random.default_rng(3)
    a = np.concatenate([[0.0, 5e-324, 1e-300, 1e300],
                        rng.random(20000) * 10.0 ** rng.integers(-300, 300, 20000)])
    want = a ** (q - 1.0)
    got = _power(a, q)
    if ulps == 0.0:
        np.testing.assert_array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= ulps * np.spacing(want))
    out = np.empty_like(a)
    assert _power(a, q, out=out) is out
    np.testing.assert_array_equal(out, got)


def test_flux_hand_values():
    # f(u) = |u|^(q-1) u / q
    assert flux(1.0, 1.5) == pytest.approx(2.0 / 3.0)
    assert flux(4.0, 1.5) == pytest.approx(16.0 / 3.0)
    assert flux(-1.0, 1.5) == pytest.approx(-2.0 / 3.0)
    assert flux(2.0, 2.0) == pytest.approx(2.0)
    assert flux(0.0, 1.25) == 0.0


def test_flux_is_odd_and_increasing():
    u = np.linspace(-3.0, 3.0, 301)
    f = flux(u, 1.7)
    np.testing.assert_allclose(f, -flux(-u, 1.7), atol=1e-15)
    assert np.all(np.diff(f) > 0.0)


def test_numerical_flux_upwind_values():
    # increasing f: the Godunov value is always the left state's flux
    assert interface_flux(1.0, 0.0, 1.5) == pytest.approx(2.0 / 3.0)
    assert interface_flux(0.0, 1.0, 1.5) == 0.0
    assert interface_flux(-2.0, 3.0, 2.0) == pytest.approx(flux(-2.0, 2.0))


def test_numerical_flux_brute_force_godunov():
    # exhaustive min/max over the Riemann fan, sampled densely
    rng = np.random.default_rng(11)
    for _ in range(200):
        q = rng.uniform(1.01, 2.0)
        a, b = rng.uniform(-3.0, 3.0, size=2)
        fan = flux(np.linspace(min(a, b), max(a, b), 2001), q)
        godunov = fan.min() if a <= b else fan.max()
        assert interface_flux(a, b, q) == pytest.approx(godunov, abs=1e-9)


def test_numerical_flux_consistency():
    for q in (1.25, 1.5, 2.0):
        for u in (-1.5, 0.0, 0.7):
            assert interface_flux(u, u, q) == pytest.approx(flux(u, q))


def test_numerical_flux_monotone():
    # nondecreasing in the left slot, nonincreasing in the right slot
    q = 1.5
    us = np.linspace(-2.0, 2.0, 41)
    left = np.array([interface_flux(u, 0.3, q) for u in us])
    right = np.array([interface_flux(0.3, u, q) for u in us])
    assert np.all(np.diff(left) >= 0.0)
    assert np.all(np.diff(right) <= 0.0)


def test_max_wave_speed():
    assert max_wave_speed(np.array([0.5, -2.0, 1.0]), 1.5) == pytest.approx(np.sqrt(2.0))
    assert max_wave_speed(np.zeros(4), 1.5) == 0.0
    # q=2: speed is |u| itself
    assert max_wave_speed(np.array([-3.0, 1.0]), 2.0) == pytest.approx(3.0)


def test_validate_q_range():
    validate_q(1.01)
    validate_q(2.0)
    for bad in (1.0, 2.5, 0.5, -1.0):
        with pytest.raises(ValueError, match=r"\(1, 2\]"):
            validate_q(bad)
