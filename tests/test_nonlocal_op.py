import numpy as np
import pytest

from nwavelab.grid import grid_function
from nwavelab.kernels import KERNEL_FAMILIES, make_kernel, rescale
from nwavelab.nonlocal_op import _peano_taps, apply_L, second_order_bound_ratios

DX = 1.0 / 512.0
X_MIN = -4.0
N = 4096

# || lam^2 (J_lam * psi - psi) ||_p / ||psi_xx||_p for the uniform kernel on
# this grid, frozen from an independent plain-numpy computation (exact cell
# masses of the density, linalg-solved moment correction, np.convolve).
# Quadratics sit at m2/2 = 1/6 for every lam; smooth fields approach it
# from below as lam grows.
RATIO_REF = {
    ("gaussian", 1.0): (0.13858723754847102, 0.1325472786506225, 0.12658814006172492),
    ("gaussian", 4.0): (0.16460804667488552, 0.16409746006795056, 0.16358775379906246),
    ("gaussian", 16.0): (0.1665366064477329, 0.16650415777285293, 0.16647167270910404),
    ("gaussian", 64.0): (0.1666586220685015, 0.16665661227361714, 0.16665460148206926),
    ("wave_packet", 1.0): (0.1248725633814701, 0.12403641935875878, 0.12213482083772746),
    ("wave_packet", 4.0): (0.1636462292247177, 0.16352266749905123, 0.16335817148273343),
    ("wave_packet", 16.0): (0.16647777798476412, 0.16646818814538794, 0.16645758200740585),
    ("wave_packet", 64.0): (0.1666549857279638, 0.16665438821734954, 0.16665373206374184),
}


def _psi(name):
    x = X_MIN + DX * (np.arange(N) + 0.5)
    fields = {
        "quadratic": x**2,
        "gaussian": np.exp(-(x**2)),
        "wave_packet": np.sin(2.0 * x) * np.exp(-(x**2) / 4.0),
    }
    return grid_function(fields[name], X_MIN, DX)


@pytest.fixture(scope="module")
def base_kernel():
    return make_kernel("uniform", 1.0, DX)


def test_apply_l_constant_field_is_zero_inside(base_kernel):
    u = grid_function(np.ones(512), 0.0, DX)
    lu = apply_L(base_kernel, u).values
    half = base_kernel.half_cells
    np.testing.assert_allclose(lu[half:-half], 0.0, atol=1e-14)
    # boundary cells see the zero extension
    assert lu[0] < -0.4


def test_apply_l_mass_neutral_inside(base_kernel):
    rng = np.random.default_rng(5)
    u = grid_function(np.zeros(4096), X_MIN, DX)
    u.values[1000:3000] = rng.standard_normal(2000)
    assert apply_L(base_kernel, u).mass() == pytest.approx(0.0, abs=1e-12)


def test_quadratic_ratio_pinned_at_half_m2(base_kernel):
    psi = _psi("quadratic")
    for lam in (1.0, 4.0, 16.0, 64.0):
        for p in (1, 2, np.inf):
            r = second_order_bound_ratios(rescale(base_kernel, lam), psi, (p,))[0]
            assert r == pytest.approx(base_kernel.m2 / 2.0, abs=1e-10)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
@pytest.mark.parametrize("lam", [1.0, 4.0, 7.0])
def test_peano_taps_factor_the_operator(family, lam):
    # J - delta = D2 H exactly, with H >= 0 summing to m2 / (2 dx^2)
    k = rescale(make_kernel(family, 1.0, 1.0 / 64.0), lam)
    h = _peano_taps(k)
    assert h.size == 2 * k.half_cells - 1
    j_minus_delta = k.weights.copy()
    j_minus_delta[k.half_cells] -= 1.0
    np.testing.assert_allclose(np.convolve(h, [1.0, -2.0, 1.0]), j_minus_delta,
                               rtol=0, atol=4e-15)
    assert h.min() >= 0.0
    assert h.sum() == pytest.approx(k.m2 / (2.0 * k.dx ** 2), rel=1e-14)


def test_quadratic_ratio_exact_at_every_lam(base_kernel):
    # the Peano form subtracts no nearly equal numbers, so the exact
    # quadratic lands on m2/2 to rounding even where J_lam * psi hugs psi
    psi = _psi("quadratic")
    for lam in (1.0, 4.0, 16.0, 64.0):
        for p in (1, 2, np.inf):
            r = second_order_bound_ratios(rescale(base_kernel, lam), psi, (p,))[0]
            assert abs(r - base_kernel.m2 / 2.0) <= 1e-14


@pytest.mark.parametrize("name,lam", sorted(RATIO_REF))
def test_smooth_ratios_match_independent_computation(base_kernel, name, lam):
    psi = _psi(name)
    for p, ref in zip((1, 2, np.inf), RATIO_REF[(name, lam)]):
        r = second_order_bound_ratios(rescale(base_kernel, lam), psi, (p,))[0]
        assert r == pytest.approx(ref, rel=1e-9)


def test_smooth_ratios_stay_below_taylor_bound(base_kernel):
    bound = base_kernel.m2 / 2.0
    for name in ("gaussian", "wave_packet"):
        for (n, lam), refs in RATIO_REF.items():
            if n == name:
                assert max(refs) <= bound * (1.0 + 1e-12)


def test_rescaled_l_approaches_second_derivative(base_kernel):
    # lam^q (J_lam*psi - psi) ~ lam^(q-2) (m2/2) psi'' for large lam; at
    # q=2 the prefactor is lam-free, so compare against the exact psi''.
    psi = _psi("gaussian")
    x = psi.centers
    exact = (4.0 * x**2 - 2.0) * np.exp(-(x**2))
    lam, q = 64.0, 2.0
    out = lam**q * apply_L(rescale(base_kernel, lam), psi).values
    window = slice(200, N - 200)
    scale = np.abs(exact[window]).max()
    err = np.abs(out[window] / (base_kernel.m2 / 2.0) - exact[window]).max()
    assert err < 2e-4 * scale


def test_rescaled_l_refuses_tiny_stencils(base_kernel):
    with pytest.raises(ValueError, match="at least 9"):
        rescale(base_kernel, 1024.0)


def test_spacing_mismatch_rejected(base_kernel):
    u = grid_function(np.zeros(64), 0.0, 2.0 * DX)
    with pytest.raises(ValueError, match="spacing"):
        apply_L(base_kernel, u)


@pytest.mark.parametrize("psi, ps, message", [
    pytest.param(_psi("gaussian"), (3,), "p must be 1, 2 or inf", id="p"),
    pytest.param(grid_function(np.zeros(64), X_MIN, DX), (1,),
                 "grid too small for an interior window", id="window"),
    pytest.param(grid_function(np.ones(N), X_MIN, DX), (2,),
                 "vanishing second difference", id="flat-psi"),
])
def test_each_ratio_input_check_raises_its_message(base_kernel, psi, ps, message):
    with pytest.raises(ValueError, match=message):
        second_order_bound_ratios(base_kernel, psi, ps)
