import numpy as np
import pytest

from nwavelab.grid import MAX_CELLS, grid_function
from nwavelab.kernels import KERNEL_FAMILIES, convolve, fast_len, make_kernel, rescale

# Second moments of the continuum densities at half-width 1, checked
# against adaptive quadrature of the densities written out from scratch.
M2_REF = {
    "uniform": 1.0 / 3.0,
    "triangle": 1.0 / 6.0,
    "truncated_gaussian": 0.0624330806482796,
}


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_moments_match_continuum(family):
    k = make_kernel(family, 1.0, 1.0 / 256.0)
    assert k.m0 == pytest.approx(1.0, abs=1e-14)
    assert k.m2 == pytest.approx(M2_REF[family], abs=1e-13)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_even_and_nonnegative(family):
    k = make_kernel(family, 1.0, 1.0 / 64.0)
    np.testing.assert_array_equal(k.samples, k.samples[::-1])
    assert k.samples.min() >= 0.0


def test_width_scales_m2_quadratically():
    m2_1 = make_kernel("uniform", 1.0, 1.0 / 64.0).m2
    m2_2 = make_kernel("uniform", 2.0, 1.0 / 64.0).m2
    assert m2_2 == pytest.approx(4.0 * m2_1, rel=1e-13)


@pytest.mark.parametrize("lam", [2.0, 4.0, 8.0, 16.0])
def test_rescale_moment_identity(lam):
    k = make_kernel("uniform", 1.0, 1.0 / 256.0)
    kl = rescale(k, lam)
    assert kl.m0 == pytest.approx(1.0, abs=1e-14)
    assert kl.m2 == pytest.approx(k.m2 / lam**2, rel=1e-12)
    assert kl.half_cells == k.half_cells / lam  # the stencil spans the shrunken support
    assert kl.dx == k.dx


def test_rescale_composes():
    k = make_kernel("triangle", 1.0, 1.0 / 512.0)
    a = rescale(rescale(k, 2.0), 4.0)
    b = rescale(k, 8.0)
    np.testing.assert_allclose(a.samples, b.samples, rtol=1e-13)


def test_rescale_refuses_unresolvable_support():
    k = make_kernel("uniform", 1.0, 1.0 / 16.0)
    with pytest.raises(ValueError, match="at least 9"):
        rescale(k, 8.0)


def test_coarse_dx_rejected():
    with pytest.raises(ValueError, match="too coarse"):
        make_kernel("uniform", 1.0, 0.3)


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown kernel family"):
        make_kernel("cauchy", 1.0, 1.0 / 64.0)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: make_kernel("uniform", 0.0, 1.0 / 64.0),
                 "kernel width must be positive", id="width"),
    pytest.param(lambda: make_kernel("uniform", 1.0, 0.0), "dx must be positive", id="dx"),
    pytest.param(lambda: rescale(make_kernel("uniform", 1.0, 1.0 / 64.0), 0.5),
                 "rescale factor must be >= 1", id="rescale-factor"),
])
def test_each_kernels_input_check_raises_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_convolve_backends_agree():
    # the FFT path against a plain direct sum with zero extension, for a
    # stencil of at most 64 taps and for a wider one
    rng = np.random.default_rng(3)
    u = grid_function(rng.standard_normal(700), -3.0, 1.0 / 128.0)
    for width, taps in ((0.2, 53), (1.0, 257)):
        k = make_kernel("truncated_gaussian", width, 1.0 / 128.0)
        assert k.weights.size == taps
        half = k.half_cells
        direct = np.convolve(k.weights, u.values)[half : half + u.n]
        np.testing.assert_allclose(convolve(k, u).values, direct, atol=1e-12)


def test_convolve_matches_hand_sum():
    # 5-cell stencil against an explicit double loop with zero extension
    k = make_kernel("uniform", 1.0, 0.25)
    u = grid_function([0.0, 1.0, -2.0, 0.5, 0.0, 3.0], 0.0, 0.25)
    w, half = k.weights, k.half_cells
    expect = np.zeros(u.n)
    for j in range(u.n):
        for i, wi in enumerate(w):
            src = j - (i - half)
            if 0 <= src < u.n:
                expect[j] += wi * u.values[src]
    np.testing.assert_allclose(convolve(k, u).values, expect, atol=1e-15)


def test_convolve_preserves_interior_mass():
    # compact field far from the boundary: J*u has exactly u's mass
    k = make_kernel("triangle", 1.0, 1.0 / 32.0)
    u = grid_function(np.zeros(256), -4.0, 1.0 / 32.0)
    u.values[100:130] = 1.7
    assert convolve(k, u).mass() == pytest.approx(u.mass(), abs=1e-12)


def test_convolve_requires_matching_spacing():
    k = make_kernel("uniform", 1.0, 1.0 / 32.0)
    u = grid_function(np.zeros(64), 0.0, 1.0 / 16.0)
    with pytest.raises(ValueError, match="spacing"):
        convolve(k, u)


def _is_five_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def _next_five_smooth(n: int) -> int:
    while not _is_five_smooth(n):
        n += 1
    return n


def test_fast_len_is_the_next_five_smooth_number():
    smooth = [m for m in range(1, 80_000) if _is_five_smooth(m)]
    want = np.array(smooth)[np.searchsorted(smooth, np.arange(1, 70_001))]
    got = [fast_len(n) for n in range(1, 70_001)]
    np.testing.assert_array_equal(got, want)
    for n in (MAX_CELLS - 1, MAX_CELLS, MAX_CELLS + 1, 3 * MAX_CELLS // 2 + 1,
              2 * MAX_CELLS - 1, 2 * MAX_CELLS):
        assert fast_len(n) == _next_five_smooth(n)
    for n in (0, 2 * MAX_CELLS + 1):
        with pytest.raises(ValueError, match="transform length"):
            fast_len(n)
