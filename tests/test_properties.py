"""Structural invariants of the scheme over generated inputs.

Every field of a lockstep run sees the same discrete update operator, so
L^1 contraction, positive-part contraction and order preservation hold
for any pair of them up to rounding, whatever q, kernel, stencil width,
alpha, mu and lambda are, and a rerun reproduces every bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nwavelab.diagnostics import random_smooth_field
from nwavelab.grid import grid_function
from nwavelab.kernels import KERNEL_FAMILIES
from nwavelab.solver import SimParams, run_lockstep

_ROUNDING = 1e-11
_DX = 1.0 / 32.0
_N = 256

qs = st.one_of(
    st.sampled_from([1.25, 1.5, 1.75, 2.0]),
    st.floats(1.0, 2.0, exclude_min=True),
)
# alpha = 0 or mu = 0 switch the nonlocal or the viscous term off
alphas = st.one_of(st.just(0.0), st.floats(0.1, 2.0))
mus = st.one_of(st.just(0.0), st.floats(0.01, 0.5))


@st.composite
def params(draw):
    lam = draw(st.sampled_from([1.0, 2.0]))
    # rescaled support of `half` cells each side: 9 to about 80 taps,
    # so both the direct sum and the FFT path (above 64 taps) run
    half = draw(st.integers(4, 40))
    return SimParams(
        q=draw(qs),
        lam=lam,
        mu=draw(mus),
        alpha=draw(alphas),
        kernel_family=draw(st.sampled_from(KERNEL_FAMILIES)),
        kernel_width=half * lam * _DX,
        x_min=-4.0,
        x_max=-4.0 + _N * _DX,
        dx=_DX,
        output_times=(0.05, 0.1),
        tail_cap=1e9,  # generated data may flow out of the domain
    )


@st.composite
def fields(draw):
    kind = draw(st.sampled_from(["signed", "nonnegative", "zero"]))
    if kind == "zero":
        return grid_function(np.zeros(_N), -4.0, _DX)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_smooth_field(rng, -4.0, _DX, _N, nonnegative=kind == "nonnegative")


def _l1(values):
    return float(np.sum(np.abs(values)) * _DX)


def _positive_part(values):
    return float(np.sum(np.maximum(values, 0.0)) * _DX)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=params(), a=fields(), b=fields())
def test_lockstep_contraction_order_and_determinism(p, a, b):
    lo = a.with_values(np.minimum(a.values, b.values))
    hi = a.with_values(np.maximum(a.values, b.values))
    trajs = run_lockstep((a, b, lo, hi), p)
    ta, tb, tlo, thi = trajs
    d0 = b.values - a.values
    for ua, ub, ulo, uhi in zip(ta.snapshots, tb.snapshots, tlo.snapshots, thi.snapshots):
        d = ub.values - ua.values
        assert _l1(d) <= _l1(d0) + _ROUNDING
        assert _positive_part(d) <= _positive_part(d0) + _ROUNDING
        assert float(np.max(ulo.values - uhi.values)) <= _ROUNDING

    for first, again in zip(trajs, run_lockstep((a, b, lo, hi), p)):
        for u, v in zip(first.snapshots, again.snapshots):
            np.testing.assert_array_equal(u.values, v.values)
