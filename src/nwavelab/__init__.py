"""Finite-volume laboratory for u_t + (|u|^{q-1} u / q)_x = alpha (J*u - u).

A monotone explicit scheme for a scalar conservation law whose diffusion
is a zero-order nonlocal operator (convolution minus identity), plus the
measurement and verification machinery around it: one-sided slope bounds,
L^p decay rates, contraction and comparison checks, entropy residuals,
long-time convergence to the self-similar N-wave, vanishing viscosity,
and second-order bounds for the rescaled kernel family.
"""

from .config import DEFAULTS, STUDY_KINDS, Config, ConfigError, load_config
from .diagnostics import (
    Report,
    decay_fit,
    energy_report,
    entropy_residuals,
    l1_modulus,
    lp_norm,
    nwave_distance,
    oleinik_margin,
    sup_norm_bound_report,
    tail_mass,
)
from .flux import flux, max_wave_speed, validate_q
from .grid import GridFunction, grid_function
from .kernels import KERNEL_FAMILIES, Kernel, convolve, make_kernel, rescale
from .nonlocal_op import apply_L, second_order_bound_ratios
from .profiles import DATUM_KINDS, NWave, make_initial_datum, nwave_eval, nwave_sample
from .solver import (
    DomainTooSmall,
    NumericalAbort,
    SimParams,
    Trajectory,
    rescale_snapshot,
    run,
    run_lockstep,
)
from .suites import SUITE_NAMES, run_suite

__version__ = "0.1.0"

__all__ = [
    "Config",
    "ConfigError",
    "DATUM_KINDS",
    "DEFAULTS",
    "DomainTooSmall",
    "GridFunction",
    "KERNEL_FAMILIES",
    "Kernel",
    "NWave",
    "NumericalAbort",
    "Report",
    "SUITE_NAMES",
    "STUDY_KINDS",
    "SimParams",
    "Trajectory",
    "apply_L",
    "convolve",
    "decay_fit",
    "energy_report",
    "entropy_residuals",
    "flux",
    "grid_function",
    "l1_modulus",
    "load_config",
    "lp_norm",
    "make_initial_datum",
    "make_kernel",
    "max_wave_speed",
    "nwave_distance",
    "nwave_eval",
    "nwave_sample",
    "oleinik_margin",
    "rescale",
    "rescale_snapshot",
    "run",
    "run_lockstep",
    "run_suite",
    "second_order_bound_ratios",
    "sup_norm_bound_report",
    "tail_mass",
    "validate_q",
]
