"""Flat-key run configuration.

A config file is plain text, one `key = value` per line, `#` comments, no
sections.  The key space is flat and dotted (grid.dx, kernel.width, ...) so
sweep drivers can generate configs and the CLI can override any single key
with --set key=value.  Every value is validated at parse time and errors
carry the file and line (or the literal "--set") they came from.

Unknown keys, duplicate keys, malformed values and violated model
constraints are all ConfigError; the CLI maps that to exit code 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import KERNEL_FAMILIES, make_kernel, rescale
from .profiles import DATUM_KINDS
from .solver import SimParams

__all__ = ["ConfigError", "Config", "load_config", "DEFAULTS", "STUDY_KINDS"]

STUDY_KINDS = (
    "long_time_nonnegative",
    "long_time_sign_changing",
    "vanishing_viscosity",
    "rescaling_family",
    "kernel_bound_sweep",
)

# Every legal key with its default; the default's type decides parsing.
DEFAULTS = {
    "q": 1.5,
    "lambda": 1.0,
    "mu": 0.0,
    "alpha": 1.0,
    "cfl": 0.9,
    "tail.cap": 1e-3,
    "grid.x_min": -8.0,
    "grid.x_max": 12.0,
    "grid.dx": 1.0 / 256.0,
    "kernel.family": "uniform",
    "kernel.width": 1.0,
    "datum.kind": "box",
    "datum.height": 1.0,
    "datum.left": 0.0,
    "datum.right": 1.0,
    "datum.mass": 1.0,
    "datum.center": 0.0,
    "datum.sigma": 1.0,
    "datum.width": 1.0,
    "datum.pos_height": 2.0,
    "datum.pos_left": 0.0,
    "datum.pos_right": 1.0,
    "datum.neg_height": 1.0,
    "datum.neg_left": -2.0,
    "datum.neg_right": -1.0,
    "output.times": (1.0, 2.0, 4.0, 8.0),
    "seed": 0,
    "tol.scheme": 0.05,
    "tol.quad": 2e-2,
    "study.kind": "long_time_nonnegative",
    "study.lambdas": (1.0, 2.0, 4.0, 8.0),
    "study.mus": (0.4, 0.2, 0.1, 0.05),
    "study.times": (1.0, 3.0, 10.0, 30.0, 100.0),
    "nwave.mass": 1.0,
    "nwave.time": 1.0,
}

# Which datum.* parameters each datum kind consumes (names as in profiles).
_DATUM_PARAMS = {
    "box": ("height", "left", "right"),
    "gaussian": ("mass", "center", "sigma"),
    "two_boxes_signed": (
        "pos_height", "pos_left", "pos_right", "neg_height", "neg_left", "neg_right",
    ),
    "dipole_zero_mass": ("height", "width", "center"),
}


class ConfigError(ValueError):
    """Bad config input, with its origin attached."""

    def __init__(self, message: str, origin: str = ""):
        super().__init__(f"{origin}: {message}" if origin else message)
        self.origin = origin


@dataclass
class Config:
    """Parsed and validated configuration for one CLI invocation."""

    params: SimParams
    datum_kind: str
    datum_params: dict
    seed: int
    tol_scheme: float
    tol_quad: float
    study_kind: str
    study_lambdas: tuple
    study_mus: tuple
    study_times: tuple
    nwave_mass: float
    nwave_time: float
    raw: dict = field(default_factory=dict)

    def make_datum(self):
        from .profiles import make_initial_datum

        n = self.params.grid_n()
        return make_initial_datum(
            self.datum_kind, self.params.x_min, self.params.dx, n, **self.datum_params
        )


def _parse_scalar(key: str, text: str, default, origin: str):
    if isinstance(default, str):
        return text
    if isinstance(default, tuple):
        try:
            return tuple(float(p) for p in text.split(",") if p.strip() != "")
        except ValueError:
            raise ConfigError(f"{key}: expected a comma-separated number list, got {text!r}", origin)
    if isinstance(default, int) and not isinstance(default, bool):
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {text!r}", origin)
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}", origin)


def _read_pairs(path: str):
    """Yield (key, value_text, origin) from a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            origin = f"{path}:{lineno}"
            if "=" not in body:
                raise ConfigError(f"expected `key = value`, got {body!r}", origin)
            key, value = body.split("=", 1)
            yield key.strip(), value.strip(), origin


def load_config(path: str | None = None, overrides: list | None = None,
                seed: int | None = None) -> Config:
    """Assemble a Config from defaults, an optional file, and --set overrides.

    overrides is a list of "key=value" strings (origin "--set"); seed, when
    given, wins over both.
    """
    values = dict(DEFAULTS)
    origins = {k: "default" for k in values}
    seen_in_file = set()

    def absorb(key, text, origin):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown key {key!r}", origin)
        values[key] = _parse_scalar(key, text, DEFAULTS[key], origin)
        origins[key] = origin

    if path is not None:
        for key, text, origin in _read_pairs(path):
            if key in seen_in_file:
                raise ConfigError(f"duplicate key {key!r}", origin)
            seen_in_file.add(key)
            absorb(key, text, origin)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}", "--set")
        key, text = item.split("=", 1)
        absorb(key.strip(), text.strip(), "--set")
    if seed is not None:
        values["seed"] = int(seed)
        origins["seed"] = "--seed"

    def fail(key, message):
        raise ConfigError(message, origins[key])

    # model constraints, attributed to the offending key
    if not 1.0 < values["q"] <= 2.0:
        fail("q", f"q must lie in (1, 2], got {values['q']:g}")
    if not values["lambda"] >= 1.0:
        fail("lambda", f"lambda must be >= 1, got {values['lambda']:g}")
    if not values["mu"] >= 0.0:
        fail("mu", f"mu must be nonnegative, got {values['mu']:g}")
    if not values["alpha"] >= 0.0:
        fail("alpha", f"alpha must be nonnegative, got {values['alpha']:g}")
    if not 0.0 < values["cfl"] < 1.0:
        fail("cfl", f"cfl must lie in (0, 1), got {values['cfl']:g}")
    if values["kernel.family"] not in KERNEL_FAMILIES:
        fail("kernel.family",
             f"unknown kernel family {values['kernel.family']!r}; choose one of {KERNEL_FAMILIES}")
    if values["datum.kind"] not in DATUM_KINDS:
        fail("datum.kind",
             f"unknown datum kind {values['datum.kind']!r}; choose one of {DATUM_KINDS}")
    if values["study.kind"] not in STUDY_KINDS:
        fail("study.kind",
             f"unknown study kind {values['study.kind']!r}; choose one of {STUDY_KINDS}")
    times = values["output.times"]
    if len(times) == 0 or any(t <= 0 for t in times) or any(
        b <= a for a, b in zip(times, times[1:])
    ):
        fail("output.times", "output times must be positive and strictly increasing")
    if not values["grid.dx"] > 0:
        fail("grid.dx", f"dx must be positive, got {values['grid.dx']:g}")
    if not values["grid.x_max"] > values["grid.x_min"]:
        fail("grid.x_max", "x_max must exceed x_min")
    if not values["kernel.width"] > 0:
        fail("kernel.width", f"kernel width must be positive, got {values['kernel.width']:g}")
    if not values["tail.cap"] > 0:
        fail("tail.cap", f"tail cap must be positive, got {values['tail.cap']:g}")

    params = SimParams(
        q=values["q"],
        lam=values["lambda"],
        mu=values["mu"],
        alpha=values["alpha"],
        cfl=values["cfl"],
        kernel_family=values["kernel.family"],
        kernel_width=values["kernel.width"],
        x_min=values["grid.x_min"],
        x_max=values["grid.x_max"],
        dx=values["grid.dx"],
        output_times=tuple(values["output.times"]),
        tail_cap=values["tail.cap"],
    )
    try:
        params.grid_n()
    except ValueError as exc:
        raise ConfigError(str(exc), origins["grid.dx"]) from exc
    # params.kernel() in its two steps, each blamed on its own key; built
    # also when alpha = 0 leaves the kernel unused by runs: dump-kernel needs it
    try:
        j = make_kernel(params.kernel_family, params.kernel_width, params.dx)
    except ValueError as exc:
        raise ConfigError(str(exc), origins["grid.dx"]) from exc
    try:
        rescale(j, params.lam)
    except ValueError as exc:
        fail("lambda", f"lambda = {params.lam:g} rescales the kernel too far: {exc}")

    kind = values["datum.kind"]
    datum_params = {name: values[f"datum.{name}"] for name in _DATUM_PARAMS[kind]}
    if not np.isfinite(values["nwave.time"]) or values["nwave.time"] <= 0:
        fail("nwave.time", "nwave.time must be positive")
    if values["nwave.mass"] == 0:
        fail("nwave.mass", "nwave.mass must be nonzero")

    return Config(
        params=params,
        datum_kind=kind,
        datum_params=datum_params,
        seed=values["seed"],
        tol_scheme=values["tol.scheme"],
        tol_quad=values["tol.quad"],
        study_kind=values["study.kind"],
        study_lambdas=tuple(values["study.lambdas"]),
        study_mus=tuple(values["study.mus"]),
        study_times=tuple(values["study.times"]),
        nwave_mass=values["nwave.mass"],
        nwave_time=values["nwave.time"],
        raw=values,
    )
