"""Flat-key run configuration.

A config file is plain text, one `key = value` per line, `#` comments, no
sections.  The key space is flat and dotted (grid.dx, kernel.width, ...) so
sweep drivers can generate configs and the CLI can override any single key
with --set key=value.

The model's input rules live with the objects they guard: SimParams
checks every parameter field, kernels the stencil and its rescaling, and
profiles the datum, its support against the grid's extent included.
load_config parses, builds those objects once and assigns blame: a broken
rule becomes a ConfigError carrying the file and line (or the literal
"--set") of the key at fault.
It owns only the rules nothing else does: study.kind and nwave.*.

Unknown keys, duplicate keys, malformed values and violated model
constraints are all ConfigError; the CLI maps that to exit code 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .kernels import make_kernel, rescale
from .profiles import DATUM_PARAMS, check_datum, make_initial_datum
from .solver import ParamError, SimParams

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

# The config key of each SimParams field.
_PARAM_KEYS = {
    "q": "q", "lam": "lambda", "mu": "mu", "alpha": "alpha", "cfl": "cfl",
    "kernel_family": "kernel.family", "kernel_width": "kernel.width",
    "x_min": "grid.x_min", "x_max": "grid.x_max", "dx": "grid.dx",
    "output_times": "output.times", "tail_cap": "tail.cap",
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

    try:
        params = SimParams(**{f: values[key] for f, key in _PARAM_KEYS.items()})
        params.grid_n()
    except ParamError as exc:
        fail(_PARAM_KEYS[exc.field], str(exc))
    # params.kernel() in its two steps, each blamed on its own key; built
    # also when alpha = 0 leaves the kernel unused by runs: dump-kernel needs
    # it.  A stencil the grid cannot resolve is grid.dx's fault if it was set.
    try:
        j = make_kernel(params.kernel_family, params.kernel_width, params.dx)
    except ValueError as exc:
        fail("grid.dx" if origins["grid.dx"] != "default" else "kernel.width", str(exc))
    try:
        rescale(j, params.lam)
    except ValueError as exc:
        fail("lambda", f"lambda = {params.lam:g} rescales the kernel too far: {exc}")

    # the datum's own rules, its support against the grid's extent too,
    # blamed on the first of its keys that was set
    kind = values["datum.kind"]
    names = DATUM_PARAMS.get(kind, ())
    try:
        datum_params = check_datum(kind, extent=(params.x_min, params.x_max),
                                   **{n: values[f"datum.{n}"] for n in names})
    except ValueError as exc:
        set_keys = [f"datum.{n}" for n in names if origins[f"datum.{n}"] != "default"]
        fail((set_keys or ["datum.kind"])[0], str(exc))
    if values["study.kind"] not in STUDY_KINDS:
        fail("study.kind",
             f"unknown study kind {values['study.kind']!r}; choose one of {STUDY_KINDS}")
    if not math.isfinite(values["nwave.time"]) or values["nwave.time"] <= 0:
        fail("nwave.time", "nwave.time must be positive")
    if not math.isfinite(values["nwave.mass"]) or values["nwave.mass"] == 0:
        fail("nwave.mass", "nwave.mass must be finite and nonzero")

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
