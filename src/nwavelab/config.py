"""Flat-key run configuration.

A config file is plain text, one `key = value` per line, `#` comments, no
sections.  The key space is flat and dotted (grid.dx, kernel.width, ...) so
sweep drivers can generate configs and the CLI can override any single key
with --set key=value.

The model's input rules live with the objects they guard: SimParams
checks every parameter field, its grid and its kernel, each break a
ParamError naming the field at fault; profiles checks the datum, its
support against the grid's extent included.  load_config parses, builds
those objects once and assigns blame: a broken rule becomes a ConfigError
carrying the file and line (or the literal "--set") of the key at fault.
It owns only the rules nothing else does: seed, study.kind and nwave.*.
check_run is the same blame for a run a suite or study derives from the
configured case, on a grid or rescale factor of its own.

Unknown keys, duplicate keys, malformed values and violated model
constraints are all ConfigError; the CLI maps that to exit code 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .kernels import Kernel
from .profiles import DATUM_PARAMS, check_datum, make_initial_datum
from .solver import ParamError, SimParams

__all__ = ["ConfigError", "Config", "load_config", "check_run", "DEFAULTS", "STUDY_KINDS"]

STUDY_KINDS = (
    "long_time_nonnegative",
    "long_time_sign_changing",
    "vanishing_viscosity",
    "rescaling_family",
)

# The config key of each SimParams field.
_PARAM_KEYS = {
    "q": "q", "lam": "lambda", "mu": "mu", "alpha": "alpha", "cfl": "cfl",
    "kernel_family": "kernel.family", "kernel_width": "kernel.width",
    "x_min": "grid.x_min", "x_max": "grid.x_max", "dx": "grid.dx",
    "output_times": "output.times", "tail_cap": "tail.cap",
}

# Every legal key with its default; the default's type decides parsing.
# The run keys take SimParams' field defaults and the datum.* keys the
# datum kinds' own (a name several kinds share has one default there).
DEFAULTS = {
    **{_PARAM_KEYS[f.name]: f.default for f in fields(SimParams)},
    "datum.kind": "box",
    **{f"datum.{name}": value for kind in DATUM_PARAMS.values() for name, value in kind.items()},
    "seed": 0,
    "study.kind": "long_time_nonnegative",
    "study.lambdas": (1.0, 2.0, 4.0, 8.0),
    "study.mus": (0.4, 0.2, 0.1, 0.05),
    "study.times": (1.0, 3.0, 10.0, 30.0, 100.0),
    "nwave.mass": 1.0,
    "nwave.time": 1.0,
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
    study_kind: str
    study_lambdas: tuple
    study_mus: tuple
    study_times: tuple
    nwave_mass: float
    nwave_time: float
    raw: dict = field(default_factory=dict)
    # suites._configured_run's one entry; replace() hands a copy a fresh one
    run_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def make_datum(self, params: SimParams | None = None):
        """The configured datum on params' grid (default: the configured one)."""
        p = params or self.params
        return make_initial_datum(self.datum_kind, p.x_min, p.dx, p.grid_n(), **self.datum_params)


def check_run(params: SimParams, what: str = "", base: Kernel | None = None, **keys) -> Kernel:
    """params.grid_n(), then params.kernel(base), for a run that a suite or
    study derives from the configured case; returns the kernel.

    A ParamError is a ConfigError on keys[field] where the caller derived
    the field, else on the field's own key.  `what` names a grid the caller
    derived, so a grid or stencil error says whose dx it reports.
    """
    try:
        params.grid_n()
        return params.kernel(base)
    except ParamError as exc:
        if what and exc.field == "dx":  # a named derived grid: the extent's fault
            raise ConfigError(f"{what} (dx = {params.dx:g}) does not fit "
                              f"[{params.x_min:g}, {params.x_max:g}]: {exc}",
                              origin="grid.x_min/grid.x_max") from None
        message = f"on {what}, {exc}" if what and exc.field == "kernel_width" else str(exc)
        raise ConfigError(message, origin=keys.get(exc.field, _PARAM_KEYS[exc.field])) from None


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

    def first_set(keys, default):
        return next((k for k in keys if origins[k] != "default"), default)

    try:
        params = SimParams(**{f: values[key] for f, key in _PARAM_KEYS.items()})
    except ParamError as exc:
        fail(_PARAM_KEYS[exc.field], str(exc))
    try:
        params.grid_n()
        params.kernel()  # dump-kernel needs it even where alpha = 0 leaves runs without it
    except ParamError as exc:
        if exc.field == "dx":  # the three grid keys size the grid together
            key = first_set(["grid.dx", "grid.x_max", "grid.x_min"], "grid.dx")
            fail(key, f"{key} = {values[key]:g}: {exc}")
        # a stencil the grid cannot resolve is grid.dx's fault if it was set
        fail(first_set(["grid.dx"], "kernel.width") if exc.field == "kernel_width"
             else "lambda", str(exc))

    # the datum's own rules, its support against the grid's extent too,
    # blamed on the first of its keys that was set
    kind = values["datum.kind"]
    names = DATUM_PARAMS.get(kind, ())
    try:
        datum_params = check_datum(kind, extent=(params.x_min, params.x_max),
                                   **{n: values[f"datum.{n}"] for n in names})
    except ValueError as exc:
        fail(first_set([f"datum.{n}" for n in names], "datum.kind"), str(exc))
    if values["seed"] < 0:
        fail("seed", f"seed must be nonnegative, got {values['seed']}")
    if values["study.kind"] not in STUDY_KINDS:
        fail("study.kind", f"study.kind = {values['study.kind']!r} is not a study kind; "
                           f"choose one of {', '.join(STUDY_KINDS)}")
    if not math.isfinite(values["nwave.time"]) or values["nwave.time"] <= 0:
        fail("nwave.time", "nwave.time must be positive")
    if not math.isfinite(values["nwave.mass"]) or values["nwave.mass"] == 0:
        fail("nwave.mass", "nwave.mass must be finite and nonzero")

    return Config(
        params=params,
        datum_kind=kind,
        datum_params=datum_params,
        seed=values["seed"],
        study_kind=values["study.kind"],
        study_lambdas=tuple(values["study.lambdas"]),
        study_mus=tuple(values["study.mus"]),
        study_times=tuple(values["study.times"]),
        nwave_mass=values["nwave.mass"],
        nwave_time=values["nwave.time"],
        raw=values,
    )
