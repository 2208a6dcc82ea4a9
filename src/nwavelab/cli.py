"""Command-line front end.

Commands
--------
simulate    run one simulation, write snapshot / mass CSVs and the final field
verify      run a named verification suite and print one verdict line per check
study       run a named parameter study (defaults to the configured study.kind)
dump-kernel write the discretized kernel as CSV
dump-nwave  write a sampled self-similar profile as CSV

Shared flags: --config PATH, --set key=value (repeatable), --out DIR,
--seed N.  Every command runs in the calling thread, except two that
fork one child process (experiments._pmap).  In `verify decay` the q = 1.25
run steps here while the child steps q = 1.5 and q = 1.75.  In `study
vanishing_viscosity` the largest and smallest mu and the mu = 0 runs step
here while the child steps the middle mus; a sweep of two mus forks
nothing.  Both run everything here when this process may use one CPU only,
cannot fork, or has another thread alive.

Exit codes are a stable contract: 0 success / all checks passed,
1 at least one verification check failed, 2 usage or configuration
error (a file that cannot be read or written included), 3 the time
stepper aborted (on a non-finite value, a collapsed step or escaped
mass), in this process or in the child, with the message it prints
in-process, or the child died before sending its results.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import STUDY_KINDS, ConfigError, load_config
from .experiments import run_study, study_spec
from .io import (
    atomic_write_text,
    write_field_bin,
    write_kernel_csv,
    write_mass_csv,
    write_nwave_csv,
    write_snapshots_csv,
)
from .profiles import NWave, nwave_sample
from .solver import NumericalAbort, run
from .suites import SUITE_NAMES, run_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_ABORT = 3


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="PATH", default=None,
                   help="key = value config file (defaults apply when omitted)")
    p.add_argument("--set", dest="overrides", metavar="KEY=VALUE",
                   action="append", default=[],
                   help="override one config key (repeatable)")
    p.add_argument("--out", metavar="DIR", default="out",
                   help="output directory (created if missing)")
    p.add_argument("--seed", type=int, default=None, metavar="N",
                   help="override the RNG seed")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nwavelab",
        description="Finite-volume laboratory for a conservation law with "
                    "nonlocal diffusion.",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("simulate", help="run one simulation and write its outputs")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITE_NAMES, metavar="SUITE",
                   help="one of: " + ", ".join(SUITE_NAMES))
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("study", help="run a parameter study")
    p.add_argument("name", nargs="?", choices=STUDY_KINDS, metavar="NAME",
                   help="one of: " + ", ".join(STUDY_KINDS)
                        + " (defaults to the configured study.kind)")
    _add_common(p)
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("dump-kernel", help="write the discretized kernel as CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_dump_kernel)

    p = sub.add_parser("dump-nwave", help="write a sampled N-wave profile as CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_dump_nwave)
    return ap


def _load(args):
    return load_config(args.config, args.overrides, args.seed)


def _manifest_text(cfg) -> str:
    """Resolved configuration as `key = value` lines (re-loadable)."""
    lines = []
    for key in sorted(cfg.raw):
        value = cfg.raw[key]
        if isinstance(value, tuple):
            text = ",".join(repr(float(v)) for v in value)
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    traj = run(cfg.make_datum(), cfg.params)
    write_snapshots_csv(traj.times, traj.snapshots,
                        os.path.join(args.out, "snapshots.csv"))
    write_mass_csv(traj, os.path.join(args.out, "mass.csv"))
    write_field_bin(traj.snapshots[-1], os.path.join(args.out, "final_state.bin"))
    atomic_write_text(os.path.join(args.out, "manifest.txt"), _manifest_text(cfg))
    for t, u in zip(traj.times, traj.snapshots):
        print(f"t={t:g}  mass={u.mass():.12g}  max|u|={abs(u.values).max():.6g}")
    print(f"wrote snapshots.csv, mass.csv, final_state.bin to {args.out}")
    return EXIT_PASS


def _cmd_verify(args) -> int:
    cfg = _load(args)
    reports = run_suite(args.suite, cfg, out_dir=args.out)
    for r in reports:
        print(r.line())
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_FAIL


def _cmd_study(args) -> int:
    if args.name is not None:  # the named study wins over the configured study.kind
        args.overrides = [*args.overrides, f"study.kind={args.name}"]
    cfg = _load(args)
    spec = study_spec(cfg, out_dir=args.out)
    atomic_write_text(os.path.join(args.out, f"{spec.kind}_manifest.txt"),
                      _manifest_text(cfg))
    reports = run_study(spec)
    for r in reports:
        print(r.line())
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_FAIL


def _cmd_dump_kernel(args) -> int:
    cfg = _load(args)
    kernel = cfg.params.kernel()
    path = os.path.join(args.out, "kernel.csv")
    write_kernel_csv(kernel, path)
    print(f"wrote {path}: {kernel.weights.size} cells, "
          f"mass={kernel.m0:.12g}, second_moment={kernel.m2:.12g}")
    return EXIT_PASS


def _cmd_dump_nwave(args) -> int:
    cfg = _load(args)
    p = cfg.params
    nw = NWave(m=cfg.nwave_mass, q=p.q)
    w = nwave_sample(nw, cfg.nwave_time, p.x_min, p.dx, p.grid_n())
    path = os.path.join(args.out, "nwave.csv")
    write_nwave_csv(w, path)
    captured = w.mass()
    print(f"wrote {path}: r(t)={nw.r(cfg.nwave_time):.12g}, "
          f"mass on grid={captured:.12g} (target {cfg.nwave_mass:g})")
    return EXIT_PASS


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NumericalAbort, ChildProcessError) as exc:  # ChildProcessError is an OSError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
