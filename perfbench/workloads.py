"""The four benchmark workloads and the checks on their outputs.

Each workload is a call into nwavelab as a user makes it, plus a check
that returns None when every verdict passed and a message otherwise.
Only `verify_mix` draws random inputs, so only it depends on the seed;
the other three have fixed inputs and ignore it.

`smoke=True` shrinks each workload to seconds (fewer q values, shorter
horizons, fewer sweep values) so the harness itself can be tested; the
timed runs never use it.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import os

# Workloads whose inputs come from the seed.
SEEDED = {"verify_mix"}

MIX_SUITES = ("oleinik", "contraction", "comparison", "entropy", "tails",
              "nonlocal_comparison", "kernel_bound")


def _reports_ok(reports):
    if not reports:
        return "no reports"
    bad = [r.line() for r in reports if not r.passed]
    return "; ".join(bad) if bad else None


def _decay(seed, out_dir, smoke):
    import nwavelab
    import nwavelab.suites as suites

    cfg = nwavelab.load_config(None, [], seed)
    if not smoke:
        return nwavelab.run_suite("decay", cfg)
    grids, times = suites._DECAY_GRIDS, suites._DECAY_TIMES
    suites._DECAY_GRIDS, suites._DECAY_TIMES = {1.75: grids[1.75]}, times[:9]
    try:
        return nwavelab.run_suite("decay", cfg)
    finally:
        suites._DECAY_GRIDS, suites._DECAY_TIMES = grids, times


def _long_time_signed(seed, out_dir, smoke):
    import nwavelab
    import nwavelab.experiments as experiments

    overrides = ["study.kind=long_time_sign_changing"]
    if smoke:
        overrides.append("study.times=1,3,10,30")
    cfg = nwavelab.load_config(None, overrides, seed)
    return experiments.run_study(experiments.study_spec(cfg))


def _viscosity_sweep(seed, out_dir, smoke):
    import nwavelab.cli

    argv = ["study", "vanishing_viscosity", "--out", out_dir]
    if smoke:
        argv += ["--set", "study.mus=0.4,0.2"]
    printed = _io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = nwavelab.cli.main(argv)
    return code, printed.getvalue(), out_dir


def _check_viscosity(outcome):
    code, printed, out_dir = outcome
    if code != 0:
        return f"exit code {code}: {printed.strip()}"
    lines = printed.splitlines()
    if not lines or not all(line.startswith("PASS") for line in lines):
        return f"verdict lines not all PASS: {printed.strip()}"
    files = sorted(os.listdir(out_dir))
    kind = "vanishing_viscosity"
    for name in (f"{kind}_manifest.txt", f"{kind}_summary.csv", f"{kind}_verdicts.json"):
        if name not in files:
            return f"missing output {name}"
    with open(os.path.join(out_dir, f"{kind}_verdicts.json"), encoding="utf-8") as fh:
        verdicts = json.load(fh)
    if not verdicts or any(v["verdict"] != "pass" for v in verdicts):
        return f"verdicts JSON not all pass: {verdicts}"
    snapshots = [f for f in files if f.startswith("viscosity_mu_") and f.endswith(".csv")]
    if len(snapshots) < 3:
        return f"expected a snapshot CSV per mu, found {snapshots}"
    for name in snapshots:
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            if fh.readline().strip() != "t,x,u" or not fh.readline():
                return f"{name} is not a snapshot CSV"
    return None


def _verify_mix(seed, out_dir, smoke):
    import nwavelab

    cfg = nwavelab.load_config(None, [], seed)
    return [r for suite in MIX_SUITES for r in nwavelab.run_suite(suite, cfg)]


# name -> (call(seed, out_dir, smoke), check(outcome))
WORKLOADS = {
    "decay": (_decay, _reports_ok),
    "long_time_signed": (_long_time_signed, _reports_ok),
    "viscosity_sweep": (_viscosity_sweep, _check_viscosity),
    "verify_mix": (_verify_mix, _reports_ok),
}
