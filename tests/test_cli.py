import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import nwavelab
from nwavelab.cli import main
from nwavelab.io import read_field_bin, read_snapshots_csv

FAST = [
    "--set", "grid.x_min=-3", "--set", "grid.x_max=3", "--set", "grid.dx=0.03125",
    "--set", "kernel.width=0.5", "--set", "output.times=0.25",
    "--set", "tail.cap=0.9",
]


def test_simulate_writes_outputs(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["simulate", *FAST, "--out", out]) == 0
    got = capsys.readouterr().out
    assert "t=0.25" in got and "mass=" in got
    snaps = read_snapshots_csv(os.path.join(out, "snapshots.csv"))
    assert len(snaps) == 1 and snaps[0][0] == 0.25
    final = read_field_bin(os.path.join(out, "final_state.bin"))
    np.testing.assert_array_equal(final.values, snaps[0][1].values)
    manifest = open(os.path.join(out, "manifest.txt")).read()
    assert "q = 1.5" in manifest and "grid.dx = 0.03125" in manifest


def test_config_error_exits_2(tmp_path, capsys):
    assert main(["simulate", "--set", "q=2.5", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "(1, 2]" in err and "--set" in err


def test_config_file_error_names_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("q = 1.5\ncfl = 7\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "bad.cfg:2" in capsys.readouterr().err


@pytest.mark.parametrize("how, origin", [
    (["--seed", "-1"], "--seed"),
    (["--set", "seed=-1"], "--set"),
    ("file", None),
], ids=["--seed", "--set", "file"])
def test_negative_seed_exits_2(how, origin, tmp_path, capsys):
    if how == "file":
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = -1\n")
        how, origin = ["--config", str(cfg)], f"{cfg}:1"
    assert main(["verify", "tails", *how, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {origin}: seed must be nonnegative")
    assert not (tmp_path / "o").exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["simulate", "--config", missing, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_out_under_a_regular_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "o")
    assert main(["dump-kernel", *FAST, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err


def test_numerical_abort_exits_3(tmp_path, capsys):
    args = ["simulate", "--set", "grid.x_min=-1", "--set", "grid.x_max=1.5",
            "--set", "kernel.width=0.5", "--set", "datum.right=0.5",
            "--set", "output.times=2.0", "--out", str(tmp_path / "o")]
    assert main(args) == 3
    assert "widen the domain" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "dump-kernel"])
def test_unbuildable_rescaled_kernel_exits_2(command, tmp_path, capsys):
    # lambda = 200 shrinks the width-1 kernel to 3 cells of the default grid
    assert main([command, "--set", "lambda=200", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "lambda" in err and "--set" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("setting", [
    "grid.x_max=inf", "grid.x_min=-inf", "kernel.width=inf", "lambda=inf",
    "output.times=inf", "mu=inf", "alpha=inf", "nwave.mass=nan",
])
def test_non_finite_value_exits_2(setting, tmp_path, capsys):
    assert main(["simulate", "--set", setting, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --set:")
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    pytest.param(["simulate", "--set", "datum.right=-1"], id="box"),
    pytest.param(["simulate", "--set", "datum.kind=gaussian", "--set", "datum.sigma=0"],
                 id="gaussian"),
    pytest.param(["simulate", "--set", "datum.kind=dipole_zero_mass",
                  "--set", "datum.width=-1"], id="dipole"),
    pytest.param(["simulate", "--set", "datum.height=nan"], id="nan-height"),
    pytest.param(["study", "vanishing_viscosity", "--set", "datum.right=-1"], id="study"),
])
def test_bad_datum_exits_2(args, tmp_path, capsys):
    assert main([*args, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --set:")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("settings, origin", [
    pytest.param(["datum.height=0"], "datum.height", id="box"),
    pytest.param(["datum.kind=gaussian", "datum.mass=0"], "datum.mass", id="gaussian"),
])
def test_zero_datum_in_the_viscosity_study_exits_2(settings, origin, tmp_path, capsys):
    # every distance to the inviscid run would be 0, and the strict
    # decrease would print FAIL with exit 1, which means "check failed"
    args = ["study", "vanishing_viscosity", *(a for s in settings for a in ("--set", s))]
    assert main([*args, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {origin}: the ")
    assert "datum is zero on every cell" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_signed_datum_of_zero_mass_runs_the_viscosity_study(tmp_path, capsys):
    args = ["study", "vanishing_viscosity", "--set", "datum.kind=dipole_zero_mass",
            "--set", "grid.x_min=-3", "--set", "grid.x_max=5", "--set", "study.mus=0.05,0.025"]
    assert main([*args, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.startswith("PASS   vanishing-viscosity distances")


@pytest.mark.parametrize("mus, set_aside", [
    # the floor is an L1 distance (0.00461 here), so mu = 0.003 and 0.001,
    # at distances 0.0241 and 0.0102, gate; 0.0003 and 0.0001, at 0.00351
    # and 0.00125, are set aside
    ("0.4,0.2,0.1,0.01,0.003,0.001", 0),
    ("0.4,0.2,0.0003,0.0001", 2),
])
def test_the_viscosity_study_sets_aside_the_mus_within_its_floor_distance(
        mus, set_aside, tmp_path, capsys):
    args = ["study", "vanishing_viscosity", "--set", f"study.mus={mus}"]
    assert main([*args, "--out", str(tmp_path / "o")]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("PASS   vanishing-viscosity distances: mu=0.4=")
    detail = (f"  [{set_aside} sweep value(s) at or below the viscosity floor (informational)]"
              if set_aside else "")
    assert line.endswith(f"floor=0.00461331{detail}")


@pytest.mark.parametrize("command", [["simulate"], ["study", "vanishing_viscosity"]])
def test_datum_off_the_grid_exits_2(command, tmp_path, capsys):
    # the gaussian's support [96, 104] misses the default grid [-8, 12]
    args = [*command, "--set", "datum.kind=gaussian", "--set", "datum.center=100"]
    assert main([*args, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --set:")
    assert "outside the grid" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, setting, origin", [
    (["simulate", "--set", "datum.kind=two_boxes_signed"], "datum.pos_right=-1", "--set"),
    (["simulate", "--set", "datum.kind=two_boxes_signed"], "datum.neg_left=0", "--set"),
    # the sign-changing study reads the two-box keys whatever datum.kind is
    (["study", "long_time_sign_changing"], "datum.pos_right=-1", "datum.pos_right"),
    (["study", "long_time_sign_changing"], "datum.neg_left=0", "datum.neg_left"),
])
def test_a_reversed_signed_box_exits_2(command, setting, origin, tmp_path, capsys):
    # a box with right <= left is empty, so the datum's mass would be misread
    box = setting.removeprefix("datum.")[:3]
    assert main([*command, "--set", setting, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {origin}: two_boxes_signed needs {box}_right > {box}_left\n"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, setting", [
    ("rescaling_family", "datum.height=-1"),
    ("long_time_sign_changing", "datum.kind=gaussian"),
    ("long_time_nonnegative", "datum.kind=dipole_zero_mass"),
    ("vanishing_viscosity", "datum.sigma=2"),
])
def test_a_datum_key_the_study_does_not_read_exits_2(kind, setting, tmp_path, capsys):
    # the study would run without the key, so it names the key, not a datum of its own
    key = setting.split("=")[0]
    assert main(["study", kind, "--set", setting, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {key}: the {kind} study runs a ")
    assert captured.err.endswith(f" does not read {key}\n")
    assert ("of fixed parameters" in captured.err) == (kind in ("rescaling_family",
                                                               "long_time_nonnegative"))
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, origin", [
    # the config's own grid takes the kernel; a grid or rescale factor the
    # suite or study picks for itself does not
    (["verify", "nonlocal_comparison", "--set", "kernel.width=0.1"], "kernel.width"),
    (["verify", "contraction", "--set", "kernel.width=0.05"], "kernel.width"),
    (["verify", "comparison", "--set", "kernel.width=0.05"], "kernel.width"),
    (["verify", "kernel_bound", "--set", "kernel.width=0.4"], "kernel.width"),
    # a kernel the configured grid holds but the kernel bound's coarser grid does not
    (["verify", "kernel_bound", "--set", "grid.dx=0.0009765625", "--set", "kernel.width=0.004"],
     "kernel.width"),
    (["study", "rescaling_family", "--set", "kernel.width=0.2"], "study.lambdas"),
    (["study", "rescaling_family", "--set", "study.lambdas=0.5,1"], "study.lambdas"),
    (["study", "vanishing_viscosity", "--set", "kernel.width=0.02"], "kernel.width"),
    (["study", "long_time_nonnegative", "--set", "grid.dx=0.0625"], "grid.dx"),
    (["study", "long_time_nonnegative", "--set", "study.times=1,1e30"], "study.times"),
    (["verify", "decay", "--set", "lambda=10"], "lambda"),
    (["verify", "entropy", "--set", "lambda=40"], "lambda"),
    # non-finite sweeps
    (["study", "vanishing_viscosity", "--set", "study.mus=inf,0.1"], "study.mus"),
    (["study", "rescaling_family", "--set", "study.lambdas=1,inf"], "study.lambdas"),
    (["study", "long_time_nonnegative", "--set", "study.times=1,inf"], "study.times"),
    # the kernel bound is a suite, not a study kind; gate tolerances are no keys
    (["verify", "decay", "--set", "study.kind=kernel_bound_sweep"], "--set: study.kind"),
    (["verify", "oleinik", "--set", "tol.scheme=0.1"], "--set: unknown key 'tol.scheme'"),
])
def test_value_a_suite_cannot_use_exits_2(args, origin, tmp_path, capsys):
    assert main([*args, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {origin}")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("setting, named", [
    ("kernel.width=1e6", "kernel width 1e+06"),
    ("grid.x_max=1e9", "grid.x_max = 1e+09"),
    ("grid.dx=1e-9", "grid.dx = 1e-09"),
])
def test_oversized_array_exits_2(setting, named, tmp_path, capsys):
    # each would size an array of 1e8 or more cells; the check is arithmetic
    assert main(["simulate", "--set", setting, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --set: {named}") and "MAX_CELLS" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_bad_sign_changing_datum_exits_2(tmp_path, capsys):
    # the study reads datum.pos_* and datum.neg_* whatever datum.kind is
    args = ["study", "long_time_sign_changing", "--set", "datum.pos_height=nan"]
    assert main([*args, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: datum.pos_height:")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, origin, message", [
    (["study", "long_time_nonnegative", "--set", "q=2"], "q", "strictly below 2"),
    (["study", "vanishing_viscosity", "--set", "datum.height=0"], "datum.height",
     "zero on every cell"),
    # a zero-mass signed datum blames the key that was changed
    (["study", "long_time_sign_changing", "--set", "datum.neg_height=2",
      "--set", "study.times=1,3"], "datum.neg_height", "zero-mass datum"),
    # the rescaling study measures the same N-wave limit as the long-time ones
    (["study", "rescaling_family", "--set", "q=2"], "q", "strictly below 2"),
])
def test_a_study_that_cannot_run_exits_2_before_writing(args, origin, message, tmp_path,
                                                        capsys):
    # every check of a study runs as its spec is built, before the manifest
    assert main([*args, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {origin}: ")
    assert message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "o").exists()


def test_tails_without_the_fit_time_exits_2(monkeypatch, tmp_path, capsys):
    # the tails suite fits its constant at t = 8, the final time its radii
    # assume: a schedule that does not end there is a config error, raised
    # before the configured run is stepped
    import nwavelab.suites as suites

    def no_run(*args):
        raise AssertionError("the configured run was stepped")

    monkeypatch.setattr(suites, "run", no_run)
    for times in ("1,2,4", "1,2,4,8,16", "8.000000001,9"):
        args = ["verify", "tails", "--set", f"output.times={times}", "--out", str(tmp_path / "o")]
        assert main(args) == 2, times
        captured = capsys.readouterr()
        assert captured.err.startswith("error: output.times: ")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "o").exists()


def test_kernel_bound_blames_the_width_for_the_first_factor_too_far(tmp_path, capsys):
    args = ["verify", "kernel_bound", "--set", "kernel.width=0.4", "--out", str(tmp_path / "o")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kernel.width: lambda = 59 rescales the kernel too far")


def test_kernel_bound_names_its_own_grid_for_a_width_it_cannot_hold(tmp_path, capsys):
    # the configured dx = 1/1024 holds the width; the suite's dx = 1/512 does not
    args = ["verify", "kernel_bound", "--set", "grid.dx=0.0009765625",
            "--set", "kernel.width=0.004", "--out", str(tmp_path / "o")]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "error: kernel.width: on the kernel_bound suite's own grid, dx=0.00195312 "
        "too coarse for kernel width 0.004; need dx <= width/4\n")


def _short_decay(monkeypatch, at_q175):
    """verify decay on q = 1.5 (the caller's run) and q = 1.75 (the child's)
    to t = 10, with at_q175(datum) standing in for the q = 1.75 datum."""
    import nwavelab.suites as suites

    monkeypatch.setattr(suites, "_DECAY_GRIDS",
                        {q: suites._DECAY_GRIDS[q] for q in (1.5, 1.75)})
    monkeypatch.setattr(suites, "_DECAY_TIMES", suites._DECAY_TIMES[:5])
    real_run = suites.run

    def run(datum, params):
        return real_run(at_q175(datum) if params.q == 1.75 else datum, params)

    monkeypatch.setattr(suites, "run", run)


def test_an_abort_in_the_decay_child_exits_3_as_in_process(monkeypatch, cpus, tmp_path, capsys):
    def nan_cell(datum):
        values = datum.values.copy()
        values[300] = np.nan
        return datum.with_values(values)

    _short_decay(monkeypatch, nan_cell)
    args = ["verify", "decay", "--out", str(tmp_path / "o")]
    cpus(1)
    assert main(args) == 3
    here = capsys.readouterr()
    assert here.out == "" and here.err.startswith("error: time step collapsed")
    assert "cell 300" in here.err and here.err.count("\n") == 1
    forks = cpus(2)
    assert main(args) == 3
    assert capsys.readouterr() == here
    assert len(forks) == 1


def test_a_decay_child_that_dies_exits_3_naming_its_status(monkeypatch, cpus, tmp_path,
                                                           capsys):
    caller = os.getpid()

    def die(datum):
        assert os.getpid() != caller, "the q = 1.75 run stepped in the caller"
        os._exit(9)

    _short_decay(monkeypatch, die)
    cpus(2)
    assert main(["verify", "decay", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "error: the forked worker process died with exit status 9 before sending its results\n")


# A four-mu sweep on a narrow grid: the caller steps mu = 0.1 and 0.0125,
# one forked child mu = 0.05 and 0.025
_SMALL_SWEEP = ["study", "vanishing_viscosity", "--set", "grid.x_min=-3", "--set", "grid.x_max=5",
                "--set", "study.mus=0.1,0.05,0.025,0.0125"]


def _files(root):
    """Every file under root, by relative path, with its bytes."""
    return {os.path.relpath(os.path.join(d, name), root): open(os.path.join(d, name), "rb").read()
            for d, _dirs, names in os.walk(root) for name in names}


def test_the_viscosity_study_forks_and_writes_what_it_writes_in_process(cpus, tmp_path, capsys):
    args = [*_SMALL_SWEEP, "--seed", "7", "--out", str(tmp_path / "o")]
    forks = cpus(1)
    assert main(args) == 0
    here, written = capsys.readouterr(), _files(tmp_path / "o")
    assert here.out.startswith("PASS") and here.err == "" and forks == []
    assert len([name for name in written if name.startswith("viscosity_mu_")]) == 5
    shutil.rmtree(tmp_path / "o")
    cpus(2)
    assert main(args) == 0
    assert capsys.readouterr() == here
    assert _files(tmp_path / "o") == written
    assert len(forks) == 1


def test_an_abort_in_the_viscosity_child_exits_3_as_in_process(monkeypatch, cpus, tmp_path,
                                                              capsys):
    import nwavelab.experiments as experiments

    real = experiments.run_lockstep

    def run_lockstep(groups, params, mus):  # a NaN in mu = 0.05's datum, in the child's batch
        if mus[0] == 0.05:
            values = groups[0][0].values.copy()
            values[300] = np.nan
            groups = [(groups[0][0].with_values(values),), *groups[1:]]
        return real(groups, params, mus)

    monkeypatch.setattr(experiments, "run_lockstep", run_lockstep)
    args = [*_SMALL_SWEEP, "--out", str(tmp_path / "o")]
    forks = cpus(1)
    assert main(args) == 3
    here = capsys.readouterr()
    assert here.out == "" and here.err.startswith("error: time step collapsed")
    assert "cell 300 of the run with mu=0.05 (" in here.err and here.err.count("\n") == 1
    cpus(2)
    assert main(args) == 3
    assert capsys.readouterr() == here
    assert len(forks) == 1


def test_entropy_passes_on_the_viscous_sample_config(tmp_path, capsys):
    # the simulated residuals carry the run's viscous term
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "viscous_gaussian.cfg")
    assert main(["verify", "entropy", "--config", config, "--out", str(tmp_path / "o")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9 and all(line.startswith("PASS") for line in lines)


def test_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nope"])
    assert exc.value.code == 2


def test_verify_suite_runs_and_prints_verdicts(tmp_path, capsys):
    out = str(tmp_path / "v")
    code = main(["verify", "nonlocal_comparison", "--out", out, "--seed", "3"])
    got = capsys.readouterr().out
    assert code == 0
    assert "PASS" in got
    assert os.path.exists(os.path.join(out, "nonlocal_comparison_verdicts.json"))


def test_dump_kernel_and_nwave(tmp_path, capsys):
    out = str(tmp_path / "d")
    assert main(["dump-kernel", *FAST, "--out", out]) == 0
    assert main(["dump-nwave", *FAST, "--out", out]) == 0
    got = capsys.readouterr().out
    assert "kernel.csv" in got and "nwave.csv" in got
    rows = open(os.path.join(out, "kernel.csv")).read().splitlines()
    assert rows[0] == "x,J"
    x, j = np.loadtxt(rows[1:], delimiter=",", unpack=True)
    assert np.sum(j) * (x[1] - x[0]) == pytest.approx(1.0, abs=1e-9)


def test_study_rejects_unknown_name(capsys):
    # kernel_bound_sweep is no study: the kernel bound is the verify suite
    for name in ("not_a_study", "kernel_bound_sweep"):
        with pytest.raises(SystemExit) as exc:
            main(["study", name])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument NAME: invalid choice: '{name}'" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["study", "vanishing_viscosity", "--set", "grid.x_max=12.05", "--set", "grid.dx=0.05"],
    # the refined grid at dx/2 would have 6e6 cells, over MAX_CELLS
    ["verify", "oleinik", "--set", f"grid.dx={20.0 / 3e6!r}"],
])
def test_derived_grid_that_does_not_fit_exits_2(args, tmp_path, capsys):
    assert main([*args, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: grid.x_min/grid.x_max:")
    assert "Traceback" not in captured.err and captured.out == ""


def test_runs_without_scipy():
    # every import path and a run through erf (truncated_gaussian kernel,
    # gaussian datum) with scipy made unimportable
    src = os.path.dirname(os.path.dirname(nwavelab.__file__))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import nwavelab, nwavelab.cli, nwavelab.experiments, nwavelab.io\n"
        "from nwavelab.config import load_config\n"
        "cfg = load_config(overrides=['kernel.family=truncated_gaussian',\n"
        "    'datum.kind=gaussian', 'grid.x_min=-6', 'grid.x_max=6',\n"
        "    'grid.dx=0.03125', 'output.times=0.25'])\n"
        "traj = nwavelab.run(cfg.make_datum(), cfg.params)\n"
        "assert abs(traj.snapshots[-1].mass() - 1.0) < 1e-6, traj.snapshots[-1].mass()\n"
        "assert not [m for m in sys.modules if m.startswith('scipy.')]\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
