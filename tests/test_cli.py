import os
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


def test_bad_sign_changing_datum_exits_2(tmp_path, capsys):
    # the study reads datum.pos_* and datum.neg_* whatever datum.kind is
    args = ["study", "long_time_sign_changing", "--set", "datum.pos_height=nan"]
    assert main([*args, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: datum.pos_height:")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "o").exists()


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


def test_study_rejects_unknown_name():
    with pytest.raises(SystemExit) as exc:
        main(["study", "not_a_study"])
    assert exc.value.code == 2


def test_study_kernel_bound_writes_artifacts(tmp_path, capsys):
    out = str(tmp_path / "s")
    code = main(["study", "kernel_bound_sweep", "--out", out])
    got = capsys.readouterr().out
    assert code == 0
    assert "PASS" in got
    assert os.path.exists(os.path.join(out, "kernel_bound_sweep_summary.csv"))
    assert os.path.exists(os.path.join(out, "kernel_bound_sweep_verdicts.json"))
    manifest = open(os.path.join(out, "kernel_bound_sweep_manifest.txt")).read()
    assert "study.kind = kernel_bound_sweep" in manifest


def test_import_does_not_load_scipy_signal():
    # scipy.signal costs about a second and 50 MB per fresh interpreter;
    # the package needs only scipy.fft and scipy.special.
    src = os.path.dirname(os.path.dirname(nwavelab.__file__))
    code = (
        "import sys\n"
        "import nwavelab, nwavelab.cli, nwavelab.experiments, nwavelab.io\n"
        "assert 'scipy.signal' not in sys.modules, 'scipy.signal was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
