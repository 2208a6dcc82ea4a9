import os

import numpy as np
import pytest

from nwavelab.diagnostics import Report
from nwavelab.grid import grid_function
from nwavelab.io import (
    atomic_write_text,
    read_field_bin,
    read_snapshots_csv,
    read_verdicts_json,
    write_field_bin,
    write_kernel_csv,
    write_mass_csv,
    write_nwave_csv,
    write_snapshots_csv,
    write_summary_csv,
    write_verdicts_json,
)
from nwavelab.kernels import make_kernel
from nwavelab.solver import SimParams, Trajectory


def test_field_bin_roundtrip_is_bitexact(tmp_path):
    rng = np.random.default_rng(2)
    u = grid_function(rng.standard_normal(301), -3.5, 1.0 / 97.0)
    path = str(tmp_path / "u.bin")
    write_field_bin(u, path)
    v = read_field_bin(path)
    np.testing.assert_array_equal(v.values, u.values)
    assert v.x_min == u.x_min and v.dx == u.dx


def test_field_bin_rejects_foreign_files(tmp_path):
    path = str(tmp_path / "junk.bin")
    with open(path, "wb") as fh:
        fh.write(b"not a field dump at all, definitely not one" * 3)
    with pytest.raises(ValueError, match="magic"):
        read_field_bin(path)
    short = str(tmp_path / "short.bin")
    with open(short, "wb") as fh:
        fh.write(b"NWGF")
    with pytest.raises(ValueError, match="truncated"):
        read_field_bin(short)


def _field_dump(version=1, cells=4, payload_cells=4):
    from nwavelab.io import _HEADER, _MAGIC

    return _HEADER.pack(_MAGIC, version, cells, 0.5, 0.0) + bytes(8 * payload_cells)


@pytest.mark.parametrize("read, name, content, message", [
    pytest.param(read_field_bin, "u.bin", _field_dump(version=2),
                 "unsupported version 2", id="field-version"),
    pytest.param(read_field_bin, "u.bin", _field_dump(payload_cells=3),
                 "expected 64 bytes, found 56", id="field-size"),
    pytest.param(read_snapshots_csv, "s.csv", b"t,u\n0.5,1.0\n",
                 "expected header t,x,u", id="csv-header"),
    pytest.param(read_snapshots_csv, "s.csv", b"t,x,u\n0.5,0.25,1.0\n",
                 "snapshot at t=0.5 has fewer than two cells", id="csv-one-cell"),
])
def test_each_io_reader_check_raises_its_message(read, name, content, message, tmp_path):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(ValueError, match=message):
        read(str(path))


def test_snapshots_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(4)
    snaps = [grid_function(rng.standard_normal(64), -1.0, 1.0 / 32.0) for _ in range(3)]
    times = [0.1, 0.30000000000000004, 2.0 / 3.0]
    path = str(tmp_path / "snaps.csv")
    write_snapshots_csv(times, snaps, path)
    back = read_snapshots_csv(path)
    assert [t for t, _ in back] == times
    for (_, v), u in zip(back, snaps):
        np.testing.assert_array_equal(v.values, u.values)
        assert v.dx == pytest.approx(u.dx, rel=1e-15)


def test_mass_csv(tmp_path):
    traj = Trajectory(params=SimParams())
    traj.times = [1.0, 2.0]
    traj.mass_history = [(1.0, 0.5), (2.0, 0.25)]
    traj.dissipation_history = [(1.0, 0.1), (2.0, 0.3)]
    path = str(tmp_path / "mass.csv")
    write_mass_csv(traj, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "t,mass,dirichlet_integral"
    assert lines[1] == "1.0,0.5,0.1"
    assert len(lines) == 3


def test_summary_csv(tmp_path):
    path = str(tmp_path / "summary.csv")
    write_summary_csv([(0.5, "gap", 1e-3), (1.0, "gap", 2e-3)], path)
    lines = open(path).read().splitlines()
    assert lines[0] == "sweep_value,metric,value"
    assert lines[1].startswith("0.5,gap,")


def test_kernel_and_nwave_csv(tmp_path):
    k = make_kernel("uniform", 1.0, 1.0 / 8.0)
    kp = str(tmp_path / "kernel.csv")
    write_kernel_csv(k, kp)
    rows = open(kp).read().splitlines()
    assert rows[0] == "x,J"
    assert len(rows) == k.samples.size + 1
    u = grid_function(np.linspace(0.0, 1.0, 16), 0.0, 0.25)
    np_path = str(tmp_path / "nwave.csv")
    write_nwave_csv(u, np_path)
    assert open(np_path).read().splitlines()[0] == "x,w"


def test_verdicts_json_roundtrip(tmp_path):
    reports = [
        Report(name="a", verdict="pass", values={"x": 1.5}, tolerance=0.1, detail="d"),
        Report(name="b", verdict="fail", values={"y": -2.0}),
    ]
    path = str(tmp_path / "verdicts.json")
    write_verdicts_json(reports, path)
    back = read_verdicts_json(path)
    assert [r.name for r in back] == ["a", "b"]
    assert back[0].tolerance == 0.1 and back[0].values["x"] == 1.5
    assert not back[1].passed


def test_verdicts_json_keeps_value_types(tmp_path):
    values = {"monotone": True, "violations": 0, "gap": 1.0, "np_bool": np.bool_(False),
              "np_int": np.int64(3), "np_float": np.float64(0.25)}
    path = str(tmp_path / "verdicts.json")
    write_verdicts_json([Report(name="a", verdict="pass", values=values)], path)
    back = read_verdicts_json(path)[0].values
    assert back == {"monotone": True, "violations": 0, "gap": 1.0, "np_bool": False,
                    "np_int": 3, "np_float": 0.25}
    assert [type(v) for v in back.values()] == [bool, int, float, bool, int, float]


def test_verdicts_json_is_strict_for_non_finite_values(tmp_path):
    import json
    import math

    def refuse(token):
        raise ValueError(f"bare {token} in a verdicts file")

    values = {"a": float("nan"), "b": float("inf"), "c": -np.inf, "d": np.float64("nan")}
    path = str(tmp_path / "verdicts.json")
    write_verdicts_json([Report(name="a", verdict="pass", values=values, tolerance=0.1)], path)
    with open(path, encoding="utf-8") as fh:
        json.loads(fh.read(), parse_constant=refuse)
    back = read_verdicts_json(path)[0]
    assert not back.passed
    assert math.isnan(back.values["a"]) and math.isnan(back.values["d"])
    assert back.values["b"] == math.inf and back.values["c"] == -math.inf
    assert [type(v) for v in back.values.values()] == [float] * 4
    assert back.tolerance == 0.1


def test_atomic_write_replaces_not_appends(tmp_path):
    path = str(tmp_path / "f.txt")
    atomic_write_text(path, "long old content\n")
    atomic_write_text(path, "new\n")
    assert open(path).read() == "new\n"
    # no temp droppings left behind
    assert os.listdir(tmp_path) == ["f.txt"]


def test_writers_create_directories(tmp_path):
    path = str(tmp_path / "deep" / "nested" / "f.csv")
    write_summary_csv([(1.0, "m", 2.0)], path)
    assert os.path.exists(path)
