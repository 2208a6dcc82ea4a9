"""On-disk formats: CSV series, a small binary field dump, atomic writes.

Every writer goes through a temp-file-plus-rename so a crashed run never
leaves a half-written artifact behind.  write_results is the one writer
of a suite's or a study's results (run_suite and run_study call it); the
readers load back the documented formats of what the commands write
(`simulate`'s snapshots and final field, `verify`'s and `study`'s
verdicts).

Formats
-------
snapshots CSV   header ``t,x,u``; one row per (snapshot, cell); floats are
                written with repr so the round trip is exact.
summary CSV     header ``sweep_value,metric,value``.
mass CSV        header ``t,mass,dirichlet_integral`` per snapshot.
kernel CSV      header ``x,J``.
nwave CSV       header ``x,w``.
field binary    little-endian: magic ``NWGF`` (4 bytes), version uint32,
                n uint64, dx float64, x_min float64, then n float64 cell
                values.  Byte-exact round trip.
verdicts JSON   list of {name, verdict, values, tolerance, detail}; a value
                keeps its type (bool, int or float).  A non-finite float
                is the string "nan", "inf" or "-inf", so the file is
                strict JSON and a reloaded fail-closed Report fails again.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from .diagnostics import Report
from .grid import GridFunction, grid_function

__all__ = [
    "atomic_write_text",
    "write_field_bin",
    "read_field_bin",
    "write_snapshots_csv",
    "read_snapshots_csv",
    "write_mass_csv",
    "write_summary_csv",
    "write_kernel_csv",
    "write_nwave_csv",
    "write_verdicts_json",
    "read_verdicts_json",
    "write_results",
]

_MAGIC = b"NWGF"
_VERSION = 1
_HEADER = struct.Struct("<4sIQdd")


def _atomic(path: str, data: bytes):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str):
    _atomic(path, text.encode("utf-8"))


def write_field_bin(u: GridFunction, path: str):
    header = _HEADER.pack(_MAGIC, _VERSION, u.n, u.dx, u.x_min)
    payload = np.ascontiguousarray(u.values, dtype="<f8").tobytes()
    _atomic(path, header + payload)


def read_field_bin(path: str) -> GridFunction:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated field dump")
    magic, version, n, dx, x_min = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: not a field dump (bad magic {magic!r})")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + 8 * n
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(raw)}")
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).copy()
    return grid_function(values, x_min, dx)


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: str, header: str, rows):
    """header, then one line per row of already formatted fields."""
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_snapshots_csv(times, snapshots, path: str):
    rows = []
    for t, u in zip(times, snapshots):
        ts = _fmt(t)
        rows.extend((ts, _fmt(x), _fmt(v)) for x, v in zip(u.centers, u.values))
    _write_csv(path, "t,x,u", rows)


def read_snapshots_csv(path: str):
    """Inverse of write_snapshots_csv: list of (t, GridFunction)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "t,x,u":
            raise ValueError(f"{path}: expected header t,x,u, got {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    out = []
    by_t: dict = {}  # insertion-ordered: snapshots come back in file order
    for ts, xs, vs in rows:
        cells = by_t.setdefault(ts, ([], []))
        cells[0].append(float(xs))
        cells[1].append(float(vs))
    for ts, (xs, vs) in by_t.items():
        xs = np.asarray(xs)
        if len(xs) < 2:
            raise ValueError(f"{path}: snapshot at t={ts} has fewer than two cells")
        dx = xs[1] - xs[0]
        out.append((float(ts), grid_function(np.asarray(vs), xs[0] - dx / 2.0, dx)))
    return out


def write_mass_csv(traj, path: str):
    _write_csv(path, "t,mass,dirichlet_integral",
               ((_fmt(t), _fmt(mass), _fmt(diss))
                for (t, mass), (_, diss) in zip(traj.mass_history, traj.dissipation_history)))


def write_summary_csv(rows, path: str):
    """rows: iterable of (sweep_value, metric, value)."""
    _write_csv(path, "sweep_value,metric,value",
               ((_fmt(sweep), metric, _fmt(value)) for sweep, metric, value in rows))


def write_kernel_csv(kernel, path: str):
    _write_csv(path, "x,J", ((_fmt(k * kernel.dx), _fmt(s))
                             for k, s in zip(kernel.offsets, kernel.samples)))


def write_nwave_csv(u: GridFunction, path: str):
    _write_csv(path, "x,w", ((_fmt(x), _fmt(v)) for x, v in zip(u.centers, u.values)))


# the strings that stand for non-finite floats in a verdicts file
_NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _json_value(v):
    v = v.item() if isinstance(v, np.generic) else v
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)  # "nan", "inf" or "-inf"
    return v


def _from_json(v):
    return _NON_FINITE.get(v, v) if isinstance(v, str) else v


def write_verdicts_json(reports, path: str):
    payload = [
        {
            "name": r.name,
            "verdict": r.verdict,
            "values": {k: _json_value(v) for k, v in r.values.items()},
            "tolerance": _json_value(r.tolerance),
            "detail": r.detail,
        }
        for r in reports
    ]
    atomic_write_text(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")


def read_verdicts_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return [
        Report(
            name=item["name"],
            verdict=item["verdict"],
            values={k: _from_json(v) for k, v in item.get("values", {}).items()},
            tolerance=_from_json(item.get("tolerance")),
            detail=item.get("detail", ""),
        )
        for item in payload
    ]


def write_results(out_dir: str, name: str, reports, rows):
    """A suite's or a study's results in out_dir: {name}_verdicts.json,
    and {name}_summary.csv when rows is not empty."""
    write_verdicts_json(reports, os.path.join(out_dir, f"{name}_verdicts.json"))
    if rows:
        write_summary_csv(rows, os.path.join(out_dir, f"{name}_summary.csv"))
