"""On-disk formats: CSV series, a small binary field dump, atomic writes.

Every writer goes through a temp-file-plus-rename so a crashed run never
leaves a half-written artifact behind.

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
verdicts JSON   list of {name, verdict, values, tolerance, detail}.
"""

from __future__ import annotations

import json
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


def write_snapshots_csv(times, snapshots, path: str):
    lines = ["t,x,u"]
    for t, u in zip(times, snapshots):
        ts = _fmt(t)
        for x, v in zip(u.centers, u.values):
            lines.append(f"{ts},{_fmt(x)},{_fmt(v)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_snapshots_csv(path: str):
    """Inverse of write_snapshots_csv: list of (t, GridFunction)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "t,x,u":
            raise ValueError(f"{path}: expected header t,x,u, got {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    out = []
    by_t: dict = {}
    order = []
    for ts, xs, vs in rows:
        if ts not in by_t:
            by_t[ts] = ([], [])
            order.append(ts)
        by_t[ts][0].append(float(xs))
        by_t[ts][1].append(float(vs))
    for ts in order:
        xs, vs = by_t[ts]
        xs = np.asarray(xs)
        if len(xs) < 2:
            raise ValueError(f"{path}: snapshot at t={ts} has fewer than two cells")
        dx = xs[1] - xs[0]
        out.append((float(ts), grid_function(np.asarray(vs), xs[0] - dx / 2.0, dx)))
    return out


def write_mass_csv(traj, path: str):
    lines = ["t,mass,dirichlet_integral"]
    for (t, mass), (_, diss) in zip(traj.mass_history, traj.dissipation_history):
        lines.append(f"{_fmt(t)},{_fmt(mass)},{_fmt(diss)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_summary_csv(rows, path: str):
    """rows: iterable of (sweep_value, metric, value)."""
    lines = ["sweep_value,metric,value"]
    for sweep, metric, value in rows:
        lines.append(f"{_fmt(sweep)},{metric},{_fmt(value)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_kernel_csv(kernel, path: str):
    lines = ["x,J"]
    for k, s in zip(kernel.offsets, kernel.samples):
        lines.append(f"{_fmt(k * kernel.dx)},{_fmt(s)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_nwave_csv(u: GridFunction, path: str):
    lines = ["x,w"]
    for x, v in zip(u.centers, u.values):
        lines.append(f"{_fmt(x)},{_fmt(v)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_verdicts_json(reports, path: str):
    payload = [
        {
            "name": r.name,
            "verdict": r.verdict,
            "values": {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                       for k, v in r.values.items()},
            "tolerance": r.tolerance,
            "detail": r.detail,
        }
        for r in reports
    ]
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def read_verdicts_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return [
        Report(
            name=item["name"],
            verdict=item["verdict"],
            values=item.get("values", {}),
            tolerance=item.get("tolerance"),
            detail=item.get("detail", ""),
        )
        for item in payload
    ]
