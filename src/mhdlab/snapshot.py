"""Binary snapshot files: one time slice of the five nodal fields.

Layout (little-endian): magic "MHDW", u32 version = 1, u32 nx, u32 ny,
f64 lx, f64 ly, f64 t, then five float64 arrays (rho, u1, u2, b, theta),
each ny*nx values in row-major order (y outer, x inner).  Writing then
reading is bit-exact; anything malformed (including a header that names no
valid grid and non-finite values) is rejected with `SnapshotError`, without
producing a partial state.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import GridMismatchError, SnapshotError
from .grid import Grid, ScalarField, VectorField
from .solver import State

__all__ = ["write_snapshot", "read_snapshot", "MAGIC", "VERSION"]

MAGIC = b"MHDW"
VERSION = 1
_HEADER = struct.Struct("<4sIIIddd")
_FIELDS = 5


def write_snapshot(state: State, path):
    grid = state.grid
    header = _HEADER.pack(
        MAGIC, VERSION, grid.nx, grid.ny, grid.lx, grid.ly, state.t
    )
    arrays = (state.rho.values, state.u.vx, state.u.vy, state.b.values,
              state.theta.values)
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_snapshot(path) -> State:
    """Read a snapshot; the velocity carries no basis coefficients."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise SnapshotError(f"{path}: truncated header")
    magic, version, nx, ny, lx, ly, t = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotError(f"{path}: not a snapshot (bad magic {magic!r})")
    if version != VERSION:
        raise SnapshotError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + _FIELDS * nx * ny * 8
    if len(raw) != expected:
        raise SnapshotError(
            f"{path}: wrong payload size {len(raw)}, expected {expected}"
        )
    if not np.isfinite(t):
        raise SnapshotError(f"{path}: non-finite time {t}")
    try:
        grid = Grid(nx, ny, lx, ly)
    except GridMismatchError as exc:
        raise SnapshotError(f"{path}: bad grid in header: {exc}") from None
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    fields = data.reshape(_FIELDS, ny, nx).astype(float)
    if not np.all(np.isfinite(fields)):
        raise SnapshotError(f"{path}: non-finite field values")
    return State(
        t=t,
        rho=ScalarField(grid, fields[0]),
        b=ScalarField(grid, fields[3]),
        theta=ScalarField(grid, fields[4]),
        u=VectorField(grid, fields[1], fields[2]),
    )
