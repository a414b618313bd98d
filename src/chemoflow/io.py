"""On-disk formats: the diagnostics CSV and the CNS2 binary snapshot.

CSV: fixed header, one row per record (the cadence ticks and the final
time), 17 significant digits so a round-trip reproduces every float64
bit-exactly.

Snapshot (little-endian): magic "CNS2", u32 version=1, u32 nx, u32 ny,
f64 lx, f64 ly, f64 t, then n (nx*ny f64, row-major), c (same),
ux ((nx+1)*ny), uy (nx*(ny+1)).
"""

from __future__ import annotations

import struct
from dataclasses import astuple
from typing import Sequence

import numpy as np

from .diagnostics import DiagnosticsRecord
from .grid import ScalarField, State, VectorField, make_grid

__all__ = [
    "CSV_HEADER",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "emit_timeseries",
    "parse_timeseries",
    "emit_snapshot",
    "read_snapshot",
    "snapshot_name",
    "SnapshotError",
]

CSV_HEADER = ",".join(DiagnosticsRecord.field_names())
assert CSV_HEADER == (
    "t,mass_n,c_max,c_min,n_max,div_u_max,E_u,enstrophy,I_logn,I_D2grad,"
    "I_Dlog,I_c4,I_c6,I_mix,I_cq,F,G,clamp_mass"
)

SNAPSHOT_MAGIC = b"CNS2"
SNAPSHOT_VERSION = 1
_HEADER_STRUCT = struct.Struct("<4sIIIddd")


class SnapshotError(ValueError):
    pass


def snapshot_name(t: float) -> str:
    """File name of the snapshot recorded at time t: t to 1e-6, zero-padded."""
    return f"snapshot_t{t:012.6f}.cns2"


def emit_timeseries(records: Sequence[DiagnosticsRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join(f"{v:.17g}" for v in astuple(r)))
    return "\n".join(lines) + "\n"


def parse_timeseries(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or mismatched CSV header")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(DiagnosticsRecord.field_names()):
            raise ValueError(f"bad CSV row: {ln!r}")
        out.append(DiagnosticsRecord(*(float(p) for p in parts)))
    return out


def emit_snapshot(state: State) -> bytes:
    g = state.n.grid
    header = _HEADER_STRUCT.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, g.nx, g.ny, g.lx, g.ly, state.t
    )
    parts = [header]
    for arr in (state.n.values, state.c.values, state.u.ux, state.u.uy):
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(parts)


def read_snapshot(blob: bytes) -> State:
    if len(blob) < _HEADER_STRUCT.size:
        raise SnapshotError("snapshot truncated before header")
    magic, version, nx, ny, lx, ly, t = _HEADER_STRUCT.unpack_from(blob)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(f"bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    grid = make_grid(nx, ny, lx, ly)
    sizes = [nx * ny, nx * ny, (nx + 1) * ny, nx * (ny + 1)]
    expected = _HEADER_STRUCT.size + 8 * sum(sizes)
    if len(blob) != expected:
        raise SnapshotError(f"snapshot length {len(blob)} != expected {expected}")
    arrays = []
    offset = _HEADER_STRUCT.size
    for count in sizes:
        arrays.append(np.frombuffer(blob, dtype="<f8", count=count, offset=offset).copy())
        offset += 8 * count
    n = ScalarField(grid, arrays[0].reshape(nx, ny))
    c = ScalarField(grid, arrays[1].reshape(nx, ny))
    u = VectorField(grid, arrays[2].reshape(nx + 1, ny), arrays[3].reshape(nx, ny + 1))
    return State(n, c, u, t)
