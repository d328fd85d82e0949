"""Deterministic output formats.

* Functional traces: CSV with a fixed, documented column order and
  17-significant-digit floats (lossless float64 round trip).
* Field snapshots: a 48-byte "GMSP" header followed by row-major
  float64 little-endian payload.
* 2d fields: 8-bit binary PGM with min-max scaling; the scaling bounds
  go to a sidecar text file so the image stays invertible.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .functionals import TRACE_COLUMNS, FunctionalTrace

SNAPSHOT_MAGIC = b"GMSP"
SNAPSHOT_VERSION = 1
# magic, u32 version, then five little-endian float64 words:
# dim, grid size axis 0, grid size axis 1 (1 when unused), field count, time
_HEADER = struct.Struct("<4sIddddd")


@dataclass(frozen=True)
class SnapshotHeader:
    dim: int
    shape: tuple[int, ...]
    field_count: int
    time: float

    def packed(self):
        n0 = self.shape[0]
        n1 = self.shape[1] if self.dim == 2 else 1
        return _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
                            float(self.dim), float(n0), float(n1),
                            float(self.field_count), float(self.time))

    @property
    def payload_items(self):
        return int(np.prod(self.shape)) * self.field_count


def write_trace(trace: FunctionalTrace, path) -> None:
    """CSV dump of a one-path trace: a line per observation time.

    The columns are :data:`~gmspde.functionals.TRACE_COLUMNS`.  A trace
    of several paths is rejected before the file is opened.
    """
    rows = len(trace.data[TRACE_COLUMNS[1]])
    if rows != 1:
        raise ValueError(f"a trace file holds one path; the trace has {rows}")
    write_csv(path, TRACE_COLUMNS, [trace.times] + [
        trace.data[name][0] for name in TRACE_COLUMNS[1:]])


def read_trace_csv(path):
    """Columns of a trace CSV keyed by name (for round-trip checks)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    data = np.array(rows, dtype=float) if rows else np.zeros((0, len(header)))
    return {name: data[:, i] for i, name in enumerate(header)}


def write_snapshot(fields, header: SnapshotHeader, path) -> None:
    """Binary snapshot of one or more nodal fields."""
    arrays = [np.asarray(f, dtype=float) for f in fields]
    if len(arrays) != header.field_count:
        raise ValueError(
            f"header says {header.field_count} fields, got {len(arrays)}"
        )
    for a in arrays:
        if a.shape != header.shape:
            raise ValueError(f"field shape {a.shape} != header {header.shape}")
    with open(path, "wb") as fh:
        fh.write(header.packed())
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def read_snapshot(path):
    """Parse a snapshot, validating magic, version and payload length."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated snapshot header")
    magic, version, dim, n0, n1, count, time = _HEADER.unpack_from(blob)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    if dim not in (1.0, 2.0):
        raise ValueError(f"{path}: dimension {dim:g} is not 1 or 2")
    for name, word in (("grid size", n0), ("grid size", n1),
                       ("field count", count)):
        if not (word >= 1 and word.is_integer()):
            raise ValueError(f"{path}: {name} {word:g} is not a positive "
                             "integer")
    dim = int(dim)
    shape = (int(n0),) if dim == 1 else (int(n0), int(n1))
    header = SnapshotHeader(dim=dim, shape=shape, field_count=int(count),
                            time=time)
    payload = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    if payload.size != header.payload_items:
        raise ValueError(
            f"{path}: payload has {payload.size} values, header implies "
            f"{header.payload_items}"
        )
    per = int(np.prod(shape))
    fields = [payload[i * per:(i + 1) * per].reshape(shape).copy()
              for i in range(header.field_count)]
    return header, fields


def write_image(nodal, path) -> None:
    """8-bit PGM of a field with min-max scaling and a bounds sidecar."""
    arr = np.asarray(nodal, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"images need a 1d or 2d field, got shape {arr.shape}")
    lo, hi = float(arr.min()), float(arr.max())
    if hi > lo:
        scaled = np.round((arr - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        scaled = np.zeros(arr.shape, dtype=np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(scaled.tobytes())
    with open(str(path) + ".bounds.txt", "w", encoding="utf-8") as fh:
        fh.write(f"min = {lo:.17g}\nmax = {hi:.17g}\n")


def write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_csv(path, header, columns) -> None:
    """Generic numeric CSV with 17-digit floats.

    Columns of different lengths are rejected before the file is opened.
    """
    columns = [np.asarray(c, dtype=float).tolist() for c in columns]
    lengths = sorted({len(c) for c in columns})
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in zip(*columns))
