"""Binary field snapshots, format RSFW1.

Layout: the magic bytes "RSFW1\\n", one ASCII header line, then the raw
samples.  The header holds, space separated: dim, the point count per
axis, the half extent per axis, eps, and the time, with floats printed
in shortest round-trip form; real field components carry one extra tag
token (e.g. "v1").  Samples follow in row-major order as little-endian
float64 (re, im) pairs, which is exactly a C-contiguous complex128
buffer, so a write/read cycle is bit identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import GridSpec

MAGIC = b"RSFW1\n"


@dataclass(frozen=True)
class Snapshot:
    values: np.ndarray
    grid: GridSpec
    eps: float
    t: float
    tag: str | None = None


def _check_eps_and_time(eps: float, t: float) -> None:
    if not (0 <= eps < math.inf and math.isfinite(t)):
        raise ValueError(f"RSFW1 header needs a finite eps >= 0 and a finite "
                         f"time, got eps = {eps}, t = {t}")


def save_field(path: str | Path, values: np.ndarray, grid: GridSpec,
               eps: float, t: float, tag: str | None = None) -> None:
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValueError(f"field shape {values.shape} does not match grid {grid.shape}")
    _check_eps_and_time(eps, t)
    tokens = [str(grid.dim)]
    tokens += [str(n) for n in grid.points]
    tokens += [repr(float(L)) for L in grid.half_extent]
    tokens += [repr(float(eps)), repr(float(t))]
    if tag is not None:
        if not tag or any(c.isspace() for c in tag):
            raise ValueError(f"snapshot tag must be a single token, got {tag!r}")
        tokens.append(tag)
    header = " ".join(tokens) + "\n"
    data = np.ascontiguousarray(values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header.encode("ascii"))
        fh.write(data.tobytes())


def load_field(path: str | Path) -> Snapshot:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not an RSFW1 snapshot (bad magic {magic!r})")
        header = fh.readline()
        payload = fh.read()
    try:
        header = header.decode("ascii").split()
        dim = int(header[0])
        points = tuple(int(tok) for tok in header[1:1 + dim])
        half_extent = tuple(float(tok) for tok in header[1 + dim:1 + 2 * dim])
        eps = float(header[1 + 2 * dim])
        t = float(header[2 + 2 * dim])
        rest = header[3 + 2 * dim:]
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed RSFW1 header {header!r}") from exc
    if len(rest) > 1:
        raise ValueError(f"{path}: malformed RSFW1 header {header!r}")
    tag = rest[0] if rest else None
    try:
        _check_eps_and_time(eps, t)
        grid = GridSpec(half_extent, points)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    count = int(np.prod(points))
    if len(payload) != 16 * count:
        raise ValueError(
            f"{path}: payload holds {len(payload)} bytes, expected {16 * count}")
    values = np.frombuffer(payload, dtype="<c16").reshape(points).copy()
    return Snapshot(values, grid, eps, t, tag)
