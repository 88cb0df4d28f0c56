"""Binary field snapshots, format RSFW2.

Layout: the magic bytes "RSFW2\\n", one ASCII header line, then the raw
samples.  The header holds, space separated: dim, the point count per
axis, the half extent per axis, eps, the time and the frame angle
(core.WaveField.angle), with floats printed in shortest round-trip form;
a tagged field carries one extra token.  run() writes six tags: "nls",
"nls-final", "wkb-amplitude", "wkb-final", "hydro-density" and
"hydro-final"; Snapshot.kind reads the route before the first '-'.
Samples follow in row-major order as little-endian float64 (re, im)
pairs, which is exactly a C-contiguous complex128 buffer, so a
write/read cycle is bit identical.  RSFW1, with no angle, reads at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import GridSpec

MAGIC = b"RSFW2\n"
MAGIC_V1 = b"RSFW1\n"  # read only, at angle 0


@dataclass(frozen=True)
class Snapshot:
    values: np.ndarray
    grid: GridSpec
    eps: float
    t: float
    tag: str | None = None
    angle: float = 0.0

    @property
    def kind(self) -> str | None:
        """The field's kind: its tag up to the first '-', which names the
        route (nls, wkb or hydro) on every file that run() writes; None
        when the file is untagged."""
        return self.tag.split("-")[0] if self.tag else None


def _check_header_values(eps: float, t: float, angle: float) -> None:
    if not (0 <= eps < math.inf and math.isfinite(t) and math.isfinite(angle)):
        raise ValueError(f"RSFW header needs a finite eps >= 0, a finite time and "
                         f"a finite angle, got eps = {eps}, t = {t}, angle = {angle}")


def save_field(path: str | Path, values: np.ndarray, grid: GridSpec,
               eps: float, t: float, tag: str | None = None, angle: float = 0.0) -> None:
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValueError(f"field shape {values.shape} does not match grid {grid.shape}")
    _check_header_values(eps, t, angle)
    tokens = [str(grid.dim)]
    tokens += [str(n) for n in grid.points]
    tokens += [repr(float(L)) for L in grid.half_extent]
    tokens += [repr(float(eps)), repr(float(t)), repr(float(angle))]
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
        if magic not in (MAGIC, MAGIC_V1):
            raise ValueError(f"{path}: not an RSFW snapshot (bad magic {magic!r})")
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
        angle = float(rest.pop(0)) if magic == MAGIC else 0.0
        (tag,) = rest or [None]  # at most one tag
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed RSFW header {header!r}") from exc
    try:
        _check_header_values(eps, t, angle)
        grid = GridSpec(half_extent, points)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    count = int(np.prod(points))
    if len(payload) != 16 * count:
        raise ValueError(
            f"{path}: payload holds {len(payload)} bytes, expected {16 * count}")
    values = np.frombuffer(payload, dtype="<c16").reshape(points).copy()
    return Snapshot(values, grid, eps, t, tag, angle)
