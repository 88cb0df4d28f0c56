"""Run configuration: a small sectioned key=value format.

Three sections, [sim], [grid], [run]; '#' starts a comment; values are
scalars or whitespace-separated tuples.  Unknown sections or keys are
errors, so typos never silently fall back to defaults.  serialize()
emits the full canonical form (every key, floats via repr), so
parse_config(serialize(cfg)) == cfg exactly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .core import GridSpec, Nonlinearity, SimParams

SOLVERS = ("nls", "wkb", "hydro", "rays")


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


@dataclass(frozen=True)
class InitialData:
    """Amplitude descriptor: a Gaussian bump or a vortex, both about
    center, or a saved complex field (file:PATH)."""

    kind: str = "gaussian"
    center: tuple[float, ...] = (0.0, 0.0)
    width: float = 2.0 ** -0.5
    winding: int = 1
    path: str = ""


@dataclass(frozen=True)
class PhaseSpec:
    """Carrier phase descriptor: zero, a quadratic x.Sx/2 + b.x + c
    (sigma0 row-major), or a saved real field (file:PATH)."""

    kind: str = "zero"
    sigma0: tuple[float, ...] = (0.0, 0.0, 0.0, 0.0)
    b0: tuple[float, ...] = (0.0, 0.0)
    c0: float = 0.0
    path: str = ""


@dataclass(frozen=True)
class RunConfig:
    sim: SimParams = field(default_factory=lambda: SimParams(
        eps=0.25, Omega=0.0, omega=(1.0, 1.0)))
    grid: GridSpec = field(default_factory=lambda: GridSpec.square(256, 8.0))
    solver: str = "nls"
    T: float = 1.0
    dt: float | None = None
    stride: int = 10
    outdir: str = "out"
    initial: InitialData = field(default_factory=InitialData)
    phase: PhaseSpec = field(default_factory=PhaseSpec)
    sponge: float = 20.0
    snapshot_stride: int = 0
    rays_per_axis: int = 5
    rays_extent: float = 2.0


_SECTIONS = ("sim", "grid", "run")
_KEYS = {
    "sim": ("eps", "Omega", "omega", "nonlinearity"),
    "grid": ("points", "half_extent"),
    "run": ("solver", "T", "dt", "stride", "outdir", "initial", "center",
            "width", "winding", "phase", "sigma0", "b0", "c0", "sponge",
            "snapshot_stride", "rays_per_axis", "rays_extent"),
}


def _fail(section: str, key: str, why: str):
    raise ConfigError(f"[{section}].{key}: {why}")


def _floats(section: str, key: str, raw: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(tok) for tok in raw.split())
    except ValueError:
        _fail(section, key, f"expected numbers, got {raw!r}")
    if not all(math.isfinite(v) for v in vals):
        _fail(section, key, f"must be finite, got {raw!r}")
    return vals


def _one_float(section: str, key: str, raw: str) -> float:
    vals = _floats(section, key, raw)
    if len(vals) != 1:
        _fail(section, key, f"expected one number, got {raw!r}")
    return vals[0]


def _one_int(section: str, key: str, raw: str) -> int:
    val = _one_float(section, key, raw)
    if val != int(val):
        _fail(section, key, f"expected an integer, got {raw!r}")
    return int(val)


def _split_sections(text: str) -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {}
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            out.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS[section]:
            _fail(section, key, "unknown key")
        if key in out[section]:
            _fail(section, key, "duplicate key")
        out[section][key] = value
    return out


def parse_config(text: str) -> RunConfig:
    """Parse and validate a sectioned key=value configuration."""
    sections = _split_sections(text)
    sim_kv = sections.get("sim", {})
    grid_kv = sections.get("grid", {})
    run_kv = sections.get("run", {})

    # [sim]
    eps = _one_float("sim", "eps", sim_kv.get("eps", "0.25"))
    if not eps > 0:
        _fail("sim", "eps", f"must be positive, got {eps}")
    Omega = _one_float("sim", "Omega", sim_kv.get("Omega", "0"))
    omega = _floats("sim", "omega", sim_kv.get("omega", "1 1"))
    nl_name = sim_kv.get("nonlinearity", "cubic")
    try:
        nonlinearity = Nonlinearity.from_name(nl_name)
    except ValueError as exc:
        _fail("sim", "nonlinearity", str(exc))
    try:
        sim = SimParams(eps=eps, Omega=Omega, omega=omega,
                        nonlinearity=nonlinearity)
    except ValueError as exc:
        raise ConfigError(f"[sim]: {exc}") from exc

    # [grid]
    points_raw = grid_kv.get("points", "256")
    pts = tuple(_one_int("grid", "points", tok) for tok in points_raw.split())
    if len(pts) == 1:
        pts = pts * sim.dim
    extents = _floats("grid", "half_extent", grid_kv.get("half_extent", "8"))
    if len(extents) == 1:
        extents = extents * len(pts)
    try:
        grid = GridSpec(half_extent=extents, points=pts)
    except ValueError as exc:
        raise ConfigError(f"[grid]: {exc}") from exc
    if grid.dim != sim.dim:
        raise ConfigError(f"[grid].points: grid is {grid.dim}d but "
                          f"[sim].omega gives {sim.dim}d")

    # [run]
    solver = run_kv.get("solver", "nls")
    if solver not in SOLVERS:
        _fail("run", "solver", f"must be one of {'/'.join(SOLVERS)}, got {solver!r}")
    T = _one_float("run", "T", run_kv.get("T", "1.0"))
    if T < 0:
        _fail("run", "T", "must be nonnegative")
    dt_raw = run_kv.get("dt", "auto")
    if dt_raw == "auto":
        dt = None
    else:
        dt = _one_float("run", "dt", dt_raw)
        if not dt > 0:
            _fail("run", "dt", "must be positive (or auto)")
    stride = _one_int("run", "stride", run_kv.get("stride", "10"))
    if stride < 1:
        _fail("run", "stride", "must be >= 1")
    snapshot_stride = _one_int("run", "snapshot_stride",
                               run_kv.get("snapshot_stride", "0"))
    if snapshot_stride < 0:
        _fail("run", "snapshot_stride", "must be >= 0")
    outdir = run_kv.get("outdir", "out")
    sponge = _one_float("run", "sponge", run_kv.get("sponge", "20.0"))
    if sponge < 0:
        _fail("run", "sponge", "must be >= 0")

    initial = _parse_initial(run_kv, sim.dim)
    phase = _parse_phase(run_kv, sim.dim)

    rays_per_axis = _one_int("run", "rays_per_axis",
                             run_kv.get("rays_per_axis", "5"))
    if rays_per_axis < 1:
        _fail("run", "rays_per_axis", "must be >= 1")
    rays_extent = _one_float("run", "rays_extent", run_kv.get("rays_extent", "2.0"))
    if not rays_extent > 0:
        _fail("run", "rays_extent", "must be positive")

    cfg = RunConfig(sim=sim, grid=grid, solver=solver, T=T, dt=dt,
                    stride=stride, outdir=outdir, initial=initial, phase=phase,
                    sponge=sponge, snapshot_stride=snapshot_stride,
                    rays_per_axis=rays_per_axis, rays_extent=rays_extent)
    _check_solver_constraints(cfg)
    return cfg


def _parse_initial(run_kv: dict[str, str], dim: int) -> InitialData:
    spec = run_kv.get("initial", "gaussian")
    kind, _, path = spec.partition(":")
    if kind not in ("gaussian", "vortex", "file"):
        _fail("run", "initial", f"must be gaussian, vortex, or file:PATH, got {spec!r}")
    if kind == "file":
        if not path:
            _fail("run", "initial", "file kind needs file:PATH")
        if not os.path.exists(path):
            _fail("run", "initial", f"no such file {path!r}")
    center = _floats("run", "center", run_kv.get("center", " ".join(["0"] * dim)))
    if len(center) != dim:
        _fail("run", "center", f"expected {dim} components")
    width = _one_float("run", "width", run_kv.get(
        "width", repr(2.0 ** -0.5) if kind == "gaussian" else "1.0"))
    if not width > 0:
        _fail("run", "width", "must be positive")
    winding = _one_int("run", "winding", run_kv.get("winding", "1"))
    if kind == "vortex" and winding == 0:
        _fail("run", "winding", "must be a nonzero integer")
    return InitialData(kind=kind, center=center, width=width,
                       winding=winding, path=path)


def _parse_phase(run_kv: dict[str, str], dim: int) -> PhaseSpec:
    spec = run_kv.get("phase", "zero")
    kind, _, path = spec.partition(":")
    if kind not in ("zero", "quadratic", "file"):
        _fail("run", "phase", f"must be zero, quadratic, or file:PATH, got {spec!r}")
    if kind == "file":
        if not path:
            _fail("run", "phase", "file kind needs file:PATH")
        if not os.path.exists(path):
            _fail("run", "phase", f"no such file {path!r}")
    sigma0 = _floats("run", "sigma0", run_kv.get("sigma0", " ".join(["0"] * dim * dim)))
    if len(sigma0) != dim * dim:
        _fail("run", "sigma0", f"expected {dim * dim} row-major entries")
    for i in range(dim):
        for j in range(i):
            if sigma0[i * dim + j] != sigma0[j * dim + i]:
                _fail("run", "sigma0", "must be symmetric")
    b0 = _floats("run", "b0", run_kv.get("b0", " ".join(["0"] * dim)))
    if len(b0) != dim:
        _fail("run", "b0", f"expected {dim} components")
    c0 = _one_float("run", "c0", run_kv.get("c0", "0"))
    return PhaseSpec(kind=kind, sigma0=sigma0, b0=b0, c0=c0, path=path)


def _check_solver_constraints(cfg: RunConfig):
    if cfg.solver in ("wkb", "hydro", "rays") and cfg.initial.kind == "vortex":
        _fail("run", "initial",
              f"vortex data carries a winding phase no single-valued phase "
              f"field represents; solver {cfg.solver!r} cannot take it")
    if cfg.solver in ("wkb", "rays") and cfg.phase.kind == "file":
        _fail("run", "phase",
              f"solver {cfg.solver!r} transports quadratic phases only; "
              f"use zero or quadratic")
    if cfg.initial.kind == "vortex" and cfg.grid.dim != 2:
        _fail("run", "initial", "vortex data is 2d only")


def serialize(cfg: RunConfig) -> str:
    """Canonical full text form; parse_config inverts it exactly."""
    sim, grid = cfg.sim, cfg.grid

    def join(vals):
        return " ".join(repr(float(v)) for v in vals)

    init_spec = cfg.initial.kind + (f":{cfg.initial.path}" if cfg.initial.path else "")
    phase_spec = cfg.phase.kind + (f":{cfg.phase.path}" if cfg.phase.path else "")
    lines = [
        "[sim]",
        f"eps = {sim.eps!r}",
        f"Omega = {sim.Omega!r}",
        f"omega = {join(sim.omega)}",
        f"nonlinearity = {sim.nonlinearity.name}",
        "",
        "[grid]",
        f"points = {' '.join(str(n) for n in grid.points)}",
        f"half_extent = {join(grid.half_extent)}",
        "",
        "[run]",
        f"solver = {cfg.solver}",
        f"T = {cfg.T!r}",
        f"dt = {'auto' if cfg.dt is None else repr(cfg.dt)}",
        f"stride = {cfg.stride}",
        f"outdir = {cfg.outdir}",
        f"initial = {init_spec}",
        f"center = {join(cfg.initial.center)}",
        f"width = {cfg.initial.width!r}",
        f"winding = {cfg.initial.winding}",
        f"phase = {phase_spec}",
        f"sigma0 = {join(cfg.phase.sigma0)}",
        f"b0 = {join(cfg.phase.b0)}",
        f"c0 = {cfg.phase.c0!r}",
        f"sponge = {cfg.sponge!r}",
        f"snapshot_stride = {cfg.snapshot_stride}",
        f"rays_per_axis = {cfg.rays_per_axis}",
        f"rays_extent = {cfg.rays_extent!r}",
    ]
    return "\n".join(lines) + "\n"


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def apply_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """Apply --section.key=value pairs on top of a parsed config.

    Overrides are merged into the config's canonical text, so every
    validation path is shared with parse_config.
    """
    sections = _split_sections(serialize(cfg))
    for dotted, value in overrides.items():
        if "." not in dotted:
            raise ConfigError(f"override {dotted!r} is not section.key")
        section, _, key = dotted.partition(".")
        if section not in _SECTIONS:
            raise ConfigError(f"override {dotted!r}: unknown section [{section}]")
        if key not in _KEYS[section]:
            _fail(section, key, "unknown key")
        sections[section][key] = value
    parts = []
    for section in _SECTIONS:
        parts.append(f"[{section}]")
        parts += [f"{key} = {sections[section][key]}" for key in _KEYS[section]]
    return parse_config("\n".join(parts))
