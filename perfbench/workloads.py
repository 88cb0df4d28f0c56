"""The four workloads: seeded inputs and the correctness check of one
operation's outputs.  Standard library only, so the checks do not rely
on the package they judge.

Grid, eps, Omega and dt are fixed by the workload; the seed moves only
the Gaussian centre (field routes) and the shooting launch points.
Run lengths (T, target count) keep one operation at a few seconds on a
2-core x86 box, so a run holds several operations to take a median of.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SIM = """[sim]
eps = 0.25
Omega = 0.5
omega = 1.0 1.0
nonlinearity = cubic
"""

EPS_SWEEP = (0.25, 0.125, 0.0625)
RAYS_PER_AXIS = 15
SHOOT = {"t": 0.3, "dt": 1e-3}
N_TARGETS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    route: str           # which runner builder set-up times: nls, wkb, sweep, rays
    argv: tuple[str, ...]  # rotorwkb CLI arguments; the config path goes second


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("nls-run", "nls", ("run-nls",)),
    Workload("wkb-run", "wkb", ("run-wkb",)),
    Workload("eps-sweep", "sweep",
             ("sweep", "--eps", ",".join(repr(e) for e in EPS_SWEEP), "--mode", "both")),
    Workload("rays-shoot", "rays", ("run-rays",)),
)}


def _center(rng: random.Random) -> str:
    # Gaussian near (1, 0.5), offset by up to 0.25 per axis
    return f"{round(1.0 + rng.uniform(-0.25, 0.25), 6)!r} {round(0.5 + rng.uniform(-0.25, 0.25), 6)!r}"


def config_text(workload: str, seed: int) -> str:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "nls-run":
        return SIM + f"""
[grid]
points = 256 256
half_extent = 8.0 8.0

[run]
T = 0.1
dt = 0.001
stride = 10
snapshot_stride = 5
outdir = out
initial = gaussian
center = {_center(rng)}
"""
    if workload == "wkb-run":
        return SIM + f"""
[grid]
points = 256 256
half_extent = 8.0 8.0

[run]
T = 0.02
dt = 0.001
stride = 10
outdir = out
initial = gaussian
center = {_center(rng)}
"""
    if workload == "eps-sweep":
        return SIM + f"""
[grid]
points = 128 128
half_extent = 8.0 8.0

[run]
T = 0.04
dt = 0.001
stride = 10
outdir = out
initial = gaussian
center = {_center(rng)}
"""
    if workload == "rays-shoot":
        return SIM + """
[grid]
points = 64 64
half_extent = 8.0 8.0

[run]
T = 0.1
dt = 0.0001
stride = 100
outdir = out
phase = quadratic
sigma0 = 0.2 0.1 0.1 -0.1
b0 = 0.3 -0.2
c0 = 0.1
rays_per_axis = 15
rays_extent = 2.0
"""
    raise KeyError(workload)


def launch_points(seed: int) -> list[list[float]]:
    rng = random.Random(f"rays-shoot:{seed}")
    return [[round(rng.uniform(-1.5, 1.5), 6), round(rng.uniform(-1.5, 1.5), 6)]
            for _ in range(N_TARGETS)]


# ---------- correctness of one operation ----------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _masses(outdir: Path) -> list[float]:
    with open(outdir / "observables.csv", newline="", encoding="utf-8") as fh:
        return [float(row["mass"]) for row in csv.DictReader(fh)]


def check_field_run(outdir: Path, max_mass_drift: float) -> str | None:
    """Manifest hashes match the files, and mass holds over the records."""
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    for name, digest in manifest["artifacts"].items():
        if _sha256(outdir / name) != digest:
            return f"{name}: sha256 differs from the manifest"
    masses = _masses(outdir)
    if len(masses) < 2 or len(masses) != manifest["n_records"]:
        return f"{len(masses)} observable rows for {manifest['n_records']} records"
    drift = max(abs(m - masses[0]) for m in masses) / masses[0]
    if not drift < max_mass_drift:
        return f"relative mass drift {drift:.3e} >= {max_mass_drift:g}"
    return None


def check_sweep(outdir: Path) -> str | None:
    """A4's verdict on a shorter sweep: both slopes >= 0.9, errors
    strictly decreasing, every member recorded."""
    summary = json.loads((outdir / "sweep.json").read_text(encoding="utf-8"))
    if not summary["complete"] or tuple(summary["eps"]) != EPS_SWEEP:
        return f"incomplete sweep: eps {summary['eps']}"
    for name in ("amplitude_l2", "density_l1"):
        errs = summary["errors"][name]
        if not all(a > b for a, b in zip(errs, errs[1:])):
            return f"{name} errors not strictly decreasing: {errs}"
        if not summary["slopes"][name] >= 0.9:
            return f"{name} slope {summary['slopes'][name]:.4f} < 0.9"
    return None


def _hamiltonian(x1, x2, p1, p2) -> float:
    # H = |p|^2/2 + V(x) - Omega x_perp . p, with omega = (1, 1), Omega = 0.5
    # and x_perp = (x2, -x1), as in the workload's [sim] section
    return 0.5 * (p1 * p1 + p2 * p2) + 0.5 * (x1 * x1 + x2 * x2) - 0.5 * (x2 * p1 - x1 * p2)


def check_rays(outdir: Path, targets: list[dict], shots: list[dict]) -> str | None:
    """A6's Hamiltonian conservation over the bundle, and each shot
    (S, grad S) against the forward ray that landed on its target."""
    energies: dict[str, list[float]] = {}
    with open(outdir / "rays.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            energies.setdefault(row["ray"], []).append(_hamiltonian(
                float(row["x1"]), float(row["x2"]), float(row["p1"]), float(row["p2"])))
    if len(energies) != RAYS_PER_AXIS ** 2:
        return f"rays.csv holds {len(energies)} rays"
    drift = max(max(abs(h - hs[0]) for h in hs) / max(1.0, abs(hs[0]))
                for hs in energies.values())
    if not drift < 1e-8:
        return f"relative Hamiltonian drift {drift:.3e} >= 1e-8"
    if len(shots) != len(targets):
        return f"{len(shots)} shots for {len(targets)} targets"
    for target, shot in zip(targets, shots):
        if not abs(shot["S"] - target["action"]) <= 1e-8 * max(1.0, abs(target["action"])):
            return f"shot S {shot['S']!r} vs action {target['action']!r} at {target['x']}"
        p_scale = max(1.0, math.hypot(*target["p"]))
        if not max(abs(g - p) for g, p in zip(shot["grad"], target["p"])) <= 1e-8 * p_scale:
            return f"shot grad S {shot['grad']} vs p {target['p']} at {target['x']}"
    return None


def check(workload: str, outdir: Path, targets: list[dict], shots: list[dict]) -> str | None:
    """None when the operation's outputs pass, else the reason they fail."""
    if workload == "nls-run":
        return check_field_run(outdir, 1e-12)
    if workload == "wkb-run":
        return check_field_run(outdir, 1e-10)
    if workload == "eps-sweep":
        return check_sweep(outdir)
    return check_rays(outdir, targets, shots)
