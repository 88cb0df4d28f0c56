"""Experiment orchestration: single runs, epsilon sweeps, comparisons.

run() executes one configured solver and leaves a self-describing
directory behind: observables CSV, the fields that one observer saves on
every field route (the start, snapshots, the final state), or rays.csv
and a caustic ledger for rays, and a manifest listing every artifact
with its checksum.  epsilon_sweep() drives the
semiclassical convergence study against an eps = 0 reference computed
from the same initial data; the reference and each (eps, route) member
run as independent tasks in worker processes, and the parent scores
them.  All file writes are deterministic except wall-clock entries in
the manifest and the sweep summary.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from functools import partial
from hashlib import sha256
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, _check_solver_constraints, serialize
from .core import (WaveField, affine_field, boundary_max, cpu_budget, gauge_distance,
                   integrate, make_gaussian, make_vortex_init, quadratic_grid,
                   sobolev_norm, spectral_gradient, turn_field, wkb_assemble)
from .hydro import HydroState, StepBoundError, WKBState, evolve_hydro, evolve_wkb
from .nls import evolve_nls
from .observables import (ObservableRecord, probability_current,
                          record_from_hydro, record_from_wavefield,
                          record_from_wkb, records_to_csv)
from .rays import QuadraticPhase, Ray, RayTrajectory, integrate_rays
from .snapshots import load_field, save_field

NLS_DEFAULT_DT = 1e-3
RAYS_DEFAULT_DT = 1e-3


@dataclass
class RunResult:
    config: RunConfig
    outdir: Path
    records: list[ObservableRecord]
    final: object
    manifest: dict


# ---------- initial-state assembly ----------

def _file_field(path, grid, key: str, refused: tuple[str, ...]) -> np.ndarray:
    """The samples of a saved field on the configured lab grid: a file
    at a nonzero angle (an NLS state in its frame) is turned to angle 0.
    A file of a refused kind (Snapshot.kind) is a config error of key."""
    snap = load_field(path)
    if snap.kind in refused:
        raise ConfigError(f"[run].{key}: {path} holds a {snap.tag!r} field, "
                          f"which [run].{key} does not take")
    if snap.grid != grid:
        raise ConfigError(f"[run].{key}: file grid {snap.grid.points} x "
                          f"{snap.grid.half_extent} does not match configured grid")
    return turn_field(snap.values, snap.grid, snap.angle)


def amplitude_field(cfg: RunConfig) -> np.ndarray:
    """The configured a_in sampled on the grid (complex)."""
    init, grid = cfg.initial, cfg.grid
    try:
        if init.kind == "gaussian":
            return make_gaussian(grid, center=init.center, width=init.width).astype(complex)
        if init.kind == "vortex":
            return make_vortex_init(grid, winding=init.winding, width=init.width,
                                    center=init.center)
    except ValueError as exc:  # no mass on the grid
        raise ConfigError(f"[run].center, [run].width: {exc}") from None
    return _file_field(init.path, grid, "initial", ("hydro",))  # rho is no amplitude


def quadratic_phase(cfg: RunConfig) -> QuadraticPhase:
    d = cfg.grid.dim
    if cfg.phase.kind == "zero":
        return QuadraticPhase.zero(d)
    if cfg.phase.kind != "quadratic":
        raise ConfigError("[run].phase: quadratic coefficients requested from "
                          f"a {cfg.phase.kind!r} phase")
    S = np.array(cfg.phase.sigma0, dtype=float).reshape(d, d)
    return QuadraticPhase(S, np.array(cfg.phase.b0), cfg.phase.c0)


def phase_field(cfg: RunConfig) -> np.ndarray:
    """The configured carrier phase sampled on the grid (real)."""
    grid = cfg.grid
    if cfg.phase.kind in ("zero", "quadratic"):
        qp = quadratic_phase(cfg)
        return quadratic_grid(grid, qp.Sigma, qp.b, qp.c)
    vals = _file_field(cfg.phase.path, grid, "phase", ("nls", "wkb", "hydro"))
    if np.max(np.abs(vals.imag)) > 1e-12 * max(1.0, np.max(np.abs(vals.real))):
        raise ConfigError("[run].phase: phase file must hold a real field")
    return vals.real.copy()


def build_wavefield(cfg: RunConfig) -> WaveField:
    return wkb_assemble(amplitude_field(cfg), phase_field(cfg), cfg.grid, cfg.sim)


def build_wkb_state(cfg: RunConfig, eps: float | None = None) -> WKBState:
    """The configured WKB start state at cfg.sim.eps, or at eps = 0 (the
    limit system) when eps = 0.0 is given."""
    return WKBState.from_amplitude(amplitude_field(cfg), cfg.grid, cfg.sim,
                                   drift=quadratic_phase(cfg), eps=eps)


def build_hydro_state(cfg: RunConfig) -> HydroState:
    amp = amplitude_field(cfg)
    rho = np.abs(amp) ** 2
    if cfg.phase.kind in ("zero", "quadratic"):
        qp = quadratic_phase(cfg)
        v = np.array(affine_field(qp.b, qp.Sigma, cfg.grid.meshes))
    else:
        grad = spectral_gradient(phase_field(cfg).astype(complex), cfg.grid)
        v = grad.real
    return HydroState(rho=rho, v=v, t=0.0, grid=cfg.grid, params=cfg.sim)


def build_ray_bundle(cfg: RunConfig) -> list[Ray]:
    """Regular lattice of ray starts on [-rays_extent, rays_extent]^d,
    all carrying the configured quadratic phase."""
    phase = quadratic_phase(cfg)
    d = cfg.grid.dim
    n = cfg.rays_per_axis
    axis = (np.linspace(-cfg.rays_extent, cfg.rays_extent, n)
            if n > 1 else np.array([0.0]))
    pts = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    return [Ray.from_phase(x0, phase) for x0 in pts]


# ---------- single runs ----------

def _ray_csv(trajectories: list[RayTrajectory], dim: int) -> str:
    cols = ["ray", "t"]
    cols += [f"x{j + 1}" for j in range(dim)] + [f"p{j + 1}" for j in range(dim)]
    cols += ["det_gamma", "tr_sigma", "action"]
    lines = [",".join(cols)]
    for i, traj in enumerate(trajectories):
        det = traj.det_gamma
        trs = np.trace(traj.sigma, axis1=-2, axis2=-1)
        for k in range(len(traj.times)):
            row = [str(i), f"{traj.times[k]:.17g}"]
            row += [f"{traj.x[k, j]:.17g}" for j in range(dim)]
            row += [f"{traj.p[k, j]:.17g}" for j in range(dim)]
            row += [f"{det[k]:.17g}", f"{trs[k]:.17g}", f"{traj.action[k]:.17g}"]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _evolve_fields(evolve, state0, cfg: RunConfig, observer):
    """evolve_wkb or evolve_hydro at the configured step; the solver
    checks dt against its step bounds, and a violation is a config error."""
    try:
        return evolve(state0, T=cfg.T, dt=cfg.dt, observer=observer,
                      observer_stride=cfg.stride, sponge_strength=cfg.sponge)
    except StepBoundError as exc:
        raise ConfigError(f"[run].dt: {exc}") from exc


def _saved_field(state) -> tuple[np.ndarray, float, float, np.ndarray]:
    """(values, eps, angle, amplitude) of a field state: what run() saves
    of it, and the field whose boundary modulus is the run's leak.  That is
    (psi, eps, angle, psi) as marched, (a, eps or 0, 0, a) or (rho, 0, 0, sqrt(rho))."""
    if isinstance(state, WaveField):
        return state.values, state.params.eps, state.angle, state.values
    if isinstance(state, WKBState):
        a = state.amplitude()
        return a, state.eps, 0.0, a
    return state.rho, 0.0, 0.0, np.sqrt(state.rho)


def run(cfg: RunConfig) -> RunResult:
    """Execute one configured run and write its artifact directory."""
    if cfg.solver in ("wkb", "hydro"):
        _checked_budget()  # the march's strips read it; refuse before any file
    outdir = Path(cfg.outdir)
    t_wall = time.perf_counter()
    records: list[ObservableRecord] = []
    artifacts: list[Path] = []

    def save(name, state, tag):
        values, eps, angle, amplitude = _saved_field(state)
        path = outdir / name
        save_field(path, values, state.grid, eps, state.t, tag, angle)
        artifacts.append(path)
        return amplitude

    # what differs between the field routes; march(observer=...) evolves state0
    if cfg.solver == "nls":
        state0, record_of, tag = build_wavefield(cfg), record_from_wavefield, "nls"
        march = partial(evolve_nls, state0, T=cfg.T, dt=cfg.dt or NLS_DEFAULT_DT,
                        observer_stride=cfg.stride)
    elif cfg.solver == "wkb":
        state0, record_of, tag = build_wkb_state(cfg), record_from_wkb, "wkb-amplitude"
        march = partial(_evolve_fields, evolve_wkb, state0, cfg)
    elif cfg.solver == "hydro":
        state0, record_of, tag = build_hydro_state(cfg), record_from_hydro, "hydro-density"
        march = partial(_evolve_fields, evolve_hydro, state0, cfg)
    elif cfg.solver == "rays":
        bundle = build_ray_bundle(cfg)
    else:
        raise ConfigError(f"[run].solver: unknown solver {cfg.solver!r}")

    outdir.mkdir(parents=True, exist_ok=True)  # only now: a refused build writes nothing
    if cfg.solver == "rays":
        trajectories = integrate_rays(bundle, dt=cfg.dt or RAYS_DEFAULT_DT,
                                      T=cfg.T, params=cfg.sim,
                                      store_stride=cfg.stride)
        final, leak = trajectories, None
        ray_path = outdir / "rays.csv"
        ray_path.write_text(_ray_csv(trajectories, cfg.grid.dim), encoding="utf-8")
        artifacts.append(ray_path)
        cut = [traj.caustic_time for traj in trajectories if traj.caustic]
        ledger = {"caustic_count": len(cut), "first_caustic_time": min(cut, default=None)}
    else:
        save("initial.rsfw", state0, tag)

        def observer(t, state):
            if cfg.snapshot_stride > 0 and len(records) % cfg.snapshot_stride == 0:
                save(f"snap_{len(records):06d}.rsfw", state, tag)
            records.append(record_of(state))

        final = march(observer=observer)
        amplitude = (save("final.rsfw", final, f"{cfg.solver}-final") if cfg.T > 0
                     else _saved_field(final)[3])
        leak = boundary_max(amplitude)

    csv_path = outdir / "observables.csv"
    csv_path.write_text(records_to_csv(records), encoding="utf-8")
    artifacts.append(csv_path)

    manifest = {
        "solver": cfg.solver,
        "config": serialize(cfg),
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__,
                     "rotorwkb": __version__},
        "wall_time_s": time.perf_counter() - t_wall,
        "boundary_leak": leak,
        "n_records": len(records),
        "artifacts": {p.name: sha256(p.read_bytes()).hexdigest()
                      for p in sorted(artifacts)},
    }
    if cfg.solver == "rays":
        manifest["ledger"] = ledger
    manifest_path = outdir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    return RunResult(config=cfg, outdir=outdir, records=records,
                     final=final, manifest=manifest)


# ---------- epsilon sweeps ----------

@dataclass
class SweepResult:
    eps: tuple[float, ...]
    errors: dict[str, tuple[float, ...]]
    slopes: dict[str, float]
    intercepts: dict[str, float]
    wall_times: tuple[float, ...]
    mode: str
    floor_limited: dict[str, bool]


class SweepError(RuntimeError):
    """A member run failed; completed metrics were preserved on disk."""


def _checked_budget() -> int:
    """core.cpu_budget, with a bad ROTORWKB_THREADS as a ConfigError."""
    try:
        return cpu_budget()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _one_strip_per_worker():
    """Sweep worker initializer: the workers share the caller's CPUs, so
    each one's budget is 1 and its marches run in one strip."""
    os.environ["ROTORWKB_THREADS"] = "1"


def _sweep_pool(n_jobs: int):
    """The sweep's pool of worker processes for n_jobs tasks, capped by
    the CPU budget.  A caller that runs one Python thread on Linux forks
    them, any other caller spawns them."""
    workers = min(_checked_budget(), n_jobs)
    # imported here, not at module level: multiprocessing adds over 10 ms
    # to every import of the package, and only sweeps use it
    import multiprocessing
    import threading
    from concurrent.futures import ProcessPoolExecutor

    # fork only where no other thread of the caller can hold a lock
    method = ("fork" if sys.platform == "linux" and threading.active_count() == 1
              else "spawn")
    return ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context(method),
                               initializer=_one_strip_per_worker)


def _reference_task(cfg: RunConfig) -> tuple[WKBState, float]:
    """The eps = 0 WKB march of the sweep's data: (final state, wall time)."""
    t0 = time.perf_counter()
    ref = _evolve_fields(evolve_wkb, build_wkb_state(cfg, eps=0.0), cfg, None)
    return ref, time.perf_counter() - t0


def _member_task(cfg: RunConfig) -> tuple[object, float]:
    """One sweep member, a full run(): (final state, wall time)."""
    t0 = time.perf_counter()
    final = run(cfg).final
    return final, time.perf_counter() - t0


def epsilon_sweep(cfg: RunConfig, eps_list, mode: str = "both") -> SweepResult:
    """Convergence study against the eps = 0 limit of the same data.

    Per eps: an NLS run scores density (L1) and current (L2) against the
    limit (rho, rho v) turned into the members' frame; a WKB run scores
    the complex amplitude (L2) against the limit amplitude.  The reference
    and every (eps, route) run are separate tasks on a pool of worker
    processes, capped by the CPU budget (ROTORWKB_THREADS, else the
    usable CPUs), each with a budget of 1; metrics are reduced in the
    given (strictly decreasing) eps order.  Before anything is written,
    the config passes a run's solver check for every route the sweep
    runs, the eps = 0 WKB reference's in every mode among them.  A failed
    member drops its eps and raises SweepError after sweep.json is
    written; a failed reference raises its own exception and writes
    nothing.

    A caller that runs one Python thread on Linux forks its workers, so
    they start with numpy and the package loaded; the pool launches them
    before its own manager thread, so no other thread can hold a lock at
    the fork.  A caller with threads, or on another platform, spawns them,
    and spawned workers import the caller's main module, so a script that
    calls this keeps its top-level code under `if __name__ == "__main__"`.
    Either way tasks and results cross as pickles.
    """
    eps_list = tuple(float(e) for e in eps_list)
    if len(eps_list) < 3:
        raise ConfigError(f"sweep needs >= 3 eps values, got {len(eps_list)}")
    if (not all(math.isfinite(e) for e in eps_list)
            or any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:]))
            or eps_list[-1] <= 0):
        raise ConfigError(f"sweep eps values must be finite, strictly decreasing "
                          f"and positive, got {list(eps_list)}")
    if mode not in ("nls", "wkb", "both"):
        raise ConfigError(f"sweep mode must be nls, wkb, or both, got {mode!r}")
    if not cfg.T > 0:
        raise ConfigError(f"[run].T: a sweep needs T > 0 (at T = 0 every member "
                          f"equals the reference), got {cfg.T!r}")

    routes = [r for r in ("wkb", "nls") if mode in (r, "both")]
    for route in dict.fromkeys(["wkb"] + routes):
        _check_solver_constraints(replace(cfg, solver=route))

    base_out = Path(cfg.outdir)
    grid = cfg.grid
    cell = grid.cell
    results: dict[float, tuple[dict[str, float], float]] = {}
    failure: tuple[float, Exception] | None = None
    with _sweep_pool(1 + len(routes) * len(eps_list)) as pool:
        # longest first: the reference and the WKB members, then the NLS ones
        ref_future = pool.submit(_reference_task, cfg)
        futures = {}
        for route in routes:
            for eps in eps_list:
                futures[route, eps] = pool.submit(_member_task, replace(
                    cfg, sim=replace(cfg.sim, eps=eps), solver=route,
                    snapshot_stride=0, outdir=str(base_out / f"{route}_eps_{eps:g}")))
        try:
            ref = ref_future.result()[0]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
        rho0 = ref.density()
        J0 = rho0 * ref.total_velocity()
        a0 = ref.amplitude()
        angle0 = 0.0  # the frame angle that rho0 and J0 are sampled at

        for eps in eps_list:
            out: dict[str, float] = {}
            wall = 0.0
            try:
                if "nls" in routes:
                    psi, took = futures["nls", eps].result()
                    wall += took
                    if psi.angle != angle0:  # once: the members share T and dt
                        # sampled at R(turn) x, components along the turned axes
                        turn, angle0 = psi.angle - angle0, psi.angle
                        rho0 = turn_field(rho0, grid, -turn).real
                        J0 = np.stack([turn_field(Jj, grid, -turn).real for Jj in J0])
                        c, s = math.cos(turn), math.sin(turn)
                        J0[0], J0[1] = c * J0[0] + s * J0[1], c * J0[1] - s * J0[0]
                    rho_e = psi.density()
                    out["density_l1"] = float(integrate(np.abs(rho_e - rho0), grid))
                    J = probability_current(psi)
                    diff2 = sum((J[j] - J0[j]) ** 2 for j in range(grid.dim))
                    out["current_l2"] = float(np.sqrt(cell * np.sum(diff2)))
                if "wkb" in routes:
                    state, took = futures["wkb", eps].result()
                    wall += took
                    diff = state.amplitude() - a0
                    out["amplitude_l2"] = float(np.sqrt(cell * np.sum(np.abs(diff) ** 2)))
            except Exception as exc:
                if failure is None:
                    failure = (eps, exc)
                continue
            results[eps] = (out, wall)

    done_eps = [e for e in eps_list if e in results]
    metric_names = sorted({k for e in done_eps for k in results[e][0]})
    errors = {name: tuple(results[e][0][name] for e in done_eps)
              for name in metric_names}
    walls = tuple(results[e][1] for e in done_eps)

    slopes, intercepts, floors = {}, {}, {}
    if len(done_eps) >= 2:
        log_eps = np.log(done_eps)
        for name, errs in errors.items():
            if any(not e > 0 for e in errs):
                raise SweepError(f"metric {name} produced a nonpositive error")
            coeff = np.polyfit(log_eps, np.log(errs), 1)
            slopes[name] = float(coeff[0])
            intercepts[name] = float(coeff[1])
            floors[name] = bool(max(errs) < 1e-7 or min(errs) < 1e-12)

    summary = {
        "mode": mode, "eps": list(done_eps),
        "errors": {k: list(v) for k, v in errors.items()},
        "slopes": slopes, "intercepts": intercepts,
        "floor_limited": floors, "wall_times_s": list(walls),
        "complete": failure is None,
    }
    base_out.mkdir(parents=True, exist_ok=True)  # no member may have made it
    (base_out / "sweep.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    if failure is not None:
        bad_eps, exc = failure
        raise SweepError(f"sweep aborted at eps = {bad_eps:g}: {exc}") from exc
    return SweepResult(eps=tuple(done_eps), errors=errors, slopes=slopes,
                       intercepts=intercepts, wall_times=walls, mode=mode,
                       floor_limited=floors)


# ---------- field comparison ----------

def compare_fields(path_a, path_b) -> dict[str, float]:
    """Norms of the difference of two saved fields, B turned to A's angle,
    plus the L2 distance min over theta of ||A - e^{i theta} B||
    (core.gauge_distance).  Tagged fields must be of one kind
    (Snapshot.kind); untagged fields are not checked."""
    sa, sb = load_field(path_a), load_field(path_b)
    if sa.kind and sb.kind and sa.kind != sb.kind:
        raise ValueError(f"{path_a} holds a {sa.tag!r} field and {path_b} a "
                         f"{sb.tag!r} field; compare needs two fields of one kind")
    if sa.grid != sb.grid:
        raise ValueError(f"header mismatch: {sa.grid.points} x {sa.grid.half_extent}"
                         f" vs {sb.grid.points} x {sb.grid.half_extent}")
    grid = sa.grid
    b = turn_field(sb.values, grid, sb.angle - sa.angle)
    diff = sa.values - b
    cell = grid.cell
    return {
        "l1": float(integrate(np.abs(diff), grid)),
        "l2": float(np.sqrt(cell * np.sum(np.abs(diff) ** 2))),
        "linf": float(np.max(np.abs(diff))),
        "hs": float(sobolev_norm(diff, grid)),
        "gauge_l2": gauge_distance(sa.values, b, cell),
    }
