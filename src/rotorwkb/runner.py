"""Experiment orchestration: single runs, epsilon sweeps, comparisons.

run() executes one configured solver and leaves a self-describing
directory behind: observables CSV, field snapshots, and a manifest
listing every artifact with its checksum.  epsilon_sweep() drives the
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
from hashlib import sha256
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, serialize
from .core import (GridSpec, WaveField, boundary_max, integrate,
                   make_gaussian, make_vortex_init, sobolev_norm,
                   spectral_gradient, wkb_assemble)
from .hydro import HydroState, WKBState, cfl_limits, evolve_hydro, evolve_wkb
from .nls import evolve_nls
from .observables import (ObservableRecord, probability_current,
                          record_from_hydro, record_from_wavefield,
                          record_from_wkb, records_to_csv)
from .rays import QuadraticPhase, Ray, RayTrajectory, integrate_rays
from .snapshots import load_field, save_field

try:
    from importlib.metadata import version as _dist_version
    _VERSION = _dist_version("rotorwkb")
except Exception:
    _VERSION = "unknown"

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

def amplitude_field(cfg: RunConfig) -> np.ndarray:
    """The configured a_in sampled on the grid (complex)."""
    init, grid = cfg.initial, cfg.grid
    if init.kind == "gaussian":
        return make_gaussian(grid, center=init.center, width=init.width).astype(complex)
    if init.kind == "vortex":
        return make_vortex_init(grid, winding=init.winding, width=init.width)
    snap = load_field(init.path)
    if snap.grid != grid:
        raise ConfigError(f"[run].initial: file grid {snap.grid.points} x "
                          f"{snap.grid.half_extent} does not match configured grid")
    return snap.values


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
    if cfg.phase.kind == "zero":
        return np.zeros(grid.shape)
    if cfg.phase.kind == "quadratic":
        pts = np.stack(grid.meshes, axis=-1)
        return quadratic_phase(cfg).value(pts)
    snap = load_field(cfg.phase.path)
    if snap.grid != grid:
        raise ConfigError("[run].phase: file grid does not match configured grid")
    vals = snap.values
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
    if cfg.phase.kind == "zero":
        v = np.zeros((cfg.grid.dim,) + cfg.grid.shape)
    elif cfg.phase.kind == "quadratic":
        qp = quadratic_phase(cfg)
        pts = np.stack(cfg.grid.meshes, axis=-1)
        v = np.moveaxis(qp.gradient(pts), -1, 0)
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

def _sha256_file(path: Path) -> str:
    h = sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


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


def _check_cfl(cfg: RunConfig, state: WKBState):
    if cfg.dt is None:
        return
    adv, disp = cfl_limits(state)
    if cfg.dt > adv or cfg.dt > disp:
        raise ConfigError(f"[run].dt: {cfg.dt} violates the step bounds "
                          f"(advective {adv:.3e}, dispersive {disp:.3e})")


def run(cfg: RunConfig) -> RunResult:
    """Execute one configured run and write its artifact directory."""
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    t_wall = time.perf_counter()
    records: list[ObservableRecord] = []
    artifacts: list[Path] = []
    obs_count = 0

    def observing(record_of, snapshot_of, tag):
        def observer(t, state):
            nonlocal obs_count
            records.append(record_of(state))
            if cfg.snapshot_stride > 0 and obs_count % cfg.snapshot_stride == 0:
                path = outdir / f"snap_{obs_count:06d}.rsfw"
                save_field(path, snapshot_of(state), state.grid, _eps_of(state),
                           t, tag)
                artifacts.append(path)
            obs_count += 1
        return observer

    trajectories = None
    if cfg.solver == "nls":
        psi0 = build_wavefield(cfg)
        _save_initial(outdir, psi0.values, cfg.grid, cfg.sim.eps, "nls", artifacts)
        final = evolve_nls(psi0, T=cfg.T, dt=cfg.dt or NLS_DEFAULT_DT,
                           observer=observing(record_from_wavefield,
                                              lambda s: s.values, "nls"),
                           observer_stride=cfg.stride)
        final_values = final.values
    elif cfg.solver == "wkb":
        state0 = build_wkb_state(cfg)
        _check_cfl(cfg, state0)
        _save_initial(outdir, state0.amplitude(), cfg.grid, state0.eps,
                      "wkb-amplitude", artifacts)
        final = evolve_wkb(state0, T=cfg.T, dt=cfg.dt,
                           observer=observing(record_from_wkb,
                                              lambda s: s.amplitude(),
                                              "wkb-amplitude"),
                           observer_stride=cfg.stride,
                           sponge_strength=cfg.sponge)
        final_values = final.amplitude()
    elif cfg.solver == "hydro":
        h0 = build_hydro_state(cfg)
        shadow = WKBState.from_amplitude(np.sqrt(h0.rho), cfg.grid, cfg.sim, eps=0.0)
        _check_cfl(cfg, replace(shadow, v=h0.v.copy()))
        _save_initial(outdir, h0.rho.astype(complex), cfg.grid, 0.0,
                      "hydro-density", artifacts)
        final = evolve_hydro(h0, T=cfg.T, dt=cfg.dt,
                             observer=observing(record_from_hydro,
                                                lambda s: s.rho.astype(complex),
                                                "hydro-density"),
                             observer_stride=cfg.stride,
                             sponge_strength=cfg.sponge)
        final_values = np.sqrt(final.rho)
    elif cfg.solver == "rays":
        bundle = build_ray_bundle(cfg)
        trajectories = integrate_rays(bundle, dt=cfg.dt or RAYS_DEFAULT_DT,
                                      T=cfg.T, params=cfg.sim,
                                      store_stride=cfg.stride)
        final = trajectories
        final_values = None
        ray_path = outdir / "rays.csv"
        ray_path.write_text(_ray_csv(trajectories, cfg.grid.dim), encoding="utf-8")
        artifacts.append(ray_path)
    else:
        raise ConfigError(f"[run].solver: unknown solver {cfg.solver!r}")

    if final_values is not None and cfg.T > 0:
        path = outdir / "final.rsfw"
        save_field(path, final_values, cfg.grid, _eps_of(final),
                   getattr(final, "t", cfg.T), f"{cfg.solver}-final")
        artifacts.append(path)

    csv_path = outdir / "observables.csv"
    csv_path.write_text(records_to_csv(records), encoding="utf-8")
    artifacts.append(csv_path)

    if final_values is not None:
        leak = float(boundary_max(final_values))
    else:
        leak = None

    manifest = {
        "solver": cfg.solver,
        "config": serialize(cfg),
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__,
                     "rotorwkb": _VERSION},
        "wall_time_s": time.perf_counter() - t_wall,
        "boundary_leak": leak,
        "n_records": len(records),
        "artifacts": {p.name: _sha256_file(p) for p in sorted(artifacts)},
    }
    manifest_path = outdir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    return RunResult(config=cfg, outdir=outdir, records=records,
                     final=final, manifest=manifest)


def _eps_of(state) -> float:
    if isinstance(state, WaveField):
        return state.params.eps
    if isinstance(state, WKBState):
        return state.eps
    return 0.0


def _save_initial(outdir: Path, values, grid, eps, tag, artifacts):
    path = outdir / "initial.rsfw"
    save_field(path, np.asarray(values, dtype=complex), grid, eps, 0.0, tag)
    artifacts.append(path)


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


def _worker_count(n_jobs: int) -> int:
    """Worker processes for n_jobs tasks: ROTORWKB_THREADS when set, else
    the CPUs this process may run on (processes beyond them only queue)."""
    raw = os.environ.get("ROTORWKB_THREADS", "")
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise ConfigError(f"ROTORWKB_THREADS must be an integer, got {raw!r}")
        if cap < 1:
            raise ConfigError(f"ROTORWKB_THREADS must be >= 1, got {cap}")
    elif hasattr(os, "sched_getaffinity"):
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_jobs))


def _reference_task(cfg: RunConfig) -> tuple[WKBState, float]:
    """The eps = 0 WKB march of the sweep's data: (final state, wall time)."""
    t0 = time.perf_counter()
    ref = evolve_wkb(build_wkb_state(cfg, eps=0.0), T=cfg.T, dt=cfg.dt,
                     sponge_strength=cfg.sponge)
    return ref, time.perf_counter() - t0


def _member_task(cfg: RunConfig) -> tuple[object, float]:
    """One sweep member, a full run(): (final state, wall time)."""
    t0 = time.perf_counter()
    final = run(cfg).final
    return final, time.perf_counter() - t0


def epsilon_sweep(cfg: RunConfig, eps_list, mode: str = "both") -> SweepResult:
    """Convergence study against the eps = 0 limit of the same data.

    Per eps: an NLS run scores density (L1) and current (L2) against the
    limit (rho, rho v); a WKB run scores the complex amplitude (L2)
    against the limit amplitude.  The reference and every (eps, route)
    run are separate tasks on a pool of worker processes, capped by
    ROTORWKB_THREADS; metrics are reduced in the given (strictly
    decreasing) eps order.  A failed member drops its eps and raises
    SweepError after sweep.json is written; a failed reference raises
    its own exception and writes nothing.

    Workers start by the spawn method, which is safe in a caller that
    has threads; they import the caller's main module, so a script that
    calls this keeps its top-level code under `if __name__ == "__main__"`.
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

    base_out = Path(cfg.outdir)
    base_out.mkdir(parents=True, exist_ok=True)

    # imported here, not at module level: multiprocessing adds over 10 ms
    # to every import of the package, and only sweeps use it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    routes = [r for r in ("wkb", "nls") if mode in (r, "both")]
    grid = cfg.grid
    cell = grid.cell
    results: dict[float, tuple[dict[str, float], float]] = {}
    failure: tuple[float, Exception] | None = None
    with ProcessPoolExecutor(max_workers=_worker_count(1 + len(routes) * len(eps_list)),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
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
        v0 = ref.total_velocity()
        a0 = ref.amplitude()

        for eps in eps_list:
            out: dict[str, float] = {}
            wall = 0.0
            try:
                if "nls" in routes:
                    psi, took = futures["nls", eps].result()
                    wall += took
                    rho_e = psi.density()
                    out["density_l1"] = float(integrate(np.abs(rho_e - rho0), grid))
                    J = probability_current(psi)
                    diff2 = sum((J[j] - rho0 * v0[j]) ** 2 for j in range(grid.dim))
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
    """Norms of the difference of two saved fields, plus the
    phase-insensitive L2 distance min over theta of ||A - e^{i theta} B||."""
    sa, sb = load_field(path_a), load_field(path_b)
    if sa.grid != sb.grid:
        raise ValueError(f"header mismatch: {sa.grid.points} x {sa.grid.half_extent}"
                         f" vs {sb.grid.points} x {sb.grid.half_extent}")
    grid = sa.grid
    diff = sa.values - sb.values
    cell = grid.cell
    na2 = cell * float(np.sum(np.abs(sa.values) ** 2))
    nb2 = cell * float(np.sum(np.abs(sb.values) ** 2))
    inner = cell * complex(np.sum(np.conj(sa.values) * sb.values))
    gauge2 = max(na2 + nb2 - 2.0 * abs(inner), 0.0)
    return {
        "l1": float(integrate(np.abs(diff), grid)),
        "l2": float(np.sqrt(cell * np.sum(np.abs(diff) ** 2))),
        "linf": float(np.max(np.abs(diff))),
        "hs": float(sobolev_norm(diff, grid)),
        "gauge_l2": float(np.sqrt(gauge2)),
    }
