"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Each test pins a full configuration and tolerance, prints a single
"A<k>: PASS/FAIL (...)" line with the measured numbers, and then
asserts.  Run with -s to see all ten lines; a failing criterion shows
its line in the standard failure report.  Criteria exercise finished
library surface only, so a red here means the claimed property fails at
the stated tolerance, not that a helper is missing.
"""

import functools

import numpy as np
import pytest

from rotorwkb.config import InitialData, RunConfig
from rotorwkb.core import (GridSpec, SimParams, WaveField, gauge_distance, make_gaussian,
                           make_vortex_init, turn_field)
from rotorwkb.hydro import WKBState, evolve_hydro, evolve_wkb
from rotorwkb.nls import evolve_nls
from rotorwkb.observables import (MomentODEParams, am_relation_residual,
                                  circulation, dominant_frequency,
                                  isotropic_closed_form, madelung_extract, mass,
                                  record_from_wavefield)
from rotorwkb.rays import (QuadraticPhase, Ray, integrate_rays,
                           quadratic_phase_evolve)
from rotorwkb.runner import build_hydro_state, build_wkb_state, epsilon_sweep

from dataclasses import replace


def verdict(cid: str, ok: bool, detail: str) -> bool:
    print(f"{cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@functools.lru_cache(maxsize=None)
def rotating_gaussian_records(dt: float):
    """One second of rotating cubic dynamics, observed every 10 steps."""
    grid = GridSpec.square(128, 8.0)
    sim = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0))
    psi0 = WaveField(make_gaussian(grid, center=(1.0, 0.5)), 0.0, grid, sim)
    records = []
    evolve_nls(psi0, T=1.0, dt=dt,
               observer=lambda t, s: records.append(record_from_wavefield(s)),
               observer_stride=10)
    return records


def test_A1_mass_is_conserved_over_a_thousand_steps():
    records = rotating_gaussian_records(1e-3)
    m0 = records[0].mass
    drift = max(abs(r.mass - m0) for r in records) / m0
    assert verdict("A1", drift < 1e-12,
                   f"relative mass drift {drift:.3e}, tolerance 1e-12")


def test_A2_energy_drift_shrinks_at_second_order_in_dt():
    drifts = []
    for dt in (2e-3, 1e-3, 5e-4):
        records = rotating_gaussian_records(dt)
        e0 = records[0].energy
        drifts.append(max(abs(r.energy - e0) for r in records))
    r1 = drifts[0] / drifts[1]
    r2 = drifts[1] / drifts[2]
    ok = 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0
    assert verdict("A2", ok,
                   f"drift ratios {r1:.3f}, {r2:.3f}, window [3, 5]")


def _two_route_distance(points: int, dt: float) -> float:
    grid = GridSpec.square(points, 8.0)
    sim = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0))
    a0 = make_gaussian(grid, center=(1.0, 0.5))
    psi = evolve_nls(WaveField(a0, 0.0, grid, sim), T=0.5, dt=dt)
    state = evolve_wkb(WKBState.from_amplitude(a0, grid, sim), T=0.5, dt=dt)
    # psi is held in the march's rotating frame: the lab WKB field is
    # turned into it, and the distance is minimized over a global phase
    wkb = turn_field(state.to_wavefield().values, grid, -psi.angle)
    return gauge_distance(psi.values, wkb, grid.cell)


@pytest.mark.slow
def test_A3_spectral_and_wkb_routes_agree_and_refine():
    fine = _two_route_distance(256, 1e-3)
    coarse = _two_route_distance(128, 2e-3)
    ok = fine < 1e-3 and fine < coarse
    assert verdict("A3", ok,
                   f"gauge-projected L2 distance {fine:.3e} on the 256 grid, "
                   f"tolerance 1e-3; coarse-grid distance {coarse:.3e}")


@pytest.mark.slow
def test_A4_limit_errors_shrink_at_first_order_in_eps(tmp_path):
    cfg = replace(RunConfig(),
                  grid=GridSpec.square(256, 8.0),
                  sim=SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0)),
                  T=0.5, dt=1e-3,
                  initial=InitialData(center=(1.0, 0.5)),
                  outdir=str(tmp_path / "sweep"))
    result = epsilon_sweep(cfg, (0.25, 0.125, 0.0625, 0.03125), mode="both")
    amp = result.errors["amplitude_l2"]
    den = result.errors["density_l1"]
    decreasing = all(a > b for a, b in zip(amp, amp[1:])) and \
        all(a > b for a, b in zip(den, den[1:]))
    s_amp = result.slopes["amplitude_l2"]
    s_den = result.slopes["density_l1"]
    ok = s_amp >= 0.9 and s_den >= 0.9 and decreasing
    assert verdict("A4", ok,
                   f"slopes amplitude {s_amp:.3f}, density {s_den:.3f}, "
                   f"threshold 0.9; errors strictly decreasing: {decreasing}")


def test_A5_hydro_route_matches_the_wkb_limit_route(tmp_path):
    cfg = replace(RunConfig(),
                  grid=GridSpec.square(256, 8.0),
                  sim=SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0)),
                  initial=InitialData(center=(1.0, 0.5)),
                  outdir=str(tmp_path))
    hydro = evolve_hydro(build_hydro_state(cfg), T=0.5, dt=2e-3,
                         sponge_strength=cfg.sponge)
    wkb = evolve_wkb(build_wkb_state(cfg, eps=0.0), T=0.5, dt=2e-3,
                     sponge_strength=cfg.sponge)
    gap = float(np.max(np.abs(hydro.rho - wkb.density())))
    assert verdict("A5", gap < 1e-8,
                   f"sup-norm density gap {gap:.3e}, tolerance 1e-8")


def test_A6_ray_bundle_satisfies_the_flow_identities():
    rng = np.random.default_rng(1234)
    params = SimParams(eps=0.25, Omega=1.0, omega=(1.0, 1.0))
    rays = []
    for _ in range(100):
        # curvature eigenvalues above tan(pi/2 - T) focus inside the
        # horizon; 0.15-scale draws keep the whole bundle caustic-free
        raw = 0.15 * rng.standard_normal((2, 2))
        rays.append(Ray(x=rng.standard_normal(2), p=rng.standard_normal(2),
                        sigma=0.5 * (raw + raw.T), gamma=np.eye(2)))
    trajectories = integrate_rays(rays, dt=1e-4, T=1.0, params=params,
                                  store_stride=100)
    from rotorwkb.rays import hamiltonian
    gaps, drifts = [], []
    for traj in trajectories:
        gaps.append(traj.det_trace_gap())
        H = hamiltonian(traj.x, traj.p, params)
        drifts.append(float(np.max(np.abs(H - H[0])) / max(1.0, abs(H[0]))))
    gap, drift = max(gaps), max(drifts)
    ok = gap < 1e-8 and drift < 1e-8
    assert verdict("A6", ok,
                   f"100 rays: max Jacobian-determinant identity gap "
                   f"{gap:.3e}, max relative Hamiltonian drift {drift:.3e}, "
                   f"tolerance 1e-8")


def test_A7_flat_phase_curvature_follows_minus_tan_and_blows_up():
    params = SimParams(eps=0.25, Omega=0.0, omega=(1.0, 1.0))
    flat = QuadraticPhase(np.zeros((2, 2)), np.zeros(2), 0.0)
    traj = quadratic_phase_evolve(flat, dt=1e-4, T=1.4, params=params,
                                  store_stride=100)
    target = -np.tan(traj.times)[:, None, None] * np.eye(2)
    dev = float(np.max(np.abs(traj.Sigma - target)))

    blow = quadratic_phase_evolve(flat, dt=1e-4, T=1.7, params=params,
                                  store_stride=100)
    ok = dev < 1e-6 and blow.blown_up and blow.blowup_time < np.pi / 2 + 0.05
    assert verdict("A7", ok,
                   f"max curvature deviation {dev:.3e} up to t = 1.4, "
                   f"tolerance 1e-6; caustic flagged at "
                   f"t = {blow.blowup_time:.4f}, limit {np.pi / 2 + 0.05:.4f}")


def _offcenter_rotating_records(eps: float, points: int):
    grid = GridSpec.square(points, 8.0)
    sim = SimParams(eps=eps, Omega=1.0, omega=(1.0, 1.0))
    psi0 = WaveField(make_gaussian(grid, center=(1.5, 0.0)), 0.0, grid, sim)
    records = []
    evolve_nls(psi0, T=10.0, dt=2e-3,
               observer=lambda t, s: records.append(record_from_wavefield(s)),
               observer_stride=20)
    return sim, records


@pytest.mark.slow
def test_A8_isotropic_rotating_angular_momentum_scalings():
    # The moment dynamics of an off-centre cloud in an isotropic rotating
    # trap: X breathes at 2 omega whatever Omega is, (m, n, X) follow the
    # closed moment system, and m_eps is conserved at every eps.  The
    # moment bookkeeping is itself cross-checked in test_observables (the
    # closed form solves the moment rates, torque identity, isotropic
    # conservation), so the verdicts below reflect the measured dynamics.
    # The grid spacing scales with eps so that each run resolves its own
    # spectrum.
    sim8, recs8 = _offcenter_rotating_records(0.125, 256)
    times8 = np.array([r.t for r in recs8])
    series8 = {k: np.array([getattr(r, k) for r in recs8])
               for k in ("m_eps", "n", "X")}

    target = 2.0 * sim8.omega[0]
    freq = dominant_frequency(times8, series8["X"])
    freq_dev = abs(freq - target) / target
    ok_freq = freq_dev < 0.02

    p8 = MomentODEParams.from_record(recs8[0], sim8)
    closed = dict(zip(("m_eps", "n", "X"), isotropic_closed_form(times8, p8)))
    gaps = {k: float(np.max(np.abs(series8[k] - closed[k]))) for k in closed}
    gap_limit = 2.0 * sim8.eps
    ok_ode = all(g <= gap_limit for g in gaps.values())

    _, recs16 = _offcenter_rotating_records(0.0625, 512)
    res8 = float(np.max(np.abs(am_relation_residual(recs8))))
    res16 = float(np.max(np.abs(am_relation_residual(recs16))))
    res_limit = 5e-4
    ok_res = res8 <= res_limit and res16 <= res_limit

    ok = ok_freq and ok_ode and ok_res
    assert verdict(
        "A8", ok,
        f"frequency of X {freq:.4f} vs 2 omega = {target:.4f}, deviation "
        f"{100 * freq_dev:.2f}% (limit 2%); moment-system gap on m "
        f"{gaps['m_eps']:.2e}, n {gaps['n']:.2e}, X {gaps['X']:.2e} "
        f"(limit {gap_limit:.3f}); conservation residual {res8:.2e} at "
        f"eps = 1/8, {res16:.2e} at eps = 1/16 (limit {res_limit:.0e})")


def test_A9_vortex_carries_quantized_angular_momentum():
    grid = GridSpec.square(256, 8.0)
    eps = 0.25
    sim = SimParams(eps=eps, Omega=0.0, omega=(1.0, 1.0))
    psi = WaveField(make_vortex_init(grid, winding=1), 0.0, grid, sim)

    rel = abs(record_from_wavefield(psi).m_eps - eps * mass(psi)) / (eps * mass(psi))
    loop = circulation(madelung_extract(psi).v, grid, radius=1.0)
    loop_rel = abs(loop - 2.0 * np.pi * eps) / (2.0 * np.pi * eps)
    ok = rel < 1e-8 and loop_rel < 0.01
    assert verdict("A9", ok,
                   f"angular momentum vs eps * mass relative gap {rel:.3e}, "
                   f"tolerance 1e-8; core circulation relative gap "
                   f"{loop_rel:.3e}, tolerance 1e-2")


def test_A10_anisotropic_trap_torque_drives_the_angular_momentum():
    # The torque law dm/dt = (omega1^2 - omega2^2) <x1 x2> holds at every
    # Omega; here (omega1^2 - omega2^2) = 3.
    grid = GridSpec.square(256, 8.0)
    sim = SimParams(eps=0.125, Omega=0.0, omega=(2.0, 1.0))
    psi0 = WaveField(make_gaussian(grid, center=(1.0, 0.5)), 0.0, grid, sim)
    records = []
    evolve_nls(psi0, T=0.1, dt=2.5e-4,
               observer=lambda t, s: records.append(record_from_wavefield(s)),
               observer_stride=4)
    t = np.array([r.t for r in records])
    m = np.array([r.m_eps for r in records])
    xy = np.array([r.xy for r in records])

    fd = (m[2:] - m[:-2]) / (t[2:] - t[:-2])
    torque = 3.0 * xy[1:-1]
    rel = float(np.max(np.abs(fd - torque)) / np.max(np.abs(torque)))
    assert verdict("A10", rel < 1e-3,
                   f"relative gap between dm/dt and "
                   f"3<x1 x2> is {rel:.3e}, tolerance 1e-3")
