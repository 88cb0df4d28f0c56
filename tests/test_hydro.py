"""Finite-difference march of the WKB system and the limit hydrodynamics.

Oracles: the split-form advection conserves the discrete mass
identically (a summation-by-parts identity, checked at the
right-hand-side level); a constant drift translates the amplitude
rigidly; an isotropic expanding drift has the closed form
alpha(t, x) = alpha0(x / (1 + s t)) / (1 + s t); with no advection the
system is the free Schroedinger equation for the stencil Laplacian,
solvable exactly in Fourier space.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from rotorwkb import (
    GridSpec,
    HydroState,
    Nonlinearity,
    NumericalAbort,
    QuadraticPhase,
    SimParams,
    WKBState,
    assemble_matrices,
    cfl_limits,
    circulation,
    evolve_hydro,
    evolve_wkb,
    gradient_consistency,
    integrate,
    madelung_extract,
    make_gaussian,
    make_vortex_init,
    rhs_wkb,
)
from rotorwkb import hydro
from rotorwkb.hydro import d1, d2, drift_fields, gradient, laplacian
from rotorwkb.observables import record_from_hydro, record_from_wkb


def reference_rates(alpha, beta, v, drift, grid, params, eps):
    """The rates of (alpha, beta, v, phi) term by term from the public
    np.roll stencils d1, gradient and laplacian."""
    dim, h = grid.dim, grid.spacing
    w, coupling = drift_fields(drift, grid, params)
    adv = [v[j] + w[j] for j in range(dim)]

    def advect_split(u):
        return 0.5 * sum(adv[j] * d1(u, j, h[j]) + d1(adv[j] * u, j, h[j])
                         for j in range(dim))

    dalpha = -advect_split(alpha) - 0.5 * eps * laplacian(beta, grid)
    dbeta = -advect_split(beta) + 0.5 * eps * laplacian(alpha, grid)
    f_rho = params.nonlinearity.f(alpha * alpha + beta * beta)
    grad_f = gradient(f_rho, grid)
    dv = np.array([-(sum(adv[j] * d1(v[i], j, h[j]) + coupling[i, j] * v[j]
                         for j in range(dim)) + grad_f[i])
                   for i in range(dim)])
    dphi = -(sum(w[j] * v[j] for j in range(dim))
             + 0.5 * sum(v[j] * v[j] for j in range(dim)) + f_rho)
    return dalpha, dbeta, dv, dphi


def accumulate_phi(states):
    """Rebuild phi at the last stored time by the trapezoid rule on the
    phase rate of rhs_wkb, a route independent of the phi the march
    carries in-state."""
    if len(states) < 2:
        raise ValueError("need at least two stored states")
    phi = np.array(states[0].phi)
    prev_rate = rhs_wkb(states[0])[3]
    prev_t = states[0].t
    for st in states[1:]:
        rate = rhs_wkb(st)[3]
        phi = phi + 0.5 * (st.t - prev_t) * (prev_rate + rate)
        prev_rate, prev_t = rate, st.t
    return phi


# ---------- stencils ----------


def test_first_derivative_fourth_order():
    def err(n):
        grid = GridSpec.square(n, np.pi)
        x = grid.meshes[0]
        u = np.sin(3.0 * x)
        return np.max(np.abs(d1(u, 0, grid.spacing[0]) - 3.0 * np.cos(3.0 * x)))

    assert err(32) / err(64) == pytest.approx(16.0, rel=0.1)


def test_second_derivative_fourth_order():
    def err(n):
        grid = GridSpec.square(n, np.pi)
        x = grid.meshes[1]
        u = np.cos(2.0 * x)
        return np.max(np.abs(d2(u, 1, grid.spacing[1]) + 4.0 * np.cos(2.0 * x)))

    assert err(32) / err(64) == pytest.approx(16.0, rel=0.1)


# ---------- discrete conservation ----------


def test_mass_rate_vanishes_identically():
    # split-form advection: sum u w D1 u + sum u D1(w u) = 0 telescopes
    # for any advection field, so d/dt sum (alpha^2 + beta^2) = 0 exactly
    rng = np.random.default_rng(21)
    grid = GridSpec.square(64, 8.0)
    params = SimParams(eps=0.25, Omega=0.9, omega=(1.2, 0.8))
    X1, X2 = grid.meshes
    bump = make_gaussian(grid)
    alpha = bump * (1.0 + 0.3 * np.sin(np.pi / 8.0 * X1))
    beta = 0.2 * bump * np.cos(np.pi / 4.0 * X2)
    v = np.stack([0.1 * np.sin(np.pi / 8.0 * X2) + 0.05 * rng.standard_normal() ,
                  0.1 * np.cos(np.pi / 8.0 * X1)])
    drift = QuadraticPhase(np.array([[0.2, 0.1], [0.1, -0.1]]),
                           np.array([0.1, -0.05]))
    state = WKBState(alpha, beta, v, np.zeros(grid.shape), drift, 0.25, 0.0,
                     grid, params)
    da, db, _, _ = rhs_wkb(state)
    rate = 2.0 * np.sum(alpha * da + beta * db) * grid.cell
    scale = 2.0 * np.sum(np.abs(alpha * da) + np.abs(beta * db)) * grid.cell
    assert abs(rate) < 1e-13 * scale


@pytest.mark.parametrize("route", ["wkb", "hydro"])
def test_3d_march_conserves_mass(route):
    # the split-form advection conserves the discrete mass on 3d grids as
    # well; the sponge is off, so the march keeps it to RK4 roundoff
    grid = GridSpec.square(16, 6.0, dim=3)
    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0, 1.0))
    a0 = make_gaussian(grid)
    if route == "wkb":
        drift = QuadraticPhase(0.1 * np.eye(3), np.array([0.1, -0.05, 0.0]))
        out = evolve_wkb(WKBState.from_amplitude(a0, grid, params, drift=drift),
                         T=0.1, dt=0.005, sponge_strength=0.0)
        rho = out.density()
    else:
        h0 = HydroState(a0 ** 2, np.zeros((3,) + grid.shape), 0.0, grid, params)
        rho = evolve_hydro(h0, T=0.1, dt=0.005, sponge_strength=0.0).rho
    mass0 = integrate(a0 ** 2, grid)
    assert abs(integrate(rho, grid) - mass0) < 1e-12 * mass0


def test_constant_drift_translates_amplitude():
    grid = GridSpec.square(128, 8.0)
    params = SimParams(eps=0.25, Omega=0.0, omega=(0.0, 0.0),
                       nonlinearity=Nonlinearity.none())
    a0 = make_gaussian(grid)
    b = np.array([1.0, 0.5])
    state = WKBState.from_amplitude(a0, grid, params,
                                    drift=QuadraticPhase(np.zeros((2, 2)), b),
                                    eps=0.0)
    T = 0.25
    out = evolve_wkb(state, T=T, dt=0.02)
    expect = make_gaussian(grid, center=tuple(b * T))
    # the shifted target renormalizes over the same box; undo nothing,
    # both fields carry unit mass
    assert np.max(np.abs(out.alpha - expect)) < 2e-4
    assert np.max(np.abs(out.beta)) == 0.0  # eps = 0: no coupling at all
    # conservation is exact semi-discretely; RK4 leaves O(dt^4) residue
    assert integrate(out.density(), grid) == pytest.approx(1.0, rel=1e-8)


def test_isotropic_expansion_closed_form():
    # Sigma0 = s I with no trap: Sigma(t) = s/(1+st) I, and the amplitude
    # dilutes along the expanding characteristics
    grid = GridSpec.square(128, 8.0)
    params = SimParams(eps=0.25, Omega=0.0, omega=(0.0, 0.0),
                       nonlinearity=Nonlinearity.none())
    s = 0.5
    a0 = make_gaussian(grid)
    state = WKBState.from_amplitude(
        a0, grid, params, drift=QuadraticPhase(s * np.eye(2), np.zeros(2)),
        eps=0.0)
    T = 0.3
    out = evolve_wkb(state, T=T, dt=0.01)
    lam = 1.0 + s * T
    np.testing.assert_allclose(out.drift.Sigma, (s / lam) * np.eye(2),
                               atol=1e-10)
    X1, X2 = grid.meshes
    r2 = (X1 / lam) ** 2 + (X2 / lam) ** 2
    a_ref = make_gaussian(grid)[64, 64] * np.exp(
        -r2 / (2.0 * 0.5))  # default width^2 = 1/2, peak value reused
    expect = a_ref / lam
    assert np.max(np.abs(out.alpha - expect)) < 2e-4


def test_dispersion_matches_stencil_symbol():
    # v = w = 0: the system is a' = (i eps / 2) Lap_h a; diagonal in
    # Fourier space with the exact symbol of the five-point stencil
    grid = GridSpec.square(128, 8.0)
    params = SimParams(eps=0.25, Omega=0.0, omega=(0.0, 0.0),
                       nonlinearity=Nonlinearity.none())
    a0 = make_gaussian(grid)
    state = WKBState.from_amplitude(a0, grid, params)
    T = 0.2
    out = evolve_wkb(state, T=T, dt=0.002, sponge_strength=0.0)

    sym = np.zeros(grid.shape)
    for axis in range(2):
        h = grid.spacing[axis]
        theta = grid.wavenumber_mesh(axis) * h
        sym += (-2.0 * np.cos(2.0 * theta) + 32.0 * np.cos(theta) - 30.0) / (
            12.0 * h * h)
    ref = np.fft.ifft2(np.fft.fft2(a0) * np.exp(1j * 0.25 * T * sym / 2.0))
    got = out.alpha + 1j * out.beta
    assert np.max(np.abs(got - ref)) < 1e-5


def test_hydro_route_matches_wkb_route_at_zero_phase():
    grid = GridSpec.square(64, 8.0)
    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0))
    a0 = make_gaussian(grid)
    dt = 2e-3
    wkb = evolve_wkb(WKBState.from_amplitude(a0, grid, params, eps=0.0),
                     T=0.5, dt=dt)
    hyd = evolve_hydro(HydroState(a0**2, np.zeros((2,) + grid.shape), 0.0,
                                  grid, params), T=0.5, dt=dt)
    assert np.max(np.abs(wkb.density() - hyd.rho)) < 1e-12


def test_drift_fields_are_built_per_sample_on_wkb_and_once_on_hydro(monkeypatch):
    # the WKB drift moves, so each step samples it at its start, midpoint
    # (shared by stages 2 and 3) and end; the hydro drift is fixed and
    # built once.  Either route builds one more in its step-bound check.
    import rotorwkb.hydro as hydro

    builds = []
    real = hydro.drift_fields

    def counting(*args):
        builds.append(args[0])
        return real(*args)

    monkeypatch.setattr(hydro, "drift_fields", counting)
    grid = GridSpec.square(16, 4.0)
    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0))
    a0 = make_gaussian(grid)
    n, dt = 5, 0.01
    evolve_wkb(WKBState.from_amplitude(a0, grid, params), T=n * dt, dt=dt)
    assert len(builds) == 3 * n + 1
    builds.clear()
    evolve_hydro(HydroState(a0**2, np.zeros((2,) + grid.shape), 0.0, grid, params),
                 T=n * dt, dt=dt)
    assert len(builds) == 2


def test_phase_rate_is_formed_on_the_wkb_route_only(monkeypatch):
    # one phase rate per RK4 stage of evolve_wkb; the limit route
    # carries no phi and never forms one
    import rotorwkb.hydro as hydro

    calls = []
    real = hydro._phase_rate

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hydro, "_phase_rate", counting)
    grid = GridSpec.square(16, 4.0)
    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0))
    a0 = make_gaussian(grid)
    n, dt = 5, 0.01
    evolve_wkb(WKBState.from_amplitude(a0, grid, params), T=n * dt, dt=dt)
    assert len(calls) == 4 * n
    calls.clear()
    evolve_hydro(HydroState(a0**2, np.zeros((2,) + grid.shape), 0.0, grid, params),
                 T=n * dt, dt=dt)
    assert calls == []


@pytest.mark.parametrize("dim, eps", [(2, 0.25), (2, 0.0), (3, 0.25), (3, 0.0)])
def test_rhs_matches_the_reference_stencils_term_by_term(dim, eps):
    # random periodic data, a rotating frame and a non-diagonal drift, so
    # every term of every rate carries weight: dropping any one of them
    # moves its rate by far more than roundoff
    rng = np.random.default_rng(dim * 10 + int(eps > 0))
    grid = GridSpec.square(16 if dim == 2 else 8, 2.0, dim=dim)
    params = SimParams(eps=0.25, Omega=0.7, omega=(1.2, 0.8, 1.0)[:dim])
    raw = rng.standard_normal((dim, dim))
    drift = QuadraticPhase(0.5 * (raw + raw.T), rng.standard_normal(dim))
    alpha, beta, phi = (rng.standard_normal(grid.shape) for _ in range(3))
    v = rng.standard_normal((dim,) + grid.shape)
    state = WKBState(alpha, beta, v, phi, drift, eps, 0.0, grid, params)
    got = rhs_wkb(state)
    want = reference_rates(alpha, beta, v, drift, grid, params, eps)
    for name, g, r in zip(("alpha", "beta", "v", "phi"), got, want):
        assert g.shape == r.shape
        gap = np.max(np.abs(g - r))
        assert gap <= 1e-12 * np.max(np.abs(r)), f"d{name}: gap {gap:.3e}"


def test_hydro_step_is_rk4_of_the_reference_rates_with_the_trap_force():
    # one sponge-free evolve_hydro step against RK4 of the reference
    # rates at eps = 0, minus the trap force on v, in an anisotropic trap
    rng = np.random.default_rng(5)
    grid = GridSpec.square(16, 2.0)
    params = SimParams(eps=0.25, Omega=0.7, omega=(1.3, 0.6))
    rho0 = (1.0 + 0.3 * rng.standard_normal(grid.shape)) ** 2
    v0 = 0.5 * rng.standard_normal((2,) + grid.shape)
    force = np.stack([w * w * X for w, X in zip(params.omega, grid.meshes)])
    zero = QuadraticPhase.zero(2)

    def rates(alpha, beta, v):
        dalpha, dbeta, dv, _ = reference_rates(alpha, beta, v, zero, grid, params, 0.0)
        return dalpha, dbeta, dv - force

    h = 1e-3
    y = [np.sqrt(rho0), np.zeros(grid.shape), v0]
    k1 = rates(*y)
    k2 = rates(*[u + 0.5 * h * k for u, k in zip(y, k1)])
    k3 = rates(*[u + 0.5 * h * k for u, k in zip(y, k2)])
    k4 = rates(*[u + h * k for u, k in zip(y, k3)])
    alpha, beta, v = [u + (h / 6.0) * (a + 2 * b + 2 * c + d)
                      for u, a, b, c, d in zip(y, k1, k2, k3, k4)]
    out = evolve_hydro(HydroState(rho0, v0, 0.0, grid, params), T=h, dt=h,
                       sponge_strength=0.0)
    for got, want, start in ((out.rho, alpha * alpha + beta * beta, rho0),
                             (out.v, v, v0)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want - start))


def test_march_aborts_before_a_step_past_the_advective_bound():
    # a flat phase in the unit trap focuses at pi/2, so the drift speed
    # grows as tan t; the step passes the start-up check (no drift at
    # t = 0) and the march stops at the first step whose start state
    # violates the bound, with the step and time of that state
    grid = GridSpec.square(32, 4.0)
    params = SimParams(eps=0.25, Omega=0.0, omega=(1.0, 1.0))
    state = WKBState.from_amplitude(make_gaussian(grid), grid, params)
    dt = 0.01
    seen = []
    with pytest.raises(NumericalAbort, match="advective step bound") as info:
        evolve_wkb(state, T=1.4, dt=dt, observer=lambda t, s: seen.append(s))
    bounds = [cfl_limits(s)[0] for s in seen]
    assert min(bounds[:-1]) >= dt > bounds[-1]
    assert info.value.step == len(seen) == 116
    assert info.value.t == seen[-1].t == pytest.approx(1.15)


@pytest.mark.parametrize("route", ["wkb", "hydro"])
def test_march_buffers_leak_into_no_state_and_no_rerun(route):
    # the march steps its own buffers in place: a state handed to the
    # observer must keep its values after the march goes on, and a rerun
    # after another run must give the same bits
    grid = GridSpec.square(32, 4.0)
    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.2))
    a0 = make_gaussian(grid, center=(0.5, -0.25))
    if route == "wkb":
        drift = QuadraticPhase(np.array([[0.1, 0.05], [0.05, -0.1]]),
                               np.array([0.2, 0.0]))
        start = WKBState.from_amplitude(a0, grid, params, drift=drift)
        other = WKBState.from_amplitude(0.5 * a0, grid, params)
        march, names = evolve_wkb, ("alpha", "beta", "v", "phi")
    else:
        start = HydroState(a0 ** 2, np.zeros((2,) + grid.shape), 0.0, grid, params)
        other = HydroState(0.25 * a0 ** 2, np.zeros((2,) + grid.shape), 0.0,
                           grid, params)
        march, names = evolve_hydro, ("rho", "v")

    kept, copied = [], []
    first = march(start, T=0.1, dt=0.01, observer=lambda t, s: kept.append(s))
    march(other, T=0.1, dt=0.01)
    second = march(start, T=0.1, dt=0.01, observer=lambda t, s: copied.append(
        (s.t, [np.array(getattr(s, n)) for n in names])))
    assert len(kept) == len(copied) == 11
    assert not np.array_equal(kept[0].v, kept[-1].v)
    for state, (t, arrays) in zip(kept, copied):
        assert state.t == t
        for n, a in zip(names, arrays):
            np.testing.assert_array_equal(getattr(state, n), a)
    for n in names:
        np.testing.assert_array_equal(getattr(first, n), getattr(second, n))


@pytest.mark.parametrize("grid", [GridSpec.square(256, 8.0),
                                  GridSpec((6.0, 6.0, 6.0), (64, 64, 32))],
                         ids=["256x256", "64x64x32"])
@pytest.mark.parametrize("route", ["wkb", "wkb-limit", "hydro"])
def test_strips_give_the_bits_of_one_strip(route, grid, monkeypatch):
    # a budget of 2 cuts these grids into 2 strips, so each strip's halo
    # holds rows of the other strip and rows across the periodic seam; a
    # budget of 3 cuts the 3d grid unevenly, into 21, 21 and 22 rows, and
    # the middle strip takes both halos from neighbours (the 2d grid is
    # capped at 2 strips); a wrong halo row moves the bits of the first step
    dim = grid.dim
    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.4, 1.2)[:dim])
    a0 = make_gaussian(grid, center=(0.5, -0.25, 0.1)[:dim])
    Sigma = np.diag([0.1, -0.05, 0.02][:dim])
    Sigma[0, 1] = Sigma[1, 0] = 0.03
    drift = QuadraticPhase(Sigma, np.array([0.2, -0.1, 0.05][:dim]))
    if route == "hydro":
        v0 = np.stack([c * a0 for c in (0.3, -0.2, 0.1)[:dim]])
        start = HydroState(a0 ** 2, v0, 0.0, grid, params)
        march, names, record = evolve_hydro, ("rho", "v"), record_from_hydro
    else:
        start = WKBState.from_amplitude(a0, grid, params, drift=drift,
                                        eps=0.0 if route == "wkb-limit" else None)
        march, names, record = evolve_wkb, ("alpha", "beta", "v", "phi"), record_from_wkb

    def bits(state):
        return state.t, [getattr(state, n).tobytes() for n in names], record(state)

    def run(budget):
        monkeypatch.setenv("ROTORWKB_THREADS", str(budget))
        assert len(hydro._strips(grid)) == budget
        seen = []
        final = march(start, T=0.006, dt=0.002, observer_stride=2,
                      observer=lambda t, s: seen.append(bits(s)))
        return seen + [bits(final)]

    one = run(1)
    assert len(one) == 4
    for budget in (2, 3) if dim == 3 else (2,):
        assert run(budget) == one


def test_a_blowup_in_the_strips_is_an_abort_not_a_warning(monkeypatch):
    # numpy's error state is per thread: every strip runs under the
    # march's, so an overflow in any strip ends in NumericalAbort
    monkeypatch.setenv("ROTORWKB_THREADS", "2")
    grid = GridSpec.square(256, 8.0)
    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0))
    state = WKBState.from_amplitude(1e160 * make_gaussian(grid), grid, params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalAbort, match="non-finite samples after step 1"):
            evolve_wkb(state, T=0.004, dt=0.002)


def test_a_beta_that_alone_overflows_aborts_the_march():
    # at eps = 0 with no nonlinearity beta feeds no other row (no Lap
    # beta in d alpha, f(rho) = 0 in d v), so the march's finite check
    # must read beta itself: beta adv overflows where the drift is fast
    # (off the rotation axis) in the first step, alpha stays finite, and
    # the march stops there
    grid = GridSpec.square(32, 4.0)
    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0),
                       nonlinearity=Nonlinearity.none())
    a0 = make_gaussian(grid, center=(2.0, 1.0))
    state = WKBState(a0, 1e308 * a0 / a0.max(), np.zeros((2,) + grid.shape),
                     np.zeros(grid.shape), QuadraticPhase.zero(2), 0.0, 0.0, grid, params)
    with pytest.raises(NumericalAbort, match="non-finite samples after step 1"):
        evolve_wkb(state, T=0.03, dt=0.01)


def test_uniform_state_is_a_fixed_point_with_linear_phase_drop():
    # constant density, no trap, no rotation: nothing moves and
    # phi(t) = -f(rho0) t uniformly
    grid = GridSpec.square(32, 4.0)
    params = SimParams(eps=0.25, Omega=0.0, omega=(0.0, 0.0))
    alpha0 = np.full(grid.shape, 0.6)
    state = WKBState(alpha0, np.zeros(grid.shape),
                     np.zeros((2,) + grid.shape), np.zeros(grid.shape),
                     QuadraticPhase.zero(2), 0.25, 0.0, grid, params)
    T = 0.5
    out = evolve_wkb(state, T=T, dt=0.04)
    rho0 = 0.36
    np.testing.assert_array_equal(out.density(), np.full(grid.shape, rho0))
    # stencils on a constant leave one ulp of non-associativity dust
    assert np.max(np.abs(out.v)) < 1e-14
    assert np.max(np.abs(out.phi + rho0 * T)) < 1e-12


def test_affine_velocity_on_hydro_route_aborts():
    # an affine v jumps at the periodic seam; the march detects the
    # blowup and aborts instead of returning garbage
    grid = GridSpec.square(128, 8.0)
    params = SimParams(eps=0.25, Omega=0.0, omega=(1.0, 1.0))
    rho0 = make_gaussian(grid) ** 2
    X1, X2 = grid.meshes
    v0 = np.stack([0.3 * X1 + 0.1 * X2, -0.1 * X1])
    h0 = HydroState(rho0, v0, 0.0, grid, params)
    with pytest.raises(NumericalAbort):
        evolve_hydro(h0, T=3.0, dt=0.01)


def test_drift_caustic_aborts_the_wkb_march():
    # a flat phase in the unit trap focuses at pi/2: the drift path is read
    # off the exact flow before marching, and the run stops in the step
    # that holds the focus, [1.57, 1.58] at dt = 0.01
    grid = GridSpec.square(32, 4.0)
    params = SimParams(eps=0.25, Omega=0.0, omega=(1.0, 1.0))
    state = WKBState.from_amplitude(make_gaussian(grid), grid, params)
    with pytest.raises(NumericalAbort, match="caustic") as info:
        evolve_wkb(state, T=2.0, dt=0.01)
    assert info.value.step == 158
    assert info.value.t == pytest.approx(np.pi / 2.0, abs=0.005)


# ---------- hyperbolic structure ----------


def test_symmetrizer_makes_the_flux_matrices_symmetric():
    # Q A and Q B are symmetric at any state with f' > 0 and any direction
    rng = np.random.default_rng(7)
    grid = GridSpec.square(8, 2.0)
    for _ in range(50):
        params = SimParams(eps=0.25, Omega=float(rng.uniform(0.0, 2.0)),
                           omega=(1.0, 1.3))
        raw = rng.standard_normal((2, 2))
        drift = QuadraticPhase(raw + raw.T, rng.standard_normal(2),
                               float(rng.standard_normal()))
        state = WKBState(rng.standard_normal(grid.shape),
                         rng.standard_normal(grid.shape),
                         rng.standard_normal((2,) + grid.shape),
                         np.zeros(grid.shape), drift, 0.25, 0.0, grid, params)
        at = tuple(int(i) for i in rng.integers(0, 8, size=2))
        xi = rng.standard_normal(2)
        mats = assemble_matrices(state, xi, at)
        for F in (mats.Q @ mats.A, mats.Q @ mats.B):
            np.testing.assert_allclose(F, F.T, rtol=0.0,
                                       atol=1e-14 * np.max(np.abs(F)))
        # B and M carry the drift built on the grid, read at the same point
        w, coupling = drift_fields(drift, grid, params)
        w_xi = sum(w[j][at] * xi[j] for j in range(2))
        np.testing.assert_allclose(mats.B, w_xi * np.eye(4), rtol=1e-14, atol=1e-14)
        M = np.zeros((4, 4))
        M[0, 0] = M[1, 1] = 0.5 * np.trace(drift.Sigma)
        M[2:, 2:] = coupling
        np.testing.assert_allclose(mats.M, M, rtol=1e-14, atol=1e-14)

    linear = SimParams(eps=0.25, nonlinearity=Nonlinearity.none())
    state = WKBState.from_amplitude(make_gaussian(grid), grid, linear)
    with pytest.raises(ValueError, match="f' > 0"):
        assemble_matrices(state, (1.0, 0.0), (4, 4))


# ---------- step control ----------


def test_oversized_step_rejected():
    grid = GridSpec.square(64, 8.0)
    params = SimParams(eps=0.25)
    state = WKBState.from_amplitude(make_gaussian(grid), grid, params)
    with pytest.raises(ValueError, match="step bounds"):
        evolve_wkb(state, T=0.1, dt=0.1)
    with pytest.raises(ValueError, match="dt must be positive"):
        evolve_wkb(state, T=0.1, dt=-0.01)


def test_cfl_limits_values():
    grid = GridSpec.square(64, 8.0)
    params = SimParams(eps=0.5, Omega=0.0, omega=(1.0, 1.0))
    drift = QuadraticPhase(np.zeros((2, 2)), np.array([3.0, 4.0]))
    state = WKBState.from_amplitude(make_gaussian(grid), grid, params,
                                    drift=drift)
    adv, disp = cfl_limits(state)
    dx = 0.25
    assert adv == pytest.approx(0.5 * dx / 5.0, rel=1e-12)  # |w| = 5
    assert disp == pytest.approx(0.2 * dx * dx / 0.5, rel=1e-12)
    assert cfl_limits(replace(state, eps=0.0))[1] == np.inf


# ---------- state geometry ----------


def test_state_fields_and_assembly():
    grid = GridSpec.square(32, 4.0)
    params = SimParams(eps=0.25, Omega=0.7, omega=(1.0, 1.0))
    drift = QuadraticPhase(np.array([[0.2, 0.1], [0.1, -0.1]]),
                           np.array([0.1, -0.05]), 0.3)
    a0 = make_gaussian(grid)
    state = WKBState.from_amplitude(a0, grid, params, drift=drift)
    X1, X2 = grid.meshes
    S = (0.5 * (0.2 * X1**2 + 2 * 0.1 * X1 * X2 - 0.1 * X2**2)
         + 0.1 * X1 - 0.05 * X2 + 0.3)
    np.testing.assert_allclose(state.ray_phase_field(), S, atol=1e-13)
    # the observable velocity is v + grad S; the rotation drift -Omega Jx
    # belongs to the advection operator, not to the phase gradient
    w1 = 0.2 * X1 + 0.1 * X2 + 0.1
    w2 = 0.1 * X1 - 0.1 * X2 - 0.05
    vt = state.total_velocity()
    np.testing.assert_allclose(vt[0], w1, atol=1e-13)
    np.testing.assert_allclose(vt[1], w2, atol=1e-13)
    psi = state.to_wavefield()
    np.testing.assert_allclose(psi.values, a0 * np.exp(1j * S / 0.25),
                               atol=1e-13)
    np.testing.assert_allclose(state.density(), a0 * a0, atol=1e-15)


def test_state_eps_is_the_run_eps_or_zero():
    # the amplitude system is a family in eps whose eps = 0 member is the
    # limit system: a state carries its run's eps or 0, and nothing else,
    # so the wavefield it assembles is labelled with the eps it used
    grid = GridSpec.square(16, 4.0)
    params = SimParams(eps=0.25)
    a0 = make_gaussian(grid)
    assert WKBState.from_amplitude(a0, grid, params).eps == 0.25
    limit = WKBState.from_amplitude(a0, grid, params, eps=0.0)
    assert limit.eps == 0.0
    for bad in (0.125, -0.25, np.nan):
        with pytest.raises(ValueError, match=r"eps must be 0 or params.eps = 0.25"):
            WKBState.from_amplitude(a0, grid, params, eps=bad)
    with pytest.raises(ValueError, match="params.eps"):
        replace(limit, eps=0.5)


def test_gradient_consistency_measures_the_gap():
    grid = GridSpec.square(64, 8.0)
    params = SimParams(eps=0.25)
    phi = np.sin(np.pi / 8.0 * grid.meshes[0])
    v_exact = np.stack([d1(phi, 0, grid.spacing[0]),
                        d1(phi, 1, grid.spacing[1])])
    state = WKBState(make_gaussian(grid), np.zeros(grid.shape), v_exact, phi,
                     QuadraticPhase.zero(2), 0.25, 0.0, grid, params)
    assert gradient_consistency(state) == pytest.approx(0.0, abs=1e-15)
    off = WKBState(make_gaussian(grid), np.zeros(grid.shape),
                   v_exact + 0.01, phi, QuadraticPhase.zero(2), 0.25, 0.0,
                   grid, params)
    assert gradient_consistency(off) == pytest.approx(0.01, abs=1e-12)


def test_accumulated_phase_matches_carried_phase():
    grid = GridSpec.square(64, 8.0)
    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0))
    drift = QuadraticPhase(np.array([[0.1, 0.0], [0.0, -0.1]]),
                           np.array([0.1, 0.0]))
    state = WKBState.from_amplitude(make_gaussian(grid), grid, params,
                                    drift=drift)
    states = []
    out = evolve_wkb(state, T=0.2, dt=0.005,
                     observer=lambda t, s: states.append(s))
    acc = accumulate_phi(states)
    assert np.max(np.abs(acc - out.phi)) < 1e-5
    with pytest.raises(ValueError, match="two stored states"):
        accumulate_phi(states[:1])


# ---------- extraction and loop integrals ----------


def test_circulation_of_rigid_rotation_field():
    grid = GridSpec.square(64, 8.0)
    c = 0.3
    X1, X2 = grid.meshes
    v = np.stack([-c * X2, c * X1])
    for r in (1.0, 1.5):
        got = circulation(v, grid, radius=r)
        assert got == pytest.approx(2.0 * np.pi * c * r * r, rel=1e-12)
    with pytest.raises(ValueError, match="2d"):
        circulation(np.zeros((3, 8, 8, 8)), GridSpec.square(8, 2.0, dim=3))


def test_vortex_circulation_quantized():
    grid = GridSpec.square(128, 8.0)
    eps = 0.25
    params = SimParams(eps=eps, Omega=0.0, omega=(1.0, 1.0))
    from rotorwkb import WaveField

    psi = WaveField(make_vortex_init(grid, winding=1), 0.0, grid, params)
    fields = madelung_extract(psi)
    got = circulation(fields.v, grid, radius=1.0)
    assert got == pytest.approx(2.0 * np.pi * eps, rel=0.01)
