"""Finite-difference march of the WKB system and the limit hydrodynamics.

Oracles: the split-form advection conserves the discrete mass
identically (a summation-by-parts identity, checked at the
right-hand-side level); a constant drift translates the amplitude
rigidly; an isotropic expanding drift has the closed form
alpha(t, x) = alpha0(x / (1 + s t)) / (1 + s t); with no advection the
system is the free Schroedinger equation for the stencil Laplacian,
solvable exactly in Fourier space.
"""

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
    accumulate_phi,
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
    wkb_assemble,
)
from rotorwkb.hydro import d1, d2


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
        mats = assemble_matrices(state, rng.standard_normal(2), at)
        for F in (mats.Q @ mats.A, mats.Q @ mats.B):
            np.testing.assert_allclose(F, F.T, rtol=0.0,
                                       atol=1e-14 * np.max(np.abs(F)))

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
