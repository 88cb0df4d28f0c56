"""Spectral splitting integrator for the rotating semiclassical NLS.

The substep checks evaluate each Fourier multiplier on a plane wave,
where the exact action is computable by hand, including the sign of the
rotation shear.  The free Gaussian and the rigid-rotation centroid give
closed-form full-evolution oracles; both are independent of the solver
internals.
"""

import numpy as np
import pytest

from rotorwkb import nls
from rotorwkb import (
    GridSpec,
    Nonlinearity,
    NumericalAbort,
    SimParams,
    WaveField,
    evolve_nls,
    integrate,
    make_gaussian,
    mass,
    potential_grid,
    step_kinetic_rotation_axis1,
    step_kinetic_rotation_axis2,
    step_potential_nonlinear,
    strang_step,
    wkb_assemble,
)


def _plane_wave(grid, k1, k2, params):
    X1, X2 = grid.meshes
    values = np.exp(1j * (k1 * X1 + k2 * X2))
    return WaveField(values, 0.0, grid, params)


def test_kinetic_rotation_axis1_multiplier_on_plane_wave():
    grid = GridSpec.square(32, 4.0)
    params = SimParams(eps=0.25, Omega=0.7, omega=(1.0, 1.0))
    dk = np.pi / 4.0
    k1, k2 = 3 * dk, -2 * dk
    psi = _plane_wave(grid, k1, k2, params)
    dt = 0.05
    out = step_kinetic_rotation_axis1(psi, dt)
    # exact action: multiply by exp(-i dt (eps k1^2/2 - Omega x2 k1))
    X2 = grid.meshes[1]
    expect = psi.values * np.exp(-1j * dt * (0.25 * k1**2 / 2.0 - 0.7 * X2 * k1))
    np.testing.assert_allclose(out.values, expect, atol=1e-13)


def test_kinetic_rotation_axis2_multiplier_on_plane_wave():
    grid = GridSpec.square(32, 4.0)
    params = SimParams(eps=0.25, Omega=0.7, omega=(1.0, 1.0))
    dk = np.pi / 4.0
    k1, k2 = -dk, 5 * dk
    psi = _plane_wave(grid, k1, k2, params)
    dt = 0.05
    out = step_kinetic_rotation_axis2(psi, dt)
    # opposite shear sign: exp(-i dt (eps k2^2/2 + Omega x1 k2))
    X1 = grid.meshes[0]
    expect = psi.values * np.exp(-1j * dt * (0.25 * k2**2 / 2.0 + 0.7 * X1 * k2))
    np.testing.assert_allclose(out.values, expect, atol=1e-13)


def test_potential_step_phase_and_modulus():
    grid = GridSpec.square(64, 8.0)
    params = SimParams(eps=0.5, Omega=0.0, omega=(2.0, 1.0))
    a = make_gaussian(grid)
    psi = WaveField(a.astype(complex), 0.0, grid, params)
    dt = 0.03
    out = step_potential_nonlinear(psi, dt)
    np.testing.assert_allclose(np.abs(out.values), a, atol=1e-14)
    V = potential_grid(grid, params.omega)
    rho = a * a  # cubic law: f(rho) = rho
    expect = a * np.exp(-1j * dt * (V + rho) / 0.5)
    np.testing.assert_allclose(out.values, expect, atol=1e-13)


def test_every_substep_preserves_mass():
    rng = np.random.default_rng(5)
    grid = GridSpec.square(32, 4.0)
    params = SimParams(eps=0.25, Omega=1.0, omega=(1.0, 2.0))
    values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    psi = WaveField(values, 0.0, grid, params)
    m0 = mass(psi)
    for stepper in (step_kinetic_rotation_axis1, step_kinetic_rotation_axis2,
                    step_potential_nonlinear, strang_step):
        m1 = mass(stepper(psi, 0.02))
        assert m1 == pytest.approx(m0, rel=1e-13)


def test_strang_step_is_the_documented_palindrome():
    rng = np.random.default_rng(6)
    grid = GridSpec.square(32, 4.0)
    params = SimParams(eps=0.25, Omega=0.9, omega=(1.0, 1.5))
    values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    psi = WaveField(values, 0.0, grid, params)
    dt = 0.01
    manual = step_potential_nonlinear(psi, 0.5 * dt)
    manual = step_kinetic_rotation_axis1(manual, 0.5 * dt)
    manual = step_kinetic_rotation_axis2(manual, dt)
    manual = step_kinetic_rotation_axis1(manual, 0.5 * dt)
    manual = step_potential_nonlinear(manual, 0.5 * dt)
    np.testing.assert_allclose(strang_step(psi, dt).values, manual.values,
                               atol=1e-14)


def test_free_gaussian_matches_dispersive_closed_form():
    # V = 0, f = 0, Omega = 0: the two kinetic multipliers commute and
    # the splitting is exact at any dt.  psi0 = exp(-|x|^2 / (2 s0))
    # evolves to (s0 / s)^(d/2) exp(-|x|^2 / (2 s)) with s = s0 + i eps t.
    grid = GridSpec.square(128, 8.0)
    eps = 0.5
    params = SimParams(eps=eps, Omega=0.0, omega=(0.0, 0.0),
                       nonlinearity=Nonlinearity.none())
    r2 = sum(X * X for X in grid.meshes)
    s0 = 1.0
    psi0 = WaveField(np.exp(-r2 / (2.0 * s0)), 0.0, grid, params)
    T = 0.4
    out = evolve_nls(psi0, T=T, dt=0.1)
    s = s0 + 1j * eps * T
    expect = (s0 / s) * np.exp(-r2 / (2.0 * s))
    np.testing.assert_allclose(out.values, expect, atol=1e-12)
    assert out.t == pytest.approx(T)


def test_rotation_moves_centroid_counterclockwise():
    # With a vanishing trap and eps -> 0 only the rotation term acts on
    # observables: d<x1>/dt = -Omega <x2>, d<x2>/dt = +Omega <x1>, so the
    # density centroid follows R(Omega t) applied to the initial center.
    grid = GridSpec.square(128, 8.0)
    params = SimParams(eps=1e-6, Omega=1.0, omega=(0.0, 0.0),
                       nonlinearity=Nonlinearity.none())
    a = make_gaussian(grid, center=(1.5, 0.0))
    psi0 = WaveField(a.astype(complex), 0.0, grid, params)
    T = np.pi / 4.0
    out = evolve_nls(psi0, T=T, dt=1e-3)
    rho = out.density()
    X1, X2 = grid.meshes
    c1 = integrate(X1 * rho, grid) / integrate(rho, grid)
    c2 = integrate(X2 * rho, grid) / integrate(rho, grid)
    assert c1 == pytest.approx(1.5 * np.cos(T), abs=1e-4)
    assert c2 == pytest.approx(1.5 * np.sin(T), abs=1e-4)


def test_second_order_in_time():
    grid = GridSpec.square(64, 8.0)
    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0))
    a = make_gaussian(grid, center=(1.0, 0.0))
    psi0 = WaveField(a.astype(complex), 0.0, grid, params)
    T = 0.5

    def err(dt):
        ref = evolve_nls(psi0, T=T, dt=2.5e-4)
        out = evolve_nls(psi0, T=T, dt=dt)
        return np.sqrt(grid.cell * np.sum(np.abs(out.values - ref.values) ** 2))

    ratio = err(2e-3) / err(1e-3)
    assert 3.5 < ratio < 4.5


def test_reversibility():
    grid = GridSpec.square(64, 8.0)
    params = SimParams(eps=0.25, Omega=1.0, omega=(1.0, 2.0))
    a = make_gaussian(grid, center=(0.5, -0.5))
    psi0 = WaveField(a.astype(complex), 0.0, grid, params)
    fwd = evolve_nls(psi0, T=0.3, dt=1e-3)
    back = evolve_nls(fwd, T=0.3, dt=-1e-3)
    assert np.max(np.abs(back.values - psi0.values)) < 1e-10
    assert back.t == pytest.approx(0.0, abs=1e-12)


def test_observer_cadence_and_remainder_step():
    grid = GridSpec.square(32, 4.0)
    params = SimParams(eps=0.25)
    psi0 = WaveField(make_gaussian(grid).astype(complex), 0.0, grid, params)
    dt = 1e-3
    T = 10.5 * dt  # not a multiple of dt: eleven equal steps of T / 11
    h = T / 11
    times = []
    out = evolve_nls(psi0, T=T, dt=dt,
                     observer=lambda t, p: times.append(t),
                     observer_stride=3)
    assert out.t == pytest.approx(T, abs=1e-15)
    np.testing.assert_allclose(
        times, [0.0, 3 * h, 6 * h, 9 * h, T], atol=1e-14)


def test_nonfinite_samples_abort():
    grid = GridSpec.square(32, 4.0)
    params = SimParams(eps=0.25)
    values = make_gaussian(grid).astype(complex)
    values[0, 0] = np.nan
    psi0 = WaveField(values, 0.0, grid, params)
    with pytest.raises(NumericalAbort):
        evolve_nls(psi0, T=0.01, dt=1e-3)


def test_mass_conserved_along_full_model_run():
    grid = GridSpec.square(64, 8.0)
    params = SimParams(eps=0.125, Omega=1.0, omega=(1.0, 1.0))
    a = make_gaussian(grid, center=(1.0, 0.5))
    X1, X2 = grid.meshes
    psi0 = wkb_assemble(a, 0.1 * X1 * X2, grid, params)
    masses = []
    evolve_nls(psi0, T=0.2, dt=1e-3,
               observer=lambda t, p: masses.append(mass(p)),
               observer_stride=10)
    drift = max(abs(m - masses[0]) for m in masses) / masses[0]
    assert drift < 1e-13


@pytest.mark.parametrize("dim, omega", [(2, (1.0, 1.5)), (3, (1.0, 1.5, 2.0))])
def test_merged_march_is_the_palindrome(dim, omega):
    # evolve_nls merges the closing and opening P halves of adjacent
    # steps; every state it hands out must still be the plain palindrome's.
    # The 3d case runs K1 along axes (0, 2).
    grid = GridSpec.square(32 if dim == 2 else 16, 4.0, dim=dim)
    params = SimParams(eps=0.25, Omega=0.9, omega=omega)
    X = grid.meshes
    a = make_gaussian(grid, center=(0.5, -0.25) + (0.0,) * (dim - 2))
    psi0 = wkb_assemble(a, 0.1 * X[0] * X[1] + 0.2 * X[0], grid, params)
    dt, stride = 1e-2, 3
    seen = {}
    out = evolve_nls(psi0, T=10 * dt, dt=dt, observer_stride=stride,
                     observer=lambda t, p: seen.setdefault(round(t / dt), p))
    assert sorted(seen) == [0, 3, 6, 9, 10]
    psi = psi0
    for step in range(1, 11):
        psi = strang_step(psi, dt)
        if step in seen:
            np.testing.assert_allclose(seen[step].values, psi.values, rtol=0, atol=1e-13)
    np.testing.assert_allclose(out.values, psi.values, rtol=0, atol=1e-13)
    m0 = mass(psi0)
    for p in list(seen.values()) + [out]:
        assert abs(mass(p) - m0) / m0 < 1e-13


@pytest.mark.parametrize("n, stride, interior", [(10, 3, 3), (10, 1, 9), (10, 20, 0),
                                                  (7, None, 0)])
def test_march_applies_one_potential_kick_per_step(monkeypatch, n, stride, interior):
    # n steps with k observed steps before the last take n + 1 + k
    # potential kicks: one per step, one extra opening half, and one
    # extra half wherever the march splits for the observer.
    calls = []
    real = nls._potential_nonlinear

    def counting(*args, **kwargs):
        calls.append(args[-1])
        return real(*args, **kwargs)

    monkeypatch.setattr(nls, "_potential_nonlinear", counting)
    grid = GridSpec.square(16, 4.0)
    params = SimParams(eps=0.25, Omega=0.5)
    psi0 = WaveField(make_gaussian(grid).astype(complex), 0.0, grid, params)
    dt = 1e-3
    observer = None if stride is None else (lambda t, p: None)
    evolve_nls(psi0, T=n * dt, dt=dt, observer=observer, observer_stride=stride or 1)
    assert len(calls) == n + 1 + interior
    assert sum(calls) == pytest.approx(n * dt, rel=1e-12)
