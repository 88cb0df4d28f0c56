"""Mass, energy, angular momentum, moments, and the moment ODE layer.

Analytic oracles: Gaussian densities have known quadratic moments, a
plane wave has kinetic energy eps^2 |k|^2 / 2, a winding-m vortex has
angular momentum eps m per unit mass, and the rigid velocity field
c(-x2, x1) carries limit angular momentum c <|x|^2>.

The run-based checks pin the exact transport identities dX/dt = 2n
and dm/dt = (omega1^2 - omega2^2) <x1 x2>; the second holds at any eps
and makes m constant in an isotropic trap regardless of the rotation
rate, which is the m-equation of the moment system.
"""

from dataclasses import replace

import numpy as np
import pytest

from rotorwkb import (
    GridSpec,
    HydroState,
    MomentODEParams,
    Nonlinearity,
    ObservableRecord,
    QuadraticPhase,
    SimParams,
    WaveField,
    WKBState,
    am_relation_residual,
    angular_momentum,
    dominant_frequency,
    energy,
    evolve_nls,
    integrate,
    integrate_isotropic_moments,
    isotropic_closed_form,
    limit_angular_momentum,
    make_gaussian,
    make_vortex_init,
    mass,
    moment_ode_rhs,
    moments,
    probability_current,
    record_from_hydro,
    record_from_wavefield,
    record_from_wkb,
    records_from_csv,
    records_to_csv,
    wkb_assemble,
)
from rotorwkb.observables import CSV_HEADER, moments_density


def _gauss_density(grid, center=(0.0, 0.0)):
    # rho = exp(-|x - c|^2) / pi: unit mass, per-axis variance 1/2
    X1, X2 = grid.meshes
    return np.exp(-((X1 - center[0]) ** 2 + (X2 - center[1]) ** 2)) / np.pi


def test_density_moments_of_shifted_gaussian():
    grid = GridSpec.square(128, 8.0)
    c = (1.5, -0.5)
    rho = _gauss_density(grid, c)
    n, X, xy = moments_density(rho, None, grid)
    assert n == 0.0
    assert X == pytest.approx(1.0 + c[0] ** 2 + c[1] ** 2, rel=1e-10)
    assert xy == pytest.approx(c[0] * c[1], abs=1e-10)
    # n with a uniform velocity u is centroid . u times the mass
    u = np.array([0.7, -0.2])
    v = np.stack([np.full(grid.shape, u[0]), np.full(grid.shape, u[1])])
    n2, _, _ = moments_density(rho, v, grid)
    assert n2 == pytest.approx(c[0] * u[0] + c[1] * u[1], rel=1e-10)


def test_plane_wave_energy():
    grid = GridSpec.square(64, 4.0)
    params = SimParams(eps=0.5, Omega=0.3, omega=(0.0, 0.0),
                       nonlinearity=Nonlinearity.none())
    X1, X2 = grid.meshes
    dk = 2.0 * np.pi / 8.0
    k = (3 * dk, -2 * dk)
    values = np.exp(1j * (k[0] * X1 + k[1] * X2)) / 8.0  # unit mass
    psi = WaveField(values, 0.0, grid, params)
    assert mass(psi) == pytest.approx(1.0, rel=1e-13)
    # the box [-L, L) is half open, so the lattice mean of each
    # coordinate is -h/2 and the rotation term picks it up exactly
    mu = -grid.spacing[0] / 2.0
    expect = (0.5 * 0.5**2 * (k[0] ** 2 + k[1] ** 2)
              - 0.5 * 0.3 * (k[0] * mu - k[1] * mu))
    assert energy(psi) == pytest.approx(expect, rel=1e-12)


def test_trapped_gaussian_energy_closed_form():
    # a = C exp(-|x|^2), unit mass: kinetic eps^2, trap 1/4,
    # interaction 1/(2 pi); the rotation term vanishes for real data
    grid = GridSpec.square(128, 8.0)
    eps = 0.5
    params = SimParams(eps=eps, Omega=0.8, omega=(1.0, 1.0))
    a = make_gaussian(grid)
    psi = WaveField(a.astype(complex), 0.0, grid, params)
    expect = eps**2 + 0.25 + 1.0 / (2.0 * np.pi)
    assert energy(psi) == pytest.approx(expect, rel=1e-10)


def test_probability_current_of_plane_phase():
    # psi = a exp(i k . x / eps): J = eps Im(conj(psi) grad psi) = rho k
    grid = GridSpec.square(64, 8.0)
    eps = 0.25
    a = make_gaussian(grid)
    kvec = (0.5, -0.25)
    X1, X2 = grid.meshes
    psi = wkb_assemble(a, kvec[0] * X1 + kvec[1] * X2, grid,
                       SimParams(eps=eps))
    J = probability_current(psi)
    np.testing.assert_allclose(J[0], a * a * kvec[0], atol=1e-9)
    np.testing.assert_allclose(J[1], a * a * kvec[1], atol=1e-9)


def test_vortex_angular_momentum_quantized():
    grid = GridSpec.square(128, 8.0)
    eps = 0.25
    params = SimParams(eps=eps, Omega=0.0, omega=(1.0, 1.0))
    for winding in (1, -2):
        psi = WaveField(make_vortex_init(grid, winding), 0.0, grid, params)
        assert angular_momentum(psi) == pytest.approx(eps * winding, rel=1e-9)


def test_limit_angular_momentum_of_rigid_field():
    grid = GridSpec.square(128, 8.0)
    rho = _gauss_density(grid)
    c = 0.4
    X1, X2 = grid.meshes
    v = np.stack([-c * X2, c * X1])
    # m = -int rho (x2 v1 - x1 v2) = c <|x|^2> = c * 1
    assert limit_angular_momentum(rho, v, grid) == pytest.approx(c, rel=1e-10)


def test_wavefunction_moments_match_density_route():
    grid = GridSpec.square(64, 8.0)
    eps = 0.25
    a = make_gaussian(grid, center=(1.0, 0.5))
    X1, X2 = grid.meshes
    psi = wkb_assemble(a, 0.3 * X1, grid, SimParams(eps=eps))
    n, X, xy = moments(psi)
    rho = psi.density()
    v = np.stack([np.full(grid.shape, 0.3), np.zeros(grid.shape)])
    n_ref, X_ref, xy_ref = moments_density(rho, v, grid)
    assert n == pytest.approx(n_ref, rel=1e-8)
    assert X == pytest.approx(X_ref, rel=1e-12)
    assert xy == pytest.approx(xy_ref, rel=1e-12)


# ---------- records ----------


def test_record_validation_and_csv_round_trip():
    r = ObservableRecord(t=0.5, mass=1.0, energy=0.7, m_eps=0.1, n=0.0,
                         X=1.25, xy=-0.3)
    text = records_to_csv([r])
    assert text.splitlines()[0] == CSV_HEADER
    back = records_from_csv(text)
    assert back == [r]
    assert records_to_csv(back) == text  # byte-stable round trip
    with pytest.raises(ValueError):
        records_from_csv("t,mass\n0,1\n")
    with pytest.raises(ValueError):
        ObservableRecord(t=0.0, mass=-1.0, energy=0.0, m_eps=0.0, n=0.0,
                         X=0.0, xy=0.0)
    with pytest.raises(ValueError):
        ObservableRecord(t=0.0, mass=np.nan, energy=0.0, m_eps=0.0, n=0.0,
                         X=0.0, xy=0.0)


def _rotating_state():
    grid = GridSpec.square(64, 8.0)
    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.5))
    X1, X2 = grid.meshes
    return wkb_assemble(make_gaussian(grid, center=(1.0, 0.5)),
                        0.1 * X1 * X2 + 0.3 * X1, grid, params)


def test_record_equals_the_quantities_taken_one_at_a_time():
    psi = _rotating_state()
    n, X, xy = moments(psi)
    expect = ObservableRecord(t=psi.t, mass=mass(psi), energy=energy(psi),
                              m_eps=angular_momentum(psi), n=n, X=X, xy=xy)
    assert record_from_wavefield(psi) == expect  # the same bits, not approx


def test_record_takes_one_spectral_gradient(monkeypatch):
    import rotorwkb.observables as observables

    calls = []
    original = observables.spectral_gradient

    def counting(values, grid):
        calls.append(grid)
        return original(values, grid)

    monkeypatch.setattr(observables, "spectral_gradient", counting)
    record_from_wavefield(_rotating_state())
    assert len(calls) == 1


def test_limit_wkb_record_is_the_hydro_record():
    grid = GridSpec.square(64, 8.0)
    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.5))
    drift = QuadraticPhase(np.array([[0.2, 0.1], [0.1, -0.1]]), np.array([0.3, -0.2]))
    X1, X2 = grid.meshes
    state = replace(WKBState.from_amplitude(make_gaussian(grid, center=(1.0, 0.5)),
                                            grid, params, drift=drift, eps=0.0),
                    v=np.stack([0.1 * X2, -0.05 * X1]), t=0.25)
    hydro = HydroState(state.density(), state.total_velocity(), state.t, grid, params)
    assert record_from_wkb(state) == record_from_hydro(hydro)


# ---------- moment ODE layer ----------


def test_moment_ode_rhs_hand_values():
    p = MomentODEParams(Omega=1.0, omega=(1.0, 1.0), E0=1.3, m0=0.2,
                        n0=0.4, X0=2.0)
    assert p.isotropic
    mdot, ndot = moment_ode_rhs(m=0.2, n=0.4, X=2.0, xy=0.3, p=p)
    assert mdot == pytest.approx(0.0)     # isotropic: no trap torque
    assert ndot == pytest.approx(-1.8)    # 2(E0 - Omega m) - 2 omega^2 X

    q = MomentODEParams(Omega=0.5, omega=(2.0, 1.0), E0=1.0, m0=0.0,
                        n0=0.0, X0=1.0)
    assert not q.isotropic
    assert q.delta == pytest.approx(0.6)
    assert q.omega_perp_sq == pytest.approx(2.5)
    mdot, ndot = moment_ode_rhs(m=0.0, n=0.2, X=1.0, xy=0.1, p=q,
                                weighted_x2=5.0)
    assert mdot == pytest.approx(3.0 * 0.1)  # (omega1^2 - omega2^2) xy
    assert ndot == pytest.approx(2.0 * 1.0 - 10.0)
    with pytest.raises(ValueError, match="anisotropic"):
        moment_ode_rhs(0.0, 0.0, 1.0, 0.0, q)


def test_isotropic_closed_form_matches_rk4():
    for Omega, w in ((1.0, 1.0), (2.5, 1.5)):
        p = MomentODEParams(Omega=Omega, omega=(w, w), E0=1.3, m0=0.2,
                            n0=0.4, X0=2.0)
        ts, m, n, X = integrate_isotropic_moments(p, T=10.0)
        m_cf, n_cf, X_cf = isotropic_closed_form(ts, p)
        np.testing.assert_allclose(m, m_cf, atol=1e-9)
        np.testing.assert_allclose(n, n_cf, atol=1e-9)
        np.testing.assert_allclose(X, X_cf, atol=1e-9)
        # X breathes at 2 omega, whatever the rotation rate
        assert dominant_frequency(ts, X) == pytest.approx(2.0 * w, rel=1e-3)
    with pytest.raises(ValueError, match="isotropic"):
        integrate_isotropic_moments(
            MomentODEParams(1.0, (2.0, 1.0), 1.0, 0.0, 0.0, 1.0), T=1.0)


def test_am_relation_residual_conventions():
    # constant m_eps under a breathing X: the conservation law holds
    recs = [ObservableRecord(t=float(t), mass=1.0, energy=1.0, m_eps=0.2,
                             n=0.0, X=1.0 + t, xy=0.0)
            for t in (0.0, 0.5, 1.0)]
    np.testing.assert_allclose(am_relation_residual(recs), 0.0, atol=1e-14)
    # a drifting m_eps shows as its drift m_eps(t) - m_eps(0) = t / 2
    drifting = [replace(r, m_eps=0.2 + 0.5 * r.t) for r in recs]
    np.testing.assert_allclose(am_relation_residual(drifting),
                               [0.0, 0.25, 0.5], atol=1e-14)


def test_dominant_frequency_recovers_tone():
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 20.0, 2001)
    series = 0.7 * np.cos(2.37 * t + 0.4) + 0.01 * rng.standard_normal(t.size)
    assert dominant_frequency(t, series) == pytest.approx(2.37, abs=2e-3)


# ---------- transport identities along NLS runs ----------


def test_variance_rate_is_twice_the_dilation_moment():
    grid = GridSpec.square(128, 8.0)
    params = SimParams(eps=0.25, Omega=0.7, omega=(1.0, 1.0))
    a = make_gaussian(grid, center=(1.0, 0.0))
    psi0 = WaveField(a.astype(complex), 0.0, grid, params)
    recs = []
    evolve_nls(psi0, T=0.4, dt=1e-3,
               observer=lambda t, p: recs.append(record_from_wavefield(p)))
    ts = np.array([r.t for r in recs])
    X = np.array([r.X for r in recs])
    n = np.array([r.n for r in recs])
    dXdt = (X[2:] - X[:-2]) / (ts[2:] - ts[:-2])
    assert np.max(np.abs(dXdt - 2.0 * n[1:-1])) < 1e-4


def test_angular_momentum_rate_is_the_trap_torque():
    # dm/dt = (omega1^2 - omega2^2) <x1 x2> pointwise in time, at any
    # eps and any rotation rate; checked by trapezoid integration
    grid = GridSpec.square(128, 8.0)
    params = SimParams(eps=0.25, Omega=1.0, omega=(2.0, 1.0))
    a = make_gaussian(grid, center=(1.0, 0.5))
    psi0 = WaveField(a.astype(complex), 0.0, grid, params)
    recs = []
    evolve_nls(psi0, T=1.0, dt=1e-3,
               observer=lambda t, p: recs.append(record_from_wavefield(p)),
               observer_stride=5)
    ts = np.array([r.t for r in recs])
    m = np.array([r.m_eps for r in recs])
    xy = np.array([r.xy for r in recs])
    predicted = m[0] + np.concatenate(
        [[0.0], np.cumsum(0.5 * np.diff(ts) * (xy[1:] + xy[:-1]))]) * 3.0
    scale = np.max(np.abs(m - m[0])) + 1e-30
    assert np.max(np.abs(m - predicted)) / scale < 1e-3


def test_angular_momentum_conserved_in_isotropic_trap():
    # omega1 = omega2 kills the torque, so m is constant while the
    # cloud still rotates and X still breathes
    grid = GridSpec.square(128, 8.0)
    params = SimParams(eps=0.125, Omega=1.0, omega=(1.0, 1.0))
    a = make_gaussian(grid, center=(1.5, 0.0))
    psi0 = wkb_assemble(a, np.zeros(grid.shape), grid, params)
    recs = []
    evolve_nls(psi0, T=2.0, dt=2e-3,
               observer=lambda t, p: recs.append(record_from_wavefield(p)),
               observer_stride=10)
    m = np.array([r.m_eps for r in recs])
    X = np.array([r.X for r in recs])
    assert np.max(m) - np.min(m) < 5e-4
    assert np.max(X) - np.min(X) > 0.1  # the breathing is genuinely there


def test_energy_drift_stays_at_splitting_scale():
    grid = GridSpec.square(128, 8.0)
    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0))
    a = make_gaussian(grid, center=(0.5, 0.5))
    psi0 = WaveField(a.astype(complex), 0.0, grid, params)
    recs = []
    evolve_nls(psi0, T=0.5, dt=1e-3,
               observer=lambda t, p: recs.append(record_from_wavefield(p)),
               observer_stride=25)
    E = np.array([r.energy for r in recs])
    assert np.max(np.abs(E - E[0])) / abs(E[0]) < 1e-6
