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
    dominant_frequency,
    evolve_nls,
    isotropic_closed_form,
    make_gaussian,
    make_vortex_init,
    mass,
    moment_ode_rhs,
    probability_current,
    record_from_hydro,
    record_from_wavefield,
    record_from_wkb,
    records_to_csv,
    wkb_assemble,
)
from rotorwkb.core import turn_field
from rotorwkb.observables import CSV_HEADER


def records_from_csv(text):
    """Parse a table written by records_to_csv back into records."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad observables CSV header: {lines[0] if lines else ''!r}")
    return [ObservableRecord(*(float(tok) for tok in ln.split(",")))
            for ln in lines[1:]]


def _gauss_density(grid, center=(0.0, 0.0)):
    # rho = exp(-|x - c|^2) / pi: unit mass, per-axis variance 1/2
    X1, X2 = grid.meshes
    return np.exp(-((X1 - center[0]) ** 2 + (X2 - center[1]) ** 2)) / np.pi


def _limit(rho, v, grid):
    return record_from_hydro(HydroState(rho, v, 0.0, grid, SimParams(eps=0.25)))


def test_density_moments_of_shifted_gaussian():
    grid = GridSpec.square(128, 8.0)
    c = (1.5, -0.5)
    rho = _gauss_density(grid, c)
    r = _limit(rho, np.zeros((2,) + grid.shape), grid)
    assert r.n == 0.0
    assert r.X == pytest.approx(1.0 + c[0] ** 2 + c[1] ** 2, rel=1e-10)
    assert r.xy == pytest.approx(c[0] * c[1], abs=1e-10)
    # n with a uniform velocity u is centroid . u times the mass
    u = np.array([0.7, -0.2])
    v = np.stack([np.full(grid.shape, u[0]), np.full(grid.shape, u[1])])
    assert _limit(rho, v, grid).n == pytest.approx(c[0] * u[0] + c[1] * u[1], rel=1e-10)


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
    assert record_from_wavefield(psi).energy == pytest.approx(expect, rel=1e-12)


def test_trapped_gaussian_energy_closed_form():
    # a = C exp(-|x|^2), unit mass: kinetic eps^2, trap 1/4,
    # interaction 1/(2 pi); the rotation term vanishes for real data
    grid = GridSpec.square(128, 8.0)
    eps = 0.5
    params = SimParams(eps=eps, Omega=0.8, omega=(1.0, 1.0))
    a = make_gaussian(grid)
    psi = WaveField(a.astype(complex), 0.0, grid, params)
    expect = eps**2 + 0.25 + 1.0 / (2.0 * np.pi)
    assert record_from_wavefield(psi).energy == pytest.approx(expect, rel=1e-10)


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
    # off the origin too: the vortex carries no net current, so its
    # angular momentum about the origin is the one about its core
    grid = GridSpec.square(128, 8.0)
    eps = 0.25
    params = SimParams(eps=eps, Omega=0.0, omega=(1.0, 1.0))
    for center in ((0.0, 0.0), (1.5, -0.75)):
        for winding in (1, -2):
            psi = WaveField(make_vortex_init(grid, winding, center=center), 0.0, grid,
                            params)
            assert record_from_wavefield(psi).m_eps == pytest.approx(eps * winding,
                                                                     rel=1e-9)


def test_limit_angular_momentum_of_rigid_field():
    grid = GridSpec.square(128, 8.0)
    rho = _gauss_density(grid)
    c = 0.4
    X1, X2 = grid.meshes
    v = np.stack([-c * X2, c * X1])
    # m = -int rho (x2 v1 - x1 v2) = c <|x|^2> = c * 1
    assert _limit(rho, v, grid).m_eps == pytest.approx(c, rel=1e-10)


def _rotating_state():
    grid = GridSpec.square(64, 8.0)
    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.5))
    X1, X2 = grid.meshes
    return wkb_assemble(make_gaussian(grid, center=(1.0, 0.5)),
                        0.1 * X1 * X2 + 0.3 * X1, grid, params)


def test_wavefunction_moments_match_density_route():
    # psi = a exp(i S / eps) against the limit (a^2, grad S): the same
    # mass, m_eps, n, X and xy, and an energy above the limit's by the
    # quantum pressure eps^2/2 int |grad a|^2 = eps^2 of the unit-mass
    # Gaussian
    psi = _rotating_state()
    grid, eps = psi.grid, psi.params.eps
    a = make_gaussian(grid, center=(1.0, 0.5))
    X1, X2 = grid.meshes
    grad_S = np.stack([0.1 * X2 + 0.3, 0.1 * X1])
    got = record_from_wavefield(psi)
    limit = record_from_hydro(HydroState(a * a, grad_S, psi.t, grid, psi.params))
    for name in ("mass", "m_eps", "n", "X", "xy"):
        assert getattr(got, name) == pytest.approx(getattr(limit, name), abs=1e-12)
    assert got.energy - limit.energy == pytest.approx(eps ** 2, abs=1e-12)


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
    assert q.omega_perp_sq == pytest.approx(2.5)
    mdot, ndot = moment_ode_rhs(m=0.0, n=0.2, X=1.0, xy=0.1, p=q,
                                weighted_x2=5.0)
    assert mdot == pytest.approx(3.0 * 0.1)  # (omega1^2 - omega2^2) xy
    assert ndot == pytest.approx(2.0 * 1.0 - 10.0)
    with pytest.raises(ValueError, match="anisotropic"):
        moment_ode_rhs(0.0, 0.0, 1.0, 0.0, q)


def test_isotropic_closed_form_solves_the_moment_system():
    ts = np.linspace(0.0, 10.0, 20001)
    h = ts[1] - ts[0]
    for Omega, w in ((1.0, 1.0), (2.5, 1.5)):
        p = MomentODEParams(Omega=Omega, omega=(w, w), E0=1.3, m0=0.2,
                            n0=0.4, X0=2.0)
        m, n, X = isotropic_closed_form(ts, p)
        assert (m[0], n[0]) == (0.2, 0.4)
        assert X[0] == pytest.approx(2.0, abs=1e-14)
        # central differences against the rates; their error, h^2/6 times
        # the third derivative, stays below 3e-6 for these cases
        mdot, ndot = moment_ode_rhs(m[1:-1], n[1:-1], X[1:-1], 0.0, p)
        for y, rate in ((m, mdot), (n, ndot), (X, 2.0 * n[1:-1])):
            np.testing.assert_allclose((y[2:] - y[:-2]) / (2.0 * h), rate,
                                       rtol=0, atol=1e-5)
        # X breathes at 2 omega, whatever the rotation rate
        assert dominant_frequency(ts, X) == pytest.approx(2.0 * w, rel=1e-3)
    with pytest.raises(ValueError, match="isotropic"):
        isotropic_closed_form(ts, MomentODEParams(1.0, (2.0, 1.0), 1.0, 0.0, 0.0, 1.0))


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


def test_frame_state_records_as_its_lab_field():
    # the march hands observers its frame states; their record reads the
    # quadratures at the lab points, so it is the record of the field
    # turned back, the trap energy and xy included.  The turn back is
    # exact only while the spectrum stays inside the grid's band, as it
    # does here (gaps at roundoff; at eps = 0.25 the same data reach
    # 1e-7 by t = 1.2, and roundoff again on 256^2).
    grid = GridSpec.square(128, 8.0)
    params = SimParams(eps=0.5, Omega=0.8, omega=(1.0, 1.5))
    a = make_gaussian(grid, center=(1.0, 0.5))
    X1, X2 = grid.meshes
    psi0 = wkb_assemble(a, 0.2 * X1 - 0.1 * X1 * X2, grid, params)
    states = []
    evolve_nls(psi0, T=1.2, dt=2e-3, observer=lambda t, p: states.append(p),
               observer_stride=300)
    assert [round(s.angle, 12) for s in states] == [0.0, 0.48, 0.96]
    for state in states[1:]:
        lab = WaveField(turn_field(state.values, grid, state.angle), state.t, grid, params)
        frame, lab = record_from_wavefield(state), record_from_wavefield(lab)
        for name in ("mass", "energy", "m_eps", "n", "X", "xy"):
            assert getattr(frame, name) == pytest.approx(getattr(lab, name), rel=1e-10)
