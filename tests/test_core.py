"""Grids, parameters, initial data, and norms.

Expected values here are either hand computations (potential values,
rotation generator entries) or closed-form identities (single-mode
Sobolev norms, Gaussian profiles).
"""

import pickle

import numpy as np
import pytest

from rotorwkb import (
    GridSpec,
    Nonlinearity,
    SimParams,
    WaveField,
    boundary_max,
    eval_potential,
    integrate,
    make_gaussian,
    make_vortex_init,
    potential_grid,
    potential_gradient,
    rotation_generator,
    sobolev_norm,
    spectral_gradient,
    wkb_assemble,
)


# ---------- parameters ----------


def test_potential_hand_value():
    # V = (omega1^2 x1^2 + omega2^2 x2^2) / 2 = (4 + 9) / 2
    x = np.array([1.0, 3.0])
    assert eval_potential(x, (2.0, 1.0)) == pytest.approx(6.5, abs=1e-15)
    np.testing.assert_allclose(potential_gradient(x, (2.0, 1.0)), [4.0, 3.0])


def test_potential_grid_matches_pointwise():
    grid = GridSpec.square(16, 2.0)
    V = potential_grid(grid, (2.0, 1.0))
    X1, X2 = grid.meshes
    np.testing.assert_allclose(V, 0.5 * (4.0 * X1**2 + X2**2), atol=1e-14)


def test_rotation_generator_2d():
    J = rotation_generator(2)
    np.testing.assert_array_equal(J, [[0.0, 1.0], [-1.0, 0.0]])
    # J x = (x2, -x1) and J^2 = -I
    np.testing.assert_allclose(J @ [3.0, 5.0], [5.0, -3.0])
    np.testing.assert_allclose(J @ J, -np.eye(2))
    np.testing.assert_allclose(J.T, -J)


def test_rotation_generator_3d_embeds_planar_block():
    J = rotation_generator(3)
    np.testing.assert_array_equal(J[:2, :2], rotation_generator(2))
    assert np.all(J[2, :] == 0.0) and np.all(J[:, 2] == 0.0)


def test_simparams_validation():
    p = SimParams(eps=0.25, Omega=1.0, omega=(1.0, 2.0))
    assert p.dim == 2
    assert SimParams(eps=0.1, omega=(1.0, 1.0, 1.0)).dim == 3
    with pytest.raises(ValueError, match="eps must be positive"):
        SimParams(eps=0.0)
    with pytest.raises(ValueError, match="Omega must be nonnegative"):
        SimParams(eps=0.1, Omega=-1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        SimParams(eps=0.1, omega=(1.0, -1.0))
    with pytest.raises(ValueError, match="2 or 3 components"):
        SimParams(eps=0.1, omega=(1.0,))


def test_nonlinearity_cubic_and_none():
    z = np.linspace(0.0, 2.0, 7)
    cub = Nonlinearity.cubic()
    np.testing.assert_allclose(cub.f(z), z)
    np.testing.assert_allclose(cub.fprime(z), np.ones_like(z))
    np.testing.assert_allclose(cub.antiderivative(z), 0.5 * z * z)
    non = Nonlinearity.none()
    np.testing.assert_allclose(non.f(z), 0.0)
    np.testing.assert_allclose(non.antiderivative(z), 0.0)
    assert Nonlinearity.from_name("cubic").name == "cubic"
    assert Nonlinearity.from_name("none").name == "none"
    with pytest.raises(ValueError):
        Nonlinearity.from_name("quintic")
    # same law built twice compares equal (callables excluded from eq)
    assert Nonlinearity.cubic() == Nonlinearity.from_name("cubic")


# ---------- time grid ----------


def test_time_grid_never_steps_past_dt():
    from rotorwkb.core import time_grid
    from rotorwkb.hydro import WKBState, evolve_wkb
    from rotorwkb.nls import evolve_nls
    from rotorwkb.observables import MomentODEParams, integrate_isotropic_moments
    from rotorwkb.rays import QuadraticPhase, Ray, integrate_ray

    dt = 0.01
    n, h = time_grid(3.4 * dt, dt)
    assert n == 4 and h <= dt
    # multiples of dt up to roundoff keep their step count
    for T, dt_k, count in [(0.02, 1e-3, 20), (0.04, 1e-3, 40), (0.1, 1e-3, 100),
                           (0.1, 1e-4, 1000), (0.3, 1e-3, 300), (0.0, 1e-3, 1)]:
        assert time_grid(T, dt_k)[0] == count

    # every marcher takes 4 steps of 0.0085 for T = 3.4 dt
    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0))
    traj = integrate_ray(Ray.from_phase(np.zeros(2), QuadraticPhase.zero(2)),
                         dt, 3.4 * dt, params)
    assert len(traj.times) == 5 and np.diff(traj.times).max() <= dt

    grid = GridSpec.square(16, 4.0)
    times = []
    evolve_wkb(WKBState.from_amplitude(make_gaussian(grid), grid, params),
               T=3.4 * dt, dt=dt, observer=lambda t, s: times.append(t))
    assert len(times) == 5 and np.diff(times).max() <= dt

    times = []
    evolve_nls(WaveField(make_gaussian(grid), 0.0, grid, params), T=3.4 * dt, dt=dt,
               observer=lambda t, s: times.append(t))
    assert len(times) == 5 and np.diff(times).max() <= dt

    moments = MomentODEParams(Omega=0.5, omega=(1.0, 1.0), E0=1.0, m0=0.2,
                              n0=0.0, X0=0.5)
    ts = integrate_isotropic_moments(moments, T=3.4 * dt, dt=dt)[0]
    assert len(ts) == 5 and np.diff(ts).max() <= dt


# ---------- grids ----------


def test_grid_pickles_without_its_cached_arrays():
    grid = GridSpec.square(128, 8.0)
    fresh = len(pickle.dumps(grid))
    grid.wavenumber_mesh(0)
    _ = grid.meshes
    assert "meshes" in vars(grid) and "wavenumbers" in vars(grid)
    payload = pickle.dumps(grid)
    assert len(payload) == fresh
    assert pickle.loads(payload) == grid


def test_grid_axes_and_cell():
    grid = GridSpec.square(8, 2.0)
    x = grid.axes[0]
    np.testing.assert_allclose(x, np.arange(-2.0, 2.0, 0.5), atol=1e-15)
    assert grid.spacing == (0.5, 0.5)
    assert grid.cell == pytest.approx(0.25)
    assert 0.0 in x  # x = 0 node always present


def test_grid_wavenumbers_match_fftfreq():
    grid = GridSpec.square(16, 4.0)
    k = grid.wavenumbers[0]
    np.testing.assert_allclose(k, 2.0 * np.pi * np.fft.fftfreq(16, d=0.5),
                               atol=1e-14)


def test_grid_validation():
    with pytest.raises(ValueError, match="powers of two"):
        GridSpec.square(100, 8.0)
    with pytest.raises(ValueError, match="powers of two"):
        GridSpec.square(4, 8.0)
    with pytest.raises(ValueError, match="2d or 3d"):
        GridSpec((8.0,), (16,))
    with pytest.raises(ValueError, match="half_extent must be positive"):
        GridSpec.square(16, 0.0)
    with pytest.raises(ValueError, match="equal length"):
        GridSpec((8.0, 8.0), (16, 16, 16))


def test_integrate_constant_gives_box_volume():
    grid = GridSpec.square(16, 3.0)
    assert integrate(np.ones(grid.shape), grid) == pytest.approx(36.0)
    grid3 = GridSpec.square(8, 2.0, dim=3)
    assert integrate(np.ones(grid3.shape), grid3) == pytest.approx(64.0)


def test_boundary_max_sees_only_outermost_layer():
    grid = GridSpec.square(16, 2.0)
    u = np.zeros(grid.shape)
    u[8, 8] = 7.0  # interior, must be ignored
    u[0, 3] = 0.25
    assert boundary_max(u) == pytest.approx(0.25)
    u3 = np.zeros((8, 8, 8))
    u3[4, 4, 7] = 0.5
    assert boundary_max(u3) == pytest.approx(0.5)


def test_spectral_gradient_exact_on_lattice_mode():
    grid = GridSpec.square(32, np.pi)
    X1, X2 = grid.meshes
    u = np.sin(3.0 * X1) * np.cos(2.0 * X2)
    g = spectral_gradient(u, grid)
    assert g.shape == (2,) + grid.shape
    np.testing.assert_allclose(g[0], 3.0 * np.cos(3.0 * X1) * np.cos(2.0 * X2),
                               atol=1e-12)
    np.testing.assert_allclose(g[1], -2.0 * np.sin(3.0 * X1) * np.sin(2.0 * X2),
                               atol=1e-12)


# ---------- initial data ----------


def test_gaussian_unit_mass_and_profile():
    grid = GridSpec.square(128, 8.0)
    a = make_gaussian(grid)
    assert integrate(a * a, grid) == pytest.approx(1.0, rel=1e-12)
    # default width: a(x) / a(0) = exp(-|x|^2)
    i0 = 64  # index of x = 0
    ratio = a[i0 + 8, i0] / a[i0, i0]  # x = (1, 0)
    assert ratio == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_gaussian_center_shift():
    grid = GridSpec.square(64, 8.0)
    a = make_gaussian(grid, center=(1.0, -0.5))
    i, j = np.unravel_index(np.argmax(a), a.shape)
    assert grid.axes[0][i] == pytest.approx(1.0)
    assert grid.axes[1][j] == pytest.approx(-0.5)
    with pytest.raises(ValueError, match="center needs 2"):
        make_gaussian(grid, center=(1.0, 2.0, 3.0))


def test_vortex_mass_node_and_winding():
    grid = GridSpec.square(128, 8.0)
    a = make_vortex_init(grid, winding=2)
    assert integrate(np.abs(a) ** 2, grid) == pytest.approx(1.0, rel=1e-12)
    assert a[64, 64] == 0.0  # modulus vanishes at the origin node
    # phase increments around an index loop of radius ~1 sum to 2 pi m
    theta = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
    ii = np.round(64 + 16 * np.cos(theta)).astype(int)
    jj = np.round(64 + 16 * np.sin(theta)).astype(int)
    ph = np.unwrap(np.angle(a[ii, jj]))
    total = ph[-1] - ph[0] + (ph[1] - ph[0])  # close the loop
    assert total == pytest.approx(2.0 * np.pi * 2, rel=0.02)
    with pytest.raises(ValueError, match="2d only"):
        make_vortex_init(GridSpec.square(16, 4.0, dim=3), winding=1)


def test_wkb_assemble_modulus_and_phase():
    grid = GridSpec.square(64, 8.0)
    a = make_gaussian(grid)
    X1, X2 = grid.meshes
    phase = 0.3 * X1 - 0.1 * X2**2
    eps = 0.25
    psi = wkb_assemble(a, phase, grid, SimParams(eps=eps))
    np.testing.assert_allclose(np.abs(psi.values), a, atol=1e-14)
    np.testing.assert_allclose(psi.values * np.exp(-1j * phase / eps), a,
                               atol=1e-14)
    assert psi.params.eps == eps


def test_wavefield_is_immutable():
    grid = GridSpec.square(16, 2.0)
    psi = WaveField(np.ones(grid.shape, dtype=complex), 0.0, grid,
                    SimParams(eps=0.5))
    with pytest.raises(ValueError):
        psi.values[0, 0] = 2.0
    with pytest.raises(ValueError, match="does not match grid"):
        WaveField(np.ones((8, 8)), 0.0, grid, SimParams(eps=0.5))


# ---------- norms ----------


def test_sobolev_s0_is_l2_quadrature():
    rng = np.random.default_rng(7)
    grid = GridSpec.square(32, 4.0)
    u = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    l2 = np.sqrt(grid.cell * np.sum(np.abs(u) ** 2))
    assert sobolev_norm(u, grid, s=0.0) == pytest.approx(l2, rel=1e-12)


def test_sobolev_single_mode_closed_form():
    # u = exp(i k . x) on the lattice: ||u||_s^2 = (2L)^d (1 + |k|^2)^s
    grid = GridSpec.square(32, 4.0)
    X1, X2 = grid.meshes
    dk = np.pi / 4.0  # fundamental wavenumber 2 pi / (2 L)
    k = (3 * dk, 5 * dk)
    u = np.exp(1j * (k[0] * X1 + k[1] * X2))
    for s in (0.0, 2.0, 4.0):
        expect = np.sqrt(64.0 * (1.0 + k[0] ** 2 + k[1] ** 2) ** s)
        assert sobolev_norm(u, grid, s=s) == pytest.approx(expect, rel=1e-12)


def test_sobolev_weighted_adds_moment_term():
    grid = GridSpec.square(32, 4.0)
    a = make_gaussian(grid)
    plain = sobolev_norm(a, grid, s=2.0)
    r = np.sqrt(sum(X * X for X in grid.meshes))
    expect = plain + sobolev_norm(r * a, grid, s=1.0)
    assert sobolev_norm(a, grid, s=2.0, weighted=True) == pytest.approx(
        expect, rel=1e-12)
    assert sobolev_norm(a, grid, s=2.0, weighted=True) > plain
