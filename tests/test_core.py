"""Grids, parameters, initial data, and norms.

Expected values here are either hand computations (potential values,
rotation generator entries) or closed-form identities (single-mode
Sobolev norms, Gaussian profiles).
"""

import pickle
import re

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
    rotation_generator,
    sobolev_norm,
    spectral_gradient,
    wkb_assemble,
)
from rotorwkb.core import (affine_field, gauge_distance, lab_points, quadratic_grid,
                           turn_field)
from rotorwkb.rays import QuadraticPhase


# ---------- parameters ----------


def test_potential_hand_value():
    # V = (omega1^2 x1^2 + omega2^2 x2^2) / 2 = (4 + 9) / 2
    x = np.array([1.0, 3.0])
    assert eval_potential(x, (2.0, 1.0)) == pytest.approx(6.5, abs=1e-15)


def test_potential_grid_matches_pointwise():
    grid = GridSpec.square(16, 2.0)
    V = potential_grid(grid, (2.0, 1.0))
    X1, X2 = grid.meshes
    np.testing.assert_allclose(V, 0.5 * (4.0 * X1**2 + X2**2), atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("angle", [0.0, 0.4, -2.2, 11.0])
def test_quadratic_grid_is_the_pointwise_value_at_the_lab_points(dim, angle):
    # the grid formula against the pointwise references at the turned
    # points, on a box with unequal axes; in 3d omega3 and the x3 entries
    # of A and b are nonzero
    grid = GridSpec((4.0, 3.0, 2.0)[:dim], (16, 8, 8)[:dim])
    A = np.array([[0.7, -0.3, 0.2], [-0.3, 1.1, 0.4], [0.2, 0.4, -0.5]])[:dim, :dim]
    b, c = np.array([0.3, -0.8, 0.5])[:dim], 0.25
    x = np.stack(np.broadcast_arrays(*lab_points(grid, angle)), axis=-1)
    np.testing.assert_allclose(quadratic_grid(grid, A, b, c, angle),
                               QuadraticPhase(A, b, c).value(x), rtol=0, atol=1e-13)
    omega = (1.0, 1.4, 0.8)[:dim]
    np.testing.assert_allclose(potential_grid(grid, omega, angle),
                               eval_potential(x, omega), rtol=0, atol=1e-13)
    if angle == 0.0:
        # b + A x, the gradient of the same quadratic
        np.testing.assert_allclose(np.stack(affine_field(b, A, grid.meshes), axis=-1),
                                   QuadraticPhase(A, b, c).gradient(x), rtol=0, atol=1e-14)


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
    from rotorwkb.hydro import HydroState, WKBState, evolve_hydro, evolve_wkb
    from rotorwkb.nls import evolve_nls
    from rotorwkb.rays import QuadraticPhase, Ray, integrate_ray

    dt = 0.01
    n, h = time_grid(3.4 * dt, dt)
    assert n == 4 and h <= dt
    # multiples of dt up to roundoff keep their step count; T = 0 takes none
    for T, dt_k, count in [(0.02, 1e-3, 20), (0.04, 1e-3, 40), (0.1, 1e-3, 100),
                           (0.1, 1e-4, 1000), (0.3, 1e-3, 300), (0.0, 1e-3, 0)]:
        assert time_grid(T, dt_k)[0] == count

    # every marcher takes 4 steps of 0.0085 for T = 3.4 dt
    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0))
    launch = Ray.from_phase(np.zeros(2), QuadraticPhase.zero(2))
    traj = integrate_ray(launch, dt, 3.4 * dt, params)
    assert len(traj.times) == 5 and np.diff(traj.times).max() <= dt

    grid = GridSpec.square(16, 4.0)
    a0 = make_gaussian(grid)
    starts = ((evolve_nls, WaveField(a0, 0.0, grid, params)),
              (evolve_wkb, WKBState.from_amplitude(a0, grid, params)),
              (evolve_hydro, HydroState(a0 * a0, np.zeros((2,) + grid.shape), 0.0,
                                        grid, params)))
    for evolve, state0 in starts:
        times = []
        evolve(state0, T=3.4 * dt, dt=dt, observer=lambda t, s: times.append(t))
        assert len(times) == 5 and np.diff(times).max() <= dt

    # at T = 3.7 dt and stride 2 every marcher sees the same times, bit for bit
    seen = [integrate_ray(launch, dt, 3.7 * dt, params, store_stride=2).times.tolist()]
    for evolve, state0 in starts:
        times = []
        evolve(state0, T=3.7 * dt, dt=dt, observer=lambda t, s: times.append(t),
               observer_stride=2)
        seen.append(times)
    assert len(seen[0]) == 3 and all(times == seen[0] for times in seen)


def test_zero_horizon_observes_the_start_once_on_every_marcher():
    from rotorwkb.hydro import HydroState, WKBState, evolve_hydro, evolve_wkb
    from rotorwkb.nls import evolve_nls
    from rotorwkb.rays import QuadraticPhase, Ray, integrate_rays

    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0))
    grid = GridSpec.square(16, 4.0)
    a0 = make_gaussian(grid)
    drift = QuadraticPhase(np.array([[0.2, 0.1], [0.1, -0.1]]), np.array([0.3, -0.2]), 0.1)

    def same_bits(a, b):
        return np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def observed(evolve, state0, **kw):
        times = []
        final = evolve(state0, T=0.0, observer=lambda t, s: times.append(t), **kw)
        assert times == [0.0]
        return final

    psi0 = WaveField(a0.astype(complex), 0.0, grid, params)
    assert same_bits(observed(evolve_nls, psi0, dt=0.01).values, psi0.values)

    for eps in (0.25, 0.0):
        state0 = WKBState.from_amplitude(a0, grid, params, drift=drift, eps=eps)
        final = observed(evolve_wkb, state0)
        for name in ("alpha", "beta", "v", "phi"):
            assert same_bits(getattr(final, name), getattr(state0, name))
        assert (same_bits(final.drift.Sigma, drift.Sigma)
                and same_bits(final.drift.b, drift.b) and final.drift.c == drift.c)

    # the march carries alpha = sqrt(rho), and sqrt(a^2)^2 = a^2 in binary
    # floating point, so a squared amplitude comes back with its bits
    h0 = HydroState(a0 * a0, np.stack([0.1 * a0, -0.2 * a0]), 0.0, grid, params)
    final = observed(evolve_hydro, h0)
    assert same_bits(final.rho, h0.rho) and same_bits(final.v, h0.v)

    rays = [Ray.from_phase(x0, drift) for x0 in ([0.0, 0.0], [1.0, -0.5])]
    for ray, traj in zip(rays, integrate_rays(rays, 1e-3, 0.0, params)):
        assert traj.times.tolist() == [0.0] and not traj.caustic
        assert same_bits(traj.x[0], ray.x) and same_bits(traj.p[0], ray.p)
        assert same_bits(traj.sigma[0], ray.sigma) and same_bits(traj.gamma[0], ray.gamma)
        assert traj.action.tolist() == [ray.action]


@pytest.mark.parametrize("stride", [0, -2])
def test_every_marcher_rejects_a_stride_below_one(stride):
    from rotorwkb.hydro import HydroState, WKBState, evolve_hydro, evolve_wkb
    from rotorwkb.nls import evolve_nls
    from rotorwkb.rays import QuadraticPhase, Ray, integrate_rays

    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0))
    grid = GridSpec.square(16, 4.0)
    a0 = make_gaussian(grid)
    dt, T = 0.01, 0.04
    seen = []

    def observer(t, state):
        seen.append(t)

    with pytest.raises(ValueError, match="observer_stride must be >= 1"):
        evolve_nls(WaveField(a0, 0.0, grid, params), T=T, dt=dt,
                   observer=observer, observer_stride=stride)
    with pytest.raises(ValueError, match="observer_stride must be >= 1"):
        evolve_wkb(WKBState.from_amplitude(a0, grid, params), T=T, dt=dt,
                   observer=observer, observer_stride=stride)
    with pytest.raises(ValueError, match="observer_stride must be >= 1"):
        evolve_hydro(HydroState(a0 * a0, np.zeros((2,) + grid.shape), 0.0, grid,
                                params), T=T, dt=dt, observer=observer,
                     observer_stride=stride)
    with pytest.raises(ValueError, match="store_stride must be >= 1"):
        integrate_rays([Ray.from_phase(np.zeros(2), QuadraticPhase.zero(2))],
                       dt, T, params, store_stride=stride)
    assert seen == []


@pytest.mark.parametrize("T, dt", [(1.0, 0.0), (1.0, np.nan), (1.0, np.inf),
                                   (-1.0, 1e-3), (np.nan, 1e-3), (np.inf, 1e-3),
                                   (1e300, 1e-300)])
def test_every_march_rejects_a_bad_time_grid(T, dt):
    # core.time_grid is the one check of (T, dt) for every march
    from rotorwkb.core import time_grid
    from rotorwkb.hydro import HydroState, WKBState, evolve_hydro, evolve_wkb
    from rotorwkb.nls import evolve_nls
    from rotorwkb.rays import QuadraticPhase, Ray, eval_phase_general, integrate_rays

    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.3))
    grid = GridSpec.square(16, 4.0)
    a0 = make_gaussian(grid)
    phase = QuadraticPhase(np.array([[0.2, 0.1], [0.1, -0.1]]), np.array([0.1, -0.05]))
    seen = []

    def observer(t, state):
        seen.append(t)

    marches = (
        lambda: evolve_nls(WaveField(a0, 0.0, grid, params), T, dt, observer),
        lambda: evolve_wkb(WKBState.from_amplitude(a0, grid, params), T, dt, observer),
        lambda: evolve_hydro(HydroState(a0 * a0, np.zeros((2,) + grid.shape), 0.0,
                                        grid, params), T, dt, observer),
        lambda: integrate_rays([Ray.from_phase((0.5, 0.1), phase)], dt, T, params),
        lambda: eval_phase_general(T, (0.3, 0.2), phase, params, dt),
    )
    for march in marches:
        with pytest.raises(ValueError):
            march()
    assert seen == []
    phrase = ("duration T must be nonnegative" if not (np.isfinite(T) and T >= 0)
              else "dt must be positive" if not (np.isfinite(dt) and dt > 0)
              else r"T = 1e\+300 at dt = 1e-300 takes n = T / dt = inf steps")
    with pytest.raises(ValueError, match=phrase):
        time_grid(T, dt)


def test_time_grid_caps_the_step_count():
    # finite (T, dt) whose march would never end; no march is started
    from rotorwkb.core import MAX_STEPS, time_grid

    assert time_grid(1.0, 1.0 / MAX_STEPS) == (MAX_STEPS, 1.0 / MAX_STEPS)
    for T, dt, n in ((1.0, 1e-300, "1e+300"), (2.0, 1e-8, "2e+08")):
        message = f"T = {T} at dt = {dt} takes n = T / dt = {n} steps, more than MAX_STEPS"
        with pytest.raises(ValueError, match=re.escape(message)):
            time_grid(T, dt)


# ---------- gauge distance ----------


def test_gauge_distance_sees_through_a_global_phase_without_cancelling():
    # two 64^2 fields 1e-8 apart: the distance formed from the norms and
    # the inner product, sqrt(|a|^2 + |b|^2 - 2 |<a, b>|), reads 0 here
    grid = GridSpec.square(64, 4.0)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    a /= np.sqrt(grid.cell * np.sum(np.abs(a) ** 2))
    bump = rng.standard_normal(grid.shape)
    gap = 1e-8 * bump / np.sqrt(grid.cell * np.sum(bump ** 2))
    b = np.exp(0.7j) * (a + 1j * a * gap / np.abs(a))  # orthogonal to a pointwise
    assert gauge_distance(a, b, grid.cell) == pytest.approx(1e-8, rel=1e-3)
    assert gauge_distance(a, np.exp(-2.0j) * a, grid.cell) < 1e-14
    assert gauge_distance(a, np.zeros_like(a), grid.cell) == pytest.approx(1.0)


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
    # centred, and about a node off the origin: the zero sits at the
    # centre node, and the winding is taken around it
    grid = GridSpec.square(128, 8.0)
    for center, (i0, j0) in (((0.0, 0.0), (64, 64)), ((1.5, -0.75), (76, 58))):
        a = make_vortex_init(grid, winding=2, center=center)
        assert integrate(np.abs(a) ** 2, grid) == pytest.approx(1.0, rel=1e-12)
        assert a[i0, j0] == 0.0  # modulus vanishes at the centre node
        # phase increments around an index loop of radius ~2 sum to 2 pi m
        theta = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
        ii = np.round(i0 + 16 * np.cos(theta)).astype(int)
        jj = np.round(j0 + 16 * np.sin(theta)).astype(int)
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


# ---------- fields in a rotating frame ----------


def _bump(points):
    """A localized, resolved Gaussian with a plane-wave phase, at the
    points (x1, x2[, x3])."""
    c = (1.5, -0.7, 0.4)
    r2 = sum((X - cj) ** 2 for X, cj in zip(points, c))
    return np.exp(-r2 / (2 * 0.8 ** 2) + 1.2j * points[0] - 0.5j * points[1])


def _frame_samples(grid, angle):
    """The bump's samples at the lab points R(angle) x of the nodes x."""
    X = grid.meshes
    c, s = np.cos(angle), np.sin(angle)
    return _bump([c * X[0] - s * X[1], s * X[0] + c * X[1]] + list(X[2:]))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("angle", [0.3, 2.5, -3.0])
def test_turning_back_gives_the_lab_samples_and_undoes_itself(dim, angle):
    # 2.5 and -3.0 take the exact flip x -> -x first; in 3d the turn is
    # about x3, so the x3 samples stay where they are
    grid = (GridSpec.square(64, 8.0) if dim == 2
            else GridSpec((8.0, 8.0, 4.0), (64, 64, 16)))
    frame = _frame_samples(grid, angle)
    lab = turn_field(frame, grid, angle)
    np.testing.assert_allclose(lab, _bump(grid.meshes), rtol=0, atol=1e-12)
    again = turn_field(lab, grid, -angle)
    np.testing.assert_allclose(again, frame, rtol=0, atol=1e-12)


def test_a_real_field_turns_as_its_complex_cast():
    grid = GridSpec.square(64, 8.0)
    rho = np.abs(_bump(grid.meshes)) ** 2
    for angle in (0.0, 0.3, 2.5):
        turned = turn_field(rho, grid, angle)
        np.testing.assert_array_equal(turned, turn_field(rho + 0j, grid, angle))
        np.testing.assert_allclose(turned.imag, 0.0, rtol=0, atol=1e-10)
    np.testing.assert_allclose(turn_field(rho, grid, 0.3).real,
                               np.abs(_frame_samples(grid, -0.3)) ** 2, rtol=0, atol=1e-10)


def test_angle_zero_keeps_every_bit():
    grid = GridSpec.square(32, 4.0)
    psi = WaveField(_bump(grid.meshes), 0.0, grid, SimParams(eps=0.25))
    assert psi.angle == 0.0
    assert turn_field(psi.values, grid, 0.0).tobytes() == psi.values.tobytes()
    assert turn_field(psi.values, grid, 2 * np.pi).tobytes() == psi.values.tobytes()
    assert potential_grid(grid, (2.0, 1.0), 0.0).tobytes() == \
        potential_grid(grid, (2.0, 1.0)).tobytes()


def test_wavefield_pickles_with_its_angle():
    grid = GridSpec.square(16, 2.0)
    psi = WaveField(np.ones(grid.shape, dtype=complex), 0.5, grid,
                    SimParams(eps=0.5, Omega=1.4), angle=0.7)
    back = pickle.loads(pickle.dumps(psi))
    assert back.angle == 0.7 and back.t == 0.5
    assert back.values.tobytes() == psi.values.tobytes()
    assert not back.values.flags.writeable


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
