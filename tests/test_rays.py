"""Ray tracing, quadratic phase transport, and the phase read at a point.

Closed-form oracles: with no trap the flow is a rotating free streaming
x(t) = R(Omega t)(x0 + t p0); the isotropic unit trap with flat initial
phase gives Sigma(t) = -tan(t) I, Gamma(t) = cos(t) I, and action
s(t) = -|x0|^2 sin(2t)/4 along each ray.  The phase read off one ray
at a point is checked against the closed form for isotropic data,
against the transported quadratic phase and against the eikonal
equation via a five-point time difference.
"""

import numpy as np
import pytest

from rotorwkb import (
    CausticError,
    QuadraticPhase,
    Ray,
    ShootingError,
    SimParams,
    eval_phase_general,
    hamiltonian,
    integrate_ray,
    integrate_rays,
    quadratic_phase_evolve,
)
from rotorwkb import rays
from rotorwkb.rays import flow_propagator


def _rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_propagator_matches_closed_form_at_the_defective_point():
    # Omega = omega = 1: M is defective, and h = 2.5 takes the squaring
    # path.  The isotropic flow is the lab-frame oscillator turned by
    # R(Omega h); L = diag(-I, I) is rotation invariant, so the action
    # form Q is the lab-frame one.
    params = SimParams(eps=0.25, Omega=1.0, omega=(1.0, 1.0))
    h = 2.5
    c, s = np.cos(h), np.sin(h)
    oscillator = np.block([[c * np.eye(2), s * np.eye(2)],
                           [-s * np.eye(2), c * np.eye(2)]])
    phi = np.kron(np.eye(2), _rot(h)) @ oscillator
    c2, s2 = np.cos(2 * h), np.sin(2 * h)
    q = np.block([[-0.5 * s2 * np.eye(2), -0.5 * (1 - c2) * np.eye(2)],
                  [-0.5 * (1 - c2) * np.eye(2), 0.5 * s2 * np.eye(2)]])
    step, Q = flow_propagator(params, h, 2)
    np.testing.assert_allclose(step + np.eye(4), phi, atol=1e-14)
    np.testing.assert_allclose(Q, q, atol=1e-14)


def test_from_phase_reads_initial_data():
    phase = QuadraticPhase(np.array([[0.2, 0.1], [0.1, -0.1]]),
                           np.array([0.3, -0.2]), 0.5)
    ray = Ray.from_phase((1.0, 2.0), phase)
    np.testing.assert_allclose(ray.x, [1.0, 2.0])
    np.testing.assert_allclose(ray.p, phase.gradient(np.array([1.0, 2.0])))
    np.testing.assert_allclose(ray.sigma, phase.hessian(np.array([1.0, 2.0])))
    np.testing.assert_allclose(ray.gamma, np.eye(2))
    assert ray.action == pytest.approx(phase.value(np.array([1.0, 2.0])))


def test_trap_free_flow_is_rotating_free_streaming():
    params = SimParams(eps=0.25, Omega=0.8, omega=(0.0, 0.0))
    phase = QuadraticPhase(np.zeros((2, 2)), np.array([0.4, -0.3]))
    x0 = np.array([1.0, 0.5])
    traj = integrate_ray(Ray.from_phase(x0, phase), dt=1e-3, T=2.0, params=params)
    t = traj.times[-1]
    R = _rot(0.8 * t)
    p0 = phase.gradient(x0)
    np.testing.assert_allclose(traj.p[-1], R @ p0, atol=1e-11)
    np.testing.assert_allclose(traj.x[-1], R @ (x0 + t * p0), atol=1e-11)
    # V = 0: the action grows linearly at rate |p|^2 / 2
    assert traj.action[-1] == pytest.approx(
        phase.value(x0) + t * 0.5 * float(p0 @ p0), abs=1e-11)


def test_harmonic_focus_closed_forms():
    # omega = 1, flat phase: x = cos(t) x0, p = -sin(t) x0,
    # Sigma = -tan(t) I, Gamma = cos(t) I, s = -|x0|^2 sin(2t)/4
    params = SimParams(eps=0.25, Omega=0.0, omega=(1.0, 1.0))
    x0 = np.array([0.8, -0.6])
    traj = integrate_ray(Ray.from_phase(x0, QuadraticPhase.zero(2)),
                         dt=1e-3, T=0.7, params=params)
    t = traj.times[-1]
    np.testing.assert_allclose(traj.x[-1], np.cos(t) * x0, atol=1e-11)
    np.testing.assert_allclose(traj.p[-1], -np.sin(t) * x0, atol=1e-11)
    np.testing.assert_allclose(traj.sigma[-1], -np.tan(t) * np.eye(2),
                               atol=1e-10)
    np.testing.assert_allclose(traj.gamma[-1], np.cos(t) * np.eye(2),
                               atol=1e-11)
    assert traj.action[-1] == pytest.approx(-np.sin(2 * t) / 4.0, abs=1e-11)


def test_rotation_terms_cancel_on_scalar_sigma():
    # Omega (J^T Sigma + Sigma J) vanishes when Sigma is a multiple of I,
    # so the isotropic Riccati solution is Omega-independent.
    params = SimParams(eps=0.25, Omega=0.7, omega=(1.0, 1.0))
    traj = quadratic_phase_evolve(QuadraticPhase.zero(2), dt=1e-3, T=1.0,
                                  params=params)
    final = traj.final()
    np.testing.assert_allclose(final.Sigma, -np.tan(1.0) * np.eye(2),
                               atol=1e-9)
    np.testing.assert_allclose(final.b, 0.0, atol=1e-15)
    assert final.c == pytest.approx(0.0, abs=1e-15)


def test_hamiltonian_conserved_and_det_identity():
    cases = [
        # (0.2, -1.2) reaches a caustic near t = 1.26; stay before it
        (SimParams(eps=0.25, Omega=1.0, omega=(1.3, 0.7)),
         QuadraticPhase(np.array([[0.25, 0.12], [0.12, -0.15]]),
                        np.array([0.2, 0.1]), 0.0),
         ((0.5, 0.5), (-1.0, 0.3), (0.2, -1.2))),
        # 3d: rotation in the (x1, x2) plane only, a third trap frequency,
        # and a Sigma that couples x3 to x1
        (SimParams(eps=0.25, Omega=1.0, omega=(1.3, 0.7, 1.1)),
         QuadraticPhase(np.array([[0.25, 0.12, 0.05], [0.12, -0.15, 0.0],
                                  [0.05, 0.0, 0.1]]),
                        np.array([0.2, 0.1, -0.1]), 0.0),
         ((0.5, 0.5, 0.2), (-1.0, 0.3, -0.4), (0.2, -1.2, 0.6))),
    ]
    for params, phase, starts in cases:
        rays = [Ray.from_phase(c, phase) for c in starts]
        for traj in integrate_rays(rays, dt=1e-3, T=1.0, params=params):
            assert not traj.caustic
            H = hamiltonian(traj.x, traj.p, params)
            assert np.max(np.abs(H - H[0])) < 5e-11
            # det Gamma equals exp(int tr Sigma): Jacobi identity for the flow
            assert traj.det_trace_gap() < 1e-10
            np.testing.assert_allclose(traj.det_gamma_from_trace(),
                                       traj.det_gamma, rtol=1e-5, atol=1e-8)


def test_bundle_matches_individually_integrated_rays():
    params = SimParams(eps=0.25, Omega=0.6, omega=(1.0, 1.4))
    phase = QuadraticPhase(np.array([[0.2, 0.0], [0.0, -0.1]]),
                           np.array([0.0, 0.3]))
    r1 = Ray.from_phase((0.7, -0.2), phase)
    r2 = Ray.from_phase((-0.4, 1.1), phase)
    both = integrate_rays([r1, r2], dt=2e-3, T=0.8, params=params)
    for ray, traj in zip((r1, r2), both):
        solo = integrate_ray(ray, dt=2e-3, T=0.8, params=params)
        np.testing.assert_allclose(traj.x, solo.x, atol=1e-14)
        np.testing.assert_allclose(traj.p, solo.p, atol=1e-14)
        np.testing.assert_allclose(traj.sigma, solo.sigma, atol=1e-13)
        np.testing.assert_allclose(traj.action, solo.action, atol=1e-14)


def test_caustic_truncates_trajectory():
    # Gamma(t) = cos(t) I crosses the determinant floor just before pi/2
    params = SimParams(eps=0.25, Omega=0.0, omega=(1.0, 1.0))
    traj = integrate_ray(Ray.from_phase((1.0, 0.0), QuadraticPhase.zero(2)),
                         dt=1e-4, T=2.0, params=params)
    assert traj.caustic
    assert traj.caustic_time == pytest.approx(np.pi / 2.0, abs=1e-3)
    assert traj.times[-1] <= traj.caustic_time + 1e-12
    assert np.all(np.linalg.det(traj.gamma) > 0)


def test_focus_between_samples_is_flagged():
    # det Gamma = cos(t)^2 touches zero at pi/2 without changing sign; at
    # dt = 1e-3 both neighbouring samples sit above the caustic floor
    params = SimParams(eps=0.25, Omega=0.0, omega=(1.0, 1.0))
    traj = integrate_ray(Ray.from_phase((1.0, 0.0), QuadraticPhase.zero(2)),
                         dt=1e-3, T=2.0, params=params)
    assert traj.caustic
    assert abs(traj.caustic_time - np.pi / 2.0) <= 1e-3
    assert traj.times[-1] <= traj.caustic_time + 1e-12


def test_riccati_blowup_flagged():
    params = SimParams(eps=0.25, Omega=0.0, omega=(1.0, 1.0))
    traj = quadratic_phase_evolve(QuadraticPhase.zero(2), dt=1e-4, T=3.0,
                                  params=params)
    assert traj.blown_up
    assert traj.blowup_time == pytest.approx(np.pi / 2.0, abs=1e-2)
    assert abs(traj.times[-1] - traj.blowup_time) <= 2e-4  # within two steps


@pytest.mark.parametrize("Omega", [0.0, 0.7, 1.0])
@pytest.mark.parametrize("sigma", [0.3, -0.4])
@pytest.mark.parametrize("t", [0.3, 0.6])
def test_shot_phase_matches_isotropic_closed_form(Omega, sigma, t):
    # unit trap, Sigma0 = sigma I, b = 0: the rotation terms cancel on a
    # scalar Sigma, and Sigma' = -Sigma^2 - I gives Sigma(t) = tan(arctan
    # sigma - t) I, so S(t, x) = c0 + tan(.) |x|^2 / 2 for any Omega
    params = SimParams(eps=0.25, Omega=Omega, omega=(1.0, 1.0))
    phase0 = QuadraticPhase(sigma * np.eye(2), np.zeros(2), 0.1)
    x = np.array([3.0, -4.0])
    tan = np.tan(np.arctan(sigma) - t)
    val, grad, hess = eval_phase_general(t, x, phase0, params)
    assert val == pytest.approx(0.1 + 0.5 * tan * float(x @ x), abs=1e-10)
    np.testing.assert_allclose(grad, tan * x, atol=1e-10)
    np.testing.assert_allclose(hess, tan * np.eye(2), atol=1e-10)


def test_shot_phase_lands_one_ray(monkeypatch):
    landings = []

    def counted(*args, **kwargs):
        landings.append(args)
        return integrate_ray(*args, **kwargs)

    monkeypatch.setattr(rays, "integrate_ray", counted)
    params = SimParams(eps=0.25, Omega=1.0, omega=(1.3, 0.7))
    phase0 = QuadraticPhase(np.array([[0.2, 0.1], [0.1, -0.1]]),
                            np.array([0.1, -0.05]), 0.2)
    eval_phase_general(0.5, (0.7, -0.4), phase0, params)
    assert len(landings) == 1


def test_shot_phase_matches_transported_quadratic_phase():
    params = SimParams(eps=0.25, Omega=1.0, omega=(1.3, 0.7))
    phase0 = QuadraticPhase(np.array([[0.2, 0.1], [0.1, -0.1]]),
                            np.array([0.1, -0.05]), 0.2)
    t, x = 0.5, np.array([0.7, -0.4])
    val, grad, hess = eval_phase_general(t, x, phase0, params)
    ref = quadratic_phase_evolve(phase0, dt=1e-3, T=t, params=params).final()
    assert val == pytest.approx(float(ref.value(x)), abs=1e-8)
    np.testing.assert_allclose(grad, ref.gradient(x), atol=1e-8)
    np.testing.assert_allclose(hess, ref.Sigma, atol=1e-7)


def test_shot_phase_needs_a_quadratic_launch_phase():
    # the reading about the landing point is exact only for a quadratic
    class Quartic:
        def value(self, x):
            return 0.25 * float(np.asarray(x) @ np.asarray(x)) ** 2

    params = SimParams(eps=0.25, Omega=0.0, omega=(1.0, 1.0))
    with pytest.raises(TypeError, match="QuadraticPhase"):
        eval_phase_general(0.5, (0.7, -0.4), Quartic(), params)


def test_shot_phase_at_time_zero_returns_input_data():
    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0))
    phase0 = QuadraticPhase(np.array([[0.3, 0.0], [0.0, 0.1]]),
                            np.array([-0.2, 0.4]), 1.0)
    x = np.array([0.3, 0.9])
    val, grad, hess = eval_phase_general(0.0, x, phase0, params)
    assert val == pytest.approx(float(phase0.value(x)), abs=1e-12)
    np.testing.assert_allclose(grad, phase0.gradient(x), atol=1e-12)
    np.testing.assert_allclose(hess, phase0.hessian(x), atol=1e-12)


def test_shot_phase_satisfies_eikonal_equation():
    # d_t S + |grad S|^2 / 2 + V - Omega (J x) . grad S = 0, with d_t S
    # from a five-point stencil across shooting evaluations.
    params = SimParams(eps=0.25, Omega=1.0, omega=(1.3, 0.7))
    phase0 = QuadraticPhase(np.array([[0.2, 0.1], [0.1, -0.1]]),
                            np.array([0.1, -0.05]), 0.2)
    x = np.array([0.7, -0.4])
    t0, dlt = 0.5, 0.05
    vals = [eval_phase_general(t0 + k * dlt, x, phase0, params)[0]
            for k in (-2, -1, 0, 1, 2)]
    dSdt = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * dlt)
    _, p, _ = eval_phase_general(t0, x, phase0, params)
    V = 0.5 * (1.3**2 * x[0] ** 2 + 0.7**2 * x[1] ** 2)
    Jx = np.array([x[1], -x[0]])
    residual = dSdt + 0.5 * float(p @ p) + V - 1.0 * float(Jx @ p)
    assert abs(residual) < 1e-5


def test_unreachable_target_raises():
    # flat phase in the unit trap focuses every ray through the origin at
    # t = pi/2; any other target is unreachable there
    params = SimParams(eps=0.25, Omega=0.0, omega=(1.0, 1.0))
    with pytest.raises(ShootingError):
        eval_phase_general(np.pi / 2.0, (1.0, 0.0), QuadraticPhase.zero(2),
                           params)


def test_shot_past_a_focus_raises_caustic_error():
    # every ray of the flat phase crosses the focus at pi/2 < t
    params = SimParams(eps=0.25, Omega=0.0, omega=(1.0, 1.0))
    with pytest.raises(CausticError):
        eval_phase_general(2.0, (0.5, 0.0), QuadraticPhase.zero(2), params)
