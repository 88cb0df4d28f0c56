"""Ray tracing, quadratic phase transport, and the phase read at a point.

Closed-form oracles: with no trap the flow is a rotating free streaming
x(t) = R(Omega t)(x0 + t p0); the isotropic unit trap with flat initial
phase gives Sigma(t) = -tan(t) I, Gamma(t) = cos(t) I, and action
s(t) = -|x0|^2 sin(2t)/4 along each ray.  The phase read at a point
is checked against the closed form for isotropic data, against the
transported quadratic phase, against forward rays in 2d and 3d (S(t,
x(t)) = s(t) along each) and against the eikonal equation via a
five-point time difference.
"""

import tracemalloc

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
from rotorwkb.core import time_grid
from rotorwkb.rays import CAUSTIC_DET, flow_propagator


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


def _stepwise(rays_in, dt, T, params, store_stride):
    """Reference march, one ray and one step at a time: z <- z + E z,
    det Gamma by np.linalg.det, Sigma by np.linalg.solve.  Per ray: the
    cut step, the stored (step, z, Sigma, Gamma, s) rows, and tr Sigma
    with |Gamma|^d / det Gamma at every step."""
    d = rays_in[0].x.shape[0]
    n_steps, h = time_grid(T, dt)
    E, Q = flow_propagator(params, h, d)
    out = []
    for ray in rays_in:
        z = np.concatenate([ray.x, ray.p])
        Y = np.concatenate([ray.gamma, ray.sigma @ ray.gamma])
        s, S = ray.action, ray.sigma
        det, tr = np.linalg.det(ray.gamma), np.trace(ray.sigma)
        rows, cut = [(0, z, S, ray.gamma, s)], n_steps
        dense = [(tr, np.linalg.norm(ray.gamma) ** d / det)]
        for step in range(1, n_steps + 1):
            z_new, Y_new, s_new = z + E @ z, Y + E @ Y, s + 0.5 * z @ Q @ z
            det_new = np.linalg.det(Y_new[:d])
            ok = det_new > CAUSTIC_DET and np.isfinite(z_new).all()
            if ok:
                S_new = np.linalg.solve(Y_new[:d].T, Y_new[d:].T)
                S_new = 0.5 * (S_new + S_new.T)
                tr_new = np.trace(S_new)
                ok = tr_new - tr <= 1.0 / h
            if not ok:
                cut = step - 1
                break
            z, Y, s, S, det, tr = z_new, Y_new, s_new, S_new, det_new, tr_new
            dense.append((tr, np.linalg.norm(Y[:d]) ** d / det))
            if step % store_stride == 0 or step == n_steps:
                rows.append((step, z, S, Y[:d], s))
        out.append((cut, rows, np.array(dense).T))
    return out


def _fan(d, n, spread):
    # rays whose launch Hessians differ, so each focuses at its own time
    out = []
    for i, sig in enumerate(np.linspace(spread, 0.4, n)):
        S = np.diag(sig * np.linspace(1.0, 0.7, d))
        S[0, 1] = S[1, 0] = 0.1
        x0 = np.linspace(-0.5, 0.5, d) + 0.3 * i - 1.5
        out.append(Ray.from_phase(x0, QuadraticPhase(S, np.linspace(0.1, -0.2, d))))
    return out


ROT2 = SimParams(eps=0.25, Omega=0.5, omega=(1.2, 0.8))
ROT3 = SimParams(eps=0.25, Omega=1.0, omega=(1.3, 0.7, 1.1))
ISO2 = SimParams(eps=0.25, Omega=0.7, omega=(1.0, 1.0))
# Sigma0 = sigma I in the isotropic trap: det Gamma = (cos t + sigma sin t)^2
# touches 0 between samples, so only the rise of tr Sigma cuts these rays
ISO_FAN = [Ray.from_phase((0.2 * i - 1.0, 0.4),
                          QuadraticPhase(sig * np.eye(2), np.array([0.1, -0.2])))
           for i, sig in enumerate(np.linspace(-3.0, -0.5, 10))]


@pytest.mark.parametrize("bundle, params, dt, T, stride, budget, on_edges", [
    # rays cut at distinct steps; in blocks of 11 steps the step that fails
    # for one ray is first in its block, and for another last
    (_fan(2, 12, -3.0), ROT2, 0.01, 1.5, 7, 12 * 11, True),
    (ISO_FAN, ISO2, 0.01, 2.0, 3, 10 * 11, True),
    # the same bundle over a budget smaller than it: one step per block
    (_fan(2, 12, -3.0), ROT2, 0.01, 1.5, 7, 11, False),
    # one ray, 5000 steps: a full block and a partial one
    (_fan(2, 1, 0.2), ROT2, 2e-4, 1.0, 1, None, False),
    (_fan(3, 8, -2.0), ROT3, 0.01, 1.6, 9, 8 * 16, False),
])
def test_block_march_matches_the_stepwise_reference(monkeypatch, bundle, params, dt,
                                                    T, stride, budget, on_edges):
    n_steps, h = time_grid(T, dt)
    if budget is not None:
        monkeypatch.setattr(rays, "RAY_STEPS_PER_BLOCK", budget)
    c = max(1, min(n_steps, rays.RAY_STEPS_PER_BLOCK // len(bundle)))
    trajs = integrate_rays(bundle, dt, T, params, store_stride=stride)
    reference = _stepwise(bundle, dt, T, params, stride)
    cuts = [cut for cut, _, _ in reference]
    if on_edges:
        assert len(set(cuts)) == len(cuts)
        assert {0, c - 1} <= {cut % c for cut in cuts if cut < n_steps}
    for ray, traj, (cut, rows, (tr, cond)) in zip(bundle, trajs, reference):
        assert traj.caustic == (cut < n_steps)
        assert traj.caustic_time == (float(ray.t + cut * h) if cut < n_steps else None)
        assert len(traj.times) == len(rows)
        assert len(traj.dense_times) == cut + 1
        steps, z, S, G, s = (np.array(col) for col in zip(*rows))
        d = ray.x.shape[0]
        for got, want in ((traj.times, ray.t + h * steps), (traj.x, z[:, :d]),
                          (traj.p, z[:, d:]), (traj.gamma, G), (traj.action, s)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # Sigma = (Sigma Gamma) adj Gamma / det Gamma: either march reads it
        # with its relative digits cut by |Gamma|^d / det Gamma, which grows
        # without bound toward a caustic; the running tr Sigma sum adds up
        # those cuts over the steps
        G_cond = np.linalg.norm(G, axis=(1, 2)) ** d / np.linalg.det(G)
        assert np.max(np.abs(traj.sigma - S) / G_cond[:, None, None]) \
            <= 1e-12 * np.max(np.abs(S))
        assert np.max(np.abs(traj.tr_sigma_sum - np.cumsum(tr)[steps])
                      / np.cumsum(cond)[steps]) <= 1e-12 * np.max(np.abs(tr))


def test_march_memory_follows_the_stored_rows():
    # 25 rays keep 11 stored rows each at both dt; the march keeps no
    # per-step record, so 100x the steps leaves its traced peak in place
    phase = QuadraticPhase(np.array([[0.2, 0.05], [0.05, -0.1]]), np.array([0.1, 0.0]))
    bundle = [Ray.from_phase((x1, x2), phase)
              for x1 in np.linspace(-1.0, 1.0, 5) for x2 in np.linspace(-1.0, 1.0, 5)]
    peaks = []
    for dt, stride in ((1e-3, 100), (1e-5, 10 ** 4)):
        tracemalloc.start()
        try:
            trajs = integrate_rays(bundle, dt, 1.0, ROT2, store_stride=stride)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert all(len(traj.times) == 11 and not traj.caustic for traj in trajs)
    assert abs(peaks[1] - peaks[0]) < 2 ** 20, peaks


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
    # dt = 1e-3 both neighbouring samples sit above the caustic floor.  At
    # a stride the last stored row falls before the cut, and det Gamma =
    # exp(int tr Sigma) holds there; at stride 1 that row sits at the
    # focus, where either side reads the quadrature's 2-3e-8
    params = SimParams(eps=0.25, Omega=0.0, omega=(1.0, 1.0))
    for stride in (1, 7, 100):
        traj = integrate_ray(Ray.from_phase((1.0, 0.0), QuadraticPhase.zero(2)),
                             dt=1e-3, T=2.0, params=params, store_stride=stride)
        assert traj.caustic
        assert abs(traj.caustic_time - np.pi / 2.0) <= 1e-3
        assert traj.times[-1] <= traj.caustic_time + 1e-12
        if stride > 1:
            assert traj.times[-1] < traj.caustic_time
            assert traj.det_trace_gap() < 1e-8


@pytest.mark.parametrize("Omega", [0.0, 0.5])
@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_focus_is_cut_in_the_step_before_it_at_every_dt(sigma, Omega):
    # Sigma0 = -sigma I in the unit trap: Sigma(t) = -tan(t + arctan sigma) I
    # for any Omega, so every ray focuses at t_c = pi/2 - arctan sigma, and
    # det Gamma touches zero there between samples.  The rise of tr Sigma
    # over the step that holds the focus cuts it; at dt <= 1e-4 the det
    # floor may cut one step earlier
    params = SimParams(eps=0.25, Omega=Omega, omega=(1.0, 1.0))
    phase = QuadraticPhase(-sigma * np.eye(2), np.zeros(2))
    t_c = np.pi / 2.0 - np.arctan(sigma)
    for dt in (1e-3, 1e-2, 2e-2, 5e-2, 0.1):
        h = time_grid(2.0, dt)[1]
        flow = quadratic_phase_evolve(phase, dt, 2.0, params)
        ray = integrate_ray(Ray.from_phase((0.7, -0.3), phase), dt, 2.0, params)
        for flagged, t_cut, t_last in ((flow.blown_up, flow.blowup_time, flow.times[-1]),
                                       (ray.caustic, ray.caustic_time, ray.times[-1])):
            assert flagged and t_c - h <= t_cut < t_c and t_last == t_cut


def test_untrapped_rays_of_tiny_curvature_are_never_cut():
    # no trap and |Sigma0| <= 1e-6: the first focus lies beyond t = 1e5.
    # At the smallest curvatures tr Sigma falls per step by less than its
    # roundoff, so it may rise by a few ulps; a strict-rise test would cut
    # these rays, and the 1/h margin lets them pass
    rng = np.random.default_rng(3)
    bundle = []
    for scale in np.logspace(-16, -6, 6):
        for _ in range(5):
            A = rng.uniform(-scale, scale, (2, 2))
            bundle.append(Ray.from_phase(rng.uniform(-2.0, 2.0, 2),
                                         QuadraticPhase(A + A.T, rng.uniform(-1.0, 1.0, 2))))
    for Omega in (0.0, 1.3):
        params = SimParams(eps=0.25, Omega=Omega, omega=(0.0, 0.0))
        for dt in (1e-3, 5e-2):
            assert not any(traj.caustic
                           for traj in integrate_rays(bundle, dt, 2.0, params))


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


@pytest.mark.parametrize("omega", [(1.0, 1.4), (1.0, 1.3, 0.8)], ids=["2d", "3d"])
@pytest.mark.parametrize("Omega", [0.5, 1.2])
@pytest.mark.parametrize("t", [0.3, 0.9])
def test_shot_phase_matches_forward_rays(omega, Omega, t):
    # method of characteristics: S(t, x(t)) = s(t), grad S = p and Hess S
    # = Sigma at the landing point of every forward ray
    d = len(omega)
    params = SimParams(eps=0.25, Omega=Omega, omega=omega)
    rng = np.random.default_rng(d)
    A = rng.uniform(-0.15, 0.15, (d, d))  # focuses after t = 1 in all four flows
    phase0 = QuadraticPhase(A + A.T, rng.uniform(-0.5, 0.5, d), 0.2)
    starts = rng.uniform(-1.0, 1.0, (6, d))
    starts *= rng.uniform(0.5, 3.0, (6, 1)) / np.linalg.norm(starts, axis=1, keepdims=True)
    for traj in integrate_rays([Ray.from_phase(x0, phase0) for x0 in starts],
                               1e-3, t, params):
        assert not traj.caustic
        val, grad, hess = eval_phase_general(t, traj.x[-1], phase0, params)
        for got, want in ((val, traj.action[-1]), (grad, traj.p[-1]),
                          (hess, traj.sigma[-1])):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_shot_phase_needs_a_quadratic_launch_phase():
    # only a quadratic launch phase stays quadratic under the ray flow
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
    # every ray of the flat phase crosses the focus at pi/2 < t; at dt =
    # 0.05 the samples beside it sit far above the det floor, and the flow
    # steps over it to Sigma(2) = -tan(2) I = +2.19 I
    params = SimParams(eps=0.25, Omega=0.0, omega=(1.0, 1.0))
    with pytest.raises(CausticError):
        eval_phase_general(2.0, (0.5, 0.0), QuadraticPhase.zero(2), params)
    with pytest.raises(CausticError):
        eval_phase_general(2.0, (0.5, 0.2), QuadraticPhase.zero(2), params, dt=0.05)
