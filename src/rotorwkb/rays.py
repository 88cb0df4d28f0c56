"""Hamilton-Jacobi ray tracing for the rotating-frame eikonal phase.

The phase S(t, x) solves

    d_t S + (1/2)|grad S|^2 + V(x) - Omega (x_perp . grad S) = 0,

whose characteristics follow the Hamiltonian H(x, p) = |p|^2/2 + V(x)
- Omega x_perp . p.  With the harmonic trap the ray flow is linear in
z = (x, p): z' = M z, M = [[-Omega J, I], [-diag(omega^2), -Omega J]],
with J the rotation generator (J x = x_perp).  Everything carried along
a ray is a reading of its exact propagator Phi(h) = exp(h M): z and the
frame Y = [Gamma; Sigma Gamma] advance by Phi, which gives the flow
Jacobian Gamma(t) = dx(t)/dx(0) and the phase Hessian Sigma(t) =
D^2 S(t, x(t)) = (Sigma Gamma) Gamma^{-1}, the rotation-coupled Riccati
flow Sigma' = -Sigma^2 - diag(omega^2) + Omega (J^T Sigma + Sigma J).
The action s' = |p|^2/2 - V(x) grows by a quadratic form in z.  Since
tr(Omega J) = 0, det Gamma(t) = exp(int_0^t tr Sigma), a cross-check
between the two readings of the frame.

A ray is truncated and flagged at a caustic, where det Gamma falls to
CAUSTIC_DET: at a sample, or between samples on the cubic matching det
Gamma and its Jacobi slope det Gamma tr Sigma at both ends.  The exact
flow steps over an isotropic focus (det Gamma = cos^2 t touches zero
without a sign change), hence the check between samples.

A globally quadratic phase S = x.Sigma x/2 + b.x + c stays quadratic;
quadratic_phase_evolve reads its coefficients off the ray launched from
x = 0, and that path supplies the WKB drift field exactly.
eval_phase_general reads S, grad S and Hess S at one point off the ray
launched from that point, by a Taylor expansion about where it lands
that is exact for the quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import SimParams, eval_potential, rotation_generator, time_grid

CAUSTIC_DET = 1e-8
"""det Gamma at or below this value marks a caustic."""


class CausticError(RuntimeError):
    """Phase evaluation was requested at or beyond a caustic."""


class ShootingError(RuntimeError):
    """Phase evaluation was requested at a focal time of the landing map."""


# ---------- phase descriptions ----------

@dataclass(frozen=True)
class QuadraticPhase:
    """S(x) = x . Sigma x / 2 + b . x + c with Sigma symmetric."""

    Sigma: np.ndarray
    b: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        S = np.asarray(self.Sigma, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError(f"Sigma must be square, got shape {S.shape}")
        if b.shape != (S.shape[0],):
            raise ValueError(f"b shape {b.shape} does not match Sigma {S.shape}")
        if np.max(np.abs(S - S.T)) > 1e-10 * (1.0 + np.max(np.abs(S))):
            raise ValueError("Sigma must be symmetric")
        object.__setattr__(self, "Sigma", 0.5 * (S + S.T))
        object.__setattr__(self, "b", b)

    @staticmethod
    def zero(dim: int) -> "QuadraticPhase":
        return QuadraticPhase(np.zeros((dim, dim)), np.zeros(dim), 0.0)

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sum(x * (x @ self.Sigma.T), axis=-1) + x @ self.b + self.c

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.Sigma.T + self.b

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return self.Sigma


# ---------- single-ray state ----------

@dataclass(frozen=True)
class Ray:
    """Ray state: position, momentum, phase Hessian, flow Jacobian, action."""

    x: np.ndarray
    p: np.ndarray
    sigma: np.ndarray
    gamma: np.ndarray
    action: float = 0.0
    t: float = 0.0

    @staticmethod
    def from_phase(x0: Sequence[float], phase) -> "Ray":
        """Launch a ray from x0 with data read off an initial phase."""
        x0 = np.asarray(x0, dtype=float)
        d = x0.shape[0]
        return Ray(
            x=x0,
            p=np.asarray(phase.gradient(x0), dtype=float),
            sigma=np.asarray(phase.hessian(x0), dtype=float),
            gamma=np.eye(d),
            action=float(phase.value(x0)),
            t=0.0,
        )


def hamiltonian(x: np.ndarray, p: np.ndarray, params: SimParams) -> np.ndarray:
    J = rotation_generator(np.asarray(x).shape[-1])
    return (0.5 * np.sum(p * p, axis=-1) + eval_potential(x, params.omega)
            - params.Omega * np.sum((x @ J.T) * p, axis=-1))


# ---------- the exact propagator ----------

def flow_propagator(params: SimParams, h: float, d: int):
    """(Phi(h) - I, Q(h)) for the ray flow z' = M z over one step h.

    Q(h) = int_0^h Phi^T L Phi is the action form: s' = z.L z/2 gives
    s(h) - s(0) = z.Q z/2.  With C = [[-M^T, L], [0, M]], exp(h C) =
    [[Phi^-T, F], [0, Phi]] and Q = Phi^T F (Van Loan, IEEE TAC 23:395,
    1978).  exp(h C) - I is summed as a Taylor series, scaled to
    |h C| <= 1/2 and squared back by E <- 2E + E^2; no eigen-decomposition,
    since M is defective at Omega = omega.  The increment Phi - I keeps
    its own digits: apply it as z + (Phi - I) z.
    """
    W2 = np.diag(np.asarray(params.omega, dtype=float) ** 2)
    if W2.shape[0] != d:
        raise ValueError(f"ray dim {d} does not match params dim {W2.shape[0]}")
    OJ, I, n = params.Omega * rotation_generator(d), np.eye(d), 2 * d
    M = np.block([[-OJ, I], [-W2, -OJ]])
    L = np.block([[-W2, np.zeros((d, d))], [np.zeros((d, d)), I]])
    A = h * np.block([[-M.T, L], [np.zeros((n, n)), M]])

    norm = float(np.max(np.sum(np.abs(A), axis=1)))
    squarings = int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0
    A = A / 2.0 ** squarings
    E, term = np.zeros_like(A), np.eye(2 * n)
    for k in range(1, 60):
        term = term @ A / k
        if np.array_equal(E + term, E):
            break
        E = E + term
    for _ in range(squarings):
        E = 2.0 * E + E @ E
    Q = (np.eye(n) + E[n:, n:]).T @ E[:n, n:]
    return E[n:, n:], 0.5 * (Q + Q.T)


def _hessian(G: np.ndarray, SG: np.ndarray) -> np.ndarray:
    """Sigma = (Sigma Gamma) Gamma^{-1} for batched Gamma and Sigma Gamma."""
    S = np.linalg.solve(np.swapaxes(G, -1, -2), np.swapaxes(SG, -1, -2))
    return 0.5 * (S + np.swapaxes(S, -1, -2))


def _dips_to_caustic(det0, det1, slope0, slope1, h) -> np.ndarray:
    """Where the cubic Hermite interpolant p(u) = a + b u + c u^2 + e u^3,
    u in [0, 1], of det Gamma over a step (end values det0, det1 above
    CAUSTIC_DET, slopes slope0, slope1) falls to CAUSTIC_DET inside it.

    The Hermite weights bound p below by min(det0, det1) - (4/27) h
    (|slope0| + |slope1|); the interior minima are computed only when
    that bound reaches CAUSTIC_DET for some ray.
    """
    near = (np.minimum(det0, det1) - (4.0 / 27.0) * h * (np.abs(slope0) + np.abs(slope1))
            <= CAUSTIC_DET)
    if not near.any():
        return near
    a, b = det0, h * slope0
    c = 3.0 * (det1 - det0) - h * (2.0 * slope0 + slope1)
    e = 2.0 * (det0 - det1) + h * (slope0 + slope1)
    dips = np.zeros_like(near)
    with np.errstate(all="ignore"):
        # roots of p'(u) = b + 2 c u + 3 e u^2 in cancellation-free form;
        # complex or outside (0, 1) falls back to u = 0, where p = det0
        q = -(c + np.copysign(np.sqrt(c * c - 3.0 * b * e), c))
        for u in (q / (3.0 * e), b / q):
            u = np.where((u > 0.0) & (u < 1.0), u, 0.0)
            dips |= a + u * (b + u * (c + u * e)) <= CAUSTIC_DET
    return near & dips


# ---------- batched integration ----------

@dataclass
class RayTrajectory:
    """Stored ray history plus the dense tr Sigma record for quadrature.

    caustic is True when det Gamma reached CAUSTIC_DET; the trajectory
    then stops at caustic_time, the last sample before the caustic,
    instead of the requested horizon.
    """

    times: np.ndarray
    x: np.ndarray
    p: np.ndarray
    sigma: np.ndarray
    gamma: np.ndarray
    action: np.ndarray
    dense_times: np.ndarray
    dense_tr_sigma: np.ndarray
    caustic: bool = False
    caustic_time: float | None = None

    @property
    def det_gamma(self) -> np.ndarray:
        return np.linalg.det(self.gamma)

    def det_gamma_from_trace(self) -> np.ndarray:
        """exp of the cumulative trapezoid of tr Sigma, at the stored times.

        By the Jacobi identity this reproduces det Gamma; the gap
        between the two is an integration-quality certificate.
        """
        f = self.dense_tr_sigma
        dt = np.diff(self.dense_times)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * dt)])
        idx = np.searchsorted(self.dense_times, self.times)
        idx = np.clip(idx, 0, len(cum) - 1)
        return np.exp(cum[idx])

    def det_trace_gap(self) -> float:
        """|det Gamma(end) - exp(int tr Sigma dt)| with Simpson quadrature.

        The dense record is uniformly spaced, so composite Simpson
        applies; an odd interval count gets one trapezoid tail.
        """
        f = self.dense_tr_sigma
        n = len(f) - 1
        if n <= 0:
            return 0.0
        h = (self.dense_times[-1] - self.dense_times[0]) / n
        total = 0.0
        m = n if n % 2 == 0 else n - 1
        if m >= 2:
            total += (h / 3.0) * (f[0] + 4.0 * np.sum(f[1:m:2])
                                  + 2.0 * np.sum(f[2:m - 1:2]) + f[m])
        if m < n:
            total += 0.5 * h * (f[n - 1] + f[n])
        return float(abs(np.linalg.det(self.gamma[-1]) - np.exp(total)))

    def final(self) -> Ray:
        return Ray(self.x[-1], self.p[-1], self.sigma[-1], self.gamma[-1],
                   float(self.action[-1]), float(self.times[-1]))


def integrate_rays(rays: Sequence[Ray], dt: float, T: float, params: SimParams,
                   store_stride: int = 1):
    """Advance the whole bundle by the exact propagator; one RayTrajectory per ray.

    Rays are mutually independent, so they advance as one batched state
    z = (x, p) with frames Y = [Gamma; Sigma Gamma] and actions.  A ray
    that reaches a caustic is frozen and its stored history truncated at
    the last step before it.
    """
    if dt <= 0 or T < 0:
        raise ValueError(f"need dt > 0 and T >= 0, got dt={dt}, T={T}")
    B = len(rays)
    d = rays[0].x.shape[0]
    n_steps, h = time_grid(T, dt)
    step_map, Q = flow_propagator(params, h, d)

    Z = np.stack([np.concatenate([r.x, r.p]) for r in rays]).astype(float)
    S = np.stack([r.sigma for r in rays]).astype(float)
    G = np.stack([r.gamma for r in rays]).astype(float)
    Y = np.concatenate([G, S @ G], axis=1)
    A = np.array([r.action for r in rays], dtype=float)
    det = np.linalg.det(G)
    tr = np.trace(S, axis1=-2, axis2=-1)
    t0 = rays[0].t

    active = np.ones(B, dtype=bool)
    cut_step = np.full(B, n_steps, dtype=int)

    store_at = set(range(0, n_steps, store_stride)) | {n_steps}
    hist = [(Z.copy(), S.copy(), G.copy(), A.copy())]  # at the stored steps
    dense_t = t0 + h * np.arange(n_steps + 1)
    dense_tr = np.empty((n_steps + 1, B))
    dense_tr[0] = tr

    for step in range(1, n_steps + 1):
        Z_new = Z + Z @ step_map.T
        Y_new = Y + step_map @ Y
        A_new = A + 0.5 * np.sum((Z @ Q) * Z, axis=-1)
        G_new = Y_new[:, :d]
        det_new = np.linalg.det(G_new)
        ok = active & (det_new > CAUSTIC_DET) & np.isfinite(Z_new).all(axis=-1)
        # rays that fail here are rolled back, so their Sigma is never read
        S_new = _hessian(np.where(ok[:, None, None], G_new, np.eye(d)), Y_new[:, d:])
        tr_new = np.trace(S_new, axis1=-2, axis2=-1)
        ok &= ~_dips_to_caustic(det, det_new, det * tr, det_new * tr_new, h)

        # newly flagged rays keep their last good state, as frozen ones do
        cut_step[active & ~ok] = step - 1
        active = ok
        if not active.any():
            break
        if not active.all():
            frozen = ~active
            Z_new[frozen], Y_new[frozen], S_new[frozen] = Z[frozen], Y[frozen], S[frozen]
            A_new[frozen], det_new[frozen], tr_new[frozen] = A[frozen], det[frozen], tr[frozen]
        Z, Y, S, A, det, tr = Z_new, Y_new, S_new, A_new, det_new, tr_new

        dense_tr[step] = tr
        if step in store_at:
            hist.append((Z.copy(), S.copy(), Y[:, :d].copy(), A.copy()))

    steps_arr = np.array(sorted(store_at))
    times = dense_t[steps_arr[:len(hist)]]
    z, sig, gam, act = (np.stack(snaps, axis=1) for snaps in zip(*hist))
    out = []
    for i in range(B):
        n_keep = int(np.searchsorted(steps_arr, cut_step[i], side="right"))
        caustic = bool(cut_step[i] < n_steps)
        out.append(RayTrajectory(
            times=times[:n_keep],
            x=z[i, :n_keep, :d],
            p=z[i, :n_keep, d:],
            sigma=sig[i, :n_keep],
            gamma=gam[i, :n_keep],
            action=act[i, :n_keep],
            dense_times=dense_t[:cut_step[i] + 1].copy(),
            dense_tr_sigma=dense_tr[:cut_step[i] + 1, i].copy(),
            caustic=caustic,
            caustic_time=float(t0 + cut_step[i] * h) if caustic else None,
        ))
    return out


def integrate_ray(ray: Ray, dt: float, T: float, params: SimParams,
                  store_stride: int = 1) -> RayTrajectory:
    return integrate_rays([ray], dt, T, params, store_stride)[0]


# ---------- quadratic phase flow ----------

@dataclass
class QuadraticPhaseTrajectory:
    times: np.ndarray
    Sigma: np.ndarray
    b: np.ndarray
    c: np.ndarray
    blown_up: bool = False
    blowup_time: float | None = None

    def at_index(self, i: int) -> QuadraticPhase:
        return QuadraticPhase(self.Sigma[i], self.b[i], float(self.c[i]))

    def final(self) -> QuadraticPhase:
        return self.at_index(len(self.times) - 1)


def quadratic_phase_evolve(phase0: QuadraticPhase, dt: float, T: float,
                           params: SimParams,
                           store_stride: int = 1) -> QuadraticPhaseTrajectory:
    """Coefficients of the quadratic phase, read off the ray from x = 0.

    Along the ray (u, p, Sigma, s) launched from the origin,
    S(t, u) = s and grad S(t, u) = p, so

        Sigma = the ray's Sigma,   b = p - Sigma u,   c = s - b.u - u.Sigma u/2.

    This solves Sigma' = -Sigma^2 - diag(omega^2) + Omega (J^T Sigma +
    Sigma J), b' = -Sigma b + Omega J^T b, c' = -|b|^2/2 exactly.  The
    ray's caustic is the Riccati blow-up: the trajectory stops there and
    is flagged blown_up, with blowup_time the last time stored before it.
    """
    ray = integrate_ray(Ray.from_phase(np.zeros(phase0.dim), phase0), dt, T,
                        params, store_stride)
    u, S = ray.x, ray.sigma
    Su = np.einsum("tij,tj->ti", S, u)
    b = ray.p - Su
    c = ray.action - np.sum(b * u, axis=-1) - 0.5 * np.sum(u * Su, axis=-1)
    return QuadraticPhaseTrajectory(
        times=ray.times, Sigma=S, b=b, c=c,
        blown_up=ray.caustic, blowup_time=ray.caustic_time)


# ---------- phase evaluation at a point ----------

def eval_phase_general(t: float, x_target: Sequence[float], phase_in: QuadraticPhase,
                       params: SimParams, dt: float = 1e-3):
    """Phase value, gradient, Hessian at (t, x_target), read off one ray.

    The launch phase is quadratic and the ray flow linear, so S(t, .)
    is the quadratic with Hessian Sigma(t) about any point it reaches.
    The ray launched from x_target lands at x1 with action s1, momentum
    p1 and Hessian Sigma; with r = x_target - x1,

        S = s1 + p1.r + r.Sigma r/2,   grad S = p1 + Sigma r,   Hess S = Sigma.

    Returns (S, grad S, Hess S).  Raises CausticError if the ray crosses
    a caustic before its last step, and ShootingError if it meets one
    inside the last step: t is then a focal time, where the landing map
    is singular.
    """
    if not isinstance(phase_in, QuadraticPhase):
        raise TypeError(f"phase_in must be a QuadraticPhase, got {type(phase_in).__name__}")
    x_target = np.asarray(x_target, dtype=float)
    if t == 0.0:
        return (float(phase_in.value(x_target)), phase_in.gradient(x_target),
                phase_in.hessian(x_target))

    n_steps = time_grid(t, dt)[0]

    def land(x0: np.ndarray) -> Ray:
        traj = integrate_ray(Ray.from_phase(x0, phase_in), dt, t, params,
                             store_stride=n_steps)
        if traj.caustic and len(traj.dense_times) == n_steps:
            raise ShootingError(
                f"ray from {x0.tolist()} focuses within one step of t = {t:.6g}; "
                f"the landing map is singular there")
        if traj.caustic:
            raise CausticError(
                f"ray from {x0.tolist()} hits a caustic at t = {traj.caustic_time:.6g} "
                f"before reaching t = {t:.6g}")
        return traj.final()

    ray = land(x_target)
    r = x_target - ray.x
    Sr = ray.sigma @ r
    return float(ray.action + ray.p @ r + 0.5 * r @ Sr), ray.p + Sr, ray.sigma
