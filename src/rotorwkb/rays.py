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
between the two readings of the frame.  det Gamma and Sigma = (Sigma
Gamma) adj Gamma / det Gamma are read in closed form (d = 2 or 3).

A bundle marches in blocks of at most RAY_STEPS_PER_BLOCK ray-steps
(see integrate_rays): one matmul by the increments Phi(kh) - I moves z
and the frame of every ray across a block, and the caustic tests below
read all its steps at once.

A ray is truncated and flagged at a caustic, at the first step at whose
end det Gamma is at or below CAUSTIC_DET or over which tr Sigma rises by
more than 1/h.  Since tr(J Sigma) = 0 for symmetric Sigma, tr Sigma' =
-tr Sigma^2 - sum_j omega_j^2: tr Sigma only falls between foci.  A step
h that holds a focus lifts it by at least about 4/h (one eigenvalue goes
from -1/delta1 to +1/delta2, delta1 + delta2 <= h), even where det Gamma
stays above the floor at both ends, as at an isotropic focus (det Gamma
= cos^2 t touches zero); the 1/h margin keeps roundoff rises out.

A globally quadratic phase S = x.Sigma x/2 + b.x + c stays quadratic
(Carles, CMP 269:195, 2007); quadratic_phase_evolve reads its
coefficients off the ray launched from x = 0.  That one path supplies
the WKB drift field exactly, and eval_phase_general reads S, grad S and
Hess S at any point off the quadratic it carries to t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import SimParams, eval_potential, rotation_generator, time_grid

CAUSTIC_DET = 1e-8
"""det Gamma at or below this value marks a caustic."""

RAY_STEPS_PER_BLOCK = 4096
"""Rays times steps that integrate_rays advances in one block."""


class CausticError(RuntimeError):
    """Phase evaluation was requested at or beyond a caustic."""


class ShootingError(RuntimeError):
    """Phase evaluation was requested at a focal time of the transported phase."""


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


def _det_adj(G: np.ndarray):
    """(det G, adj G) in closed form for d = 2 or 3, matrix axes first:
    each G[i, j] may be an array over any batch shape.  G^{-1} = adj G / det G."""
    if G.shape[0] == 2:
        adj = np.array([[G[1, 1], -G[0, 1]], [-G[1, 0], G[0, 0]]])
    else:
        # adj G[i, j] is the (j, i) cofactor; cyclic indices carry its sign
        adj = np.array([[G[(j + 1) % 3, (i + 1) % 3] * G[(j + 2) % 3, (i + 2) % 3]
                         - G[(j + 1) % 3, (i + 2) % 3] * G[(j + 2) % 3, (i + 1) % 3]
                         for j in range(3)] for i in range(3)])
    return sum(G[0, k] * adj[k, 0] for k in range(G.shape[0])), adj


# ---------- batched integration ----------

@dataclass
class RayTrajectory:
    """Stored ray history plus the dense tr Sigma record for quadrature.

    caustic is True when a step met the caustic rule of integrate_rays:
    det Gamma at or below CAUSTIC_DET at its end, or a rise of tr Sigma
    by more than 1/h over it, which the trace law tr Sigma' = -tr Sigma^2
    - sum omega_j^2 forbids between foci.  The trajectory then stops at
    caustic_time, the last sample before that step, instead of the
    requested horizon.
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
        """det Gamma at the stored times, by the rule the caustic test reads."""
        return _det_adj(np.moveaxis(self.gamma, 0, -1))[0]

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
        return float(abs(_det_adj(self.gamma[-1])[0] - np.exp(total)))


def integrate_rays(rays: Sequence[Ray], dt: float, T: float, params: SimParams,
                   store_stride: int = 1):
    """Advance the whole bundle by the exact propagator; one RayTrajectory per ray.

    Rays are mutually independent, so they advance as one batched state:
    per ray the columns X = [z, Y] with z = (x, p) and the frame Y =
    [Gamma; Sigma Gamma], and the action.  The march takes blocks of
    steps: the increments Phi(kh) - I, k = 1..c, built once from Phi(h) - I,
    give every step of a block in one matmul, and the action is the
    running sum of the per-step quadratic forms.  det Gamma, tr Sigma and
    the caustic tests are then read for the whole block at once.  A ray's
    first failing step cuts its stored history at the last step before
    it, as a step-by-step march would; the samples past the cut are never
    read.  A block holds at most RAY_STEPS_PER_BLOCK ray-steps, so its
    arrays stay small: at 4x that budget the peak memory of a 225-ray,
    1000-step march rose by 4 MB, at 16x by 25 MB.
    """
    if store_stride < 1:
        raise ValueError(f"store_stride must be >= 1, got {store_stride}")
    B = len(rays)
    d = rays[0].x.shape[0]
    n_steps, h = time_grid(T, dt)
    step_map, Q = flow_propagator(params, h, d)
    c = max(1, min(n_steps, RAY_STEPS_PER_BLOCK // B))
    # Phi((m + j) h) - I = D_m + D_j + D_j D_m doubles the known increments
    D = step_map[None]
    while len(D) < c:
        D = np.concatenate([D, D[-1] + D + D @ D[-1]])
    D = D[:c].reshape(c * 2 * d, 2 * d)

    # one column block per ray, rays on the last axis
    z = np.stack([np.concatenate([r.x, r.p]) for r in rays], axis=-1).astype(float)
    S = np.stack([r.sigma for r in rays], axis=-1).astype(float)
    G = np.stack([r.gamma for r in rays], axis=-1).astype(float)
    Y = np.concatenate([G, np.einsum("ikb,kjb->ijb", S, G)])
    X = np.concatenate([z[:, None], Y], axis=1)
    A = np.array([r.action for r in rays], dtype=float)
    tr = np.trace(S)
    t0 = rays[0].t

    steps_arr = np.append(np.arange(0, n_steps, store_stride), n_steps)
    X_at = np.empty((len(steps_arr),) + X.shape)
    S_at = np.empty((len(steps_arr),) + S.shape)
    A_at = np.empty((len(steps_arr), B))
    X_at[0], S_at[0], A_at[0] = X, S, A
    dense_tr = np.empty((n_steps + 1, B))
    dense_tr[0] = tr
    cut_step = np.full(B, n_steps, dtype=int)

    done = 0
    while done < n_steps and (cut_step == n_steps).any():
        n = min(c, n_steps - done)
        Xk = X + (D[:n * 2 * d] @ X.reshape(2 * d, -1)).reshape((n,) + X.shape)
        z_prev = np.concatenate([X[None, :, 0], Xk[:-1, :, 0]])
        Ak = np.cumsum(np.concatenate(
            [A[None], 0.5 * np.sum(z_prev * (Q @ z_prev), axis=1)]), axis=0)[1:]
        # samples past a ray's caustic divide by det ~ 0; they are never read
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            detk, adj = _det_adj(np.moveaxis(Xk[:, :d, 1:], 0, 2))
            trk = sum(Xk[:, d + i, 1 + j] * adj[j, i]
                      for i in range(d) for j in range(d)) / detk
            rise = trk - np.concatenate([tr[None], trk[:-1]])
            ok = ((detk > CAUSTIC_DET) & np.isfinite(Xk[:, :, 0]).all(axis=1)
                  & (rise <= 1.0 / h))
            at = np.flatnonzero((steps_arr > done) & (steps_arr <= done + n))
            k = steps_arr[at] - done - 1
            Sk = (np.einsum("pikb,kjpb->pijb", Xk[k, d:, 1:], adj[:, :, k])
                  / detk[k, None, None])
        X_at[at], S_at[at], A_at[at] = Xk[k], 0.5 * (Sk + np.swapaxes(Sk, 1, 2)), Ak[k]
        dense_tr[done + 1:done + n + 1] = trk

        newly = (cut_step == n_steps) & ~ok.all(axis=0)
        cut_step[newly] = done + np.argmax(~ok[:, newly], axis=0)
        X, A, tr = Xk[-1], Ak[-1], trk[-1]
        done += n

    dense_t = t0 + h * np.arange(n_steps + 1)
    times = dense_t[steps_arr]
    out = []
    for i in range(B):
        n_keep = int(np.searchsorted(steps_arr, cut_step[i], side="right"))
        caustic = bool(cut_step[i] < n_steps)
        out.append(RayTrajectory(
            times=times[:n_keep],
            x=X_at[:n_keep, :d, 0, i],
            p=X_at[:n_keep, d:, 0, i],
            sigma=S_at[:n_keep, ..., i],
            gamma=X_at[:n_keep, :d, 1:, i],
            action=A_at[:n_keep, i],
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
    ray's caustic is the Riccati blow-up.  By the trace law tr Sigma' =
    -tr Sigma^2 - sum_j omega_j^2, tr Sigma only falls before it, so the
    first step over which tr Sigma rises by more than 1/h, or at whose end
    det Gamma reaches CAUSTIC_DET, holds it.  The trajectory stops before
    that step, flagged blown_up, with blowup_time its last stored time.
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
    """Phase value, gradient, Hessian at (t, x_target), read off the quadratic.

    The quadratic that quadratic_phase_evolve carries to t is S(t, .),
    exact at every point.  All rays launched from it share Gamma(t), so
    one caustic test serves every target.

    Returns (S, grad S, Hess S).  Raises CausticError if the flow
    crosses a caustic before its last step, and ShootingError if it
    meets one inside the last step: t is then a focal time, where Hess S
    is unbounded.
    """
    if not isinstance(phase_in, QuadraticPhase):
        raise TypeError(f"phase_in must be a QuadraticPhase, got {type(phase_in).__name__}")
    n_steps, h = time_grid(t, dt)
    path = quadratic_phase_evolve(phase_in, dt, t, params, store_stride=max(1, n_steps))
    if path.blown_up and path.blowup_time == (n_steps - 1) * h:
        raise ShootingError(f"the phase focuses within one step of t = {t:.6g}, "
                            f"where its Hessian is unbounded")
    if path.blown_up:
        raise CausticError(f"the phase hits a caustic at t = {path.blowup_time:.6g} "
                           f"before reaching t = {t:.6g}")
    phase = path.final()
    return float(phase.value(x_target)), phase.gradient(x_target), phase.Sigma
