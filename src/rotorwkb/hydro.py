"""WKB amplitude-velocity system and its semiclassical-limit hydrodynamics.

Writing psi = a exp(i(phi + S)/eps) with S the ray phase, the complex
amplitude a = alpha + i beta and the slow velocity v = grad phi obey

    d_t a + (v + w).grad a + (a/2) div(v + w) = (i eps / 2) Lap a
    d_t v + (v + w).grad v + (grad w) v + grad f(|a|^2) = 0

where w = grad S - Omega x_perp is the drift.  For a quadratic S the
drift is affine, div w = tr Sigma, and the matrix contracted against v
is the transposed drift Jacobian Sigma + Omega J (the term is
v_j d_i w_j).  The drift coefficients are not part of the RK4 state:
they follow the exact quadratic phase flow (rays.quadratic_phase_evolve),
sampled once on the half-step grid, so every stage sees the drift at its
own time.  A drift caustic before the horizon aborts the run.

At eps = 0 the same stencils also march the limit system in total
velocity form (evolve_hydro): the drift freezes to -Omega x_perp and
the trap force grad V, absorbed by S in the WKB route, acts on v
explicitly.

Discretization: periodic 4th-order centered differences, RK4 in time.
The amplitude advection uses the split form
(1/2)[adv . D1 a + D1 . (a adv)], whose centered-difference
skew-symmetry conserves the discrete mass sum(alpha^2 + beta^2)
exactly; the dispersive coupling is symmetric and cancels too.  A
multiplicative sponge over the outer tenth of each axis relaxes
(alpha, beta, v) toward their initial far-field values to absorb
box-truncation artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .core import (GridSpec, NumericalAbort, SimParams, WaveField, _freeze,
                   current_from_gradient, potential_gradient, rotation_generator,
                   spectral_gradient, time_grid)
from .rays import QuadraticPhase, quadratic_phase_evolve


# ---------- periodic 4th-order stencils ----------

def d1(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """4th-order centered first derivative along one axis."""
    return (np.roll(u, 2, axis) - 8.0 * np.roll(u, 1, axis)
            + 8.0 * np.roll(u, -1, axis) - np.roll(u, -2, axis)) / (12.0 * h)


def d2(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """4th-order centered second derivative along one axis."""
    return (-np.roll(u, 2, axis) + 16.0 * np.roll(u, 1, axis) - 30.0 * u
            + 16.0 * np.roll(u, -1, axis) - np.roll(u, -2, axis)) / (12.0 * h * h)


def laplacian(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    out = d2(u, 0, grid.spacing[0])
    for axis in range(1, grid.dim):
        out += d2(u, axis, grid.spacing[axis])
    return out


def gradient(u: np.ndarray, grid: GridSpec) -> list[np.ndarray]:
    return [d1(u, axis, grid.spacing[axis]) for axis in range(grid.dim)]


# ---------- state containers ----------

@dataclass(frozen=True)
class WKBState:
    """Amplitude split, slow velocity, accumulated slow phase, and drift.

    v has shape (dim, *grid.shape).  drift holds the quadratic ray
    phase coefficients at time t.  eps is params.eps, or 0 for the limit
    system of the same run.  Arrays are copied in and read-only.
    """

    alpha: np.ndarray
    beta: np.ndarray
    v: np.ndarray
    phi: np.ndarray
    drift: QuadraticPhase
    eps: float
    t: float
    grid: GridSpec
    params: SimParams

    def __post_init__(self):
        g = self.grid.shape
        for name in ("alpha", "beta", "phi"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != g:
                raise ValueError(f"{name} shape {a.shape} does not match grid {g}")
            object.__setattr__(self, name, _freeze(a))
        v = np.asarray(self.v, dtype=float)
        if v.shape != (self.grid.dim,) + g:
            raise ValueError(f"v shape {v.shape}, expected {(self.grid.dim,) + g}")
        object.__setattr__(self, "v", _freeze(v))
        if self.eps not in (0.0, self.params.eps):
            raise ValueError(f"eps must be 0 or params.eps = {self.params.eps}, "
                             f"got {self.eps}")
        if self.drift.dim != self.grid.dim:
            raise ValueError("drift dimension does not match grid")

    def __reduce__(self):
        # through the constructor, so the unpickled arrays are read-only too
        return WKBState, (self.alpha, self.beta, self.v, self.phi, self.drift,
                          self.eps, self.t, self.grid, self.params)

    @staticmethod
    def from_amplitude(amplitude: np.ndarray, grid: GridSpec, params: SimParams,
                       drift: QuadraticPhase | None = None,
                       eps: float | None = None) -> "WKBState":
        """Start state: a_in split into (alpha, beta), v = 0, phi = 0, at
        params.eps, or at eps = 0 (the limit system) when that is given."""
        amplitude = np.asarray(amplitude)
        if drift is None:
            drift = QuadraticPhase.zero(grid.dim)
        return WKBState(
            alpha=np.real(amplitude), beta=np.imag(amplitude),
            v=np.zeros((grid.dim,) + grid.shape), phi=np.zeros(grid.shape),
            drift=drift, eps=params.eps if eps is None else eps,
            t=0.0, grid=grid, params=params)

    def density(self) -> np.ndarray:
        return self.alpha ** 2 + self.beta ** 2

    def amplitude(self) -> np.ndarray:
        return self.alpha + 1j * self.beta

    def ray_phase_field(self) -> np.ndarray:
        """S(t, x) sampled on the grid from the quadratic coefficients."""
        pts = np.stack(self.grid.meshes, axis=-1)
        return self.drift.value(pts)

    def total_velocity(self) -> np.ndarray:
        """v + grad S, the velocity entering the limit observables."""
        out = np.array(self.v)
        for i in range(self.grid.dim):
            gradS_i = self.drift.b[i]
            for j, X in enumerate(self.grid.meshes):
                gradS_i = gradS_i + self.drift.Sigma[i, j] * X
            out[i] += gradS_i
        return out

    def to_wavefield(self) -> WaveField:
        """Reassemble psi = a exp(i(phi + S)/eps); requires eps > 0."""
        if not self.eps > 0:
            raise ValueError("cannot assemble a wavefunction at eps = 0")
        phase = (self.phi + self.ray_phase_field()) / self.eps
        return WaveField(self.amplitude() * np.exp(1j * phase), self.t,
                         self.grid, self.params)


@dataclass(frozen=True)
class HydroState:
    """Limit hydrodynamics state: density and total velocity."""

    rho: np.ndarray
    v: np.ndarray
    t: float
    grid: GridSpec
    params: SimParams

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        if rho.shape != self.grid.shape:
            raise ValueError(f"rho shape {rho.shape} does not match grid")
        if np.any(rho < 0):
            raise ValueError("rho must be nonnegative")
        v = np.asarray(self.v, dtype=float)
        if v.shape != (self.grid.dim,) + self.grid.shape:
            raise ValueError(f"v shape {v.shape} does not match grid")
        object.__setattr__(self, "rho", _freeze(rho))
        object.__setattr__(self, "v", _freeze(v))


# ---------- drift helpers ----------

def drift_fields(drift: QuadraticPhase, grid: GridSpec, params: SimParams):
    """w = (Sigma - Omega J) x + b on the grid, plus div w and the
    coupling matrix (the transposed drift Jacobian Sigma + Omega J)."""
    J = rotation_generator(grid.dim)
    Dw = drift.Sigma - params.Omega * J
    w = []
    for i in range(grid.dim):
        wi = np.full(grid.shape, drift.b[i])
        for j, X in enumerate(grid.meshes):
            wi = wi + Dw[i, j] * X
        w.append(wi)
    div_w = float(np.trace(drift.Sigma))
    coupling = drift.Sigma + params.Omega * J
    return w, div_w, coupling


# ---------- semi-discrete right-hand side ----------

def _fields_rhs(alpha, beta, v, w, coupling, grid: GridSpec, params: SimParams,
                eps: float, extra_force=None, with_phi=False):
    """Rates for (alpha, beta, v[, phi]) given the drift fields.

    The amplitude advection is in split (skew-symmetric) form; extra
    gradient forces (the explicit trap force of the limit system) are
    appended to the v equation.
    """
    dim = grid.dim
    h = grid.spacing
    adv = [v[j] + w[j] for j in range(dim)]

    def advect_split(u):
        out = np.zeros_like(u)
        for j in range(dim):
            out += adv[j] * d1(u, j, h[j]) + d1(adv[j] * u, j, h[j])
        return 0.5 * out

    dalpha = -advect_split(alpha)
    dbeta = -advect_split(beta)
    if eps > 0:
        dalpha -= (0.5 * eps) * laplacian(beta, grid)
        dbeta += (0.5 * eps) * laplacian(alpha, grid)

    rho = alpha * alpha + beta * beta
    f_rho = params.nonlinearity.f(rho)
    grad_f = gradient(f_rho, grid)

    dv = np.empty_like(v)
    for i in range(dim):
        acc = np.zeros(grid.shape)
        for j in range(dim):
            acc += adv[j] * d1(v[i], j, h[j])
            if coupling[i, j] != 0.0:
                acc += coupling[i, j] * v[j]
        acc += grad_f[i]
        if extra_force is not None:
            acc += extra_force[i]
        dv[i] = -acc

    if not with_phi:
        return dalpha, dbeta, dv, None
    # d_t phi = -(w . v + |v|^2/2 + f(rho))
    wv = np.zeros(grid.shape)
    v2 = np.zeros(grid.shape)
    for j in range(dim):
        wv += w[j] * v[j]
        v2 += v[j] * v[j]
    dphi = -(wv + 0.5 * v2 + f_rho)
    return dalpha, dbeta, dv, dphi


def rhs_wkb(state: WKBState):
    """Time derivative of (alpha, beta, v, phi) at the state's drift and eps."""
    w, _, coupling = drift_fields(state.drift, state.grid, state.params)
    return _fields_rhs(state.alpha, state.beta, np.array(state.v), w, coupling,
                       state.grid, state.params, state.eps, with_phi=True)


# ---------- hyperbolic structure ----------

@dataclass(frozen=True)
class SystemMatrices:
    """Pointwise flux matrices A (state part), B (drift part), source M,
    and the symmetrizer Q, in the unknown order (alpha, beta, v)."""

    A: np.ndarray
    B: np.ndarray
    M: np.ndarray
    Q: np.ndarray


def assemble_matrices(state: WKBState, xi, at: tuple) -> SystemMatrices:
    """First-order structure of the system at one grid point, direction xi.

    Q A and Q B come out symmetric whenever f' > 0; that is the
    symmetrizability behind well-posedness, and tests check it on
    random states.
    """
    xi = np.asarray(xi, dtype=float)
    dim = state.grid.dim
    if xi.shape != (dim,):
        raise ValueError(f"xi needs {dim} components")
    a_re = float(state.alpha[at])
    a_im = float(state.beta[at])
    vloc = np.array([state.v[j][at] for j in range(dim)])
    rho = a_re * a_re + a_im * a_im
    fp = float(state.params.nonlinearity.fprime(np.asarray(rho)))
    if not fp > 0:
        raise ValueError(f"symmetrizer needs f' > 0, got f'({rho:.3g}) = {fp:.3g}")

    w, div_w, coupling = drift_fields(state.drift, state.grid, state.params)
    w_xi = float(sum(w[j][at] * xi[j] for j in range(dim)))
    v_xi = float(vloc @ xi)

    n = dim + 2
    A = np.zeros((n, n))
    A[0, 0] = v_xi
    A[1, 1] = v_xi
    A[0, 2:] = 0.5 * a_re * xi
    A[1, 2:] = 0.5 * a_im * xi
    A[2:, 0] = 2.0 * fp * a_re * xi
    A[2:, 1] = 2.0 * fp * a_im * xi
    A[2:, 2:] = v_xi * np.eye(dim)

    B = w_xi * np.eye(n)

    M = np.zeros((n, n))
    M[0, 0] = 0.5 * div_w
    M[1, 1] = 0.5 * div_w
    M[2:, 2:] = coupling

    Q = np.eye(n)
    Q[2:, 2:] = np.eye(dim) / (4.0 * fp)
    return SystemMatrices(A=A, B=B, M=M, Q=Q)


# ---------- time stepping ----------

def _sponge_profile(grid: GridSpec, strength: float) -> np.ndarray:
    """Damping rate, zero in the interior, ramping over the outer tenth."""
    sigma = np.zeros(grid.shape)
    for j, X in enumerate(grid.meshes):
        L = grid.half_extent[j]
        ramp = np.clip((np.abs(X) - 0.9 * L) / (0.1 * L), 0.0, 1.0)
        sigma += ramp * ramp
    return strength * sigma


def cfl_limits(state: WKBState) -> tuple[float, float]:
    """Advective and dispersive step bounds 0.5 dx/max|v+w|, 0.2 dx^2/eps,
    with eps the state's (no dispersive bound at eps = 0)."""
    w, _, _ = drift_fields(state.drift, state.grid, state.params)
    speed2 = np.zeros(state.grid.shape)
    for j in range(state.grid.dim):
        speed2 += (state.v[j] + w[j]) ** 2
    vmax = float(np.sqrt(speed2.max()))
    dx = min(state.grid.spacing)
    adv = 0.5 * dx / vmax if vmax > 0 else np.inf
    disp = 0.2 * dx * dx / state.eps if state.eps > 0 else np.inf
    return adv, disp


def _march(state0: WKBState, T, dt, observer, observer_stride, sponge_strength,
           extra_force, with_phi, with_drift, make_state):
    """Shared RK4 loop for the WKB and limit-hydro systems.

    The RK4 state is (alpha, beta, v, phi), started from state0 and
    marched at its eps; the drift is sampled from its exact path on the
    half-step grid (with_drift) or stays at state0's.  Stages 2 and 3
    share the midpoint drift fields.  The endpoint fields are built
    again at the next step's stage 1: keeping them across the step
    raised the peak memory of a 256^2 march by about 1 MB.
    """
    grid, params, eps, drift = state0.grid, state0.params, state0.eps, state0.drift
    alpha, beta, v, phi = (np.array(a) for a in
                           (state0.alpha, state0.beta, state0.v, state0.phi))
    n_steps, h = time_grid(T, dt)

    if with_drift and T > 0:
        path = quadratic_phase_evolve(drift, 0.5 * h, T, params)
        if path.blown_up:
            step = (len(path.times) - 1) // 2 + 1
            raise NumericalAbort(f"the drift phase reaches a caustic in step {step}, "
                                 f"after t = {path.blowup_time:.6g}", step, path.blowup_time)
        drift_at = path.at_index
    else:
        def drift_at(k):
            return drift

    sigma = _sponge_profile(grid, sponge_strength)
    damp = np.exp(-sigma * h)
    ref_alpha, ref_beta = alpha.copy(), beta.copy()
    ref_v = v.copy()

    def fields_at(k):
        return drift_fields(drift_at(k), grid, params)

    def rates(al, be, vv, fields):
        w, _, coupling = fields
        return _fields_rhs(al, be, vv, w, coupling, grid, params, eps,
                           extra_force, with_phi)

    t = 0.0
    if observer is not None:
        observer(t, make_state(alpha, beta, v, phi, drift_at(0), t))

    for step in range(1, n_steps + 1):
        k0 = 2 * (step - 1)
        # a genuine blowup is reported via NumericalAbort, not warning spam
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = rates(alpha, beta, v, fields_at(k0))
            mid = fields_at(k0 + 1)
            k2 = rates(alpha + 0.5 * h * k1[0], beta + 0.5 * h * k1[1],
                       v + 0.5 * h * k1[2], mid)
            k3 = rates(alpha + 0.5 * h * k2[0], beta + 0.5 * h * k2[1],
                       v + 0.5 * h * k2[2], mid)
            del mid
            k4 = rates(alpha + h * k3[0], beta + h * k3[1], v + h * k3[2],
                       fields_at(k0 + 2))

            alpha = alpha + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            beta = beta + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            v = v + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
            if with_phi:
                phi = phi + (h / 6.0) * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])

            if sponge_strength > 0:
                alpha = ref_alpha + (alpha - ref_alpha) * damp
                beta = ref_beta + (beta - ref_beta) * damp
                v = ref_v + (v - ref_v) * damp

        t = step * h
        if not (np.isfinite(alpha).all() and np.isfinite(beta).all()
                and np.isfinite(v).all()):
            raise NumericalAbort(
                f"non-finite samples after step {step} (t = {t:.6g})", step, t)
        if observer is not None and (step % observer_stride == 0 or step == n_steps):
            observer(t, make_state(alpha, beta, v, phi, drift_at(2 * step), t))

    return alpha, beta, v, phi, drift_at(2 * n_steps), t


def _resolve_dt(state0, T, dt, context: str):
    adv, disp = cfl_limits(state0)
    if dt is None:
        # half the advective bound leaves headroom for drift growth mid-run
        dt = min(0.5 * adv, 0.9 * disp, 0.01)
        return time_grid(T, dt)[1] if T > 0 else dt
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dt > adv or dt > disp:
        raise ValueError(
            f"{context}: dt = {dt:.4g} violates the step bounds "
            f"(advective {adv:.4g}, dispersive {disp:.4g})")
    return dt


def evolve_wkb(state0: WKBState, T: float = 0.0, dt: float | None = None,
               observer: Callable[[float, WKBState], None] | None = None,
               observer_stride: int = 1,
               sponge_strength: float = 20.0) -> WKBState:
    """March (alpha, beta, v, phi) to time T under the exact drift.

    The march runs at the state's eps: a state built with eps = 0 runs
    the limit system (no dispersive correction).  When dt is omitted a
    step obeying the advective and dispersive bounds is chosen; a
    supplied dt violating them is rejected.  Raises NumericalAbort,
    before any step, if the drift phase reaches a caustic before T.
    """
    if T < 0:
        raise ValueError(f"duration T must be nonnegative, got {T}")
    dt = _resolve_dt(state0, T, dt, "evolve_wkb")

    def make_state(al, be, vv, ph, dr, t):
        return WKBState(al, be, vv, ph, dr, state0.eps, state0.t + t,
                        state0.grid, state0.params)

    alpha, beta, v, phi, drift, t = _march(
        state0, T, dt, observer, observer_stride, sponge_strength,
        extra_force=None, with_phi=True, with_drift=True, make_state=make_state)
    return make_state(alpha, beta, v, phi, drift, t)


def evolve_hydro(h0: HydroState, T: float, dt: float | None = None,
                 observer: Callable[[float, HydroState], None] | None = None,
                 observer_stride: int = 1,
                 sponge_strength: float = 20.0) -> HydroState:
    """March the limit hydrodynamics (rho, v) in total-velocity form.

    Internally evolves (alpha, beta, v) from alpha = sqrt(rho), beta = 0
    with the rotation drift -Omega x_perp held fixed and the trap force
    applied explicitly, then reads back rho = alpha^2 + beta^2.

    The periodic stencils differentiate the full v, so a velocity that
    does not decay toward the box boundary (an affine carrier phase,
    say) jumps at the seam and destabilizes the march.  Such data
    belongs to evolve_wkb, which transports the affine part in closed
    form and differentiates only the decaying remainder.
    """
    if T < 0:
        raise ValueError(f"duration T must be nonnegative, got {T}")
    grid, params = h0.grid, h0.params
    pts = np.stack(grid.meshes, axis=-1)
    force = np.moveaxis(potential_gradient(pts, params.omega), -1, 0)

    shadow = WKBState(np.sqrt(h0.rho), np.zeros(grid.shape), h0.v,
                      np.zeros(grid.shape), QuadraticPhase.zero(grid.dim), 0.0,
                      h0.t, grid, params)
    dt = _resolve_dt(shadow, T, dt, "evolve_hydro")

    def make_state(al, be, vv, ph, dr, t):
        return HydroState(al * al + be * be, vv, h0.t + t, grid, params)

    alpha, beta, v, _, _, t = _march(
        shadow, T, dt, observer, observer_stride, sponge_strength,
        extra_force=force, with_phi=False, with_drift=False,
        make_state=make_state)
    return make_state(alpha, beta, v, None, None, t)


# ---------- phase accumulation and extraction ----------

def accumulate_phi(states: list[WKBState]) -> np.ndarray:
    """Rebuild phi at the last stored time by trapezoid rule on d_t phi.

    Recomputes the pointwise phase rate at every stored state and
    integrates; an independent consistency route against the phi the
    integrator carries in-state.
    """
    if len(states) < 2:
        raise ValueError("need at least two stored states")
    phi = np.array(states[0].phi)
    prev_rate = rhs_wkb(states[0])[3]
    prev_t = states[0].t
    for st in states[1:]:
        rate = rhs_wkb(st)[3]
        phi = phi + 0.5 * (st.t - prev_t) * (prev_rate + rate)
        prev_rate, prev_t = rate, st.t
    return phi


def gradient_consistency(state: WKBState) -> float:
    """Max gap between the centered gradient of the carried phi and v."""
    worst = 0.0
    for j in range(state.grid.dim):
        worst = max(worst, float(np.max(np.abs(
            d1(state.phi, j, state.grid.spacing[j]) - state.v[j]))))
    return worst


class MadelungFields(NamedTuple):
    rho: np.ndarray
    v: np.ndarray
    current: np.ndarray


VACUUM_FLOOR = 1e-12   # density floor of the Madelung velocity, relative to max
LOOP_SAMPLES = 1440    # trapezoid nodes on a circulation loop


def madelung_extract(psi: WaveField) -> MadelungFields:
    """Density, velocity, and raw current of a wavefunction.

    current = eps Im(conj(psi) grad psi) via spectral derivatives;
    v = current / rho with the density floored at VACUUM_FLOOR times its
    max so vacuum regions stay finite.  Near-vacuum velocity is noise by
    construction; compare currents there instead.
    """
    rho = psi.density()
    grad = spectral_gradient(psi.values, psi.grid)
    current = current_from_gradient(psi.values, grad, psi.params.eps)
    v = current / np.maximum(rho, VACUUM_FLOOR * rho.max())[None]
    return MadelungFields(rho=rho, v=v, current=current)


def _bilinear(field: np.ndarray, grid: GridSpec, x1, x2) -> np.ndarray:
    """Periodic bilinear sample of a 2d grid field at points (x1, x2)."""
    idx = []
    for axis, coord in ((0, x1), (1, x2)):
        L = grid.half_extent[axis]
        h = grid.spacing[axis]
        n = grid.points[axis]
        f = (np.asarray(coord) + L) / h
        i0 = np.floor(f).astype(int)
        idx.append((i0 % n, (i0 + 1) % n, f - i0))
    (i0, i1, fx), (j0, j1, fy) = idx
    return (field[i0, j0] * (1 - fx) * (1 - fy) + field[i1, j0] * fx * (1 - fy)
            + field[i0, j1] * (1 - fx) * fy + field[i1, j1] * fx * fy)


def circulation(v: np.ndarray, grid: GridSpec, center=(0.0, 0.0),
                radius: float = 1.0) -> float:
    """Line integral of a 2d velocity field around a circle.

    Bilinear-samples v at LOOP_SAMPLES points of the loop and applies
    the trapezoid rule; for a quantized vortex of winding m the result
    is 2 pi eps m.
    """
    if grid.dim != 2 or v.shape[0] != 2:
        raise ValueError("circulation is defined for 2d velocity fields")
    theta = np.linspace(0.0, 2.0 * np.pi, LOOP_SAMPLES, endpoint=False)
    cx, cy = center
    x1 = cx + radius * np.cos(theta)
    x2 = cy + radius * np.sin(theta)
    v1 = _bilinear(v[0], grid, x1, x2)
    v2 = _bilinear(v[1], grid, x1, x2)
    tangential = -v1 * np.sin(theta) + v2 * np.cos(theta)
    return float(radius * np.sum(tangential) * (2.0 * np.pi / LOOP_SAMPLES))
