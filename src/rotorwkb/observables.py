"""Physical diagnostics and the angular-momentum moment system.

Quadratures over grid fields: mass, energy, the angular momentum
expectation

    m_eps = Re[ i eps int conj(psi) (x_perp . grad psi) dx ],

its hydrodynamic limit m = -int rho x_perp . v dx, the radial momentum
moment n = int x . J dx with current J = eps Im(conj(psi) grad psi),
the spread X = <|x|^2>, and the cross moment <x1 x2>.

The moment system for (m, n, X) is the exact Ehrenfest law of the
rotating NLS with a 2d cubic nonlinearity:

    dm/dt = (omega1^2 - omega2^2) <x1 x2>
    dn/dt = 2 (E0 - Omega m) - 2 int |diag(omega) x|^2 rho
    dX/dt = 2 n

The rotation generator commutes with the kinetic term, the rotation
term and a local nonlinearity, so only the trap torque
x_perp . grad V moves m, at every eps and every Omega.  Its coefficient
is omega1^2 - omega2^2; the deformation-scaled prefactor sometimes
quoted for it is dimensionally inconsistent, and both values are
exposed on MomentODEParams so the gap stays visible.  For isotropic
traps the system closes: m is conserved and X breathes at 2 omega
whatever Omega is; isotropic_closed_form evaluates the solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (GridSpec, SimParams, WaveField, current_from_gradient, integrate,
                   potential_grid, spectral_gradient, time_grid)
from .hydro import HydroState, WKBState

CSV_HEADER = "t,mass,energy,m_eps,n,X,xy"


@dataclass(frozen=True)
class ObservableRecord:
    t: float
    mass: float
    energy: float
    m_eps: float
    n: float
    X: float
    xy: float

    def __post_init__(self):
        vals = [self.t, self.mass, self.energy, self.m_eps, self.n, self.X, self.xy]
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite observable record at t = {self.t}")
        if self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")


def _require_real(value: complex, what: str) -> float:
    tol = 1e-10 * max(1.0, abs(value.real))
    if abs(value.imag) > tol:
        raise FloatingPointError(
            f"{what} quadrature has imaginary residue {value.imag:.3e} "
            f"against real part {value.real:.3e}")
    return float(value.real)


def mass(psi: WaveField) -> float:
    return float(integrate(psi.density(), psi.grid))


def probability_current(psi: WaveField) -> np.ndarray:
    """J = eps Im(conj(psi) grad psi), shape (dim, *grid.shape)."""
    return current_from_gradient(psi.values, spectral_gradient(psi.values, psi.grid),
                                 psi.params.eps)


def _x_perp_dot(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """x_perp . a = x2 a1 - x1 a2 (acts in the x1-x2 plane)."""
    X1, X2 = grid.meshes[0], grid.meshes[1]
    return X2 * a[0] - X1 * a[1]


def _energy(psi: WaveField, rho: np.ndarray, grad: np.ndarray,
            x_perp_grad: np.ndarray) -> float:
    params = psi.params
    eps = params.eps
    grid = psi.grid
    kinetic = 0.5 * eps * eps * np.sum(np.abs(grad) ** 2, axis=0)
    trap = potential_grid(grid, params.omega) * rho
    inter = params.nonlinearity.antiderivative(rho)
    total = complex(integrate(kinetic + trap + inter, grid))
    if params.Omega != 0.0:
        rot = 1j * eps * params.Omega * np.conj(psi.values) * x_perp_grad
        total += complex(integrate(rot, grid))
    return _require_real(total, "energy")


def energy(psi: WaveField) -> float:
    """Total energy: kinetic + trap + interaction + rotation coupling.

    E = int eps^2/2 |grad psi|^2 + V |psi|^2 + G(|psi|^2)
        + Re(i eps Omega conj(psi) x_perp . grad psi) dx,
    with G the antiderivative of f and eps, Omega, V, f from psi.params.
    The rotation term is real analytically; its roundoff residue is
    checked before discarding.
    """
    grad = spectral_gradient(psi.values, psi.grid)
    return _energy(psi, psi.density(), grad, _x_perp_dot(grad, psi.grid))


def _angular_momentum(psi: WaveField, x_perp_grad: np.ndarray) -> float:
    val = (1j * psi.params.eps
           * complex(integrate(np.conj(psi.values) * x_perp_grad, psi.grid)))
    return _require_real(val, "angular momentum")


def angular_momentum(psi: WaveField) -> float:
    """m_eps = Re[i eps int conj(psi) x_perp . grad psi dx], eps from psi.params."""
    grad = spectral_gradient(psi.values, psi.grid)
    return _angular_momentum(psi, _x_perp_dot(grad, psi.grid))


def limit_angular_momentum(rho: np.ndarray, v: np.ndarray, grid: GridSpec) -> float:
    """m = -int rho x_perp . v dx (note the minus sign)."""
    return float(integrate(-rho * _x_perp_dot(v, grid), grid))


def moments_density(rho: np.ndarray, v: np.ndarray | None, grid: GridSpec):
    """(n, X, xy) from density samples; n needs a velocity (else 0)."""
    r2 = sum(X * X for X in grid.meshes)
    Xm = float(integrate(r2 * rho, grid))
    xy = float(integrate(grid.meshes[0] * grid.meshes[1] * rho, grid))
    if v is None:
        n = 0.0
    else:
        xv = sum(grid.meshes[j] * v[j] for j in range(grid.dim))
        n = float(integrate(rho * xv, grid))
    return n, Xm, xy


def _moments(psi: WaveField, rho: np.ndarray, grad: np.ndarray):
    J = current_from_gradient(psi.values, grad, psi.params.eps)
    xJ = sum(psi.grid.meshes[j] * J[j] for j in range(psi.grid.dim))
    n = float(integrate(xJ, psi.grid))
    _, Xm, xy = moments_density(rho, None, psi.grid)
    return n, Xm, xy


def moments(psi: WaveField):
    """(n, X, xy) of a wavefunction; n = int x . J dx is vacuum-safe."""
    return _moments(psi, psi.density(), spectral_gradient(psi.values, psi.grid))


# ---------- records ----------

def record_from_wavefield(psi: WaveField) -> ObservableRecord:
    """All observables of psi from one spectral gradient."""
    rho = psi.density()
    grad = spectral_gradient(psi.values, psi.grid)
    n, Xm, xy = _moments(psi, rho, grad)
    x_perp_grad = _x_perp_dot(grad, psi.grid)
    e = _energy(psi, rho, grad, x_perp_grad)
    m_eps = _angular_momentum(psi, x_perp_grad)
    return ObservableRecord(t=psi.t, mass=float(integrate(rho, psi.grid)), energy=e,
                            m_eps=m_eps, n=n, X=Xm, xy=xy)


def _limit_record(t: float, rho: np.ndarray, v: np.ndarray, grid: GridSpec,
                  params: SimParams) -> ObservableRecord:
    """Limit functionals; energy int rho |v|^2/2 + V rho + G(rho) dx + Omega m."""
    n, Xm, xy = moments_density(rho, v, grid)
    m = limit_angular_momentum(rho, v, grid)
    kin = 0.5 * rho * sum(v[j] ** 2 for j in range(grid.dim))
    trap = potential_grid(grid, params.omega) * rho
    inter = params.nonlinearity.antiderivative(rho)
    e = float(integrate(kin + trap + inter, grid)) + params.Omega * m
    return ObservableRecord(t=t, mass=float(integrate(rho, grid)), energy=e,
                            m_eps=m, n=n, X=Xm, xy=xy)


def record_from_hydro(h: HydroState) -> ObservableRecord:
    return _limit_record(h.t, np.asarray(h.rho), np.asarray(h.v), h.grid, h.params)


def record_from_wkb(state: WKBState) -> ObservableRecord:
    """Observables of a WKB state: exact functionals of the reassembled
    wavefunction when eps > 0, limit functionals at eps = 0."""
    if state.eps > 0:
        return record_from_wavefield(state.to_wavefield())
    return _limit_record(state.t, state.density(), state.total_velocity(),
                         state.grid, state.params)


def records_to_csv(records: Sequence[ObservableRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join(f"{x:.17g}" for x in
                              (r.t, r.mass, r.energy, r.m_eps, r.n, r.X, r.xy)))
    return "\n".join(lines) + "\n"


def records_from_csv(text: str) -> list[ObservableRecord]:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad observables CSV header: {lines[0] if lines else ''!r}")
    out = []
    for ln in lines[1:]:
        t, m, e, me, n, Xm, xy = (float(tok) for tok in ln.split(","))
        out.append(ObservableRecord(t, m, e, me, n, Xm, xy))
    return out


# ---------- moment ODE system ----------

@dataclass(frozen=True)
class MomentODEParams:
    """Coefficients and initial data of the closed moment system."""

    Omega: float
    omega: tuple[float, ...]
    E0: float
    m0: float
    n0: float
    X0: float

    def __post_init__(self):
        if self.omega_perp_sq <= 0:
            raise ValueError("trap frequencies must not both vanish")

    @property
    def delta(self) -> float:
        """Trap deformation (omega1^2 - omega2^2) / (omega1^2 + omega2^2)."""
        w1, w2 = self.omega[0] ** 2, self.omega[1] ** 2
        return (w1 - w2) / (w1 + w2)

    @property
    def omega_perp_sq(self) -> float:
        return 0.5 * (self.omega[0] ** 2 + self.omega[1] ** 2)

    @property
    def isotropic(self) -> bool:
        return len(set(self.omega)) == 1

    @staticmethod
    def from_record(r: ObservableRecord, params: SimParams) -> "MomentODEParams":
        return MomentODEParams(Omega=params.Omega, omega=params.omega,
                               E0=r.energy, m0=r.m_eps, n0=r.n, X0=r.X)


def moment_ode_rhs(m: float, n: float, X: float, xy: float,
                   p: MomentODEParams, weighted_x2: float | None = None):
    """(dm/dt, dn/dt) of the moment system.

    The trap moment int |diag(omega) x|^2 rho closes to omega^2 X only
    for isotropic traps; anisotropic use must supply it.
    """
    if weighted_x2 is None:
        if not p.isotropic:
            raise ValueError("anisotropic trap: supply weighted_x2 = "
                             "int |diag(omega) x|^2 rho dx")
        weighted_x2 = p.omega[0] ** 2 * X
    mdot = (p.omega[0] ** 2 - p.omega[1] ** 2) * xy
    ndot = 2.0 * (p.E0 - p.Omega * m) - 2.0 * weighted_x2
    return mdot, ndot


def integrate_isotropic_moments(p: MomentODEParams, T: float, dt: float = 5e-4):
    """RK4 the closed isotropic (m, n, X) system; returns (t, m, n, X) arrays."""
    if not p.isotropic:
        raise ValueError("the moment system closes only for isotropic traps")
    w2 = p.omega[0] ** 2

    def rhs(y):
        m, n, X = y
        return np.array([0.0,
                         2.0 * (p.E0 - p.Omega * m) - 2.0 * w2 * X,
                         2.0 * n])

    n_steps, h = time_grid(T, dt)
    y = np.array([p.m0, p.n0, p.X0], dtype=float)
    out = np.empty((n_steps + 1, 3))
    ts = np.linspace(0.0, T, n_steps + 1)
    out[0] = y
    for i in range(1, n_steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i] = y
    return ts, out[:, 0], out[:, 1], out[:, 2]


def isotropic_closed_form(t, p: MomentODEParams):
    """(m, n, X)(t) of the isotropic moment system.

    m = m0 is conserved, X'' = 4 (E0 - Omega m0) - 4 omega^2 X gives
    X(t) = Xbar + (X0 - Xbar) cos(2 omega t) + (n0 / omega) sin(2 omega t)
    with Xbar = (E0 - Omega m0) / omega^2, and n = X' / 2.
    """
    if not p.isotropic:
        raise ValueError("closed form requires an isotropic trap")
    w = p.omega[0]
    x_bar = (p.E0 - p.Omega * p.m0) / w ** 2
    t = np.asarray(t, dtype=float)
    c, s = np.cos(2.0 * w * t), np.sin(2.0 * w * t)
    X = x_bar + (p.X0 - x_bar) * c + (p.n0 / w) * s
    n = p.n0 * c - w * (p.X0 - x_bar) * s
    return np.full_like(t, p.m0), n, X


def am_relation_residual(records: Sequence[ObservableRecord]) -> np.ndarray:
    """Residual m_eps(t) - m_eps(0) of isotropic angular momentum
    conservation, m_eps(0) from the first record."""
    m0 = records[0].m_eps
    return np.array([r.m_eps - m0 for r in records])


# ---------- frequency measurement ----------

def dominant_frequency(times: np.ndarray, series: np.ndarray) -> float:
    """Angular frequency of the strongest oscillation in a sampled series.

    De-means, Hann-windows, zero-pads for a first FFT estimate, then
    refines by golden-section maximization of the continuous windowed
    DTFT power, so the answer is not quantized to the FFT bin width.
    """
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    if len(times) != len(series) or len(times) < 8:
        raise ValueError("need at least 8 aligned samples")
    dt = times[1] - times[0]
    x = (series - series.mean()) * np.hanning(len(series))
    nfft = 8 * len(x)
    spec = np.abs(np.fft.rfft(x, n=nfft))
    freqs = 2.0 * np.pi * np.fft.rfftfreq(nfft, d=dt)
    k = int(np.argmax(spec[1:]) + 1)

    def power(w):
        return -np.abs(np.sum(x * np.exp(-1j * w * times))) ** 2

    lo = freqs[max(k - 2, 0)]
    hi = freqs[min(k + 2, len(freqs) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = power(c), power(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = power(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = power(d)
    return 0.5 * (a + b)
