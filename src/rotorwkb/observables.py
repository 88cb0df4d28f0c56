"""Physical diagnostics, Madelung fields and the angular-momentum
moment system.

Every route's record is one set of quadratures over a density rho, a
current J and a kinetic density kin: the mass int rho, the angular
momentum m_eps = -int x_perp . J, the radial momentum moment
n = int x . J, the spread X = <|x|^2>, the cross moment <x1 x2>, and
the energy E = int kin + V rho + G(rho) dx + Omega m_eps.  A
wavefunction gives rho = |psi|^2, J = eps Im(conj(psi) grad psi) and
kin = eps^2/2 |grad psi|^2; pointwise Re(i eps conj(psi) x_perp . grad psi)
= -x_perp . J, so m_eps is the expectation of the rotation generator.
The limit gives J = rho v and kin = rho |v|^2 / 2.  A wavefunction
sampled in the rotating frame (WaveField.angle, as the NLS march hands
its states to observers) is read there: its nodes x stand for the lab
points R(angle) x and its current for R(angle) J.

The moment system for (m, n, X) is the exact Ehrenfest law of the
rotating NLS with a 2d cubic nonlinearity:

    dm/dt = (omega1^2 - omega2^2) <x1 x2>
    dn/dt = 2 (E0 - Omega m) - 2 int |diag(omega) x|^2 rho
    dX/dt = 2 n

The rotation generator commutes with the kinetic term, the rotation
term and a local nonlinearity, so only the trap torque
x_perp . grad V moves m, at every eps and every Omega.  Its coefficient
is omega1^2 - omega2^2; the deformation-scaled prefactor sometimes
quoted for it is dimensionally inconsistent.  For isotropic traps the
system closes and is linear: m is conserved and X breathes at 2 omega
whatever Omega is.  isotropic_closed_form is its exact solution, and
moment_ode_rhs gives the rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (GridSpec, SimParams, WaveField, current_from_gradient, integrate,
                   potential_grid, quadratic_grid, spectral_gradient)
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


def mass(psi: WaveField) -> float:
    return float(integrate(psi.density(), psi.grid))


def probability_current(psi: WaveField) -> np.ndarray:
    """J = eps Im(conj(psi) grad psi), shape (dim, *grid.shape)."""
    return current_from_gradient(psi.values, spectral_gradient(psi.values, psi.grid),
                                 psi.params.eps)


# ---------- records ----------

def _record(t: float, rho: np.ndarray, J: np.ndarray, kin: np.ndarray,
            grid: GridSpec, params: SimParams, angle: float = 0.0) -> ObservableRecord:
    """The one formula set of every record: the observables of density
    rho, current J and kinetic density kin, with x_perp . J = x2 J1 - x1 J2
    and Omega, V and G from params.  The nodes x stand for the lab points
    R(angle) x and J for R(angle) J.  m_eps, n and X do not change under
    that turn, and rho, kin and G(rho) are scalars, so only the quadratic
    fields xy and V read the lab points (core.quadratic_grid)."""
    meshes = grid.meshes
    m = float(integrate(meshes[0] * J[1] - meshes[1] * J[0], grid))
    n = float(integrate(sum(meshes[j] * J[j] for j in range(grid.dim)), grid))
    Xm = float(integrate(quadratic_grid(grid, 2.0 * np.eye(grid.dim)) * rho, grid))
    cross = np.zeros((grid.dim, grid.dim))
    cross[0, 1] = cross[1, 0] = 1.0
    xy = float(integrate(quadratic_grid(grid, cross, angle=angle) * rho, grid))
    trap = potential_grid(grid, params.omega, angle) * rho
    inter = params.nonlinearity.antiderivative(rho)
    e = float(integrate(kin + trap + inter, grid)) + params.Omega * m
    return ObservableRecord(t=t, mass=float(integrate(rho, grid)), energy=e,
                            m_eps=m, n=n, X=Xm, xy=xy)


def record_from_wavefield(psi: WaveField) -> ObservableRecord:
    """All observables of psi from one spectral gradient: rho = |psi|^2,
    J = eps Im(conj(psi) grad psi) and kin = eps^2/2 |grad psi|^2, read
    at psi's angle."""
    eps = psi.params.eps
    grad = spectral_gradient(psi.values, psi.grid)
    J = current_from_gradient(psi.values, grad, eps)
    kin = 0.5 * eps * eps * np.sum(np.abs(grad) ** 2, axis=0)
    del grad  # not alive through the quadratures
    return _record(psi.t, psi.density(), J, kin, psi.grid, psi.params, psi.angle)


def _limit_record(t: float, rho: np.ndarray, v: np.ndarray, grid: GridSpec,
                  params: SimParams) -> ObservableRecord:
    """The limit's inputs: J = rho v and kin = rho |v|^2 / 2."""
    kin = 0.5 * rho * sum(v[j] ** 2 for j in range(grid.dim))
    return _record(t, rho, rho * v, kin, grid, params)


def record_from_hydro(h: HydroState) -> ObservableRecord:
    return _limit_record(h.t, h.rho, h.v, h.grid, h.params)


def record_from_wkb(state: WKBState) -> ObservableRecord:
    """Observables of a WKB state: those of the reassembled wavefunction
    when eps > 0, of the limit (rho, rho (v + grad S)) at eps = 0."""
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


# ---------- Madelung fields ----------

class MadelungFields(NamedTuple):
    rho: np.ndarray
    v: np.ndarray
    current: np.ndarray


VACUUM_FLOOR = 1e-12   # density floor of the Madelung velocity, relative to max
LOOP_SAMPLES = 1440    # trapezoid nodes on a circulation loop


def madelung_extract(psi: WaveField) -> MadelungFields:
    """Density, velocity, and raw current of a wavefunction.

    current = probability_current(psi); v = current / rho with the
    density floored at VACUUM_FLOOR times its max so vacuum regions stay
    finite.  Near-vacuum velocity is noise by construction; compare
    currents there instead.
    """
    rho = psi.density()
    current = probability_current(psi)
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
