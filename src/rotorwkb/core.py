"""Shared foundation for the rotating-superfluid solvers.

The model is the semiclassically scaled Gross-Pitaevskii equation in a
rotating frame,

    i eps d_t psi = -(eps^2/2) Lap psi + V(x) psi + f(|psi|^2) psi
                    + i eps Omega (x_perp . grad) psi,

with a harmonic trap V(x) = (1/2) sum_j omega_j^2 x_j^2 and, in 2d,
x_perp = (x2, -x1).  In 3d the rotation acts in the (x1, x2) plane only.

This module owns the parameter and field containers, the periodic grid
and its quadratic and affine fields, WKB assembly psi = a exp(i Phi / eps),
reference initial data, spectral derivatives, Sobolev-type and gauge norms,
the time grid every marcher shares, the turn of a field from one
rotating-frame angle to another, and the CPU budget that sizes the sweep's
workers and the march's strips.
Field containers are immutable after construction, and they and the
parameters pickle, so they cross into worker processes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np


class NumericalAbort(RuntimeError):
    """A solver produced non-finite values and stopped.

    Carries the step index and simulation time at which the abort fired.
    """

    def __init__(self, message: str, step: int, t: float):
        super().__init__(message)
        self.step = step
        self.t = t

    def __reduce__(self):
        return type(self), (self.args[0], self.step, self.t)


# ---------- nonlinearity ----------

@dataclass(frozen=True)
class Nonlinearity:
    """Local nonlinearity f(rho) with antiderivative G, G' = f, G(0) = 0.

    Identity is the name; the callables are excluded from equality so
    separately built instances of the same law compare equal.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    fprime: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    antiderivative: Callable[[np.ndarray], np.ndarray] = field(compare=False)

    @staticmethod
    def cubic() -> "Nonlinearity":
        """Defocusing cubic: f(rho) = rho, G(rho) = rho^2 / 2."""
        return Nonlinearity(
            name="cubic",
            f=lambda z: z,
            fprime=lambda z: np.ones_like(z),
            antiderivative=lambda z: 0.5 * z * z,
        )

    @staticmethod
    def none() -> "Nonlinearity":
        """Linear equation, f = 0.  Test and reference use only."""
        return Nonlinearity(
            name="none",
            f=lambda z: np.zeros_like(z),
            fprime=lambda z: np.zeros_like(z),
            antiderivative=lambda z: np.zeros_like(z),
        )

    @staticmethod
    def from_name(name: str) -> "Nonlinearity":
        try:
            return {"cubic": Nonlinearity.cubic, "none": Nonlinearity.none}[name]()
        except KeyError:
            raise ValueError(f"unknown nonlinearity {name!r}; known: cubic, none")

    def __reduce__(self):
        # the callables are lambdas, which do not pickle; the name rebuilds them
        return Nonlinearity.from_name, (self.name,)


# ---------- parameters ----------

@dataclass(frozen=True)
class SimParams:
    """Physical parameters: scale eps, rotation rate Omega, trap frequencies.

    omega holds one trap frequency per axis.  Frequencies may be zero
    (no trap along that axis); they must not be negative.
    """

    eps: float
    Omega: float = 0.0
    omega: tuple[float, ...] = (1.0, 1.0)
    nonlinearity: Nonlinearity = field(default_factory=Nonlinearity.cubic)

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.Omega < 0:
            raise ValueError(f"Omega must be nonnegative, got {self.Omega}")
        if len(self.omega) not in (2, 3):
            raise ValueError(f"omega needs 2 or 3 components, got {len(self.omega)}")
        if any(w < 0 for w in self.omega):
            raise ValueError(f"trap frequencies must be nonnegative, got {self.omega}")

    @property
    def dim(self) -> int:
        return len(self.omega)


def rotation_generator(dim: int) -> np.ndarray:
    """Matrix J with J x = x_perp, i.e. x_perp = (x2, -x1[, 0])."""
    if dim == 2:
        return np.array([[0.0, 1.0], [-1.0, 0.0]])
    if dim == 3:
        return np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    raise ValueError(f"dim must be 2 or 3, got {dim}")


def eval_potential(x: np.ndarray, omega: Sequence[float]) -> np.ndarray:
    """Trap potential (1/2) sum_j omega_j^2 x_j^2 at points x.

    x has the component axis last, so shapes (d,), (n, d) and (..., d)
    all work.
    """
    x = np.asarray(x, dtype=float)
    w2 = np.asarray(omega, dtype=float) ** 2
    if x.shape[-1] != w2.shape[0]:
        raise ValueError(f"point dim {x.shape[-1]} does not match omega dim {w2.shape[0]}")
    return 0.5 * np.sum(w2 * x * x, axis=-1)


# ---------- time grid ----------

MAX_STEPS = 10 ** 8  # cap on the step count of one march


def time_grid(T: float, dt: float) -> tuple[int, float]:
    """Step count n and uniform step h = T / n of a march to T.

    n = ceil(T / dt), so no step is longer than the dt a caller
    validated; a relative slack of 1e-9 keeps T / dt steps when T is a
    multiple of dt up to roundoff (h then exceeds dt by that roundoff
    at most).  T = 0 gives no step and h = dt, so a caller can still
    build its step operators.  Every march reads (T, dt) here, so this
    is the one check that T is finite and >= 0, dt finite and > 0, and
    n at most MAX_STEPS.
    """
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"duration T must be nonnegative and finite, got {T}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    ratio = T / dt
    if not ratio <= MAX_STEPS:
        raise ValueError(f"T = {T} at dt = {dt} takes n = T / dt = {ratio:.6g} steps, "
                         f"more than MAX_STEPS = {MAX_STEPS}")
    n = math.ceil(ratio * (1.0 - 1e-9))
    return n, T / n if n else dt


# ---------- CPU budget ----------

def cpu_budget() -> int:
    """The CPUs one process may keep busy: ROTORWKB_THREADS when set,
    else the CPUs this process may run on.  It caps the sweep's worker
    processes and the WKB march's row strips; every sweep worker sets
    its own budget to 1."""
    raw = os.environ.get("ROTORWKB_THREADS", "")
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise ValueError(f"ROTORWKB_THREADS must be an integer, got {raw!r}")
        if cap < 1:
            raise ValueError(f"ROTORWKB_THREADS must be >= 1, got {cap}")
        return cap
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------- grid ----------

@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on the box [-L_j, L_j) per axis.

    points must be powers of two, at least 8, so the spectral kernels
    always see FFT-friendly sizes.  Node j on an axis sits at
    -L + j * (2L / N); the node x = 0 is always present.
    """

    half_extent: tuple[float, ...]
    points: tuple[int, ...]

    def __post_init__(self):
        if len(self.half_extent) != len(self.points):
            raise ValueError("half_extent and points must have equal length")
        if len(self.points) not in (2, 3):
            raise ValueError(f"grid must be 2d or 3d, got {len(self.points)}d")
        for n in self.points:
            if n < 8 or (n & (n - 1)) != 0:
                raise ValueError(f"points must be powers of two >= 8, got {n}")
        for L in self.half_extent:
            if not 0 < L < math.inf:
                raise ValueError(f"half_extent must be positive and finite, got {L}")

    def __reduce__(self):
        # the cached coordinate arrays are rebuilt on demand, not shipped
        return GridSpec, (self.half_extent, self.points)

    @staticmethod
    def square(points: int, half_extent: float, dim: int = 2) -> "GridSpec":
        return GridSpec((float(half_extent),) * dim, (int(points),) * dim)

    @property
    def dim(self) -> int:
        return len(self.points)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(2.0 * L / n for L, n in zip(self.half_extent, self.points))

    @property
    def cell(self) -> float:
        """Volume of one grid cell, the quadrature weight."""
        out = 1.0
        for h in self.spacing:
            out *= h
        return out

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        out = []
        for L, n, h in zip(self.half_extent, self.points, self.spacing):
            out.append(-L + h * np.arange(n))
        return tuple(out)

    @cached_property
    def meshes(self) -> tuple[np.ndarray, ...]:
        """Dense coordinate arrays, one per axis, matching the field shape."""
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    @cached_property
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Angular wavenumbers 2 pi fftfreq per axis, in FFT ordering."""
        out = []
        for n, h in zip(self.points, self.spacing):
            out.append(2.0 * np.pi * np.fft.fftfreq(n, d=h))
        return tuple(out)

    def wavenumber_mesh(self, axis: int) -> np.ndarray:
        """Wavenumbers along one axis, broadcast to the field shape."""
        k = self.wavenumbers[axis]
        reshape = [1] * self.dim
        reshape[axis] = self.points[axis]
        return k.reshape(reshape)


def integrate(values: np.ndarray, grid: GridSpec) -> float | complex:
    """Box quadrature: cell measure times the plain sum."""
    return grid.cell * values.sum()


def lab_points(grid: GridSpec, angle: float = 0.0):
    """Coordinates of the lab points R(angle) x of the nodes x, one array
    per axis, R(angle) the counterclockwise turn of the (x1, x2) plane:
    grid.meshes at angle 0, else turned from the axes as arrays that
    broadcast to the grid shape."""
    if not angle:
        return grid.meshes
    x = np.meshgrid(*grid.axes, indexing="ij", sparse=True)
    c, s = math.cos(angle), math.sin(angle)
    return (c * x[0] - s * x[1], s * x[0] + c * x[1]) + tuple(x[2:])


def quadratic_grid(grid: GridSpec, A, b=None, c: float = 0.0,
                   angle: float = 0.0) -> np.ndarray:
    """x . A x / 2 + b . x + c at the lab points x = R(angle) y of the nodes
    y, A symmetric: the one formula of a quadratic field on the grid.  The
    turn goes into the coefficients (R^T A R, R^T b), and the field grows one
    node axis at a time: the field F over the axes before j gains
    (b_j + sum_{i<j} A_ji y_i) y_j + A_jj y_j^2 / 2 in one pass over the grid,
    the matrix product of the rows (F, b_j + sum_{i<j} A_ji y_i, 1) by the
    columns (1, y_j, A_jj y_j^2 / 2)."""
    A = np.asarray(A, dtype=float)
    b = np.zeros(grid.dim) if b is None else b
    if angle:
        R, co, si = np.eye(grid.dim), math.cos(angle), math.sin(angle)
        R[:2, :2] = ((co, -si), (si, co))
        A, b = R.T @ A @ R, R.T @ b
    y = grid.axes
    out = (0.5 * A[0, 0] * y[0] + b[0]) * y[0] + c
    for j in range(1, grid.dim):
        rows = np.ones(out.shape + (3,))
        rows[..., 0] = out
        rows[..., 1] = b[j]
        for i in range(j):
            rows[..., 1] += A[j, i] * y[i].reshape((-1,) + (1,) * (j - 1 - i))
        cols = np.stack([np.ones_like(y[j]), y[j], 0.5 * A[j, j] * y[j] * y[j]])
        out = (rows.reshape(-1, 3) @ cols).reshape(out.shape + (-1,))
    return out


def affine_field(b, M, coords) -> list[np.ndarray]:
    """The components of b + M x at the coordinates x (the grid meshes, or
    one point's): the one formula of an affine field, drift or trap force."""
    out = []
    for i in range(len(coords)):
        ui = np.multiply(M[i, 0], coords[0])
        ui += b[i]
        for j in range(1, len(coords)):
            ui += M[i, j] * coords[j]
        out.append(ui)
    return out


def potential_grid(grid: GridSpec, omega: Sequence[float],
                   angle: float = 0.0) -> np.ndarray:
    """Trap potential at the lab points R(angle) x of the nodes x."""
    return quadratic_grid(grid, np.diag(np.square(omega)), angle=angle)


def expi(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) of a real array, built as cos theta + i sin theta in
    one complex buffer: the bits of np.exp on the imaginary argument
    without its complex temporaries."""
    out = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def boundary_max(values: np.ndarray) -> float:
    """Max modulus over the outermost layer of grid cells, a leak monitor."""
    out = 0.0
    for axis in range(values.ndim):
        for edge in (0, -1):
            sl = [slice(None)] * values.ndim
            sl[axis] = edge
            out = max(out, float(np.abs(values[tuple(sl)]).max()))
    return out


def spectral_gradient(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """All partial derivatives of a periodic field via the FFT.

    Returns an array of shape (dim, *grid.shape); the result is complex
    even for real input.
    """
    if values.shape != grid.shape:
        raise ValueError(f"field shape {values.shape} does not match grid {grid.shape}")
    vhat = np.fft.fftn(values)
    parts = []
    for axis in range(grid.dim):
        k = grid.wavenumber_mesh(axis)
        parts.append(np.fft.ifftn(1j * k * vhat))
    return np.stack(parts)


def current_from_gradient(values: np.ndarray, grad: np.ndarray, eps: float) -> np.ndarray:
    """J = eps Im(conj(psi) grad psi) from samples and their gradient."""
    return eps * np.imag(np.conj(values)[None] * grad)


# ---------- fields ----------

def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


def _shear(values: np.ndarray, mult: np.ndarray, axis: int) -> None:
    """Multiply the FFT of values along one axis by mult, in place."""
    np.fft.fft(values, axis=axis, out=values)
    values *= mult
    np.fft.ifft(values, axis=axis, out=values)


def turn_field(values: np.ndarray, grid: GridSpec, angle: float) -> np.ndarray:
    """Samples at the nodes x of the field f(R(-angle) x): f turned
    counterclockwise by angle in the (x1, x2) plane.  A field sampled at
    angle a (WaveField.angle) turned by a - b is the same field at angle
    b; turned by a, it is on the lab grid.  Real input turns as its complex cast.

    The angle is reduced to [-pi, pi].  Beyond pi/2 the exact flip
    x -> -x of the plane takes pi off it.  The rest, a, is turned in
    n = ceil(|a| / (pi/4)) equal parts b = a / n, each
    R(-b) = Sx(tan(b/2)) Sy(-sin b) Sx(tan(b/2)): three one-axis shears
    f(x) -> f(S x), each a Fourier multiplier along its axis (Unser,
    Thevenaz & Yaroslavsky, IEEE TIP 4:1371, 1995).  The shears run as a
    palindrome, so a turn by -angle undoes a turn by angle to roundoff.
    A shear by tau widens the spectrum across it by tau k; with
    |b| <= pi/4 that is at most 0.41 k, where one turn by 1.2 rad
    (0.68 k) aliased a resolved 128^2 Gaussian packet at 1e-6.
    """
    a = math.remainder(angle, 2.0 * math.pi)
    out = np.array(values, dtype=complex)
    if abs(a) > 0.5 * math.pi:
        # node j sits at -L + j h, and -x of it is node (N - j) mod N
        out = np.roll(np.flip(out, axis=(0, 1)), 1, axis=(0, 1))
        a -= math.copysign(math.pi, a)
    turns = math.ceil(abs(a) / (0.25 * math.pi))
    if not turns:
        return out
    b = a / turns
    plane = (grid.points[0], grid.points[1]) + (1,) * (grid.dim - 2)
    (k1, k2), (x1, x2) = grid.wavenumbers[:2], grid.axes[:2]
    # f(x1 + tan(b/2) x2, x2) and f(x1, x2 - sin(b) x1)
    along1 = expi(np.multiply.outer(k1, math.tan(0.5 * b) * x2)).reshape(plane)
    along2 = expi(np.multiply.outer(-math.sin(b) * x1, k2)).reshape(plane)
    for _ in range(turns):
        _shear(out, along1, 0)
        _shear(out, along2, 1)
        _shear(out, along1, 0)
    return out


@dataclass(frozen=True)
class WaveField:
    """Complex wavefunction sampled on a grid at one instant.

    The samples are psi at the lab points R(angle) x of the nodes x,
    R(angle) the counterclockwise turn of the (x1, x2) plane: angle 0,
    the default, is the lab grid, and the NLS march keeps its states at
    the angle of its rotating frame.  The sample array is copied in and
    marked read-only, so a WaveField can be handed to other threads or
    kept in trajectory lists safely.
    """

    values: np.ndarray
    t: float
    grid: GridSpec
    params: SimParams
    angle: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise ValueError(
                f"field shape {v.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "values", _freeze(v.astype(complex, copy=False)))

    def __reduce__(self):
        # through the constructor, so the unpickled samples are read-only too
        return WaveField, (self.values, self.t, self.grid, self.params, self.angle)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def wkb_assemble(amplitude: np.ndarray, phase: np.ndarray, grid: GridSpec,
                 params: SimParams, t: float = 0.0) -> WaveField:
    """Build psi = amplitude * exp(i * phase / eps) as a WaveField, eps
    from params.  amplitude may be complex; phase must be real."""
    amplitude = np.asarray(amplitude)
    phase = np.asarray(phase)
    if amplitude.shape != grid.shape or phase.shape != grid.shape:
        raise ValueError("amplitude/phase shape does not match grid")
    if np.iscomplexobj(phase):
        raise ValueError("phase must be real valued")
    return WaveField(amplitude * np.exp(1j * phase / params.eps), t, grid, params)


def _unit_mass(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """a at unit mass; a mass not > 0 and finite (underflow, say) is refused."""
    norm2 = float(integrate(np.abs(a) ** 2, grid))
    if not 0.0 < norm2 < math.inf:
        raise ValueError(f"the start amplitude has mass {norm2:g} on the grid")
    return a / math.sqrt(norm2)


def make_gaussian(grid: GridSpec, center: Sequence[float] | None = None,
                  width: float = 2.0 ** -0.5) -> np.ndarray:
    """Real Gaussian bump exp(-|x - c|^2 / (2 width^2)), unit mass.

    The default width gives the profile exp(-|x|^2) before normalization.
    """
    if center is None:
        center = (0.0,) * grid.dim
    if len(center) != grid.dim:
        raise ValueError(f"center needs {grid.dim} components, got {len(center)}")
    r2 = np.zeros(grid.shape)
    for X, c in zip(grid.meshes, center):
        r2 += (X - c) ** 2
    return _unit_mass(np.exp(-r2 / (2.0 * width * width)), grid)


def make_vortex_init(grid: GridSpec, winding: int, width: float = 1.0,
                     center: Sequence[float] = (0.0, 0.0)) -> np.ndarray:
    """Vortex r^|m| exp(-r^2/(2 w^2)) exp(i m theta) of winding m about the
    centre c, unit mass; |a| vanishes at c (exactly, when c is a node).  2d only."""
    if grid.dim != 2:
        raise ValueError("vortex initial data is 2d only")
    X1, X2 = (X - cj for X, cj in zip(grid.meshes, center))
    r = np.hypot(X1, X2)
    theta = np.arctan2(X2, X1)
    m = int(winding)
    a = r ** abs(m) * np.exp(-r * r / (2.0 * width * width)) * np.exp(1j * m * theta)
    return _unit_mass(a, grid)


# ---------- norms ----------

def gauge_distance(a: np.ndarray, b: np.ndarray, cell: float = 1.0) -> float:
    """The L2 distance min over theta ||a - e^{i theta} b|| (weight cell), at theta
    the phase of <b, a>; formed from the difference, so it does not cancel."""
    phase = np.exp(1j * np.angle(np.vdot(b, a)))
    return math.sqrt(cell * float(np.sum(np.abs(a - phase * b) ** 2)))


def sobolev_norm(values: np.ndarray, grid: GridSpec, s: float = 4.0) -> float:
    """Spectral H^s norm (sum_k (1 + |k|^2)^s |u_hat(k)|^2 cell)^(1/2).

    u_hat is the DFT scaled by 1/sqrt(total points), so s = 0 reproduces
    the L^2 quadrature norm.  Multi-component input stacks components on
    the leading axis and combines them in quadrature.
    """
    values = np.asarray(values)
    if values.shape == grid.shape:
        comps = values[None]
    elif values.ndim == grid.dim + 1 and values.shape[1:] == grid.shape:
        comps = values
    else:
        raise ValueError(f"field shape {values.shape} does not match grid {grid.shape}")

    k2 = np.zeros(grid.shape)
    for axis in range(grid.dim):
        k2 = k2 + grid.wavenumber_mesh(axis) ** 2
    weight = (1.0 + k2) ** s
    ntot = float(np.prod(grid.shape))
    total = 0.0
    for u in comps:
        uhat2 = np.abs(np.fft.fftn(u)) ** 2 / ntot
        total += float(np.sum(weight * uhat2)) * grid.cell
    return math.sqrt(total)
