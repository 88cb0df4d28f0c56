"""Shared foundation for the rotating-superfluid solvers.

The model is the semiclassically scaled Gross-Pitaevskii equation in a
rotating frame,

    i eps d_t psi = -(eps^2/2) Lap psi + V(x) psi + f(|psi|^2) psi
                    + i eps Omega (x_perp . grad) psi,

with a harmonic trap V(x) = (1/2) sum_j omega_j^2 x_j^2 and, in 2d,
x_perp = (x2, -x1).  In 3d the rotation acts in the (x1, x2) plane only.

This module owns the parameter and field containers, the periodic grid,
WKB assembly psi = a exp(i Phi / eps), reference initial data, spectral
derivatives, Sobolev-type norms, and the time grid every marcher
shares.  Field containers are immutable after construction, and they
and the parameters pickle, so they cross into worker processes.
"""

from __future__ import annotations

import math
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


def potential_gradient(x: np.ndarray, omega: Sequence[float]) -> np.ndarray:
    """grad V = diag(omega^2) x, component axis last."""
    x = np.asarray(x, dtype=float)
    w2 = np.asarray(omega, dtype=float) ** 2
    return w2 * x


# ---------- time grid ----------

def time_grid(T: float, dt: float) -> tuple[int, float]:
    """Step count n and uniform step h = T / n of a march to T.

    n = ceil(T / dt), so no step is longer than the dt a caller
    validated; a relative slack of 1e-9 keeps T / dt steps when T is a
    multiple of dt up to roundoff (h then exceeds dt by that roundoff
    at most).  T = 0 gives one step of length 0.
    """
    n = max(1, math.ceil(T / dt * (1.0 - 1e-9)))
    return n, T / n


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


def potential_grid(grid: GridSpec, omega: Sequence[float]) -> np.ndarray:
    w2 = np.asarray(omega, dtype=float) ** 2
    out = np.zeros(grid.shape)
    for j, X in enumerate(grid.meshes):
        out += 0.5 * w2[j] * X * X
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


@dataclass(frozen=True)
class WaveField:
    """Complex wavefunction sampled on a grid at one instant.

    The sample array is copied in and marked read-only, so a WaveField
    can be handed to other threads or kept in trajectory lists safely.
    """

    values: np.ndarray
    t: float
    grid: GridSpec
    params: SimParams

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise ValueError(
                f"field shape {v.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "values", _freeze(v.astype(complex, copy=False)))

    def __reduce__(self):
        # through the constructor, so the unpickled samples are read-only too
        return WaveField, (self.values, self.t, self.grid, self.params)

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
    a = np.exp(-r2 / (2.0 * width * width))
    norm2 = integrate(a * a, grid)
    return a / math.sqrt(float(norm2))


def make_vortex_init(grid: GridSpec, winding: int, width: float = 1.0) -> np.ndarray:
    """Central vortex profile r^|m| exp(-r^2/(2 w^2)) exp(i m theta), unit mass.

    The phase winds `winding` times around the origin; the modulus
    vanishes there (exactly, at the x = 0 node) so the field is smooth.
    2d only.
    """
    if grid.dim != 2:
        raise ValueError("vortex initial data is 2d only")
    X1, X2 = grid.meshes
    r = np.hypot(X1, X2)
    theta = np.arctan2(X2, X1)
    m = int(winding)
    a = r ** abs(m) * np.exp(-r * r / (2.0 * width * width)) * np.exp(1j * m * theta)
    norm2 = integrate(np.abs(a) ** 2, grid)
    return a / math.sqrt(float(norm2))


# ---------- norms ----------

def sobolev_norm(values: np.ndarray, grid: GridSpec, s: float = 4.0,
                 weighted: bool = False) -> float:
    """Spectral H^s norm; optionally the trap-adapted weighted variant.

    The plain norm is (sum_k (1 + |k|^2)^s |u_hat(k)|^2 cell)^(1/2) with
    u_hat the DFT scaled by 1/sqrt(total points), so s = 0 reproduces
    the L^2 quadrature norm.  With weighted=True the result is
    ||u||_s + || |x| u ||_{s-1}, the norm that tracks both derivatives
    and confinement.  Multi-component input stacks components on the
    leading axis and combines them in quadrature.
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
    ntot = float(np.prod(grid.shape))

    def hs(fields: np.ndarray, order: float) -> float:
        total = 0.0
        for u in fields:
            uhat2 = np.abs(np.fft.fftn(u)) ** 2 / ntot
            total += float(np.sum((1.0 + k2) ** order * uhat2)) * grid.cell
        return math.sqrt(total)

    base = hs(comps, s)
    if not weighted:
        return base
    r = np.sqrt(sum(X * X for X in grid.meshes))
    return base + hs(r * comps, s - 1.0)
