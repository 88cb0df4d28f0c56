"""WKB amplitude-velocity system and its semiclassical-limit hydrodynamics.

Writing psi = a exp(i(phi + S)/eps) with S the ray phase, the complex
amplitude a = alpha + i beta and the slow velocity v = grad phi obey

    d_t a + (v + w).grad a + (a/2) div(v + w) = (i eps / 2) Lap a
    d_t v + (v + w).grad v + (grad w) v + grad f(|a|^2) = 0

where w = grad S - Omega x_perp is the drift.  For a quadratic S the
drift is affine, div w = tr Sigma, and the matrix contracted against v
is the transposed drift Jacobian Sigma + Omega J (the term is
v_j d_i w_j).  The drift coefficients are not part of the RK4 state:
evolve_wkb samples them from the exact quadratic phase flow
(rays.quadratic_phase_evolve) on the half-step grid, so every stage
sees the drift at its own time.  A drift caustic before the horizon
aborts the run.

At eps = 0 the same stencils also march the limit system in total
velocity form (evolve_hydro): the drift freezes to -Omega x_perp, so
its fields are built once per run, and the trap force grad V, absorbed
by S in the WKB route, acts on v explicitly.  Both routes share one
RK4 loop; each hands it its own fields, rates and drift sampler.  Only
the WKB route carries phi, so only it forms the phase rate.

Discretization: periodic 4th-order centered differences, RK4 in time.
The amplitude advection uses the split form
(1/2)[adv . D1 a + D1 . (a adv)], whose centered-difference
skew-symmetry conserves the discrete mass sum(alpha^2 + beta^2)
exactly; the dispersive coupling is symmetric and cancels too.  A
multiplicative sponge over the outer tenth of each axis relaxes
(alpha, beta, v) toward their initial far-field values to absorb
box-truncation artifacts.

The march's right-hand side makes few passes over memory: each
differentiated field (alpha, beta, each v_i, f(rho), each product
adv_j u) is copied once into a buffer with 2 periodic ghost layers per
axis, and D1 and D2 along every axis read shifted views of that copy,
with 1/(12 h) folded into the stencil weights.  d1, d2, laplacian and
gradient are the same stencils in np.roll form, the reference the tests
compare against.  The march allocates its grid arrays once, runs
low-storage RK4 with the classical accumulation order, and stops before
a step that exceeds the advective bound 0.5 dx / max|v + w|.

The march cuts the grid along axis 0 into row strips, one per CPU of
the budget (core.cpu_budget: ROTORWKB_THREADS, else the usable CPUs) as
long as each strip keeps MIN_STRIP_POINTS grid points, so small grids
stay in one strip.  The strips run on threads, since numpy releases the
interpreter lock inside each pass.  Every term is pointwise or a
+-2-row stencil, so a strip forms adv = v + w and rho on its rows and
its halo, the 2 grid rows on either side, in one pass, and loads each
differentiated field over the same rows; it gives the bits of the
whole-grid pass.  The NLS march stays serial.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (GridSpec, NumericalAbort, SimParams, WaveField, _freeze,
                   affine_field, cpu_budget, expi, quadratic_grid, rotation_generator,
                   time_grid)
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
        return quadratic_grid(self.grid, self.drift.Sigma, self.drift.b, self.drift.c)

    def total_velocity(self) -> np.ndarray:
        """v + grad S, the velocity entering the limit observables."""
        return self.v + np.array(affine_field(self.drift.b, self.drift.Sigma,
                                              self.grid.meshes))

    def to_wavefield(self) -> WaveField:
        """Reassemble psi = a exp(i(phi + S)/eps); requires eps > 0."""
        if not self.eps > 0:
            raise ValueError("cannot assemble a wavefunction at eps = 0")
        phase = (self.phi + self.ray_phase_field()) / self.eps
        return WaveField(self.amplitude() * expi(phase), self.t, self.grid,
                         self.params)


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
    """w = (Sigma - Omega J) x + b on the grid, and the coupling matrix
    (the transposed drift Jacobian Sigma + Omega J)."""
    J = rotation_generator(grid.dim)
    w = affine_field(drift.b, drift.Sigma - params.Omega * J, grid.meshes)
    return w, drift.Sigma + params.Omega * J


# ---------- semi-discrete right-hand side ----------

MIN_STRIP_POINTS = 2 ** 15  # fewest grid points the march gives one strip


class _Wrapped:
    """A strip-shaped array with 2 ghost layers per axis.

    shifts[axis] are the views u(+1), u(-1), u(+2), u(-2) along one axis,
    the operands of the stencils; the corners are never read, so they
    are never filled.  haloed is the strip's rows with the axis-0 ghosts,
    its halo: the 2 grid rows before the strip and the 2 after it.  Along
    the other axes the ghosts wrap the strip periodically.
    """

    def __init__(self, shape: tuple[int, ...]):
        buf = np.empty(tuple(n + 4 for n in shape))
        core = tuple(slice(2, n + 2) for n in shape)
        self.inner = buf[core]
        self.haloed = buf[(slice(None),) + core[1:]]

        def along(axis, lo, hi):
            return buf[core[:axis] + (slice(lo, hi),) + core[axis + 1:]]

        self.shifts = [tuple(along(a, 2 + s, n + 2 + s) for s in (1, -1, 2, -2))
                       for a, n in enumerate(shape)]
        self.ghosts = {a: ((along(a, 0, 2), along(a, n, n + 2)),
                           (along(a, n + 2, n + 4), along(a, 2, 4)))
                       for a, n in enumerate(shape) if a > 0}

    def fill(self, axes):
        for a in axes:
            for ghost, source in self.ghosts[a]:
                ghost[...] = source

    def load(self, u, bands=((slice(None), slice(None)),)):
        """Each band (rows of u, rows of haloed) into haloed, then the
        periodic wrap along the other axes; with no bands u is haloed rows."""
        for source, rows in bands:
            self.haloed[rows] = u[source]
        self.fill(range(1, u.ndim))


class _Strip:
    """Rows lo:hi of the grid and the buffers of their right-hand side.

    A strip reads its haloed rows, lo - 2 to hi + 1 taken around the grid,
    of the march's arrays and writes only its rows; one strip over the
    whole grid reads the periodic wrap.  bands pairs the grid rows of the
    halo before, the strip and the halo after with the haloed rows they
    fill; strips of at least 2 rows keep each band contiguous.
    haloed_adv (v + w) and haloed_rho are formed over the bands, and adv,
    the strip's rows of haloed_adv, stays after each call for the march's
    speed read.  field and product hold the wrapped copies of the field
    being differentiated and of one product adv_j u.
    """

    def __init__(self, grid: GridSpec, lo: int, hi: int):
        n0, n = grid.shape[0], hi - lo
        shape = (n,) + grid.shape[1:]
        self.dim = grid.dim
        self.rows = slice(lo, hi)
        self.core = slice(2, n + 2)
        self.bands = ((slice((lo - 2) % n0, (lo - 2) % n0 + 2), slice(0, 2)),
                      (self.rows, self.core),
                      (slice(hi % n0, hi % n0 + 2), slice(n + 2, n + 4)))
        self.field = _Wrapped(shape)
        self.product = _Wrapped(shape)
        self.haloed_adv = np.empty((grid.dim, n + 4) + grid.shape[1:])
        self.adv = self.haloed_adv[:, self.core]
        self.haloed_rho = np.empty((n + 4,) + grid.shape[1:])
        self.tmp = np.empty(shape)
        self.tmp2 = np.empty(shape)
        # the stencils' 1/(12 h) and 1/(12 h^2), folded into their weights
        self.c1 = [1.0 / (12.0 * h) for h in grid.spacing]
        self.c2 = [1.0 / (12.0 * h * h) for h in grid.spacing]

    def part(self, u: np.ndarray) -> np.ndarray:
        """The strip's rows of a grid array or of a stack of them (v)."""
        return u[self.rows] if u.ndim == self.dim else u[:, self.rows]

    def parts(self, arrays) -> list[np.ndarray]:
        return [self.part(u) for u in arrays]


def _d1(out, shifts, c, tmp):
    """out = c (8 (u(+1) - u(-1)) - (u(+2) - u(-2))): 12 h c times D1 u."""
    p1, m1, p2, m2 = shifts
    np.subtract(p1, m1, out=out)
    out *= 8.0 * c
    np.subtract(p2, m2, out=tmp)
    tmp *= c
    out -= tmp


def _add_d1(acc, shifts, c, tmp):
    """acc += c (8 (u(+1) - u(-1)) - (u(+2) - u(-2)))."""
    p1, m1, p2, m2 = shifts
    np.subtract(p1, m1, out=tmp)
    tmp *= 8.0 * c
    acc += tmp
    np.subtract(p2, m2, out=tmp)
    tmp *= c
    acc -= tmp


def _add_d2(acc, shifts, c, tmp):
    """acc += c (16 (u(+1) + u(-1)) - (u(+2) + u(-2))): the off-center
    part of 12 h^2 c times D2 u; the center weight -30 c is added per
    Laplacian, once for all axes."""
    p1, m1, p2, m2 = shifts
    np.add(p1, m1, out=tmp)
    tmp *= 16.0 * c
    acc += tmp
    np.add(p2, m2, out=tmp)
    tmp *= c
    acc -= tmp


def _fields_rhs(alpha, beta, v, w, coupling, grid: GridSpec, params: SimParams,
                eps: float, out, strip: _Strip):
    """Write the rates of (alpha, beta, v) on the strip's rows into out[:3];
    return f(rho) on those rows.

    The amplitude advection is in split (skew-symmetric) form.  adv, rho
    and each differentiated field's one wrapped copy are formed on the
    strip's haloed rows, so the halo of adv_0 u and of f(rho) comes out
    of the same pass, and every strip gets the bits of the whole-grid
    pass.  f(rho) is handed out for _phase_rate, so the WKB route reads
    it without a second pass and the limit route never forms the phase
    rate.
    """
    dalpha, dbeta, dv = strip.parts(out[:3])
    hadv, adv, rho = strip.haloed_adv, strip.adv, strip.haloed_rho
    tmp, tmp2, c1 = strip.tmp, strip.tmp2, strip.c1
    field, product, bands = strip.field, strip.product, strip.bands
    for source, rows in bands:
        for j in range(grid.dim):
            np.add(v[j][source], w[j][source], out=hadv[j][rows])
        a, b, r = alpha[source], beta[source], rho[rows]
        np.multiply(a, a, out=r)
        r += np.multiply(b, b, out=tmp[:len(r)])

    # d_t a = -(1/2)[adv . D1 a + D1 . (a adv)] + (i eps / 2) Lap a
    dalpha.fill(0.0)
    dbeta.fill(0.0)
    for whole, rate, other, half_eps in ((alpha, dalpha, dbeta, 0.5 * eps),
                                         (beta, dbeta, dalpha, -0.5 * eps)):
        u = strip.part(whole)
        field.load(whole, bands)
        for j in range(grid.dim):
            _d1(tmp, field.shifts[j], -0.5 * c1[j], tmp2)
            tmp *= adv[j]
            rate += tmp
            if j == 0:  # D1 along axis 0 reads the product's halo
                np.multiply(hadv[0], field.haloed, out=product.haloed)
            else:
                np.multiply(adv[j], u, out=product.inner)
                product.fill((j,))
            _add_d1(rate, product.shifts[j], -0.5 * c1[j], tmp)
        if eps > 0:
            for j in range(grid.dim):
                _add_d2(other, field.shifts[j], half_eps * strip.c2[j], tmp)
            np.multiply(u, 30.0 * half_eps * sum(strip.c2), out=tmp)
            other -= tmp

    # d_t v = -(adv . D1 v + coupling v + D1 f(rho))
    f_rho = params.nonlinearity.f(rho)
    field.load(f_rho)
    for i in range(grid.dim):
        _d1(dv[i], field.shifts[i], -c1[i], tmp)
    vs = strip.part(v)
    for i in range(grid.dim):
        field.load(v[i], bands)
        for j in range(grid.dim):
            _d1(tmp, field.shifts[j], -c1[j], tmp2)
            tmp *= adv[j]
            dv[i] += tmp
            if coupling[i, j] != 0.0:
                dv[i] -= np.multiply(vs[j], coupling[i, j], out=tmp)
    return f_rho[strip.core]


def _phase_rate(v, w, f_rho, *, out, strip: _Strip):
    """Write d_t phi = -(w . v + |v|^2/2 + f(rho)) on the strip's rows
    into out."""
    tmp, vs, rate = strip.tmp, strip.part(v), strip.part(out)
    np.negative(f_rho, out=rate)
    for j in range(len(w)):
        np.multiply(vs[j], 0.5, out=tmp)
        tmp += strip.part(w[j])
        tmp *= vs[j]
        rate -= tmp


def rhs_wkb(state: WKBState):
    """Time derivative of (alpha, beta, v, phi) at the state's drift and eps."""
    w, coupling = drift_fields(state.drift, state.grid, state.params)
    whole = _Strip(state.grid, 0, state.grid.shape[0])
    out = [np.empty_like(u) for u in (state.alpha, state.beta, state.v, state.phi)]
    f_rho = _fields_rhs(state.alpha, state.beta, state.v, w, coupling, state.grid,
                        state.params, state.eps, out, whole)
    _phase_rate(state.v, w, f_rho, out=out[3], strip=whole)
    return tuple(out)


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

    drift, J = state.drift, rotation_generator(dim)
    w = affine_field(drift.b, drift.Sigma - state.params.Omega * J,
                     [X[at] for X in state.grid.meshes])
    w_xi = float(sum(w[j] * xi[j] for j in range(dim)))
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
    M[0, 0] = 0.5 * float(np.trace(drift.Sigma))
    M[1, 1] = M[0, 0]
    M[2:, 2:] = drift.Sigma + state.params.Omega * J

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


def _speed2_max(adv, speed2=None, square=None) -> float:
    """max |adv|^2 over the points of the speed field adv; speed2 and
    square are optional buffers of its points' shape."""
    speed2 = np.multiply(adv[0], adv[0], out=speed2)
    for a in adv[1:]:
        speed2 += np.multiply(a, a, out=square)
    return float(speed2.max())


def _advective_bound(speed2_max: float, grid: GridSpec) -> float:
    """0.5 dx / max|adv|, the advective step bound for max |adv|^2."""
    vmax = float(np.sqrt(speed2_max))
    return 0.5 * min(grid.spacing) / vmax if vmax > 0 else np.inf


def cfl_limits(state: WKBState) -> tuple[float, float]:
    """Advective and dispersive step bounds 0.5 dx/max|v+w|, 0.2 dx^2/eps,
    with eps the state's (no dispersive bound at eps = 0)."""
    w, _ = drift_fields(state.drift, state.grid, state.params)
    adv = _advective_bound(_speed2_max([v + wj for v, wj in zip(state.v, w)]),
                           state.grid)
    dx = min(state.grid.spacing)
    disp = 0.2 * dx * dx / state.eps if state.eps > 0 else np.inf
    return adv, disp


def _stage(stage, y, c, k):
    """stage = y + c k for the fields that have a stage (phi has none)."""
    for s, u, r in zip(stage, y, k):
        np.multiply(r, c, out=s)
        s += u


def _strips(grid: GridSpec) -> list[_Strip]:
    """The march's row strips: one per CPU of the budget, as long as each
    keeps MIN_STRIP_POINTS grid points; small grids stay in one strip."""
    n0 = grid.shape[0]
    count = max(1, min(cpu_budget(), math.prod(grid.shape) // MIN_STRIP_POINTS,
                       n0 // 2))
    cuts = [n0 * i // count for i in range(count + 1)]
    return [_Strip(grid, lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _strip_pool(count: int):
    """The threads of a march's strips beyond the first, which runs on
    the calling thread; shut down when its with block exits."""
    if count == 1:
        return contextlib.nullcontext()
    # imported here, not at module level: every import of the package
    # would pay for it, and only a march with several strips uses it
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(count - 1, thread_name_prefix="rotorwkb-strip")


def _on_strips(pool, strips, task, *args) -> list:
    """[task(strip, *args) for strip in strips]: strip 0 on the calling
    thread, the others on pool.  It waits for every strip before it
    returns or raises, as the strips share the march's arrays."""
    def one(strip):
        # numpy's error state is per thread; a genuine blowup is reported
        # via NumericalAbort, not warning spam
        with np.errstate(over="ignore", invalid="ignore"):
            return task(strip, *args)

    futures = [pool.submit(one, s) for s in strips[1:]]
    try:
        first = one(strips[0])
    finally:
        for f in futures:
            f.exception()  # waits
    return [first] + [f.result() for f in futures]


def _march(fields, rates, sample, make_state, grid: GridSpec, n_steps: int,
           h: float, observer, observer_stride, sponge_strength):
    """The RK4 loop of the WKB and limit-hydro systems.

    fields are the caller's RK4 fields, (alpha, beta, v) first, frozen
    state arrays that the march copies and never writes.  Only alpha,
    beta and v get stage values, as no rate reads phi, and the sponge
    relaxes them toward fields, their start.  rates(strip, alpha, beta,
    v, drift_fields, out) writes the strip's rows of one rate per field
    into out, using the strip's buffers; sample(k) gives the drift
    fields at half step k: evolve_wkb samples its exact drift path there,
    evolve_hydro hands back the fields it built once.  Stages 2 and 3
    share the midpoint sample.  The endpoint sample is built again as
    the next step's start: carried across the step, it would stay alive
    through the observer call, which sets the march's peak memory.

    The grid is cut along axis 0 into strips (_strips), and the march
    runs strip by strip, the first strip on the calling thread and the
    others on a thread pool of this march, shut down however the march
    ends: the rates, the stage updates, the accumulation, the sponge and
    the finite check.  A strip's rates read its neighbours' rows of the
    stage values as its halo, so the stage values that stages 3 and 4
    read are written in a pass of their own, after every strip's rates.
    The arrays are allocated once and stepped in place.  RK4 is
    low-storage: one stage's rates are live at a time, and acc sums them
    as k1 + 2 k2 + 2 k3 + k4 in that order, the bits of the four-rate
    form.  Stage 1 leaves v + w in the strips' buffers; the march raises
    NumericalAbort before a step whose h exceeds the advective bound
    0.5 dx / max|v + w| read there.  Any strip count gives the same
    bits.  make_state(fields, step, t) copies the fields into a state for
    the observer and for the return.
    """
    if observer_stride < 1:
        raise ValueError(f"observer_stride must be >= 1, got {observer_stride}")
    y = [np.array(u) for u in fields]
    acc = [np.empty_like(u) for u in y]
    k = [np.empty_like(u) for u in y]
    stage = [np.empty_like(u) for u in y[:3]]
    strips = _strips(grid)
    damp = np.exp(-_sponge_profile(grid, sponge_strength) * h)

    # each strip's rows of the march's arrays
    rows = {s: [s.parts(a) for a in (y, acc, k, stage, fields)] for s in strips}
    damps = {s: s.part(damp) for s in strips}

    def first(strip, drift):
        # k1 into acc, the stage values y + (h/2) k1; the strip's max |v + w|^2
        ys, accs, _, stages, _ = rows[strip]
        rates(strip, *y[:3], drift, acc)
        _stage(stages, ys, 0.5 * h, accs)
        return _speed2_max(strip.adv, strip.tmp, strip.tmp2)

    def advance(strip, c):
        # the stage values y + c k, once every strip has read the old ones
        ys, accs, ks, stages, _ = rows[strip]
        _stage(stages, ys, c, ks)
        for a, r in zip(accs, ks):
            r *= 2.0
            a += r

    def last(strip, drift):
        # k4, the step, the sponge; whether the strip's fields stayed finite
        ys, accs, ks, _, starts = rows[strip]
        rates(strip, *stage, drift, k)
        for u, a, r in zip(ys, accs, ks):
            a += r
            a *= h / 6.0
            u += a
        if sponge_strength > 0:
            for u, u0 in zip(ys[:3], starts):
                u -= u0
                u *= damps[strip]
                u += u0
        return all(np.isfinite(u).all() for u in ys[:3])

    t = 0.0
    with _strip_pool(len(strips)) as pool:
        if observer is not None:
            observer(t, make_state(y, 0, t))

        for step in range(1, n_steps + 1):
            k0 = 2 * (step - 1)
            speed2 = np.max(_on_strips(pool, strips, first, sample(k0)))
            bound = _advective_bound(speed2, grid)
            if h > bound:
                raise NumericalAbort(
                    f"dt = {h:.6g} exceeds the advective step bound {bound:.6g} "
                    f"= 0.5 dx / max|v + w| in step {step} (t = {t:.6g})", step, t)
            mid = sample(k0 + 1)
            for c in (0.5 * h, h):
                _on_strips(pool, strips, rates, *stage, mid, k)
                _on_strips(pool, strips, advance, c)
            del mid
            finite = all(_on_strips(pool, strips, last, sample(k0 + 2)))

            t = step * h
            if not finite:
                raise NumericalAbort(
                    f"non-finite samples after step {step} (t = {t:.6g})", step, t)
            if observer is not None and (step % observer_stride == 0 or step == n_steps):
                observer(t, make_state(y, step, t))

    del acc, k, stage, strips, rows
    return make_state(y, n_steps, t)


class StepBoundError(ValueError):
    """A supplied dt exceeds the advective or dispersive step bound."""


def _resolve_dt(state0, dt, context: str):
    adv, disp = cfl_limits(state0)
    if dt is None:
        # half the advective bound leaves headroom for drift growth mid-run
        return min(0.5 * adv, 0.9 * disp, 0.01)
    if dt > adv or dt > disp:
        raise StepBoundError(
            f"{context}: dt = {dt:.4g} violates the step bounds "
            f"(advective {adv:.4g}, dispersive {disp:.4g})")
    return dt


def evolve_wkb(state0: WKBState, T: float, dt: float | None = None,
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
    grid, params, eps = state0.grid, state0.params, state0.eps
    n_steps, h = time_grid(T, _resolve_dt(state0, dt, "evolve_wkb"))
    path = quadratic_phase_evolve(state0.drift, 0.5 * h, T, params)
    if path.blown_up:
        step = (len(path.times) - 1) // 2 + 1
        raise NumericalAbort(f"the drift phase reaches a caustic in step {step}, "
                             f"after t = {path.blowup_time:.6g}", step, path.blowup_time)

    def rates(strip, al, be, vv, fields, out):
        w, coupling = fields
        f_rho = _fields_rhs(al, be, vv, w, coupling, grid, params, eps, out, strip)
        _phase_rate(vv, w, f_rho, out=out[3], strip=strip)

    def make_state(fields, step, t):
        return WKBState(*fields, path.at_index(2 * step), eps, state0.t + t, grid,
                        params)

    return _march([state0.alpha, state0.beta, state0.v, state0.phi], rates,
                  lambda k: drift_fields(path.at_index(k), grid, params), make_state,
                  grid, n_steps, h, observer, observer_stride, sponge_strength)


def evolve_hydro(h0: HydroState, T: float, dt: float | None = None,
                 observer: Callable[[float, HydroState], None] | None = None,
                 observer_stride: int = 1,
                 sponge_strength: float = 20.0) -> HydroState:
    """March the limit hydrodynamics (rho, v) in total-velocity form.

    Internally evolves (alpha, beta, v) from alpha = sqrt(rho), beta = 0
    with the rotation drift -Omega x_perp held fixed (its fields are
    built once) and the trap force applied explicitly, then reads back
    rho = alpha^2 + beta^2.

    The periodic stencils differentiate the full v, so a velocity that
    does not decay toward the box boundary (an affine carrier phase,
    say) jumps at the seam and destabilizes the march.  Such data
    belongs to evolve_wkb, which transports the affine part in closed
    form and differentiates only the decaying remainder.
    """
    grid, params = h0.grid, h0.params
    force = np.array(affine_field(np.zeros(grid.dim), np.diag(np.square(params.omega)),
                                  grid.meshes))

    shadow = WKBState(np.sqrt(h0.rho), np.zeros(grid.shape), h0.v,
                      np.zeros(grid.shape), QuadraticPhase.zero(grid.dim), 0.0,
                      h0.t, grid, params)
    dt = _resolve_dt(shadow, dt, "evolve_hydro")
    fixed = drift_fields(shadow.drift, grid, params)

    def rates(strip, al, be, vv, fields, out):
        _fields_rhs(al, be, vv, *fields, grid, params, 0.0, out, strip)
        dv = strip.part(out[2])
        dv -= strip.part(force)

    def make_state(fields, step, t):
        al, be, vv = fields
        return HydroState(al * al + be * be, vv, h0.t + t, grid, params)

    return _march([shadow.alpha, shadow.beta, shadow.v], rates, lambda k: fixed,
                  make_state, grid, *time_grid(T, dt), observer, observer_stride,
                  sponge_strength)


# ---------- phase consistency ----------

def gradient_consistency(state: WKBState) -> float:
    """Max gap between the centered gradient of the carried phi and v."""
    worst = 0.0
    for j in range(state.grid.dim):
        worst = max(worst, float(np.max(np.abs(
            d1(state.phi, j, state.grid.spacing[j]) - state.v[j]))))
    return worst
