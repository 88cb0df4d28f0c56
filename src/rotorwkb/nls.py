"""Time-splitting spectral solver for the rotating semiclassical equation.

One Strang step is the palindrome

    P(dt/2) K1(dt/2) K2(dt) K1(dt/2) P(dt/2)

where P is the pointwise potential plus nonlinearity phase rotation and
K1, K2 are kinetic-plus-rotation substeps, each solved exactly in
Fourier space along a single axis (SplitStepPlan.step applies the
palindrome to a bare sample array):

    K1:  i eps d_t psi = -(eps^2/2) d11 psi + i eps Omega x2 d1 psi
    K2:  i eps d_t psi = -(eps^2/2) d22 psi - i eps Omega x1 d2 psi

The rotation term is linear in the transform variable along its own
axis, so each substep is a diagonal unit-modulus multiplier: every
substep conserves the discrete L^2 mass to machine precision, and P
leaves |psi| pointwise invariant.  In 3d the plain z-kinetic factor
rides along with K1.

evolve_nls applies one P per step: the P(dt/2) that closes step n and
the P(dt/2) that opens step n+1 act on the same modulus, so their phases
add and they merge into one P(dt).  A march of n steps is then

    P(dt/2) (K P(dt))^(n-1) K P(dt/2),    K = K1(dt/2) K2(dt) K1(dt/2),

equal to n palindromes up to roundoff.  The march splits P(dt) back into
two halves only after a step the observer sees and after the last step,
so every observed state and the final state are the plain palindrome's.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import (GridSpec, NumericalAbort, SimParams, WaveField, potential_grid,
                   time_grid)


def _k1_multiplier(grid: GridSpec, params: SimParams, dt: float) -> np.ndarray:
    """exp(-i dt (eps (k1^2 [+ k3^2])/2 - Omega x2 k1)), FFT along axis 0 (and 2)."""
    k1 = grid.wavenumber_mesh(0)
    x2 = grid.axes[1].reshape((1, -1) + (1,) * (grid.dim - 2))
    sym = 0.5 * params.eps * k1 ** 2 - params.Omega * x2 * k1
    if grid.dim == 3:
        sym = sym + 0.5 * params.eps * grid.wavenumber_mesh(2) ** 2
    return np.exp(-1j * dt * sym)

def _k2_multiplier(grid: GridSpec, params: SimParams, dt: float) -> np.ndarray:
    """exp(-i dt (eps k2^2/2 + Omega x1 k2)), FFT along axis 1."""
    k2 = grid.wavenumber_mesh(1)
    x1 = grid.axes[0].reshape((-1,) + (1,) * (grid.dim - 1))
    sym = 0.5 * params.eps * k2 ** 2 + params.Omega * x1 * k2
    return np.exp(-1j * dt * sym)

_K1_AXES = {2: (0,), 3: (0, 2)}


def _kinetic(values: np.ndarray, mult: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    spec = np.fft.fftn(values, axes=axes)
    spec *= mult
    return np.fft.ifftn(spec, axes=axes)


def _potential_nonlinear(values: np.ndarray, potential: np.ndarray,
                         params: SimParams, dt: float) -> np.ndarray:
    """values * exp(i theta), theta = -dt (V + f(|values|^2)) / eps.

    The factor is built as cos theta + i sin theta in one complex buffer,
    the same bits as np.exp on the imaginary argument without its
    complex temporaries.
    """
    rho = values.real ** 2 + values.imag ** 2
    theta = potential + params.nonlinearity.f(rho)
    theta *= -dt / params.eps
    out = np.empty_like(values)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    out *= values
    return out


class SplitStepPlan:
    """Precomputed multipliers for repeated Strang steps at a fixed dt."""

    def __init__(self, grid: GridSpec, params: SimParams, dt: float):
        if dt == 0:
            raise ValueError("dt must be nonzero")
        self.params = params
        self.dt = dt
        self.k1_half = _k1_multiplier(grid, params, 0.5 * dt)
        self.k2_full = _k2_multiplier(grid, params, dt)
        self.potential = potential_grid(grid, params.omega)
        self.k1_axes = _K1_AXES[grid.dim]

    def step(self, values: np.ndarray, lead: bool = True, join: bool = False) -> np.ndarray:
        """One Strang step on a bare sample array.

        The defaults give the palindrome.  join=True closes with P(dt),
        this step's closing half merged with the next step's opening
        half; the next step must then pass lead=False to skip its own.
        """
        half = 0.5 * self.dt
        if lead:
            values = _potential_nonlinear(values, self.potential, self.params, half)
        values = _kinetic(values, self.k1_half, self.k1_axes)
        values = _kinetic(values, self.k2_full, (1,))
        values = _kinetic(values, self.k1_half, self.k1_axes)
        return _potential_nonlinear(values, self.potential, self.params,
                                    self.dt if join else half)


def evolve_nls(psi0: WaveField, T: float, dt: float,
               observer: Callable[[float, WaveField], None] | None = None,
               observer_stride: int = 1) -> WaveField:
    """March psi0 forward by duration T with Strang steps of size dt.

    A negative dt integrates backward (the substeps are all reversible).
    The march takes ceil(T / |dt|) equal steps (core.time_grid); T = 0
    takes none.  Adjacent P halves are merged into one P(dt) except
    around an observed step (module docstring).  The observer, when
    given, is called at t = 0, every observer_stride steps, and at the
    final time.  Non-finite samples abort the run with the offending
    step index.
    """
    if observer_stride < 1:
        raise ValueError(f"observer_stride must be >= 1, got {observer_stride}")

    n_steps, h = time_grid(T, abs(dt))
    h = h if dt > 0 else -h
    plan = SplitStepPlan(psi0.grid, psi0.params, h)
    values = np.array(psi0.values)
    t = psi0.t

    if observer is not None:
        observer(t, psi0)
    lead = True
    for step in range(1, n_steps + 1):
        observed = observer is not None and (step % observer_stride == 0
                                             or step == n_steps)
        join = step < n_steps and not observed
        values = plan.step(values, lead=lead, join=join)
        lead = not join
        t = psi0.t + step * h
        if not np.isfinite(values).all():
            raise NumericalAbort(
                f"non-finite samples after step {step} (t = {t:.6g})", step, t)
        if observed:
            observer(t, WaveField(values, t, psi0.grid, psi0.params))
    return WaveField(values, t, psi0.grid, psi0.params)
