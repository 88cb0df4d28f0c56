"""Time-splitting spectral solver for the rotating semiclassical equation,
marched in the rotating frame.

The rotation term i eps Omega (x_perp . grad) psi generates a rigid
rotation, and it commutes with the kinetic term and with any local
nonlinearity.  So with x = R(Omega t) y, R the counterclockwise turn of
the (x1, x2) plane, it drops out exactly: the frame field
psi~(y, t) = psi(R(Omega t) y, t) solves the plain equation

    i eps d_t psi~ = -(eps^2/2) Lap psi~ + V(R(Omega t) y) psi~ + f(|psi~|^2) psi~

(Bao, Marahrens, Tang & Zhang, SIAM J. Sci. Comput. 35:A2671, 2013).
One Strang step from t to t + dt is the palindrome

    P_t(dt/2) K(dt) P_{t+dt}(dt/2)

where P_t is the pointwise phase rotation by V(R(Omega t) y) plus the
nonlinearity, and K multiplies the full FFT by exp(-i eps dt |k|^2 / 2),
one fftn/ifftn pair in 2d and 3d (SplitStepPlan.step applies the
palindrome to a bare sample array).  Both factors have unit modulus, so
every substep conserves the discrete L^2 mass to machine precision, and
P leaves |psi| pointwise invariant.  P's potential comes from the grid's
one quadratic formula (core.potential_grid): built once when omega1 =
omega2, as the turn leaves V unchanged, else by each P at its angle.

evolve_nls applies one P per step: the P(dt/2) that closes step n and
the P(dt/2) that opens step n+1 act on the same modulus with the same
potential, so their phases add and they merge into one P(dt).  A march
of n steps is then

    P(dt/2) (K P(dt))^(n-1) K P(dt/2),

equal to n palindromes up to roundoff.  The march splits P(dt) back into
two halves only after a step the observer sees and after the last step,
so every observed state and the final state are the plain palindrome's.

The frame starts at psi0.angle (WaveField.angle: the samples are psi at
the lab points R(angle) y of the nodes y, and a lab field is at angle 0)
and turns at the rate Omega, so the state after k steps of size h is at
psi0.angle + Omega k h.  Nothing here turns a field: observers receive
the frame states, and evolve_nls returns its final state, as marched.
Records read them in the frame (observables.record_from_wavefield), and
core.turn_field moves a state to another angle.  A march backward from a
returned state starts at its angle and retraces the forward march to
roundoff.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import (GridSpec, NumericalAbort, SimParams, WaveField, expi, potential_grid,
                   time_grid)


def _potential_nonlinear(values: np.ndarray, potential: np.ndarray,
                         params: SimParams, dt: float) -> np.ndarray:
    """values * exp(i theta), theta = -dt (V + f(|values|^2)) / eps."""
    rho = values.real ** 2 + values.imag ** 2
    theta = potential + params.nonlinearity.f(rho)
    theta *= -dt / params.eps
    out = expi(theta)
    out *= values
    return out


class SplitStepPlan:
    """The kinetic multiplier and the frame potential of repeated Strang
    steps at a fixed dt.  The potential is core.potential_grid at the
    frame angle, built once when omega1 = omega2."""

    def __init__(self, grid: GridSpec, params: SimParams, dt: float):
        self.params = params
        self.dt = dt
        self.turn = params.Omega * dt   # frame angle swept by one step
        k2 = sum(grid.wavenumber_mesh(axis) ** 2 for axis in range(grid.dim))
        self.kinetic = expi(k2 * (-0.5 * params.eps * dt))
        self.grid = grid
        self._fixed = (potential_grid(grid, params.omega)
                       if params.omega[0] == params.omega[1] else None)

    def potential(self, angle: float) -> np.ndarray:
        """V(R(angle) y) at the frame nodes y."""
        if self._fixed is not None:
            return self._fixed
        return potential_grid(self.grid, self.params.omega, angle)

    def step(self, values: np.ndarray, angle: float, lead: bool = True,
             join: bool = False) -> np.ndarray:
        """One Strang step on a bare sample array at frame angle `angle`.

        The defaults give the palindrome.  join=True closes with P(dt),
        this step's closing half merged with the next step's opening
        half; the next step must then pass lead=False to skip its own.
        """
        half = 0.5 * self.dt
        if lead:
            values = _potential_nonlinear(values, self.potential(angle), self.params, half)
        spec = np.fft.fftn(values)
        spec *= self.kinetic
        values = np.fft.ifftn(spec, out=spec)
        return _potential_nonlinear(values, self.potential(angle + self.turn), self.params,
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
    final time, with the frame state; that state and the returned one
    sit at the angle psi0.angle + Omega (t - psi0.t).  Non-finite
    samples abort the run with the offending step index.
    """
    if observer_stride < 1:
        raise ValueError(f"observer_stride must be >= 1, got {observer_stride}")

    n_steps, h = time_grid(T, abs(dt))
    h = h if dt > 0 else -h
    plan = SplitStepPlan(psi0.grid, psi0.params, h)
    Omega = psi0.params.Omega
    values = psi0.values
    state = psi0

    if observer is not None:
        observer(psi0.t, psi0)
    lead = True
    for step in range(1, n_steps + 1):
        observed = observer is not None and (step % observer_stride == 0
                                             or step == n_steps)
        join = step < n_steps and not observed
        values = plan.step(values, psi0.angle + Omega * ((step - 1) * h),
                           lead=lead, join=join)
        lead = not join
        t = psi0.t + step * h
        if not np.isfinite(values).all():
            raise NumericalAbort(
                f"non-finite samples after step {step} (t = {t:.6g})", step, t)
        if observed or step == n_steps:
            state = WaveField(values, t, psi0.grid, psi0.params,
                              psi0.angle + Omega * (step * h))
            values = state.values  # its read-only copy: no step writes in place
        if observed:
            observer(t, state)
    return state
