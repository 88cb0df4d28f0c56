"""Exact Gaussian wave packets of the linear rotating equation.

For f = 0 the rotating Hamiltonian H = |p|^2/2 + V(x) - Omega x_perp . p
is quadratic, so a Gaussian packet stays one for every eps, in any trap
(Heller, J. Chem. Phys. 62:1544, 1975; Hagedorn, CMP 71:77, 1980).  Its
centre (q, p) and its complex width follow the linear ray flow
Phi(t) = [[A, B], [C, D]] that rays.flow_propagator computes:
Q = A + B Sigma0, P = C + D Sigma0, and

    psi(t, x) = det(Q)^(-1/2) exp(i/eps [(x - q).P Q^-1 (x - q)/2 + p.(x - q) + S(t)]).

The packet here leaves out the global phase S(t) and the branch of
det(Q)^(-1/2), so it is exact up to one global phase factor: score it
in gauge L2 (gauge_error).  It is evaluated at the lab points of any
frame angle, so a state the NLS march holds in its rotating frame is
scored with no turn.
"""

import numpy as np

from rotorwkb.core import gauge_distance, lab_points
from rotorwkb.rays import flow_propagator


def gaussian_packet(grid, params, t, q0, p0, sigma0, angle=0.0):
    """Samples of the exact packet at time t at the lab points R(angle) x of
    the nodes x (core.lab_points; angle 0 is the lab grid), up to a global
    phase; Im sigma0 must be positive definite."""
    d = grid.dim
    Phi = np.eye(2 * d) + flow_propagator(params, t, d)[0]
    sigma0 = np.asarray(sigma0, dtype=complex)
    Q = Phi[:d, :d] + Phi[:d, d:] @ sigma0
    P = Phi[d:, :d] + Phi[d:, d:] @ sigma0
    z = Phi @ np.concatenate([q0, p0])
    q, p = z[:d], z[d:]
    width = P @ np.linalg.inv(Q)
    X = [mesh - qj for mesh, qj in zip(lab_points(grid, angle), q)]
    phase = sum(0.5 * width[i, j] * X[i] * X[j] + (p[i] * X[i] if i == j else 0.0)
                for i in range(d) for j in range(d))
    return np.exp(1j * phase / params.eps) / np.sqrt(abs(np.linalg.det(Q)))


def gauge_error(values, exact):
    """L2 distance of values from exact times the global phase that
    minimizes it, relative to the norm of exact."""
    return gauge_distance(values, exact) / float(np.linalg.norm(exact))
