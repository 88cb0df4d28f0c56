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

The same flow carries Hagedorn's first-order states (u . Q^-1 (x - q)) psi
for any constant u (Hagedorn, CMP 71:77, 1980; Lasser & Lubich, Acta
Numerica 29:229, 2020): the operator (conj Q)^T (p - p(t)) - (conj P)^T
(x - q(t)), whose columns follow the linear flow, commutes with the
evolution, and on the packet it is 2i Im(sigma0) Q^-1 (x - q).  With
u = (1, i) the state vanishes only at x = q(t): a vortex of unit winding
whose core rides the classical ray (vortex_packet).
"""

import numpy as np

from rotorwkb.core import gauge_distance, lab_points
from rotorwkb.rays import flow_propagator


def _packet(grid, params, t, q0, p0, sigma0, angle):
    """Q(t)^-1, the offsets x - q(t) at the lab points R(angle) x of the
    nodes x, and the Gaussian packet there."""
    d = grid.dim
    Phi = np.eye(2 * d) + flow_propagator(params, t, d)[0]
    sigma0 = np.asarray(sigma0, dtype=complex)
    Q = Phi[:d, :d] + Phi[:d, d:] @ sigma0
    P = Phi[d:, :d] + Phi[d:, d:] @ sigma0
    z = Phi @ np.concatenate([q0, p0])
    q, p = z[:d], z[d:]
    Qinv = np.linalg.inv(Q)
    width = P @ Qinv
    X = [mesh - qj for mesh, qj in zip(lab_points(grid, angle), q)]
    phase = sum(0.5 * width[i, j] * X[i] * X[j] + (p[i] * X[i] if i == j else 0.0)
                for i in range(d) for j in range(d))
    return Qinv, X, np.exp(1j * phase / params.eps) / np.sqrt(abs(np.linalg.det(Q)))


def gaussian_packet(grid, params, t, q0, p0, sigma0, angle=0.0):
    """Samples of the exact packet at time t at the lab points R(angle) x of
    the nodes x (core.lab_points; angle 0 is the lab grid), up to a global
    phase; Im sigma0 must be positive definite."""
    return _packet(grid, params, t, q0, p0, sigma0, angle)[2]


def vortex_packet(grid, params, t, q0, p0, sigma0, angle=0.0):
    """Hagedorn's first-order state (u . Q^-1 (x - q)) times the Gaussian
    packet, u = (1, i), at the same points and up to the same global phase;
    at t = 0 (Q = I) it is (x1 - q1) + i (x2 - q2) times the packet.  2d."""
    Qinv, X, packet = _packet(grid, params, t, q0, p0, sigma0, angle)
    return sum((Qinv[0, j] + 1j * Qinv[1, j]) * X[j] for j in range(2)) * packet


def gauge_error(values, exact):
    """L2 distance of values from exact times the global phase that
    minimizes it, relative to the norm of exact."""
    return gauge_distance(values, exact) / float(np.linalg.norm(exact))
