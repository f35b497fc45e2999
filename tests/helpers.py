"""Helpers that only the tests use: patch-test data, the canonical
interpolant of one reference element, and the compliance applied to a
stack of matrices."""

import numpy as np

from quadelast.problem import LameParams, ManufacturedSolution, compliance_matrix


def linear_solution(params: LameParams,
                    grad: np.ndarray | None = None) -> ManufacturedSolution:
    """Linear displacement with constant stress and zero body force.

    The patch-test problem: every field lies in the coarsest discrete
    spaces, so a working method reproduces the triple to solver accuracy
    on any admissible mesh.
    """
    U = np.array([[0.3, 0.1], [0.2, -0.4]]) if grad is None else np.asarray(grad)
    mu, lam = params.mu, params.lam
    eps = 0.5 * (U + U.T)
    sig = 2.0 * mu * eps + lam * np.trace(U) * np.eye(2)
    rot = 0.5 * (U[0, 1] - U[1, 0])

    def u(x):
        return np.asarray(x) @ U.T

    def grad_u(x):
        return np.broadcast_to(U, np.asarray(x).shape[:-1] + (2, 2))

    def p(x):
        return np.broadcast_to(rot, np.asarray(x).shape[:-1])

    def sigma(x):
        return np.broadcast_to(sig, np.asarray(x).shape[:-1] + (2, 2))

    def f(x):
        return np.zeros(np.asarray(x).shape[:-1] + (2,))

    return ManufacturedSolution(params=params, u=u, grad_u=grad_u, p=p,
                                sigma=sigma, f=f)


def interpolate(elem, field, order: int = 10) -> np.ndarray:
    """Canonical interpolation: apply every dof functional of ``elem`` to
    ``field``.

    ``order`` sets the quadrature used inside the functionals; exact for
    polynomial fields, and the knob to turn for rational pullbacks.
    """
    points, W = elem.interpolation_matrix(order)
    vals = np.asarray(field(points)).reshape(len(points), elem.ncomp)
    return np.einsum("ipc,pc->i", W, vals)


def compliance_apply(params: LameParams, tau: np.ndarray) -> np.ndarray:
    """Apply the compliance to matrices of shape (..., 2, 2)."""
    tau = np.asarray(tau, dtype=float)
    vec = tau.reshape(tau.shape[:-2] + (4,))
    return (vec @ compliance_matrix(params).T).reshape(tau.shape)
