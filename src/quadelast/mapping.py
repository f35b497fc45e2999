"""Bilinear geometry of quadrilateral cells and Gauss quadrature.

Every physical integral in the package is computed by pulling back to the
reference square (integrand times Jacobian determinant); the inverse map is
never formed.  :func:`geometry_at` evaluates, for a batch of cells at once,
the physical points, the Jacobians DF and their determinants J at given
reference points, from the bilinear corner shape functions of
:func:`ref_shape`.  The field transforms built on it live with their
users: stress rows move by the Piola map ``(1/J) DF vhat``, which keeps
normal traces and turns the divergence into ``(1/J) divhat``
(``fe_space.evaluate_batch`` and ``assembly.assemble``); displacements
move by composition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "ref_shape",
    "geometry_at",
    "gauss_rule",
    "gauss_rule_1d",
]


def ref_shape(xhat: np.ndarray):
    """Bilinear corner shape functions and their reference gradients.

    Parameters
    ----------
    xhat : array, shape (..., 2)

    Returns
    -------
    N : array, shape (..., 4)
    dN : array, shape (..., 4, 2)
    """
    xhat = np.asarray(xhat)
    x, y = xhat[..., 0], xhat[..., 1]
    N = np.stack([(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y], axis=-1)
    dN = np.stack(
        [
            np.stack([y - 1, x - 1], axis=-1),
            np.stack([1 - y, -x], axis=-1),
            np.stack([y, x], axis=-1),
            np.stack([-y, 1 - x], axis=-1),
        ],
        axis=-2,
    )
    return N, dN


def geometry_at(corners: np.ndarray, xhat: np.ndarray):
    """Batched geometry: points, Jacobians and determinants per element.

    Parameters
    ----------
    corners : array, shape (E, 4, 2)
    xhat : array, shape (q, 2)

    Returns
    -------
    X : (E, q, 2), DF : (E, q, 2, 2), J : (E, q)
    """
    N, dN = ref_shape(xhat)
    X = np.einsum("qc,ecd->eqd", N, corners)
    DF = np.einsum("qcj,eci->eqij", dN, corners)
    J = DF[..., 0, 0] * DF[..., 1, 1] - DF[..., 0, 1] * DF[..., 1, 0]
    return X, DF, J


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor Gauss--Legendre rule on the reference square [0,1]^2."""

    points: np.ndarray  # (n, 2)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        for name in ("points", "weights"):
            a = np.ascontiguousarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def gauss_rule(k: int) -> QuadratureRule:
    """k x k tensor Gauss--Legendre rule; exact on Q_{2k-1}."""
    if k < 1:
        raise ValueError("quadrature order k must be >= 1")
    x, w = np.polynomial.legendre.leggauss(k)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    X, Y = np.meshgrid(x, x, indexing="ij")
    return QuadratureRule(
        points=np.column_stack([X.ravel(), Y.ravel()]),
        weights=np.outer(w, w).ravel(),
    )


def gauss_rule_1d(k: int):
    """k-point Gauss--Legendre points and weights on [0,1]."""
    if k < 1:
        raise ValueError("quadrature order k must be >= 1")
    x, w = np.polynomial.legendre.leggauss(k)
    return 0.5 * (x + 1.0), 0.5 * w
