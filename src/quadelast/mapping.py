"""Bilinear geometry of quadrilateral cells and Gauss quadrature.

Every physical integral in the package is computed by pulling back to the
reference square (integrand times Jacobian determinant); the inverse map is
never formed.  :func:`geometry_at` evaluates, for a batch of cells at once,
the physical points, the Jacobians DF and their determinants J at given
reference points, from the bilinear corner shape functions of
:func:`ref_shape`.  Stress rows move by the Piola map ``(1/J) DF vhat``,
which keeps normal traces and turns the divergence into ``(1/J) divhat``;
:func:`piola_values` applies DF for assembly, the Gram matrix and
``fe_space.evaluate_batch``.  Displacements move by composition.

Contractions over the cell axis go through BLAS or are written out term
by term; a plain ``np.einsum`` over the cells is up to 100x slower.

Work per cell runs in fixed batches: :func:`cell_chunks`, the one caller
of :func:`geometry_at` besides mesh validation, yields the geometry of
``CELL_CHUNK`` consecutive cells at a time; assembly, the norm Gram, error
evaluation and every diagnostic tabulate one chunk, write its cells'
results and move on, so their temporaries do not grow with the mesh.  Cell
matrices and Gram arrays are the same, bit for bit, whatever the chunk;
sums over the cells and BLAS contractions over a whole chunk agree to
round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CELL_CHUNK",
    "QuadratureRule",
    "cell_chunks",
    "ref_shape",
    "geometry_at",
    "piola_values",
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
    # optimize=True contracts through BLAS: at n = 32 with 144 points per
    # cell (1,024 cells, 2 vCPUs) DF takes 0.39 ms against 36.9 ms for a
    # plain einsum, and X 0.17 ms against 19.2 ms
    X = np.einsum("qc,ecd->eqd", N, corners, optimize=True)
    # DF from the corners relative to the first one (the gradients sum to
    # zero): the absolute coordinates (~1) would cancel down to DF (~1/n)
    # and lose digits as n grows
    DF = np.einsum("qcj,eci->eqij", dN, corners - corners[:, :1],
                   optimize=True)
    J = DF[..., 0, 0] * DF[..., 1, 1] - DF[..., 0, 1] * DF[..., 1, 0]
    return X, DF, J


#: Cells per batch of :func:`cell_chunks`.  The process peak of the
#: locking sweep (bdm1 trapezoids, n = 2 to 32, 2 vCPUs) is 101-105 MB for
#: 32 to 256 cells, 109 MB at 512 and 119 MB in one whole-mesh batch; its
#: wall time did not separate 32 to 512 cells beyond run-to-run noise.
CELL_CHUNK = 128


def cell_chunks(mesh, xhat: np.ndarray):
    """Consecutive cells of ``mesh`` in batches of ``CELL_CHUNK``.

    Yields ``(cells, X, DF, J)``: the slice of cells and their
    :func:`geometry_at` at the reference points ``xhat``.
    """
    for start in range(0, mesh.n_quads, CELL_CHUNK):
        cells = slice(start, start + CELL_CHUNK)
        yield (cells, *geometry_at(mesh.vertices[mesh.quads[cells]], xhat))


def piola_values(DF: np.ndarray, vhat: np.ndarray) -> np.ndarray:
    """Unscaled contravariant Piola values ``DF vhat``; the true values
    carry a further 1/J.

    ``DF`` (..., 2, 2) and ``vhat`` (..., 2) broadcast against each other
    over their leading axes, e.g. ``DF[:, None]`` (E, 1, q, 2, 2) against
    reference basis values (k, q, 2) gives (E, k, q, 2).  The two-term sum
    is written out: it is several times faster than a plain ``einsum`` and
    gives the same bits, which a BLAS contraction does not.  Given the
    adjugate J DF^{-1} in place of DF it is the inverse Piola map.
    """
    out = DF[..., 0] * vhat[..., :1]
    out += DF[..., 1] * vhat[..., 1:]  # in place: one full-size temporary less
    return out


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
