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
``CELL_CHUNK`` cells at a time, of the whole mesh or of a given set of
cells; assembly, the norm Gram, error evaluation and every diagnostic
tabulate one chunk, write its cells' results and move on, so their
temporaries do not grow with the mesh.  A cell's matrix and Gram matrix
are the same, bit for bit, in any batch; sums over the cells and BLAS
contractions over a whole chunk agree to round-off.

DF, J, the cell diameters and ``fe_space.unmapped_basis`` depend only on
the :func:`relative_corners`.  Cells whose relative corners are equal bit
for bit form one translation class (``QuadMesh.translation_classes``), and
every cell of a class has the same cell matrix and Gram matrix up to its
dof signs, so assembly and the norm Gram tabulate one cell per class.  A
structured mesh has a few classes (one on squares at the power-of-two
study levels, 26 on trapezoids at n = 32); a mesh with no repeated shape
has one class per cell and runs the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CELL_CHUNK",
    "QuadratureRule",
    "cell_batches",
    "cell_chunks",
    "relative_corners",
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
    DF = np.einsum("qcj,eci->eqij", dN, relative_corners(corners),
                   optimize=True)
    J = DF[..., 0, 0] * DF[..., 1, 1] - DF[..., 0, 1] * DF[..., 1, 0]
    return X, DF, J


def relative_corners(corners: np.ndarray) -> np.ndarray:
    """Corners (E, 4, 2) relative to each cell's first corner: the input
    of DF, J, the cell diameters and the rotation basis, and what defines
    a translation class."""
    return corners - corners[:, :1]


#: Cells per batch of :func:`cell_batches`.  It bounds the transient
#: per-cell arrays of every pass over the cells: the class tabulation, the
#: load, the error evaluation, the diagnostics and the class matrices the
#: solver gathers.  It was chosen when assembly stored one matrix per cell
#: and has not been tuned again since.
CELL_CHUNK = 128


def cell_batches(cells):
    """``cells`` in consecutive batches of ``CELL_CHUNK``: slices of
    ``range(cells)`` for a count, pieces of an index array otherwise."""
    if np.isscalar(cells):
        for start in range(0, cells, CELL_CHUNK):
            yield slice(start, start + CELL_CHUNK)
    else:
        for start in range(0, len(cells), CELL_CHUNK):
            yield cells[start:start + CELL_CHUNK]


def cell_chunks(mesh, xhat: np.ndarray, cells=None):
    """The cells of ``mesh``, by default all of them, else the index
    array ``cells``, in batches of :func:`cell_batches`.

    Yields ``(cells, X, DF, J)``: the batch's cells (a slice or an index
    array) and their :func:`geometry_at` at the reference points ``xhat``.
    """
    for batch in cell_batches(mesh.n_quads if cells is None else cells):
        yield (batch, *geometry_at(mesh.vertices[mesh.quads[batch]], xhat))


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


@lru_cache(maxsize=None)
def gauss_rule(k: int) -> QuadratureRule:
    """k x k tensor product of :func:`gauss_rule_1d`, exact on Q_{2k-1}.
    Cached: every caller shares one read-only rule per order."""
    x, w = gauss_rule_1d(k)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return QuadratureRule(
        points=np.column_stack([X.ravel(), Y.ravel()]),
        weights=np.outer(w, w).ravel(),
    )


@lru_cache(maxsize=None)
def gauss_rule_1d(k: int):
    """k-point Gauss--Legendre points and weights on [0,1], read-only and
    cached like :func:`gauss_rule`."""
    if k < 1:
        raise ValueError("quadrature order k must be >= 1")
    x, w = np.polynomial.legendre.leggauss(k)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w
