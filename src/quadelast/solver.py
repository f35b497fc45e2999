"""Hybridized direct solution of the assembled saddle-point system.

Stress, displacement and rotation are coupled across cells only through
the dofs that two cells share: the normal moments on interior edges.  Each
such dof is broken into one copy per cell, and the copies are tied by one
Lagrange multiplier (Arnold & Brezzi, 1985).  Every cell system is then
eliminated at once by one batched dense solve, which leaves the small
symmetric positive definite multiplier ("trace") system

    S = sum_K C_K K_K^{-1} C_K^T,

with C_K the signed selection of cell K's shared dofs.  S is factored by
symmetric-mode SuperLU with no pivoting; a positive pivot everywhere is the
SPD and singularity check.  :class:`HybridFactor` keeps that factor, so
K^{-1} applies to any later right-hand side; :func:`cell_apply` applies K
cell by cell, and every solution is verified against its residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import BlockSystem

__all__ = ["HybridFactor", "SolveReport", "SolverError", "SingularSystem",
           "ResidualTooLarge", "cell_apply", "solve", "spd_factor"]

RESIDUAL_TOL = 1e-10
PIVOT_TOL = 1e-13


class SolverError(Exception):
    """Base class for solver failures."""


class SingularSystem(SolverError):
    """A pivot vanished beyond tolerance; the system is (numerically)
    singular, typically signalling an unstable space combination."""


class ResidualTooLarge(SolverError):
    """Factorization succeeded but the verified residual is unacceptable."""


@dataclass(frozen=True)
class SolveReport:
    """Result of :func:`solve`; ``factorization`` names its one path."""

    solution: np.ndarray
    residual: float  # ||Kx - b|| / ||b||  (or absolute for b = 0)
    factorization: ClassVar[str] = "sparse"
    multipliers: int  # size of the factored trace system
    factor_nnz: int  # nnz of its L + U factors; 0 when nothing is factored


def _multipliers(cell_dofs: np.ndarray, n: int):
    """Multiplier numbering of the dofs that two cells list.

    Returns the listing count of every global dof and, per cell, the
    multiplier of each local dof and its sign: +1 in the first listing,
    -1 in the second, 0 for a dof listed once.
    """
    flat = cell_dofs.ravel()
    count = np.bincount(flat, minlength=n)
    if count.max(initial=0) > 2:
        raise ValueError("a dof is listed by three or more cells; "
                         "only pairs can be tied by one multiplier")
    shared = count == 2
    number = np.cumsum(shared) - 1
    first = np.zeros(flat.size, dtype=bool)
    first[np.unique(flat, return_index=True)[1]] = True
    sign = np.where(shared[flat], np.where(first, 1.0, -1.0), 0.0)
    return count, number[cell_dofs], sign.reshape(cell_dofs.shape)


def _trace_system(T: np.ndarray, slot_mult: np.ndarray,
                  n_mult: int) -> sp.csc_matrix:
    """The trace system S, summed from the cells' blocks ``T`` (E, m, m),
    symmetrized, on their real slots: a padding slot points at the phantom
    multiplier ``n_mult`` and is left out."""
    Se = 0.5 * (T + T.transpose(0, 2, 1))
    real = slot_mult < n_mult
    pairs = real[:, :, None] & real[:, None, :]
    rows = np.broadcast_to(slot_mult[:, :, None], Se.shape)[pairs]
    cols = np.broadcast_to(slot_mult[:, None, :], Se.shape)[pairs]
    return sp.csc_matrix((Se[pairs], (rows, cols)), shape=(n_mult, n_mult))


def spd_factor(N: sp.csc_matrix):
    """Symmetric-mode SuperLU factor of the symmetric sparse matrix N, or
    None unless N is numerically positive definite.

    A symmetric matrix is positive definite exactly when its LDL^T pivots
    are positive.  With a zero pivot threshold SuperLU keeps every diagonal
    pivot it can, so the pivots are the diagonal of U unless a zero pivot
    forced a row exchange (perm_r differs from perm_c).  Every pivot must
    exceed ``PIVOT_TOL`` times the largest diagonal entry of N.
    """
    try:
        lu = spla.splu(N, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular
        return None
    if not (np.array_equal(lu.perm_r, lu.perm_c)
            and np.all(lu.U.diagonal() > PIVOT_TOL * N.diagonal().max())):
        return None
    return lu


def _check_residual(Kx, b) -> float:
    bnorm = np.linalg.norm(b)
    residual = float(np.linalg.norm(Kx - b))
    if bnorm == 0.0:
        if residual > 1e-12:
            raise ResidualTooLarge(
                f"zero-load residual {residual:.3e} exceeds 1e-12")
    else:
        residual /= bnorm
        if residual > RESIDUAL_TOL:
            raise ResidualTooLarge(
                f"relative residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return residual


class HybridFactor:
    """K^{-1} by hybridization, for K the sum of the cell matrices (E, k, k)
    on the ``n`` global dofs ``cell_dofs`` (E, k).

    A load ``rhs`` rides in the one batched cell solve, and ``solution`` is
    K^{-1} rhs; :meth:`solve` takes any later right-hand side.  Raises
    SingularSystem when a dof belongs to no cell, a cell matrix is singular
    or the trace system is not numerically positive definite, and
    ValueError when a dof is listed by three or more cells.
    """

    def __init__(self, cell_matrices, cell_dofs, n: int, rhs=None):
        A = self.cell_matrices = cell_matrices
        D = self.cell_dofs = cell_dofs
        count, mult, sign = _multipliers(D, n)
        if np.any(count == 0):
            raise SingularSystem(
                "a dof belongs to no cell; the system is singular")
        n_mult = int(np.count_nonzero(count == 2))

        # slot j of cell e holds its j-th shared dof; padding slots point at a
        # phantom multiplier n_mult with a zero column
        shared = sign != 0.0
        m = int(shared.sum(axis=1).max(initial=0))
        slot = np.cumsum(shared, axis=1) - 1
        e, i = np.nonzero(shared)
        R = np.zeros(D.shape + (m + (rhs is not None),))
        R[e, i, slot[e, i]] = sign[e, i]
        if rhs is not None:
            R[..., m] = rhs[D] / count[D]
        slot_mult = np.full((len(D), m), n_mult)
        slot_mult[e, slot[e, i]] = mult[e, i]

        try:
            Y = np.linalg.solve(A, R)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"singular cell matrix: {exc}") from exc
        T = R[..., :m].transpose(0, 2, 1) @ Y  # (E, m, m [+ 1])
        Cy = None if rhs is None else T[..., m].copy()
        S = _trace_system(T[..., :m], slot_mult, n_mult)
        del T  # only S and the cell solves stay alive through the factor

        self.count, self.multipliers, self.slot_mult = count, n_mult, slot_mult
        self.C, self.Y = R[..., :m], Y[..., :m]
        self.lu = self._inverses = None
        if n_mult:
            self.lu = spd_factor(S)
            if self.lu is None:
                raise SingularSystem(
                    "trace system not positive definite beyond tolerance; "
                    "system nearly singular")
        self.solution = None if rhs is None else self._recover(Y[..., m], Cy)

    def _recover(self, y, Cy):
        """K^{-1} b from the cell solves ``y`` (E, k) of b's cell loads and
        their shared entries ``Cy`` (E, m): multipliers, then cell by cell."""
        g = np.bincount(self.slot_mult.ravel(), Cy.ravel(),
                        minlength=self.multipliers + 1)
        lam = np.zeros(self.multipliers + 1)
        if self.lu is not None:
            lam[:-1] = self.lu.solve(g[:-1])
        local = y - np.einsum("ekj,ej->ek", self.Y, lam[self.slot_mult])
        return (np.bincount(self.cell_dofs.ravel(), local.ravel(),
                            minlength=self.count.size) / self.count)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """K^{-1} b; each shared dof's load is split between its cells."""
        # formed once, at ~1.5x the cost of the batched solve, the inverses
        # make each later cell solve a matrix-vector product
        if self._inverses is None:
            self._inverses = np.linalg.inv(self.cell_matrices)
        load = b[self.cell_dofs] / self.count[self.cell_dofs]
        y = np.einsum("ekl,el->ek", self._inverses, load)
        return self._recover(y, np.einsum("ekj,ek->ej", self.C, y))


def cell_apply(cell_matrices, cell_dofs, x: np.ndarray) -> np.ndarray:
    """K x, applied cell by cell without assembling K."""
    Ax = np.einsum("ekl,el->ek", cell_matrices, x[cell_dofs])
    return np.bincount(cell_dofs.ravel(), Ax.ravel(), minlength=x.size)


def solve(system: BlockSystem) -> SolveReport:
    """Solve the block system by one :class:`HybridFactor`, with the load
    in the factor's batched cell solve.

    Raises the factor's SingularSystem and ValueError, SingularSystem on a
    non-finite solution, and ResidualTooLarge when the residual, verified
    against the whole operator, exceeds tolerance.
    """
    A, D, b = system.cell_matrices, system.cell_dofs, system.rhs
    factor = HybridFactor(A, D, system.n, rhs=b)
    x = factor.solution
    if not np.all(np.isfinite(x)):
        raise SingularSystem("non-finite entries in the solution")
    return SolveReport(
        solution=x, residual=_check_residual(cell_apply(A, D, x), b),
        multipliers=factor.multipliers,
        factor_nnz=0 if factor.lu is None else int(factor.lu.nnz))
