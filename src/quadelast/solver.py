"""Hybridized direct solution of the assembled saddle-point system.

Stress, displacement and rotation are coupled across cells only through
the dofs that two cells share: the normal moments on interior edges.  Each
such dof is broken into one copy per cell, and the copies are tied by one
Lagrange multiplier (Arnold & Brezzi, 1985).  Eliminating every cell
leaves the small symmetric positive definite multiplier ("trace") system

    S = sum_K C_K K_K^{-1} C_K^T,

with C_K the signed selection of cell K's shared dofs.  Cell K's matrix
is S_K A_c S_K, A_c the unsigned matrix of its translation class and S_K
its dof signs, so K_K^{-1} = S_K A_c^{-1} S_K: the columns of A_c^{-1}
at the local dofs that cells share are solved for once per class, and
each cell's block of S and its multiplier correction are read off them.
S is factored by symmetric-mode SuperLU with no pivoting; a positive pivot
everywhere is the SPD and singularity check.  :class:`HybridFactor` keeps
that factor, so K^{-1} applies to any later right-hand side;
:func:`cell_apply` applies K cell by cell, and every solution is verified
against its residual.  Per-cell work gathers the class matrices of one
batch of :func:`mapping.cell_batches` at a time, so no per-cell matrix is
stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import BlockSystem
from .mapping import cell_batches

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

    Returns the listing count of every global dof and, per cell, one slot
    per shared dof, padded to the largest number m of shared dofs in a
    cell: the slot's local dof (E, m), its multiplier (E, m) and its sign
    (E, m), +1 in the first listing and -1 in the second.  Padding slots
    have local dof 0, sign 0 and a phantom multiplier numbered after the
    real ones.
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
    on = shared[cell_dofs]
    m = int(on.sum(axis=1).max(initial=0))
    e, i = np.nonzero(on)
    slot = (np.cumsum(on, axis=1) - 1)[e, i]
    local = np.zeros((len(cell_dofs), m), dtype=np.int64)
    mult = np.full((len(cell_dofs), m), int(np.count_nonzero(shared)))
    sign = np.zeros((len(cell_dofs), m))
    local[e, slot] = i
    mult[e, slot] = number[cell_dofs[e, i]]
    sign[e, slot] = np.where(first.reshape(cell_dofs.shape)[e, i], 1.0, -1.0)
    return count, local, mult, sign


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
    """K^{-1} by hybridization, for K the operator of a :class:`BlockSystem`.

    A load ``rhs`` is solved with the factor, and ``solution`` is
    K^{-1} rhs; :meth:`solve` takes any later right-hand side.  Raises
    SingularSystem when a dof belongs to no cell, a class matrix is
    singular or the trace system is not numerically positive definite,
    and ValueError when a dof is listed by three or more cells.
    """

    def __init__(self, system: BlockSystem, rhs=None):
        D = self.cell_dofs = system.cell_dofs
        self.cell_class, self.cell_signs = system.cell_class, system.cell_signs
        self.count, self.slot_local, self.slot_mult, sign = _multipliers(
            D, system.n)
        if np.any(self.count == 0):
            raise SingularSystem(
                "a dof belongs to no cell; the system is singular")
        self.multipliers = int(np.count_nonzero(self.count == 2))
        # a slot's sign in the class basis: its multiplier's sign times the
        # cell's sign of its local dof
        self.slot_sign = sign * np.take_along_axis(self.cell_signs,
                                                   self.slot_local, axis=1)

        # the class inverses' columns at the local dofs that some cell
        # shares, then a zero column, and each slot's position among them;
        # padding slots point at the zero column
        self.class_matrices = system.class_matrices
        real = sign != 0.0
        shared = np.unique(self.slot_local[real])
        self.slot_column = np.where(
            real, np.searchsorted(shared, self.slot_local), len(shared))
        unit = np.zeros((D.shape[1], len(shared) + 1))
        unit[shared, np.arange(len(shared))] = 1.0
        try:
            self.columns = np.linalg.solve(system.class_matrices, unit)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"singular cell matrix: {exc}") from exc
        self._inverses = None
        y = None
        if rhs is not None:
            # LU solves, not products with the inverses: x = A^{-1} b is not
            # backward stable on nearly incompressible cells
            y = np.empty(D.shape)
            for cells in cell_batches(len(D)):
                A = system.class_matrices[self.cell_class[cells]]
                y[cells] = np.linalg.solve(
                    A, self._cell_loads(rhs, cells)[..., None])[..., 0]
        S = _trace_system(self.cell_traces(), self.slot_mult,
                          self.multipliers)
        self.lu = None
        if self.multipliers:
            self.lu = spd_factor(S)
            if self.lu is None:
                raise SingularSystem(
                    "trace system not positive definite beyond tolerance; "
                    "system nearly singular")
        del S  # only the factor stays alive through the recovery
        self.solution = None if y is None else self._recover(y)

    def cell_traces(self) -> np.ndarray:
        """Each cell's block C^T K_K^{-1} C of the trace system, (E, m, m):
        the class inverse on the cell's shared slots, times their signs."""
        sgn = self.slot_sign
        T = self.columns[self.cell_class[:, None, None],
                         self.slot_local[:, :, None],
                         self.slot_column[:, None, :]]
        T *= sgn[:, :, None]
        T *= sgn[:, None, :]
        return T

    def _cell_loads(self, b: np.ndarray, cells) -> np.ndarray:
        """The loads of the cells ``cells`` in their class basis: each
        shared dof's entry of ``b`` split between its two cells, times the
        cell's signs."""
        d = self.cell_dofs[cells]
        return b[d] / self.count[d] * self.cell_signs[cells]

    def _recover(self, y: np.ndarray) -> np.ndarray:
        """K^{-1} b from ``y`` (E, k), the class inverses applied to b's
        cell loads: multipliers, then cell by cell.  Overwrites ``y``."""
        Cy = self.slot_sign * np.take_along_axis(y, self.slot_local, axis=1)
        g = np.bincount(self.slot_mult.ravel(), Cy.ravel(),
                        minlength=self.multipliers + 1)
        lam = np.zeros(self.multipliers + 1)
        if self.lu is not None:
            lam[:-1] = self.lu.solve(g[:-1])
        # y -= A_c^{-1} C lam, from the class inverses' shared columns
        z = np.zeros((len(y), self.columns.shape[2]))
        np.put_along_axis(z, self.slot_column,
                          self.slot_sign * lam[self.slot_mult], axis=1)
        for cells in cell_batches(len(y)):
            y[cells] -= np.einsum("ekj,ej->ek",
                                  self.columns[self.cell_class[cells]],
                                  z[cells])
        y *= self.cell_signs
        return (np.bincount(self.cell_dofs.ravel(), y.ravel(),
                            minlength=self.count.size) / self.count)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """K^{-1} b; each shared dof's load is split between its cells."""
        # formed once, at about twice the cost of the columns, the class
        # inverses make each later cell solve a matrix-vector product
        if self._inverses is None:
            self._inverses = np.linalg.inv(self.class_matrices)
        y = np.empty(self.cell_dofs.shape)
        for cells in cell_batches(len(y)):
            y[cells] = np.einsum("ekl,el->ek",
                                 self._inverses[self.cell_class[cells]],
                                 self._cell_loads(b, cells))
        return self._recover(y)


def cell_apply(system: BlockSystem, x: np.ndarray) -> np.ndarray:
    """K x, applied cell by cell from the class matrices without
    assembling K."""
    D, s = system.cell_dofs, system.cell_signs
    Ax = np.empty(D.shape)
    for cells in cell_batches(len(D)):
        Ax[cells] = np.einsum("ekl,el->ek",
                              system.class_matrices[system.cell_class[cells]],
                              x[D[cells]] * s[cells])
    Ax *= s
    return np.bincount(D.ravel(), Ax.ravel(), minlength=x.size)


def solve(system: BlockSystem) -> SolveReport:
    """Solve the block system by one :class:`HybridFactor` with the load.

    Raises the factor's SingularSystem and ValueError, SingularSystem on a
    non-finite solution, and ResidualTooLarge when the residual, verified
    against the whole operator, exceeds tolerance.
    """
    factor = HybridFactor(system, rhs=system.rhs)
    x = factor.solution
    if not np.all(np.isfinite(x)):
        raise SingularSystem("non-finite entries in the solution")
    return SolveReport(
        solution=x, residual=_check_residual(cell_apply(system, x),
                                             system.rhs),
        multipliers=factor.multipliers,
        factor_nnz=0 if factor.lu is None else int(factor.lu.nnz))
