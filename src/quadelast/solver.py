"""Hybridized direct solution of the assembled saddle-point system.

Stress, displacement and rotation are coupled across cells only through
the dofs that two cells share: the normal moments on interior edges.  Each
such dof is broken into one copy per cell, and the copies are tied by one
Lagrange multiplier (Arnold & Brezzi, 1985).  Eliminating every cell
leaves the small symmetric positive definite multiplier ("trace") system

    S = sum_K C_K K_K^{-1} C_K^T,

with C_K the signed selection of cell K's shared dofs.  Every cell has
the same slots: the local dofs at which any cell lists a shared dof (the
stress edge moments), with sign 0 where the cell's dof is not shared.
Cell K's matrix is S_K A_c S_K, A_c the unsigned matrix of its
translation class and S_K its dof signs, so K_K^{-1} = S_K A_c^{-1} S_K:
the columns of A_c^{-1} at the slots are solved for once per class, and
each cell's block of S and its multiplier correction are read off them.
:func:`fe_space.scatter` sums the blocks into S, leaving out the unshared
slots, and S is factored by symmetric-mode SuperLU with no pivoting; a
positive pivot everywhere is the SPD and singularity check.
:class:`HybridFactor` keeps that factor, so K^{-1} applies to any later
right-hand side; :func:`cell_apply` applies K cell by cell, and every
solution is verified against its residual.  One helper applies the class
matrices, gathered for one batch of :func:`mapping.cell_batches` at a
time, so no per-cell matrix is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import BlockSystem
from .fe_space import scatter
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

    Returns the listing count of every global dof; the slots (m,), the
    local dofs at which any cell lists a shared dof (on a mesh, the
    stress edge moments), the same for every cell; and, per cell and
    slot, the multiplier (E, m) and its sign (E, m), +1 in the first
    listing and -1 in the second.  Where a cell's dof at a slot is not
    shared, the slot has sign 0 and the phantom multiplier, numbered after
    the real ones.
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
    slots = np.flatnonzero(on.any(axis=0))
    on = on[:, slots]
    mult = np.where(on, number[cell_dofs[:, slots]],
                    int(np.count_nonzero(shared)))
    sign = np.where(on, np.where(first.reshape(cell_dofs.shape)[:, slots],
                                 1.0, -1.0), 0.0)
    return count, slots, mult, sign


def spd_factor(N):
    """Symmetric-mode SuperLU factor of the symmetric CSC matrix N, or
    None unless N is numerically positive definite.

    A symmetric matrix is positive definite exactly when its LDL^T pivots
    are positive.  With a zero pivot threshold SuperLU keeps every diagonal
    pivot it can, so the pivots are the diagonal of U unless a zero pivot
    forced a row exchange (perm_r differs from perm_c).  Every pivot must
    exceed ``PIVOT_TOL`` times the largest diagonal entry of N.  Reading
    the pivots makes scipy build L and U as matrices, so N is let go
    first: a caller that holds no other reference frees it before then.
    """
    floor = PIVOT_TOL * N.diagonal().max()
    try:
        lu = spla.splu(N, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular
        return None
    del N
    if not (np.array_equal(lu.perm_r, lu.perm_c)
            and np.all(lu.U.diagonal() > floor)):
        return None
    return lu


def _norm(v: np.ndarray) -> float:
    """The 2-norm of ``v`` by einsum's own loop: on long vectors
    ``np.linalg.norm`` calls a threaded BLAS dot, which can stall."""
    return float(np.sqrt(np.einsum("i,i->", v, v)))


def _check_residual(Kx, b) -> float:
    bnorm = _norm(b)
    residual = _norm(Kx - b)
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


def _class_apply(mats: np.ndarray, cell_class: np.ndarray,
                 v: np.ndarray) -> np.ndarray:
    """``mats[cell_class[e]] @ v[e]`` for every cell e, gathering the class
    matrices of one batch of cells at a time."""
    out = np.empty((len(v), mats.shape[1]))
    for cells in cell_batches(len(v)):
        out[cells] = np.einsum("ekl,el->ek", mats[cell_class[cells]],
                               v[cells])
    return out


class HybridFactor:
    """K^{-1} by hybridization, for K the operator of a :class:`BlockSystem`.

    ``columns`` (C, k, m) holds each class inverse's columns at the slots,
    the same for every cell.  A load ``rhs`` is solved with the factor, and
    ``solution`` is K^{-1} rhs; :meth:`solve` takes any later right-hand
    side.  Raises SingularSystem when a dof belongs to no cell, a class
    matrix is singular or the trace system is not numerically positive
    definite, and ValueError when a dof is listed by three or more cells.
    """

    def __init__(self, system: BlockSystem, rhs=None):
        D = self.cell_dofs = system.cell_dofs
        self.cell_class, self.cell_signs = system.cell_class, system.cell_signs
        self.count, self.slots, self.slot_mult, sign = _multipliers(
            D, system.n)
        if np.any(self.count == 0):
            raise SingularSystem(
                "a dof belongs to no cell; the system is singular")
        self.multipliers = int(np.count_nonzero(self.count == 2))
        # a slot's sign in the class basis: its multiplier's sign times the
        # cell's sign of the slot's local dof
        self.slot_sign = sign * self.cell_signs[:, self.slots]
        self.class_matrices = system.class_matrices
        unit = np.zeros((D.shape[1], len(self.slots)))
        unit[self.slots, np.arange(len(self.slots))] = 1.0
        try:
            self.columns = np.linalg.solve(system.class_matrices, unit)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"singular cell matrix: {exc}") from exc
        self._inverses = None
        y = None
        if rhs is not None:
            # LU solves, not products with the inverses: x = A^{-1} b is not
            # backward stable on nearly incompressible cells
            y = self._cell_loads(rhs)
            for cells in cell_batches(len(D)):
                A = system.class_matrices[self.cell_class[cells]]
                y[cells] = np.linalg.solve(A, y[cells, :, None])[..., 0]
        self.lu = None
        if self.multipliers:
            # no name keeps S, so it is freed inside spd_factor
            m = self.multipliers
            self.lu = spd_factor(scatter(
                [(self.cell_traces(), self.slot_mult, self.slot_mult)],
                (m, m)))
            if self.lu is None:
                raise SingularSystem(
                    "trace system not positive definite beyond tolerance; "
                    "system nearly singular")
        self.solution = None if y is None else self._recover(y)

    def cell_traces(self) -> np.ndarray:
        """Each cell's block C^T K_K^{-1} C of the trace system, (E, m, m):
        its class inverse's block at the slots, symmetrized once per class,
        times the slot signs.  The signs are 0 or ±1, so this is bit for bit
        the symmetrized signed block."""
        sgn = self.slot_sign
        A = self.columns[:, self.slots]
        T = (0.5 * (A + A.transpose(0, 2, 1)))[self.cell_class]
        T *= sgn[:, :, None]
        T *= sgn[:, None, :]
        return T

    def _cell_loads(self, b: np.ndarray) -> np.ndarray:
        """The cells' loads in their class basis, (E, k): each shared dof's
        entry of ``b`` split between its two cells, times the cell's
        signs."""
        D = self.cell_dofs
        return b[D] / self.count[D] * self.cell_signs

    def _recover(self, y: np.ndarray) -> np.ndarray:
        """K^{-1} b from ``y`` (E, k), the class inverses applied to b's
        cell loads: multipliers, then cell by cell.  Overwrites ``y``."""
        g = np.bincount(self.slot_mult.ravel(),
                        (self.slot_sign * y[:, self.slots]).ravel(),
                        minlength=self.multipliers + 1)
        lam = np.zeros(self.multipliers + 1)
        if self.lu is not None:
            lam[:-1] = self.lu.solve(g[:-1])
        # y -= A_c^{-1} C lam, from the class inverses' columns at the slots
        y -= _class_apply(self.columns, self.cell_class,
                          self.slot_sign * lam[self.slot_mult])
        y *= self.cell_signs
        return (np.bincount(self.cell_dofs.ravel(), y.ravel(),
                            minlength=self.count.size) / self.count)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """K^{-1} b; each shared dof's load is split between its cells."""
        # formed once, at about twice the cost of the columns, the class
        # inverses make each later cell solve a matrix-vector product
        if self._inverses is None:
            self._inverses = np.linalg.inv(self.class_matrices)
        return self._recover(_class_apply(self._inverses, self.cell_class,
                                          self._cell_loads(b)))


def cell_apply(system: BlockSystem, x: np.ndarray) -> np.ndarray:
    """K x, applied cell by cell from the class matrices without
    assembling K."""
    D, s = system.cell_dofs, system.cell_signs
    Ax = _class_apply(system.class_matrices, system.cell_class, x[D] * s)
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
