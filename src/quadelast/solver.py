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

S is never summed.  It is factored by a multifrontal Cholesky (Duff &
Reid, 1983; Liu, 1992) along a nested dissection taken from the mesh
(George, 1973): the cells are bisected recursively at the median of their
centroids (``QuadMesh.dissection_leaves``), each multiplier belongs to
the tree node where its two cells part, and the multipliers are numbered
in the postorder of that tree.  A node's front is the extend-add of its
children's update matrices, the cells' trace blocks at height 1; its own
multipliers are eliminated by a dense Cholesky, and the Schur complement
on its boundary goes up to its parent.  All nodes of one height are one
batch, padded to the height's largest front.  The material-free part,
:class:`TracePlan`, is made once per stress space
(``FESpace.trace_plan``).  A positive pivot everywhere is the SPD and
singularity check.

:class:`HybridFactor` keeps that factor, so K^{-1} applies to any later
right-hand side; :func:`cell_apply` applies K cell by cell, and every
solution is verified against its residual.  One helper applies the class
matrices, gathered for one batch of :func:`mapping.cell_batches` at a
time, so no per-cell matrix is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from ._blas import one_blas_thread
from .assembly import BlockSystem
from .mapping import cell_batches

__all__ = ["HybridFactor", "SolveReport", "SolverError", "SingularSystem",
           "ResidualTooLarge", "TracePlan", "cell_apply", "solve"]

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
    factor_nnz: int  # entries of its Cholesky factor; 0 when none is factored


def _multipliers(cell_dofs: np.ndarray, cell_leaf: np.ndarray):
    """Multiplier numbering of the dofs that two cells list.

    Returns the slots (m,), the local dofs at which any cell lists a
    shared dof (on a mesh, the stress edge moments), the same for every
    cell; per cell and slot, the multiplier (E, m) and its sign (E, m),
    +1 in the first listing and -1 in the second; and the height of each
    multiplier's tree node (M,).  Where a cell's dof at a slot is not
    shared, the slot has sign 0 and the phantom multiplier M, numbered
    after the real ones.

    The multipliers follow the nested dissection of the cells'
    ``cell_leaf`` ids: a shared dof belongs to the tree node where its two
    cells part, and the nodes are numbered in postorder, so every
    separator comes after the two halves it separates.  Two leaf ids part
    at the node of height h, the bit length of their XOR, whose rightmost
    leaf is either id with its h low bits set; sorting by (rightmost leaf,
    height, dof) puts the nodes in postorder.
    """
    flat = cell_dofs.ravel()
    count = np.bincount(flat)
    shared = count == 2
    # each dof's listings side by side, in the order the cells list it
    listing = np.argsort(flat, kind="stable")
    start = np.cumsum(count) - count
    first = np.zeros(flat.size, dtype=bool)
    first[listing[start[count > 0]]] = True
    pair = listing[start[shared, None] + np.arange(2)]
    a, b = cell_leaf[pair // cell_dofs.shape[1]].T
    height = np.frexp(a ^ b)[1].astype(np.int64)
    # lexsort is stable, and the shared dofs come in increasing order
    order = np.lexsort((height, a | ((1 << height) - 1)))
    number = np.zeros(count.size, dtype=np.int64)
    number[np.flatnonzero(shared)[order]] = np.arange(order.size)
    on = shared[cell_dofs]
    slots = np.flatnonzero(on.any(axis=0))
    on = on[:, slots]
    mult = np.where(on, number[cell_dofs[:, slots]], order.size)
    sign = np.where(on, np.where(first.reshape(cell_dofs.shape)[:, slots],
                                 1.0, -1.0), 0.0)
    return slots, mult, sign, height[order]


class _Height(NamedTuple):
    """The nodes of one height of a :class:`TracePlan`."""

    rows: np.ndarray  # (P, F) int, own then boundary multipliers
    own: np.ndarray  # (P, O) int, rows[:, :O]
    bound: np.ndarray  # (P * (F - O),) int, rows[:, O:] flat
    n_own: np.ndarray  # (P,) int
    pos: np.ndarray  # (children, q) int, each child's rows in its front
    offsets: np.ndarray  # (children, q) int, those rows in the batch


class TracePlan:
    """The material-free plan of the trace system's factor.

    Built from the cells' dofs (E, k) and their ``cell_leaf`` ids; only
    the dofs two cells list matter, so a stress space's own dofs plan its
    systems (``FESpace.trace_plan``).  Holds the numbering of
    :func:`_multipliers` (``slots``, ``slot_mult``, ``sign``,
    ``multipliers``) and, per height of the dissection tree from 1 up, one
    :class:`_Height` of its P nodes:

    - ``rows`` (P, F): each node's front, by multiplier: first the O
      columns ``own`` of its ``n_own`` own multipliers, eliminated there,
      then its boundary multipliers ``bound``, flat, which belong to its
      ancestors; each part padded with the phantom M;
    - ``pos``: each child's (q,) row positions in its parent's front, F for
      a padded or phantom row, and ``offsets``, the offsets of those rows
      in the batch of fronts (P, F + 1, F + 1).  The children are the cells
      at height 1 and the nodes below otherwise, all of them, in order; one
      whose rows are all padding adds its zeros to node 0's last row.

    Two leaves or nodes share a parent exactly when their ids differ only
    in the last bit.  A node's own multipliers belong to it and its
    boundary ones to its ancestors, which come after it in postorder:
    sorted by number, the own ones come first.
    """

    def __init__(self, cell_dofs: np.ndarray, cell_leaf: np.ndarray):
        self.slots, self.slot_mult, self.sign, height = _multipliers(
            cell_dofs, cell_leaf)
        self.multipliers = M = len(height)
        self.heights = []
        rows, ids = self.slot_mult, np.asarray(cell_leaf, dtype=np.int64)
        h = 0
        while np.any(rows != M):
            h += 1
            child, col = np.nonzero(rows != M)
            # every (parent, multiplier) pair once, by parent and number
            key, at = np.unique((ids[child] >> 1) * (M + 1) + rows[child, col],
                                return_inverse=True)
            parent_id, mult = np.divmod(key, M + 1)
            nodes, start = np.unique(parent_id, return_index=True)
            node = np.searchsorted(nodes, parent_id)
            rank = np.arange(len(key)) - start[node]
            own = height[mult] == h
            n_own = np.bincount(node[own], minlength=len(nodes))
            O = int(n_own.max())
            F = O + int(np.bincount(node[~own]).max(initial=0))
            pos = np.where(own, rank, O + rank - n_own[node])
            front = np.full((len(nodes), F), M)
            front[node, pos] = mult
            child_pos = np.full(rows.shape, F)
            child_pos[child, col] = pos[at]
            parent = np.zeros(len(rows), dtype=np.int64)
            parent[child] = node[at]
            self.heights.append(_Height(
                front, front[:, :O].copy(), front[:, O:].ravel(), n_own,
                child_pos, (parent[:, None] * (F + 1) + child_pos) * (F + 1)))
            rows, ids = front[:, O:], nodes


class _Fronts:
    """The multifrontal Cholesky factor of the trace system S of a
    :class:`TracePlan`, from each class's symmetric trace block ``traces``
    (C, m, m) and each cell's slot signs (E, m).

    A node's front [[F11, F12], [F21, F22]], own rows first, is factored
    as L11 L11^T = F11, L21 = F21 L11^{-T}, and the update F22 - L21 L21^T
    goes to its parent.  Per height it keeps G = [L11^{-1}; L21 L11^{-1}]
    (P, F, O): the padded own rows' part of L11^{-1} is the identity.
    Raises SingularSystem when a front is not numerically positive
    definite: every pivot, a squared diagonal entry of L11, must exceed
    ``PIVOT_TOL`` times S's largest diagonal entry.
    """

    def __init__(self, plan: TracePlan, traces: np.ndarray,
                 cell_class: np.ndarray, slot_sign: np.ndarray):
        self.plan, M = plan, plan.multipliers
        diag = np.diagonal(traces, axis1=1, axis2=2)[cell_class]
        floor = PIVOT_TOL * np.bincount(
            plan.slot_mult.ravel(), (diag * slot_sign ** 2).ravel(),
            minlength=M + 1)[:M].max(initial=0.0)

        def cell_blocks(cells):
            """The cells' trace blocks, each class's block signed."""
            sign = slot_sign[cells]
            return (traces[cell_class[cells]] * sign[:, :, None]
                    * sign[:, None, :])

        # the children's blocks: the cells' trace blocks at height 1, then
        # the update matrices of the height below
        blocks = cell_blocks
        self.factors, self.nnz = [], 0
        # the fronts are batches of small products, which stall on some
        # hosts when they are threaded (see _blas)
        with one_blas_thread():
            for height in plan.heights:
                blocks = self._eliminate(height, blocks, floor).__getitem__

    def _eliminate(self, height: _Height, blocks, floor: float) -> np.ndarray:
        """Assemble and factor the fronts of one height from their
        children's blocks, ``blocks(children)`` for a batch of children,
        keep G and return the update matrices."""
        rows, own, _, n_own, pos, offsets = height
        (P, F), O = rows.shape, own.shape[1]
        # the extend-add: each child's block added at its rows' positions,
        # one batch of children at a time, in order; the row and column F
        # take the padded and phantom rows
        front = np.zeros((P, F + 1, F + 1))
        for children in cell_batches(len(pos)):
            np.add.at(front.reshape(-1), (offsets[children, :, None]
                                          + pos[children, None, :]).ravel(),
                      blocks(children).ravel())
        d = np.arange(O)
        front[:, d, d] += d >= n_own[:, None]
        try:
            L = np.linalg.cholesky(front[:, :O, :O])
        except np.linalg.LinAlgError:
            L = None
        if L is None or not np.all(
                np.diagonal(L, axis1=1, axis2=2)[d < n_own[:, None]] ** 2
                > floor):
            raise SingularSystem(
                "trace system not positive definite beyond tolerance; "
                "system nearly singular")
        G = np.empty((P, F, O))
        G[:, :O] = np.linalg.inv(L)
        L21 = front[:, O:F, :O] @ G[:, :O].transpose(0, 2, 1)
        G[:, O:] = L21 @ G[:, :O]
        self.factors.append(G)
        n_bound = np.count_nonzero(rows[:, O:] != self.plan.multipliers,
                                   axis=1)
        self.nnz += int(np.sum(n_own * (n_own + 1) // 2 + n_own * n_bound))
        return front[:, O:F, O:F] - L21 @ L21.transpose(0, 2, 1)

    def solve(self, g: np.ndarray) -> np.ndarray:
        """S^{-1} g for g (M + 1,), whose phantom last entry is ignored:
        a forward sweep up the heights, y = L11^{-1} g_own and g_bound -=
        L21 y, and a backward sweep down, x_own = L11^{-T} (y - L21^T
        x_bound).  The products are einsum's own loops: many small
        threaded BLAS calls can stall, and an iterative caller makes
        dozens of sweeps."""
        M = self.plan.multipliers
        x = g.copy()
        levels = list(zip(self.plan.heights, self.factors))
        for (_, own, bound, *_), G in levels:
            x[M] = 0.0
            v = np.einsum("pfo,po->pf", G, x[own])
            O = own.shape[1]
            x[own] = v[:, :O]
            x -= np.bincount(bound, v[:, O:].ravel(), minlength=M + 1)
        for (rows, own, *_), G in reversed(levels):
            x[M] = 0.0
            v = x[rows]
            v[:, own.shape[1]:] *= -1.0
            x[own] = np.einsum("pfo,pf->po", G, v)
        x[M] = 0.0
        return x


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
    the same for every cell, and ``traces`` (C, m, m) their symmetrized
    block at the slots.  The plan of the system's stress space, or one
    made from its dofs and leaves, numbers the multipliers.  A load
    ``rhs`` is solved with the factor, and ``solution`` is K^{-1} rhs;
    :meth:`solve` takes any later right-hand side.  Raises SingularSystem
    when a dof belongs to no cell, a class matrix is singular or the trace
    system is not numerically positive definite, and ValueError when a dof
    is listed by three or more cells.
    """

    def __init__(self, system: BlockSystem, rhs=None):
        D = self.cell_dofs = system.cell_dofs
        self.cell_class, self.cell_signs = system.cell_class, system.cell_signs
        self.count = np.bincount(D.ravel(), minlength=system.n)
        if self.count.max(initial=0) > 2:
            raise ValueError("a dof is listed by three or more cells; "
                             "only pairs can be tied by one multiplier")
        if np.any(self.count == 0):
            raise SingularSystem(
                "a dof belongs to no cell; the system is singular")
        plan = (TracePlan(D, system.cell_leaf) if system.stress is None
                else system.stress.trace_plan)
        self.slots, self.slot_mult = plan.slots, plan.slot_mult
        self.multipliers = plan.multipliers
        # a slot's sign in the class basis: its multiplier's sign times the
        # cell's sign of the slot's local dof
        self.slot_sign = plan.sign * self.cell_signs[:, self.slots]
        self.class_matrices = system.class_matrices
        unit = np.zeros((D.shape[1], len(self.slots)))
        unit[self.slots, np.arange(len(self.slots))] = 1.0
        try:
            self.columns = np.linalg.solve(system.class_matrices, unit)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"singular cell matrix: {exc}") from exc
        A = self.columns[:, self.slots]
        self.traces = 0.5 * (A + A.transpose(0, 2, 1))
        self._inverses = None
        y = None
        if rhs is not None:
            # LU solves, not products with the inverses: x = A^{-1} b is not
            # backward stable on nearly incompressible cells
            y = self._cell_loads(rhs)
            for cells in cell_batches(len(D)):
                A = system.class_matrices[self.cell_class[cells]]
                y[cells] = np.linalg.solve(A, y[cells, :, None])[..., 0]
        self.fronts = _Fronts(plan, self.traces, self.cell_class,
                              self.slot_sign)
        self.solution = None if y is None else self._recover(y)

    def _cell_loads(self, b: np.ndarray) -> np.ndarray:
        """The cells' loads in their class basis, (E, k): each shared dof's
        entry of ``b`` split between its two cells, times the cell's
        signs."""
        D = self.cell_dofs
        return b[D] / self.count[D] * self.cell_signs

    def _recover(self, y: np.ndarray) -> np.ndarray:
        """K^{-1} b from ``y`` (E, k), the class inverses applied to b's
        cell loads: multipliers, then cell by cell.  Overwrites ``y``."""
        lam = self.fronts.solve(np.bincount(
            self.slot_mult.ravel(),
            (self.slot_sign * y[:, self.slots]).ravel(),
            minlength=self.multipliers + 1))
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
        multipliers=factor.multipliers, factor_nnz=factor.fronts.nnz)
