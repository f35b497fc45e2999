"""Assembly of the saddle-point system for the weakly symmetric formulation.

The bilinear form couples stress, displacement and rotation:

    B(s,u,p; t,v,q) = (A s, t) + (u, div t) + (p, as t)
                    + (div s, v) + (as s, q),

whose symmetric matrix has the blocks M (stress mass under the
compliance), Bd (divergence moments) and Ba (asymmetry moments):

    [[M, Bd^T, Ba^T], [Bd, 0, 0], [Ba, 0, 0]].

Displacement and rotation are discontinuous, so every cell contributes one
dense matrix [[L, B^T], [B, 0]] over its own dofs, L its share of M and
B = [Bd; Ba] its rows.  That matrix depends on the cell only through its
corners relative to the first corner and through its dof signs, so the
system stores one unsigned matrix A_c per translation class of the mesh
(``QuadMesh.translation_classes``), tabulated on the class's first
cell, and per cell its class, its dof signs S_e and its global dofs: cell
e's matrix is S_e A_c S_e.  The solver condenses the cells from the class
matrices; the per-cell matrices and the global blocks are derived only
when asked for (the reference-tensor idea of Kirby, Knepley, Logg and
Scott, 2005, applied to translations).

All integrals are pulled back to the reference square.  Two blocks simplify
there: in (u, div t) the Jacobian cancels exactly (the block is the same
reference matrix for every element up to dof signs), and in (p, as t) one
Jacobian cancels against the Piola factor, leaving polynomial integrands.
Only M retains the rational 1/J factor on non-parallelogram elements.

The right-hand side carries (f, v) in the displacement block and, for
inhomogeneous Dirichlet data g, the consistent boundary term
``int_e g . (t n) ds`` in the stress block.  :func:`ynorm_gram` builds
the solution norm's Gram matrix from the same tables, in the layout of
the class matrices.  Both tabulate the class representatives one batch
of :func:`mapping.cell_chunks` at a time; the load (f, v) needs each
cell's physical points and takes one more pass over all cells, so beyond
the stored arrays the memory does not grow with the mesh.
:meth:`BlockSystem.block_sum` sums slices of the class matrices into the
global blocks M, Bd, Ba and the inf-sup Gram.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .fe_space import FESpace, scatter, unmapped_basis
from .mapping import (cell_batches, cell_chunks, gauss_rule, gauss_rule_1d,
                      piola_values, ref_shape)
from .problem import LameParams, compliance_matrix
from .reference_elements import EDGE_NORMALS, edge_points

__all__ = ["BlockSystem", "assemble", "boundary_term", "default_quad",
           "ynorm_gram"]


def default_quad(element) -> int:
    """Gauss order for a stress element: its edge moments per edge + 6,
    that is r + 6 for RT_r and 8 for BDM1.

    The quadrature policy has two rules and no override.  Every integral
    over discrete fields uses this order, per direction or per edge:
    assembly, the boundary term, the Gram matrix, interpolation and every
    diagnostic.  Only :func:`analysis.compute_errors` uses the higher
    ``analysis.NORM_QUAD``, so the error tables are quadrature-converged.

    On non-parallelogram cells the mass-block integrand carries a rational
    1/J factor, and this order pushes its quadrature tail below 1e-11
    relative even on strongly distorted cells.
    """
    return element.n_edge_dofs + 6


@dataclass(frozen=True)
class BlockSystem:
    """Assembled system as one unsigned dense matrix per translation class;
    unknowns ordered stress, displacement, rotation.

    Cell e's matrix [[L, B^T], [B, 0]] in the signed global basis is
    S_e A_c S_e, A_c = ``class_matrices[cell_class[e]]`` and S_e the
    diagonal of ``cell_signs[e]``: the stress row signs for both rows, then
    ones.  Its local unknowns are ordered stress row 0, stress row 1,
    displacement components 0 and 1, rotation; ``cell_dofs[e]`` lists
    their global dofs.  The global matrix is the sum of the cell matrices
    over ``cell_dofs``; :meth:`block_sum` sums its blocks from the class
    matrices, and :attr:`cell_matrices` is formed only on access.  A
    system with one class per cell (``cell_class = arange(E)``,
    ``cell_signs = 1``) stores its cell matrices as they are.  With
    :func:`ynorm_gram`'s array as ``class_matrices`` a system is the Gram
    system, on the same classes, signs and dofs.  ``cell_leaf`` places
    the cells in a nested dissection, which orders the solver's
    multipliers; ``arange(E)`` is the dissection of the index line.
    """

    n_sigma: int
    n_v: int
    n_q: int
    class_matrices: np.ndarray  # (C, k, k), unsigned
    cell_class: np.ndarray  # (E,) int
    cell_signs: np.ndarray  # (E, k) of +-1
    cell_dofs: np.ndarray  # (E, k) int
    cell_leaf: np.ndarray  # (E,) int, QuadMesh.dissection_leaves
    rhs: np.ndarray

    @property
    def cell_matrices(self) -> np.ndarray:
        """Every cell's matrix S_e A_c S_e, (E, k, k), formed anew on each
        access; the package never forms it."""
        s = self.cell_signs
        return (self.class_matrices[self.cell_class]
                * (s[:, :, None] * s[:, None, :]))

    @property
    def n(self) -> int:
        return self.n_sigma + self.n_v + self.n_q

    @cached_property
    def local_blocks(self) -> tuple:
        """Local slices of stress row 0, stress row 1, displacement 0,
        displacement 1 and rotation, read off the global dof ranges."""
        s, sv, k = (int(np.sum(self.cell_dofs[:1] < n))
                    for n in (self.n_sigma, self.n_sigma + self.n_v, self.n))
        return _local_slices(s // 2, (sv - s) // 2, k - sv)

    def block_sum(self, pairs, row_offset, shape) -> sp.csc_matrix:
        """The global block of the local slice pairs ``(i, j)`` in
        ``pairs``: every cell's A_c[i, j] s_i s_j, gathered from the class
        matrices, summed at its dofs (rows less ``row_offset``) into a CSC
        matrix of ``shape`` by :func:`fe_space.scatter`."""
        A, c = self.class_matrices, self.cell_class
        s, D = self.cell_signs, self.cell_dofs
        return scatter([(A[:, i, j][c] * (s[:, i, None] * s[:, None, j]),
                         D[:, i] - row_offset, D[:, j]) for i, j in pairs],
                       shape)

    @cached_property
    def M(self) -> sp.csc_matrix:
        """Compliance block (A s, t)."""
        s = slice(0, self.local_blocks[1].stop)
        return self.block_sum([(s, s)], 0, (self.n_sigma, self.n_sigma))

    @cached_property
    def Bd(self) -> sp.csc_matrix:
        """Divergence block (div s, v): displacement row rho against stress
        row rho."""
        s0, s1, v0, v1, _ = self.local_blocks
        return self.block_sum([(v0, s0), (v1, s1)], self.n_sigma,
                              (self.n_v, self.n_sigma))

    @cached_property
    def Ba(self) -> sp.csc_matrix:
        """Asymmetry block (as s, q)."""
        s0, s1, _, _, q = self.local_blocks
        return self.block_sum([(q, s0), (q, s1)], self.n_sigma + self.n_v,
                              (self.n_q, self.n_sigma))

    def full_matrix(self) -> sp.csc_matrix:
        """The symmetric indefinite matrix [[M, Bd^T, Ba^T], [Bd,], [Ba,]]."""
        return sp.bmat([[self.M, self.Bd.T, self.Ba.T], [self.Bd, None, None],
                        [self.Ba, None, None]], format="csc")

    def split(self, x: np.ndarray):
        """Split a solution vector into (stress, displacement, rotation)."""
        a, b = self.n_sigma, self.n_sigma + self.n_v
        return x[:a], x[a:b], x[b:]


def _tabulate(stress: FESpace, disp: FESpace, rot: FESpace):
    """The tables of the Gauss rule of order :func:`default_quad`: the
    rule, the reference divergences (dimS, q) and the displacement basis
    (dimV, q), which every cell shares, and per chunk of
    :func:`mapping.cell_chunks` over the class representatives the
    chunk's classes (a slice: they count up), w J, w / J, the unscaled
    Piola values DF phi (n, dimS, q, 2) and the rotation basis (dimQ, n, q)."""
    rule = gauss_rule(default_quad(stress.element))
    w = rule.weights
    basis = stress.element.basis
    phi = basis.eval(rule.points)
    representatives = stress.mesh.translation_classes[1]

    def chunks():
        for classes, (cells, _, DF, J) in zip(
                cell_batches(len(representatives)),
                cell_chunks(stress.mesh, rule.points, representatives)):
            yield (classes, w[None, :] * J, w[None, :] / J,
                   piola_values(DF[:, None], phi),
                   unmapped_basis(rot, rule.points, cells))

    return (rule, basis.div(rule.points),
            disp.element.basis.eval(rule.points)[..., 0], chunks())


def _local_slices(dimS: int, dimV: int, dimQ: int) -> tuple:
    """Local slices of stress row 0, stress row 1, displacement 0,
    displacement 1 and rotation, for the spaces' local dimensions."""
    cuts = np.cumsum([0, dimS, dimS, dimV, dimV, dimQ]).tolist()
    return tuple(slice(a, b) for a, b in zip(cuts, cuts[1:]))


def assemble(stress: FESpace, disp: FESpace, rot: FESpace, params: LameParams,
             f=None, g=None) -> BlockSystem:
    """Assemble the block system on the common mesh of the three spaces.

    ``f`` is the body force (displacement-block load) and ``g`` the Dirichlet
    displacement trace (stress-block consistent boundary term); either may be
    None for a zero contribution.  Every integral, the boundary term
    included, uses the tensor-Gauss order :func:`default_quad`.  The cell
    matrices are tabulated on one cell per translation class of the mesh.
    """
    mesh = stress.mesh
    if not (disp.mesh is mesh and rot.mesh is mesh):
        raise ValueError("spaces must be built on the same mesh object")
    rule, dPhi, Psi, chunks = _tabulate(stress, disp, rot)
    w = rule.weights
    dimS = dPhi.shape[0]
    C = compliance_matrix(params).reshape(2, 2, 2, 2)
    # (u, div t): J cancels, so the local matrix is the fixed reference
    # integral int divphi_i psi_m, identical on every element up to signs
    D0 = np.einsum("kq,mq,q->mk", dPhi, Psi, w)  # (dimV, dimS)
    # cell matrices [[L, B^T], [B, 0]] with B = [Bd; Ba]: rows displacement
    # 0, displacement 1, rotation; columns stress rows 0, 1.  Every cell's
    # global dofs (E, k) in that local order, and their signs:
    cell_dofs = np.concatenate(
        [*stress.dofs, *(stress.n_dofs + disp.dofs),
         stress.n_dofs + disp.n_dofs + rot.dofs[0]], axis=1)
    s0, s1, v0, v1, q = _local_slices(dimS, disp.local_dim, rot.local_dim)
    s, b = slice(0, s1.stop), slice(s1.stop, None)
    cell_signs = np.ones(cell_dofs.shape)
    cell_signs[:, s] = np.tile(stress.row_signs, 2)
    cell_class, representatives = mesh.translation_classes
    class_matrices = np.zeros((len(representatives), q.stop, q.stop))

    for classes, _, w_over_J, UPV, Q in chunks:
        nc = len(UPV)
        A = class_matrices[classes]

        # ---- M block: (A s, t).  With s = e_x (x) v_i and t = e_y (x) v_j
        # the integrand is C[xa, yb] v_i,a v_j,b for the compliance matrix C
        # on vec(tau).  Each Piola factor contributes 1/J, the volume
        # element J, so the net weight is w/J.
        UPVw = UPV * w_over_J[:, None, :, None]
        # T[e, i, a, j, b] = sum_q (w/J) UPV[e,i,q,a] UPV[e,j,q,b]
        Aflat = UPV.transpose(0, 1, 3, 2).reshape(nc, dimS * 2, -1)
        Bflat = UPVw.transpose(0, 1, 3, 2).reshape(nc, dimS * 2, -1)
        T = (Bflat @ Aflat.transpose(0, 2, 1)).reshape(nc, dimS, 2, dimS, 2)
        del UPVw, Aflat, Bflat  # freed early to lower peak memory
        # optimize=True contracts through BLAS: 7.5 ms against 23 ms for a
        # plain einsum at rt2 n = 32 (1,024 cells, 2 vCPUs)
        L = np.einsum("xayb,eiajb->exiyj", C, T, optimize=True).reshape(
            nc, 2 * dimS, 2 * dimS)
        # keeps M symmetric to the last bit
        A[:, s, s] = 0.5 * (L + L.transpose(0, 2, 1))

        # ---- (p, as t): as(e_0 (x) v) = v_2, as(e_1 (x) v) = -v_1; the
        # Piola 1/J cancels the volume J, leaving weight w alone
        for v, cols, comp, s_as in ((v0, s0, 1, 1.0), (v1, s1, 0, -1.0)):
            A[:, v, cols] = D0
            A[:, q, cols] = s_as * np.einsum(
                "meq,ekq,q->emk", Q, UPV[..., comp], w)
        A[:, s, b] = A[:, b, s].transpose(0, 2, 1)

    # ---- right-hand side
    rhs = np.zeros(stress.n_dofs + disp.n_dofs + rot.n_dofs)
    if f is not None:
        # (f, v) needs every cell's physical points
        load = np.zeros((2,) + disp.row_dofs.shape)
        for cells, X, _, J in cell_chunks(mesh, rule.points):
            wJ = w[None, :] * J
            fx = np.asarray(f(X))  # (n, q, 2)
            for rho in range(2):
                load[rho, cells] = np.einsum("eq,mq->em", wJ * fx[..., rho],
                                             Psi)
        rhs = np.bincount((stress.n_dofs + disp.dofs).ravel(), load.ravel(),
                          minlength=rhs.size)
    if g is not None:
        rhs[: stress.n_dofs] = boundary_term(stress, g)
    return BlockSystem(
        n_sigma=stress.n_dofs, n_v=disp.n_dofs, n_q=rot.n_dofs,
        class_matrices=class_matrices, cell_class=cell_class,
        cell_signs=cell_signs, cell_dofs=cell_dofs,
        cell_leaf=mesh.dissection_leaves, rhs=rhs,
    )


def ynorm_gram(stress: FESpace, disp: FESpace, rot: FESpace) -> np.ndarray:
    """Gram matrix of the H(div) x L2 x L2 solution norm, one unsigned
    matrix per translation class (C, k, k) in the local order of
    ``BlockSystem.class_matrices``: (tau, tau) + (div tau, div tau) on
    both stress rows, the mass on both displacement components, the
    rotation mass and zero elsewhere.  ``dataclasses.replace(system,
    class_matrices=gram)`` is the Gram system on K's classes, signs and
    dofs; its five diagonal blocks sum to the global Gram matrix."""
    _, dPhi, psi, chunks = _tabulate(stress, disp, rot)
    blocks = _local_slices(stress.local_dim, disp.local_dim, rot.local_dim)
    k = blocks[-1].stop
    gram = np.zeros((len(stress.mesh.translation_classes[1]), k, k))
    for classes, wJ, woJ, UPV, Q in chunks:
        G = (np.einsum("eq,eaqc,ebqc->eab", woJ, UPV, UPV)
             + np.einsum("eq,aq,bq->eab", woJ, dPhi, dPhi))
        Mv = np.einsum("eq,iq,jq->eij", wJ, psi, psi)
        Mq = np.einsum("eq,ieq,jeq->eij", wJ, Q, Q)
        for b, block in zip(blocks, (G, G, Mv, Mv, Mq)):
            gram[classes, b, b] = block
    return gram


def boundary_term(stress: FESpace, g) -> np.ndarray:
    """Stress-block vector of the consistent Dirichlet term ``int g.(t n) ds``.

    By the normal-trace identity of the Piola transform the physical edge
    integral equals the reference one: for each boundary edge,
    ``int_ehat g(F(t)) . nhat phi(t) dt`` accumulated into the edge dofs,
    by Gauss of order :func:`default_quad` on each edge.
    """
    mesh = stress.mesh
    t, w = gauss_rule_1d(default_quad(stress.element))
    edge_pts = edge_points(t)
    phi = stress.element.basis.eval(edge_pts)  # (dim, 4, npts, 2)

    quad, local = np.divmod(mesh.edge_slots[mesh.boundary_edges(), 0], 4)
    dof = np.array(stress.element.edge_dofs)[local]  # (nb, r)
    trace = np.einsum("bkpc,bc->bkp", phi[dof, local[:, None]],
                      EDGE_NORMALS[local])
    N, _ = ref_shape(edge_pts[local])  # (nb, npts, 4)
    X = np.einsum("bpk,bkx->bpx", N, mesh.element_corners()[quad])
    gx = np.asarray(g(X))  # (nb, npts, 2)
    vals = np.einsum("p,bkp,bpr->rbk", w, trace, gx)
    vals *= stress.row_signs[quad[:, None], dof]
    return np.bincount(stress.dofs[:, quad[:, None], dof].ravel(),
                       vals.ravel(), minlength=stress.n_dofs)
