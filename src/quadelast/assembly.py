"""Assembly of the saddle-point system for the weakly symmetric formulation.

The bilinear form couples stress, displacement and rotation:

    B(s,u,p; t,v,q) = (A s, t) + (u, div t) + (p, as t)
                    + (div s, v) + (as s, q),

stored as blocks M (stress mass under the compliance), Bd (divergence
moments) and Ba (asymmetry moments) of the symmetric matrix

    [[M, Bd^T, Ba^T], [Bd, 0, 0], [Ba, 0, 0]].

All integrals are pulled back to the reference square.  Two blocks simplify
there: in (u, div t) the Jacobian cancels exactly (the block is the same
reference matrix for every element up to dof signs), and in (p, as t) one
Jacobian cancels against the Piola factor, leaving polynomial integrands.
Only M retains the rational 1/J factor on non-parallelogram elements.

The right-hand side carries (f, v) in the displacement block and, for
inhomogeneous Dirichlet data g, the consistent boundary term
``int_e g . (t n) ds`` in the stress block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fe_space import FESpace, scatter, unmapped_monomials
from .mapping import gauss_rule, gauss_rule_1d, geometry_at, ref_shape
from .problem import Compliance
from .reference_elements import EDGE_DIRS, EDGE_NORMALS, EDGE_STARTS

__all__ = ["BlockSystem", "assemble", "boundary_term", "default_quad"]


def default_quad(element) -> int:
    """Default tensor-Gauss order for a stress element of order r: r + 6.

    On non-parallelogram cells the mass-block integrand carries a rational
    1/J factor, and r + 6 pushes its quadrature tail below 1e-11 relative
    even on strongly distorted cells.
    """
    return element.n_edge_dofs + 6


@dataclass(frozen=True)
class BlockSystem:
    """Assembled system in block form; unknowns ordered stress, displacement,
    rotation."""

    n_sigma: int
    n_v: int
    n_q: int
    M: sp.csr_matrix
    Bd: sp.csr_matrix
    Ba: sp.csr_matrix
    rhs: np.ndarray

    @property
    def n(self) -> int:
        return self.n_sigma + self.n_v + self.n_q

    def full_matrix(self) -> sp.csc_matrix:
        """The symmetric indefinite matrix [[M, Bd^T, Ba^T], [Bd,], [Ba,]]."""
        return sp.bmat(
            [
                [self.M, self.Bd.T, self.Ba.T],
                [self.Bd, None, None],
                [self.Ba, None, None],
            ],
            format="csc",
        )

    def split(self, x: np.ndarray):
        """Split a solution vector into (stress, displacement, rotation)."""
        return (
            x[: self.n_sigma],
            x[self.n_sigma: self.n_sigma + self.n_v],
            x[self.n_sigma + self.n_v:],
        )


def assemble(
    stress: FESpace,
    disp: FESpace,
    rot: FESpace,
    compliance: Compliance,
    f=None,
    g=None,
    quad: int | None = None,
) -> BlockSystem:
    """Assemble the block system on the common mesh of the three spaces.

    ``f`` is the body force (displacement-block load) and ``g`` the Dirichlet
    displacement trace (stress-block consistent boundary term); either may be
    None for a zero contribution.  ``quad`` is the tensor-Gauss order, by
    default :func:`default_quad`.
    """
    mesh = stress.mesh
    if not (disp.mesh is mesh and rot.mesh is mesh):
        raise ValueError("spaces must be built on the same mesh object")
    r = stress.element.n_edge_dofs
    if quad is None:
        quad = default_quad(stress.element)
    if quad < r + 1:
        warnings.warn(
            f"quadrature order {quad} is below the exactness floor {r + 1} "
            "for this family; assembled integrals will be inconsistent",
            stacklevel=2,
        )

    rule = gauss_rule(quad)
    w = rule.weights
    nq = mesh.n_quads
    X, DF, J = geometry_at(mesh.element_corners(), rule.points)
    wJ = w[None, :] * J  # (E, q)

    Phi = stress.element.basis.eval(rule.points)  # (dimS, q, 2)
    dPhi = stress.element.basis.div(rule.points)  # (dimS, q)
    Psi = disp.element.basis.eval(rule.points)[..., 0]  # (dimV, q)
    Q = unmapped_monomials(rot, X)  # (dimQ, E, q)

    dimS = Phi.shape[0]
    sgn = stress.row_signs  # (E, dimS)
    sdof = stress.dofs  # (2, E, dimS)

    # Unscaled Piola values DF @ phi; the true values carry an extra 1/J
    UPV = np.einsum("eqcx,kqx->ekqc", DF, Phi)  # (E, dimS, q, 2)

    # ---- M block: (A s, t).  With s = e_rho (x) v, t = e_rho' (x) w:
    #   (A s):t = (1/4mu + a/2) d_{rho rho'} v.w + (1/4mu - a/2) v_rho' w_rho
    #             - (c/2mu) v_rho w_rho'
    # where a is the skew factor and c = lambda/(2mu+2lambda).  Each Piola
    # factor contributes 1/J, the volume element J, so the net weight is w/J.
    mu = compliance.params.mu
    lam = compliance.params.lam
    alpha = compliance.skew_factor
    c_tr = lam / (2.0 * mu + 2.0 * lam)
    w_over_J = w[None, :] / J  # (E, q)

    UPVw = UPV * w_over_J[:, None, :, None]
    # T[e, a, b, i, j] = sum_q (w/J) UPV[e,i,q,a] UPV[e,j,q,b]
    Aflat = UPV.transpose(0, 1, 3, 2).reshape(nq, dimS * 2, quad * quad)
    Bflat = UPVw.transpose(0, 1, 3, 2).reshape(nq, dimS * 2, quad * quad)
    Tflat = Bflat @ Aflat.transpose(0, 2, 1)  # (E, dimS*2, dimS*2)
    del UPVw, Aflat, Bflat  # freed before the scatters to lower peak memory
    T = Tflat.reshape(nq, dimS, 2, dimS, 2).transpose(0, 2, 4, 1, 3)
    S0 = T[:, 0, 0] + T[:, 1, 1]  # (E, dimS, dimS): sum_q (w/J) v.w

    c_iso = 1.0 / (4.0 * mu)
    sign_outer = np.einsum("ei,ej->eij", sgn, sgn)
    blocks = []
    # only the upper component blocks are computed; the lower ones are
    # their exact transposes, which keeps M symmetric to the last bit
    for rho in range(2):
        for rho2 in range(rho, 2):
            block = (c_iso - alpha / 2.0) * T[:, rho2, rho] \
                - (c_tr / (2.0 * mu)) * T[:, rho, rho2]
            if rho == rho2:
                block = block + (c_iso + alpha / 2.0) * S0
                block = 0.5 * (block + block.transpose(0, 2, 1))
            blocks.append((sign_outer * block, sdof[rho], sdof[rho2]))
            if rho != rho2:
                blocks.append((sign_outer * block.transpose(0, 2, 1),
                               sdof[rho2], sdof[rho]))
    M = scatter(blocks, (stress.n_dofs, stress.n_dofs))

    # ---- Bd block: (u, div t).  J cancels: the local matrix is the fixed
    # reference integral int divphi_i psi_m, identical on every element.
    D0 = np.einsum("kq,mq,q->mk", dPhi, Psi, w)  # (dimV, dimS)
    blk = np.einsum("ek,mk->emk", sgn, D0)  # (E, dimV, dimS)
    Bd = scatter([(blk, disp.dofs[rho], sdof[rho]) for rho in range(2)],
                 (disp.n_dofs, stress.n_dofs))

    # ---- Ba block: (p, as t).  as(e_0 (x) v) = v_2, as(e_1 (x) v) = -v_1;
    # the Piola 1/J cancels the volume J, leaving weight w alone.
    blocks = []
    for rho, (comp, s_as) in enumerate([(1, 1.0), (0, -1.0)]):
        blk = s_as * np.einsum("meq,ekq,q->emk", Q, UPV[..., comp], w)
        blk *= sgn[:, None, :]
        blocks.append((blk, rot.dofs[0], sdof[rho]))
    Ba = scatter(blocks, (rot.n_dofs, stress.n_dofs))

    # ---- right-hand side
    rhs = np.zeros(stress.n_dofs + disp.n_dofs + rot.n_dofs)
    if f is not None:
        fx = np.asarray(f(X))  # (E, q, 2)
        load = [np.einsum("eq,mq->em", wJ * fx[..., rho], Psi)
                for rho in range(2)]
        np.add.at(rhs, stress.n_dofs + disp.dofs, load)
    if g is not None:
        rhs[: stress.n_dofs] = boundary_term(stress, g, n1d=quad)
    return BlockSystem(
        n_sigma=stress.n_dofs, n_v=disp.n_dofs, n_q=rot.n_dofs,
        M=M, Bd=Bd, Ba=Ba, rhs=rhs,
    )


def boundary_term(stress: FESpace, g, n1d: int = 6) -> np.ndarray:
    """Stress-block vector of the consistent Dirichlet term ``int g.(t n) ds``.

    By the normal-trace identity of the Piola transform the physical edge
    integral equals the reference one: for each boundary edge,
    ``int_ehat g(F(t)) . nhat phi(t) dt`` accumulated into the edge dofs.
    """
    mesh = stress.mesh
    t, w = gauss_rule_1d(n1d)
    edge_pts = EDGE_STARTS[:, None, :] + t[:, None] * EDGE_DIRS[:, None, :]
    phi = stress.element.basis.eval(edge_pts)  # (dim, 4, n1d, 2)

    quad, local = np.divmod(mesh.edge_slots[mesh.boundary_edges(), 0], 4)
    dof = np.array(stress.element.edge_dofs)[local]  # (nb, r)
    trace = np.einsum("bkpc,bc->bkp", phi[dof, local[:, None]],
                      EDGE_NORMALS[local])
    N, _ = ref_shape(edge_pts[local])  # (nb, n1d, 4)
    X = np.einsum("bpk,bkx->bpx", N, mesh.element_corners()[quad])
    gx = np.asarray(g(X))  # (nb, n1d, 2)
    vals = np.einsum("p,bkp,bpr->rbk", w, trace, gx)
    vals *= stress.row_signs[quad[:, None], dof]
    out = np.zeros(stress.n_dofs)
    np.add.at(out, stress.dofs[:, quad[:, None], dof], vals)
    return out
