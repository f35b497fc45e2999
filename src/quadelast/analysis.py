"""Error norms, convergence rates, and stability diagnostics.

Everything here consumes solved fields (or exact callables) and produces
numbers: L2 errors with relative percentages, observed orders between
dyadic mesh levels, the commuting-interpolation residual for the stress
interpolant, a sparse shift-invert inf-sup estimate for the saddle-point
system, and the asymmetry norm of a computed stress.  Every diagnostic
works on all cells at once: fields are pulled back in one batch and the
reference dofs are applied as one weight array.
"""

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import default_quad
from .fe_space import (
    FEFunction,
    FESpace,
    evaluate_batch,
    evaluate_div_batch,
    scatter,
    unmapped_monomials,
)
from .mapping import gauss_rule, gauss_rule_1d, geometry_at
from .problem import ManufacturedSolution
from .reference_elements import EDGE_DIRS, EDGE_NORMALS, EDGE_STARTS, q_element

#: Quadrature order used for error norms; high enough that the measured
#: errors are quadrature-converged for every element family in scope.
NORM_QUAD = 12

#: Largest system size accepted by the inf-sup estimate.  On trapezoids,
#: 2 vCPUs, scipy 1.17: 0.4 s at 7,040 unknowns (rt2 n=16), 2.8-5.1 s at
#: 27,904 (rt2 n=32), 5.6-10.1 s and a 343-416 MB process peak at 45,568
#: (bdm1 n=64); the ranges are host-load drift.  The cap keeps one
#: estimate to about ten seconds and half a gigabyte.
INFSUP_CAP = 50_000

QUANTITIES = ("sigma", "div", "u", "p")


@dataclass(frozen=True)
class ErrorReport:
    """L2 errors of one solve, with percentages relative to the exact norms."""

    h: float
    e_sigma: float
    e_div: float
    e_u: float
    e_p: float
    pct_sigma: float
    pct_div: float
    pct_u: float
    pct_p: float

    def errors(self) -> dict:
        return {
            "sigma": self.e_sigma,
            "div": self.e_div,
            "u": self.e_u,
            "p": self.e_p,
        }


@dataclass(frozen=True)
class ConvergenceTable:
    """Error reports ordered by decreasing mesh size."""

    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        hs = [row.h for row in self.rows]
        if any(a <= b for a, b in zip(hs, hs[1:])):
            raise ValueError("rows must be ordered by decreasing h")

    def orders(self) -> dict:
        """Observed orders log2(e(2h)/e(h)) between successive rows.

        The mesh sizes must halve from row to row; anything else is
        rejected because the log2 quotient would not be an order.
        """
        if len(self.rows) < 2:
            raise ValueError("need at least two rows to compute orders")
        hs = np.array([row.h for row in self.rows])
        if not np.allclose(hs[:-1] / hs[1:], 2.0, rtol=1e-9, atol=0.0):
            raise ValueError("mesh sizes must halve between successive rows")
        out = {}
        for name in QUANTITIES:
            errs = np.array([row.errors()[name] for row in self.rows])
            with np.errstate(divide="ignore", invalid="ignore"):
                out[name] = np.log2(errs[:-1] / errs[1:])
        return out


def _pct(err: float, exact: float) -> float:
    if exact == 0.0:
        return 0.0 if err == 0.0 else float("inf")
    return 100.0 * err / exact


def compute_errors(sigma: FEFunction, u: FEFunction, p: FEFunction,
                   exact: ManufacturedSolution,
                   quad: int = NORM_QUAD) -> ErrorReport:
    """L2 errors of a solved triple against a manufactured solution.

    The squared differences are integrated element by element on the
    reference square with a ``quad`` x ``quad`` Gauss rule; the stress
    divergence is evaluated through the same 1/J transform used in
    assembly, and the exact divergence is the load ``exact.f``.
    """
    mesh = sigma.space.mesh
    rule = gauss_rule(quad)
    X, _, J = geometry_at(mesh.element_corners(), rule.points)
    wJ = rule.weights[None, :] * J

    def norm(sq):
        return float(np.sqrt(np.sum(wJ * sq)))

    sig_ex = exact.sigma(X)
    div_ex = exact.f(X)
    u_ex = exact.u(X)
    p_ex = exact.p(X)

    ds = evaluate_batch(sigma, rule.points) - sig_ex
    dd = evaluate_div_batch(sigma, rule.points) - div_ex
    du = evaluate_batch(u, rule.points) - u_ex
    dp = evaluate_batch(p, rule.points) - p_ex

    e_sigma = norm(np.sum(ds ** 2, axis=(-2, -1)))
    e_div = norm(np.sum(dd ** 2, axis=-1))
    e_u = norm(np.sum(du ** 2, axis=-1))
    e_p = norm(dp ** 2)

    return ErrorReport(
        h=mesh.h,
        e_sigma=e_sigma,
        e_div=e_div,
        e_u=e_u,
        e_p=e_p,
        pct_sigma=_pct(e_sigma, norm(np.sum(sig_ex ** 2, axis=(-2, -1)))),
        pct_div=_pct(e_div, norm(np.sum(div_ex ** 2, axis=-1))),
        pct_u=_pct(e_u, norm(np.sum(u_ex ** 2, axis=-1))),
        pct_p=_pct(e_p, norm(p_ex ** 2)),
    )


def ynorm_gram(stress: FESpace, disp: FESpace, rot: FESpace,
               quad: int | None = None) -> sp.csr_matrix:
    """Block-diagonal Gram matrix of the H(div) x L2 x L2 solution norm.

    The stress block carries (tau, tau) + (div tau, div tau), evaluated
    with the same pullbacks as assembly; the displacement and rotation
    blocks are plain L2 mass matrices.
    """
    mesh = stress.mesh
    k = quad if quad is not None else stress.element.degree + 3
    rule = gauss_rule(k)
    X, DF, J = geometry_at(mesh.element_corners(), rule.points)
    w = rule.weights

    Phi = stress.element.basis.eval(rule.points)
    dPhi = stress.element.basis.div(rule.points)
    UPV = np.einsum("eqcx,kqx->ekqc", DF, Phi)
    woJ = w[None, :] / J
    G = np.einsum("eq,eaqc,ebqc->eab", woJ, UPV, UPV)
    G += np.einsum("eq,aq,bq->eab", woJ, dPhi, dPhi)
    G *= stress.row_signs[:, :, None] * stress.row_signs[:, None, :]

    wJ = w[None, :] * J
    psi = disp.element.basis.eval(rule.points)[..., 0]
    Mv = np.einsum("eq,iq,jq->eij", wJ, psi, psi)

    mono = unmapped_monomials(rot, X)
    Mq = np.einsum("eq,ieq,jeq->eij", wJ, mono, mono)

    sdof = stress.dofs
    vdof = stress.n_dofs + disp.dofs
    qdof = stress.n_dofs + disp.n_dofs + rot.dofs[0]
    n = stress.n_dofs + disp.n_dofs + rot.n_dofs
    return scatter([(G, sdof[0], sdof[0]), (G, sdof[1], sdof[1]),
                    (Mv, vdof[0], vdof[0]), (Mv, vdof[1], vdof[1]),
                    (Mq, qdof, qdof)], (n, n))


def _check_positive_definite(N: sp.csc_matrix):
    """Raise ValueError unless the symmetric sparse matrix N is SPD.

    A symmetric matrix is positive definite exactly when its LDL^T pivots
    are positive.  Symmetric-mode SuperLU with a zero pivot threshold keeps
    every diagonal pivot it can, so the pivots are the diagonal of U unless
    a zero pivot forced a row exchange (perm_r differs from perm_c).
    """
    message = "Gram matrix is not positive definite"
    try:
        lu = spla.splu(N, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular
        raise ValueError(message) from None
    if not (np.array_equal(lu.perm_r, lu.perm_c)
            and np.all(lu.U.diagonal() > 0.0)):
        raise ValueError(message)


def infsup_estimate(system, gram) -> float:
    """Smallest singular value of the system in the solution norm.

    The discrete inf-sup constant is the smallest |lambda| of the
    generalized eigenproblem K x = lambda N x, where K is the full
    saddle-point matrix and N the Gram matrix from :func:`ynorm_gram`
    (the numerical inf-sup test of Chapelle & Bathe, 1993).  It is found
    by shift-invert Lanczos about zero on one sparse LU of K; an exactly
    singular K has constant 0.
    """
    if system.n > INFSUP_CAP:
        raise ValueError(
            f"inf-sup estimate is capped at {INFSUP_CAP} unknowns; "
            f"system has {system.n}"
        )
    N = sp.csc_matrix(gram)
    _check_positive_definite(N)
    K = system.full_matrix()
    try:
        lu = spla.splu(K)
    except RuntimeError:  # exactly singular
        return 0.0
    Kinv = spla.LinearOperator(K.shape, matvec=lu.solve, dtype=float)
    lam = spla.eigsh(K, k=1, M=N, sigma=0, which="LM", tol=0, OPinv=Kinv,
                     return_eigenvectors=False)
    return float(abs(lam[0]))


def _reference_rows(sigma, mesh, xhat: np.ndarray):
    """Pull a matrix field back to the reference square on every cell.

    Each row transforms like a vector field under the inverse
    contravariant Piola map: sighat_r = J DF^{-1} sigma_r, and J DF^{-1}
    is the adjugate of DF.  ``sigma`` is a physical callable or an
    FEFunction on the same mesh.  Returns the rows, shape (E, npts, 2, 2),
    and the Jacobian determinants, shape (E, npts).
    """
    X, DF, J = geometry_at(mesh.element_corners(), xhat)
    if isinstance(sigma, FEFunction):
        vals = evaluate_batch(sigma, xhat)
    else:
        vals = np.asarray(sigma(X))
    adj = np.stack([np.stack([DF[..., 1, 1], -DF[..., 0, 1]], axis=-1),
                    np.stack([-DF[..., 1, 0], DF[..., 0, 0]], axis=-1)],
                   axis=-2)
    return np.einsum("epck,eprk->eprc", adj, vals), J


def interpolate_stress(space: FESpace, sigma, quad: int = 10) -> FEFunction:
    """Canonical interpolant of a matrix field into a stress space.

    Applies the reference degrees of freedom to the pulled-back rows on
    all elements at once.  Shared edge dofs are written from both sides;
    for a single-valued field the two values agree because the edge
    moments are intrinsic, which is exactly what the orientation signs
    encode.
    """
    points, W = space.element.interpolation_matrix(quad)
    sighat, _ = _reference_rows(sigma, space.mesh, points)
    coef = np.zeros(space.n_dofs)
    coef[space.dofs] = np.einsum("ipc,eprc->rei", W, sighat) * space.row_signs
    return FEFunction(space, coef)


def check_commuting_projection(space: FESpace, sigma, quad: int = 10) -> float:
    """Residual of the divergence/interpolation commuting identity.

    Interpolates ``sigma`` row-wise on each element through the reference
    degrees of freedom and measures the L2 norm of the difference between
    the displacement-space projections of div(interpolant) and div(sigma).
    The latter is obtained from reference-square integration by parts, so
    only values of ``sigma`` are needed, never its derivatives.  The dof
    points are the edge Gauss points followed by the cell Gauss points, so
    one pullback serves the interpolant and both integrals.
    """
    elem = space.element
    psi_basis = q_element(elem.degree - 1).basis
    rule = gauss_rule(quad)
    _, w1 = gauss_rule_1d(quad)
    n_edge = 4 * quad
    points, W = elem.interpolation_matrix(quad)

    psi = psi_basis.eval(rule.points)[..., 0]
    dpsi = np.stack(
        [
            npoly.polyval2d(rule.points[:, 0], rule.points[:, 1],
                            npoly.polyder(c[0], axis=axis))
            for c in psi_basis.coeffs
            for axis in (0, 1)
        ]
    ).reshape(len(psi_basis.coeffs), 2, -1)
    div_phi = elem.basis.div(rule.points)
    psi_edge = psi_basis.eval(points[:n_edge])[..., 0].reshape(-1, 4, quad)

    sighat, J = _reference_rows(sigma, space.mesh, points)
    coef = np.einsum("ipc,eprc->eri", W, sighat)
    # projection moments of div(interpolant): the reference divergence
    # integrates against psi without any Jacobian (the 1/J of the
    # divergence transform cancels the volume factor)
    m1 = coef @ np.einsum("iq,jq,q->ij", div_phi, psi, rule.weights)

    cell = sighat[:, n_edge:]
    m2 = -np.einsum("eqrc,jcq,q->erj", cell, dpsi, rule.weights)
    edge = sighat[:, :n_edge].reshape(-1, 4, quad, 2, 2)
    flux = np.einsum("eaqrc,ac->eaqr", edge, EDGE_NORMALS)
    m2 += np.einsum("eaqr,jaq,q->erj", flux, psi_edge, w1)

    mass = np.einsum("iq,jq,eq->eij", psi, psi, rule.weights * J[:, n_edge:])
    diff = (m1 - m2).transpose(0, 2, 1)
    total = float(np.sum(diff * np.linalg.solve(mass, diff)))
    return float(np.sqrt(max(total, 0.0)))


def equilibrium_residual(sigma: FEFunction, disp: FESpace, f,
                         quad: int | None = None) -> float:
    """Relative norm of the displacement-space projection of div(sigma) - f.

    For the computed stress this is the discrete equilibrium residual: its
    divergence matches the projection of the load onto the displacement
    space, so the value sits at solver accuracy.  Relative to the L2 norm
    of ``f`` when that is nonzero, absolute otherwise.  The default
    quadrature is the assembly default (:func:`assembly.default_quad`); a
    much coarser rule would measure its own integration error instead of
    the residual.
    """
    mesh = sigma.space.mesh
    k = quad if quad is not None else default_quad(sigma.space.element)
    rule = gauss_rule(k)
    X, _, J = geometry_at(mesh.element_corners(), rule.points)
    wJ = rule.weights[None, :] * J

    diff = evaluate_div_batch(sigma, rule.points) - np.asarray(f(X))
    psi = disp.element.basis.eval(rule.points)[..., 0]
    r = np.einsum("eq,eqr,jq->ejr", wJ, diff, psi)
    mass = np.einsum("eq,iq,jq->eij", wJ, psi, psi)
    sol = np.linalg.solve(mass, r)
    val = float(np.sqrt(max(np.sum(r * sol), 0.0)))

    fnorm = float(np.sqrt(np.sum(wJ * np.sum(np.asarray(f(X)) ** 2, axis=-1))))
    return val / fnorm if fnorm > 0.0 else val


def asymmetry_norm(sigma: FEFunction, quad: int | None = None) -> float:
    """L2 norm of the asymmetry of a stress field.

    Symmetry is imposed only weakly, so this is nonzero for computed
    stresses and should shrink under refinement.
    """
    k = quad if quad is not None else sigma.space.element.degree + 3
    rule = gauss_rule(k)
    _, _, J = geometry_at(sigma.space.mesh.element_corners(), rule.points)
    wJ = rule.weights[None, :] * J
    vals = evaluate_batch(sigma, rule.points)
    askew = vals[..., 0, 1] - vals[..., 1, 0]
    return float(np.sqrt(np.sum(wJ * askew ** 2)))


def normal_jump_norm(sigma: FEFunction, n1d: int = 8) -> float:
    """Interior-edge normal-trace jump norm of a stress field.

    Returns sqrt of the sum over interior edges of the squared L2 norm of
    the jump of ``sigma . n`` across the edge.  Conforming fields give a
    value at roundoff level; a wrong edge-dof orientation shows up as an
    O(1) jump, which makes this the go-to conformity diagnostic.
    """
    mesh = sigma.space.mesh
    t, w = gauss_rule_1d(n1d)
    # reference points of the four local edges, traversed lo -> hi for
    # orientation +1 and hi -> lo for -1: shape (4, 2, n1d, 2)
    tloc = np.stack([t, 1.0 - t])
    xhat = (EDGE_STARTS[:, None, None, :]
            + tloc[None, :, :, None] * EDGE_DIRS[:, None, None, :])
    vals = evaluate_batch(sigma, xhat.reshape(-1, 2)).reshape(
        mesh.n_quads, 4, 2, n1d, 2, 2)

    interior = np.flatnonzero(mesh.edge_slots[:, 1] >= 0)
    quad, local = np.divmod(mesh.edge_slots[interior], 4)  # (ni, 2) each
    backward = (mesh.quad_edges[quad, local, 1] != 1).astype(np.int64)

    lo, hi = mesh.edges[interior].T
    tang = mesh.vertices[hi] - mesh.vertices[lo]
    length = np.linalg.norm(tang, axis=1)
    normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / length[:, None]

    def trace(side):
        return np.einsum("iqrc,ic->iqr", vals[quad[:, side], local[:, side],
                                              backward[:, side]], normal)

    jump = trace(0) - trace(1)
    total = float(np.sum(length * (np.sum(jump ** 2, axis=-1) @ w)))
    return float(np.sqrt(total))
