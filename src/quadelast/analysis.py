"""Error norms, convergence rates, and stability diagnostics.

Everything here consumes solved fields (or exact callables) and produces
numbers: L2 errors with relative percentages, observed orders between
dyadic mesh levels, the commuting-interpolation residual for the stress
interpolant, a sparse shift-invert inf-sup estimate for the saddle-point
system in the norm of :func:`assembly.ynorm_gram`, and the asymmetry norm
of a computed stress.  Fields are evaluated one batch of
:func:`mapping.cell_chunks` at a time, from that batch's geometry, so the
temporaries do not grow with the mesh.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import default_quad
from .fe_space import FEFunction, FESpace, evaluate_batch, evaluate_div_batch
from .mapping import cell_chunks, gauss_rule, gauss_rule_1d, piola_values
from .problem import ManufacturedSolution
from .reference_elements import EDGE_NORMALS, edge_points
from .solver import HybridFactor, SolverError, cell_apply

#: Quadrature order of :func:`compute_errors` alone (the policy is in
#: :func:`assembly.default_quad`); high enough that the measured errors are
#: quadrature-converged for every element family in scope.
NORM_QUAD = 12

#: Largest system size accepted by the inf-sup estimate.  One estimate in a
#: fresh process on trapezoids (2 vCPUs, scipy 1.17, OpenBLAS at its default
#: 2 threads, 3 runs): 0.05-0.06 s at 7,040 unknowns (rt2 n=16), 0.20-0.24 s
#: and a 100 MB peak at 27,904 (rt2 n=32), 0.57-0.61 s and 188 MB at 45,568
#: (bdm1 n=64), the same with 1 thread; a host where 2 threads stall reads
#: 3-6x more.  A safety bound on time and memory, not a measured limit.
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
            errs = np.array([getattr(row, f"e_{name}") for row in self.rows])
            with np.errstate(divide="ignore", invalid="ignore"):
                out[name] = np.log2(errs[:-1] / errs[1:])
        return out


def _pct(err: float, exact: float) -> float:
    if exact == 0.0:
        return 0.0 if err == 0.0 else float("inf")
    return 100.0 * err / exact


def compute_errors(sigma: FEFunction, u: FEFunction, p: FEFunction,
                   exact: ManufacturedSolution) -> ErrorReport:
    """L2 errors of a solved triple against a manufactured solution.

    The squared differences are integrated element by element on the
    reference square with a ``NORM_QUAD`` x ``NORM_QUAD`` Gauss rule, one
    chunk of :func:`mapping.cell_chunks` at a time: its geometry serves
    the exact fields (``exact.fields``) and all four discrete ones.  The
    stress divergence is evaluated through the same 1/J transform used in
    assembly, and the exact divergence is the load ``exact.f``.  Only the
    order of the global sums depends on the chunk.
    """
    mesh = sigma.space.mesh
    rule = gauss_rule(NORM_QUAD)
    # squared norms of the errors and of the exact fields, in QUANTITIES
    # order
    err, ref = np.zeros(4), np.zeros(4)
    for chunk in cell_chunks(mesh, rule.points):
        _, X, _, J = chunk
        wJ = (rule.weights[None, :] * J).ravel()
        exact_vals = exact.fields(X)  # sigma, div = f, u, p
        discrete = (evaluate_batch(sigma, rule.points, chunk),
                    evaluate_div_batch(sigma, rule.points, chunk),
                    evaluate_batch(u, rule.points, chunk),
                    evaluate_batch(p, rule.points, chunk))
        for i, (ex, dh) in enumerate(zip(exact_vals, discrete)):
            ex = ex.reshape(wJ.size, -1)
            d = dh.reshape(wJ.size, -1) - ex
            err[i] += np.einsum("p,pc,pc->", wJ, d, d)
            ref[i] += np.einsum("p,pc,pc->", wJ, ex, ex)
    errors = [float(e) for e in np.sqrt(err)]
    pcts = [_pct(e, float(r)) for e, r in zip(errors, np.sqrt(ref))]
    return ErrorReport(mesh.h, *errors, *pcts)


def infsup_estimate(system, gram) -> float:
    """Smallest singular value of the system in the solution norm.

    The discrete inf-sup constant is the smallest |lambda| of K x =
    lambda N x, K the saddle-point operator and N the five diagonal
    blocks of the Gram system: :func:`assembly.ynorm_gram`'s ``gram`` on
    K's classes, signs and dofs (the numerical inf-sup test of Chapelle &
    Bathe, 1993).  Shift-invert Lanczos about zero finds it; ARPACK
    applies only N and K^-1, by the solver's hybrid factor, so the K
    operator only gives the shape.  A system the factor refuses, as
    ``solve`` does, gives 0.  Raises ValueError unless ``gram`` has the
    class matrices' shape and N is SPD.
    """
    if system.n > INFSUP_CAP:
        raise ValueError(f"inf-sup estimate is capped at {INFSUP_CAP} "
                         f"unknowns; system has {system.n}")
    if np.shape(gram) != system.class_matrices.shape:
        raise ValueError(f"Gram shape {np.shape(gram)} is not the class "
                         f"matrices' {system.class_matrices.shape}")
    blocks = system.local_blocks
    N = replace(system, class_matrices=gram).block_sum(
        zip(blocks, blocks), 0, (system.n, system.n))
    # N is positive definite if every class matrix is and its diagonal has
    # no zero; cholesky returns NaN for a NaN entry instead of raising
    try:
        np.linalg.cholesky(gram)
        if not (np.all(np.isfinite(gram)) and np.all(N.diagonal() > 0.0)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise ValueError("Gram matrix is not positive definite") from None
    try:
        factor = HybridFactor(system)
    except SolverError:
        return 0.0
    K = spla.LinearOperator(N.shape, matvec=lambda x: cell_apply(system, x),
                            dtype=float)
    Kinv = spla.LinearOperator(N.shape, matvec=factor.solve, dtype=float)
    # a fixed start vector makes the estimate reproducible; it is random
    # because a constant one can be orthogonal to the eigenvector on a
    # symmetric mesh
    v0 = np.random.default_rng(0).standard_normal(system.n)
    lam = spla.eigsh(K, k=1, M=N, sigma=0, which="LM", tol=0, OPinv=Kinv,
                     v0=v0, return_eigenvectors=False)
    return float(abs(lam[0]))


def _reference_rows(sigma, xhat: np.ndarray, chunk):
    """Pull a matrix field back to the reference square on one cell chunk.

    Each row transforms like a vector field under the inverse
    contravariant Piola map: sighat_r = J DF^{-1} sigma_r, and J DF^{-1}
    is the adjugate of DF.  ``sigma`` is a physical callable or an
    FEFunction on the same mesh, ``chunk`` one of :func:`mapping.cell_chunks`
    at ``xhat``.  Returns the rows, shape (n, npts, 2, 2).
    """
    _, X, DF, _ = chunk
    if isinstance(sigma, FEFunction):
        vals = evaluate_batch(sigma, xhat, chunk)
    else:
        vals = np.asarray(sigma(X))
    adj = np.stack([np.stack([DF[..., 1, 1], -DF[..., 0, 1]], axis=-1),
                    np.stack([-DF[..., 1, 0], DF[..., 0, 0]], axis=-1)],
                   axis=-2)
    return piola_values(adj[:, :, None], vals)


def _reference_dofs(W: np.ndarray, sighat: np.ndarray) -> np.ndarray:
    """Apply the reference dofs ``W`` (dim, npts, 2) of an interpolation
    matrix to pulled-back rows ``sighat`` (E, npts, 2, 2): one BLAS
    contraction, shape (E, 2, dim)."""
    return np.einsum("ipc,eprc->eri", W, sighat, optimize=True)


def _write_interpolant(coef, space: FESpace, W, sighat, cells) -> None:
    """Write into ``coef`` the interpolant's global coefficients on the
    cells ``cells``, from the reference dofs ``W`` of their pulled-back
    rows ``sighat``.  Shared edge dofs are written from both sides; for a
    single-valued field the two values agree because the edge moments are
    intrinsic, which is exactly what the orientation signs encode."""
    coef[space.dofs_on(cells)] = (_reference_dofs(W, sighat).transpose(1, 0, 2)
                                  * space.row_signs[cells])


def interpolate_stress(space: FESpace, sigma) -> FEFunction:
    """Canonical interpolant of a matrix field into a stress space.

    Applies the reference degrees of freedom to the pulled-back rows, one
    chunk of :func:`mapping.cell_chunks` at a time.
    """
    points, W = space.element.interpolation_matrix(default_quad(space.element))
    coef = np.zeros(space.n_dofs)
    for chunk in cell_chunks(space.mesh, points):
        sighat = _reference_rows(sigma, points, chunk)
        _write_interpolant(coef, space, W, sighat, chunk[0])
    return FEFunction(space, coef)


def check_commuting_projection(space: FESpace, disp: FESpace, sigma) -> float:
    """Relative residual of the divergence/interpolation commuting identity.

    Interpolates ``sigma`` into ``space`` and measures the L2 norm of the
    difference between the projections onto the displacement space ``disp``
    of div(interpolant) and div(sigma), divided by the norm of the latter
    where that exceeds 1: the round-off grows with the field, and a
    divergence-free field has only round-off there.  The interpolant goes
    through the global dofs, so an edge orientation that two cells
    disagree on shows up as an O(1) residual.  The projection of
    div(sigma) is obtained from reference-square integration by parts, so
    only values of ``sigma`` are needed, never its derivatives.  The dof
    points are the edge Gauss points followed by the cell Gauss points, so
    one pullback per cell chunk serves the interpolant and both integrals.
    """
    elem = space.element
    psi_basis = disp.element.basis
    quad = default_quad(elem)
    rule = gauss_rule(quad)
    _, w1 = gauss_rule_1d(quad)
    n_edge = 4 * quad
    points, W = elem.interpolation_matrix(quad)

    psi = psi_basis.eval(rule.points)[..., 0]
    dpsi = psi_basis.grad(rule.points)[:, 0]  # (dimV, 2, q)
    div_phi = elem.basis.div(rule.points)
    psi_edge = psi_basis.eval(points[:n_edge])[..., 0].reshape(-1, 4, quad)

    coef = np.zeros(space.n_dofs)
    m2 = np.empty((space.mesh.n_quads, 2, len(psi)))
    mass = np.empty((space.mesh.n_quads, len(psi), len(psi)))
    for chunk in cell_chunks(space.mesh, points):
        cells, J = chunk[0], chunk[3]
        sighat = _reference_rows(sigma, points, chunk)
        _write_interpolant(coef, space, W, sighat, cells)
        cell = sighat[:, n_edge:]
        m2[cells] = -np.einsum("eqrc,jcq,q->erj", cell, dpsi, rule.weights)
        edge = sighat[:, :n_edge].reshape(-1, 4, quad, 2, 2)
        flux = np.einsum("eaqrc,ac->eaqr", edge, EDGE_NORMALS)
        m2[cells] += np.einsum("eaqr,jaq,q->erj", flux, psi_edge, w1)
        mass[cells] = np.einsum("iq,jq,eq->eij", psi, psi,
                                rule.weights * J[:, n_edge:])
    # projection moments of div(interpolant): the reference divergence
    # integrates against psi without any Jacobian (the 1/J of the
    # divergence transform cancels the volume factor)
    m1 = (space.local_coefficients(coef).transpose(1, 0, 2)
          @ np.einsum("iq,jq,q->ij", div_phi, psi, rule.weights))

    def norm(m):
        m = m.transpose(0, 2, 1)
        return float(np.sqrt(max(np.sum(m * np.linalg.solve(mass, m)), 0.0)))

    return norm(m1 - m2) / max(norm(m2), 1.0)


def equilibrium_residual(sigma: FEFunction, disp: FESpace, f) -> float:
    """Relative norm of the displacement-space projection of div(sigma) - f.

    For the computed stress this is the discrete equilibrium residual: its
    divergence matches the projection of the load onto the displacement
    space, so the value sits at solver accuracy.  Relative to the L2 norm
    of ``f`` when that is nonzero, absolute otherwise.  The quadrature is
    the assembly's (:func:`assembly.default_quad`); a much coarser rule
    would measure its own integration error instead of the residual.
    """
    rule = gauss_rule(default_quad(sigma.space.element))
    psi = disp.element.basis.eval(rule.points)[..., 0]
    val = fnorm = 0.0  # squared, summed over the chunks
    for chunk in cell_chunks(sigma.space.mesh, rule.points):
        wJ = rule.weights * chunk[3]
        fx = np.asarray(f(chunk[1]))
        diff = evaluate_div_batch(sigma, rule.points, chunk) - fx
        r = np.einsum("eq,eqr,jq->ejr", wJ, diff, psi)
        mass = np.einsum("eq,iq,jq->eij", wJ, psi, psi)
        val += np.sum(r * np.linalg.solve(mass, r))
        fnorm += np.sum(wJ * np.sum(fx ** 2, axis=-1))
    val = float(np.sqrt(max(val, 0.0)))
    fnorm = float(np.sqrt(fnorm))
    return val / fnorm if fnorm > 0.0 else val


def stress_l2_error(sigma_h: FEFunction, sigma) -> float:
    """L2 norm of ``sigma_h - sigma``, ``sigma`` a physical callable, at
    the stress family's :func:`assembly.default_quad`."""
    rule = gauss_rule(default_quad(sigma_h.space.element))
    total = 0.0
    for chunk in cell_chunks(sigma_h.space.mesh, rule.points):
        diff = evaluate_batch(sigma_h, rule.points, chunk) - sigma(chunk[1])
        total += np.sum(rule.weights * chunk[3]
                        * np.sum(diff ** 2, axis=(-2, -1)))
    return float(np.sqrt(total))


def asymmetry_norm(sigma: FEFunction) -> float:
    """L2 norm of the asymmetry of a stress field.

    Symmetry is imposed only weakly, so this is nonzero for computed
    stresses and should shrink under refinement.
    """
    rule = gauss_rule(default_quad(sigma.space.element))
    total = 0.0
    for chunk in cell_chunks(sigma.space.mesh, rule.points):
        vals = evaluate_batch(sigma, rule.points, chunk)
        askew = vals[..., 0, 1] - vals[..., 1, 0]
        total += np.sum(rule.weights * chunk[3] * askew ** 2)
    return float(np.sqrt(total))


def normal_jump_norm(sigma: FEFunction) -> float:
    """Interior-edge normal-trace jump norm of a stress field.

    Returns sqrt of the sum over interior edges of the squared L2 norm of
    the jump of ``sigma . n`` across the edge.  Conforming fields give a
    value at roundoff level; a wrong edge-dof orientation shows up as an
    O(1) jump, which makes this the go-to conformity diagnostic.
    """
    mesh = sigma.space.mesh
    t, w = gauss_rule_1d(default_quad(sigma.space.element))
    # reference points of the four local edges, traversed lo -> hi for
    # orientation +1 and hi -> lo for -1: shape (4, 2, len(t), 2), flattened
    xhat = edge_points(np.stack([t, 1.0 - t])).reshape(-1, 2)
    vals = np.empty((mesh.n_quads, len(xhat), 2, 2))
    # every edge needs both of its cells: gather all values, chunk by chunk
    for chunk in cell_chunks(mesh, xhat):
        vals[chunk[0]] = evaluate_batch(sigma, xhat, chunk)
    vals = vals.reshape(mesh.n_quads, 4, 2, len(t), 2, 2)

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
