"""Helpers that only the tests use: patch-test data, the canonical
interpolant of one reference element, the compliance applied to a stack of
matrices, the monolithic sparse LU oracle of the solver, a system with one
cell's compliance negated, a system with its asymmetry block removed, a
stress space with one edge orientation flipped, the displacement space
paired with a stress space, the basis gradients by ``polyder``, a
recorder of the quadrature orders the package integrates at, the Gram
matrix summed from its cell arrays, the trace system scattered through a
phantom row and sliced, the four independent closures of the
trigonometric benchmark solution, evaluation on every cell of a mesh, the
plain-``einsum`` forms of the batched geometry, Piola, interpolation and
Gram contractions, and the four hand-written CSV and markdown table
formatters that the CLI's one table writer replaced."""

import dataclasses

import numpy as np
import numpy.polynomial.polynomial as npoly
import scipy.sparse.linalg as spla

import quadelast.analysis
import quadelast.assembly
import quadelast.cli
from quadelast.assembly import default_quad
from quadelast.fe_space import (FEFunction, build_displacement_space, scatter,
                                unmapped_basis)
from quadelast.mapping import cell_chunks, gauss_rule, geometry_at, ref_shape
from quadelast.problem import LameParams, ManufacturedSolution, compliance_matrix
from quadelast.reference_elements import ReferenceElement
from quadelast.solver import PIVOT_TOL, RESIDUAL_TOL, SingularSystem


def linear_solution(params: LameParams,
                    grad: np.ndarray | None = None) -> ManufacturedSolution:
    """Linear displacement with constant stress and zero body force.

    The patch-test problem: every field lies in the coarsest discrete
    spaces, so a working method reproduces the triple to solver accuracy
    on any admissible mesh.
    """
    U = np.array([[0.3, 0.1], [0.2, -0.4]]) if grad is None else np.asarray(grad)
    mu, lam = params.mu, params.lam
    eps = 0.5 * (U + U.T)
    sig = 2.0 * mu * eps + lam * np.trace(U) * np.eye(2)
    rot = 0.5 * (U[0, 1] - U[1, 0])

    def u(x):
        return np.asarray(x) @ U.T

    def p(x):
        return np.broadcast_to(rot, np.asarray(x).shape[:-1])

    def sigma(x):
        return np.broadcast_to(sig, np.asarray(x).shape[:-1] + (2, 2))

    def f(x):
        return np.zeros(np.asarray(x).shape[:-1] + (2,))

    return ManufacturedSolution(
        params=params, u=u, p=p, sigma=sigma, f=f,
        fields=lambda x: (sigma(x), f(x), u(x), p(x)))


def trig_closures(params: LameParams) -> dict:
    """Oracle of ``problem.trig_solution``: its fields u, p, sigma and f as
    four closures that each evaluate their own sines and cosines."""
    mu, lam = params.mu, params.lam
    pi = np.pi

    def u(x):
        x = np.asarray(x)
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([np.cos(pi * x1) * np.sin(2 * pi * x2),
                         np.sin(pi * x1) * np.cos(pi * x2)], axis=-1)

    def p(x):
        x = np.asarray(x)
        x1, x2 = x[..., 0], x[..., 1]
        return 0.5 * pi * np.cos(pi * x1) * (2 * np.cos(2 * pi * x2)
                                             - np.cos(pi * x2))

    def sigma(x):
        x = np.asarray(x)
        x1, x2 = x[..., 0], x[..., 1]
        s1, s2, sx = np.sin(2 * pi * x2), np.sin(pi * x2), np.sin(pi * x1)
        s11 = -pi * sx * ((2 * mu + lam) * s1 + lam * s2)
        s22 = -pi * sx * (lam * s1 + (2 * mu + lam) * s2)
        s12 = mu * pi * np.cos(pi * x1) * (2 * np.cos(2 * pi * x2)
                                           + np.cos(pi * x2))
        return np.stack([np.stack([s11, s12], axis=-1),
                         np.stack([s12, s22], axis=-1)], axis=-2)

    def f(x):
        x = np.asarray(x)
        x1, x2 = x[..., 0], x[..., 1]
        f1 = -pi**2 * np.cos(pi * x1) * ((6 * mu + lam) * np.sin(2 * pi * x2)
                                         + (lam + mu) * np.sin(pi * x2))
        f2 = -pi**2 * np.sin(pi * x1) * ((2 * mu + 2 * lam) * np.cos(2 * pi * x2)
                                         + (3 * mu + lam) * np.cos(pi * x2))
        return np.stack([f1, f2], axis=-1)

    return {"u": u, "p": p, "sigma": sigma, "f": f}


def interpolate(elem, field, order: int = 10) -> np.ndarray:
    """Canonical interpolation: apply every dof functional of ``elem`` to
    ``field``.

    ``order`` sets the quadrature used inside the functionals; exact for
    polynomial fields, and the knob to turn for rational pullbacks.
    """
    points, W = elem.interpolation_matrix(order)
    vals = np.asarray(field(points)).reshape(len(points), elem.ncomp)
    return np.einsum("ipc,pc->i", W, vals)


def compliance_apply(params: LameParams, tau: np.ndarray) -> np.ndarray:
    """Apply the compliance to matrices of shape (..., 2, 2)."""
    tau = np.asarray(tau, dtype=float)
    vec = tau.reshape(tau.shape[:-2] + (4,))
    return (vec @ compliance_matrix(params).T).reshape(tau.shape)


def monolithic_solve(system) -> np.ndarray:
    """Oracle: one SuperLU factorization (COLAMD, partial pivoting) of the
    whole indefinite matrix, with a pivot check and a verified residual."""
    K = system.full_matrix()
    b = system.rhs
    try:
        lu = spla.splu(K, permc_spec="COLAMD")
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularSystem(str(exc)) from exc
    piv = np.abs(lu.U.diagonal())
    if piv.min() < PIVOT_TOL * np.abs(K.diagonal()).max():
        raise SingularSystem(f"pivot {piv.min():.3e} below tolerance")
    x = lu.solve(b)
    assert np.all(np.isfinite(x))
    assert np.linalg.norm(K @ x - b) <= RESIDUAL_TOL * np.linalg.norm(b)
    return x


def scattered_trace_system(factor):
    """Oracle of ``solver._trace_system`` for a ``HybridFactor``: every
    slot's block scattered, padding slots into a phantom last row and
    column, which are then sliced off."""
    T = factor.C.transpose(0, 2, 1) @ factor.Y
    Se = 0.5 * (T + T.transpose(0, 2, 1))
    n, slots = factor.multipliers, factor.slot_mult
    return scatter([(Se, slots, slots)], (n + 1, n + 1))[:n, :n].tocsc()


def negated_cell_compliance(system, cell: int = 0):
    """The system with the compliance block of one cell matrix negated: the
    cell stays invertible, but the trace system is no longer positive
    definite, so the solver refuses it."""
    k_sigma = int(np.sum(system.cell_dofs[cell] < system.n_sigma))
    A = system.cell_matrices.copy()
    A[cell, :k_sigma, :k_sigma] *= -1.0
    return dataclasses.replace(system, cell_matrices=A)


def without_asymmetry(system):
    """The system with the rotation rows and columns of every cell matrix
    zeroed: its asymmetry block Ba keeps its pattern, with zero values."""
    keep = system.cell_dofs < system.n_sigma + system.n_v
    A = system.cell_matrices * keep[:, :, None] * keep[:, None, :]
    return dataclasses.replace(system, cell_matrices=A)


def gram_matrix(system, gram):
    """The global Gram matrix: the cell arrays ``gram = (G, Mv, Mq)``
    summed over the system's cell dofs of stress rows 0 and 1,
    displacement components 0 and 1 and rotation, like K."""
    G, Mv, Mq = gram
    D = system.cell_dofs
    return scatter([(block, D[:, b], D[:, b]) for block, b
                    in zip((G, G, Mv, Mv, Mq), system.local_blocks)],
                   (system.n, system.n))


def on_all_cells(evaluate, f, xhat, mesh=None):
    """``evaluate(f, xhat, chunk)`` -- ``fe_space.evaluate_batch``,
    ``evaluate_div_batch`` or ``analysis._reference_rows`` -- on every
    chunk of ``mapping.cell_chunks`` of ``mesh``, by default ``f``'s,
    joined along the cell axis."""
    xhat = np.atleast_2d(np.asarray(xhat, dtype=float))
    mesh = f.space.mesh if mesh is None else mesh
    return np.concatenate([evaluate(f, xhat, chunk)
                           for chunk in cell_chunks(mesh, xhat)])


def flip_edge_sign(space):
    """The stress space with the orientation sign of one shared-edge dof
    flipped in one cell: the first dof of the first interior edge, in the
    first cell that uses it.  Its functions have O(1) normal jumps."""
    slots = space.mesh.edge_slots
    interior = np.flatnonzero(slots[:, 1] >= 0)
    quad, local = divmod(int(slots[interior[0], 0]), 4)
    signs = space.row_signs.copy()
    signs[quad, space.element.edge_dofs[local][0]] *= -1.0
    return dataclasses.replace(space, row_signs=signs)


def paired_displacement(stress):
    """The displacement space paired with a stress space, on its mesh."""
    return build_displacement_space(stress.mesh, stress.element.degree)


def polyder_gradients(basis, xhat):
    """Oracle of ``PolyBasis.grad``: each partial derivative's coefficients
    by ``polyder``, evaluated by ``polyval2d`` at the points xhat (q, 2).
    Shape (n, ncomp, 2, q)."""
    x, y = xhat[:, 0], xhat[:, 1]
    return np.stack(
        [npoly.polyval2d(x, y, npoly.polyder(c, axis=axis))
         for comps in basis.coeffs for c in comps for axis in (0, 1)]
    ).reshape(basis.n, basis.ncomp, 2, -1)


def record_quadrature_orders(monkeypatch) -> list:
    """Record every order that ``analysis``, ``assembly`` and ``cli`` ask
    ``gauss_rule``, ``gauss_rule_1d`` or ``interpolation_matrix`` for.

    The functions are wrapped where those modules look them up, for the
    rest of the test; the returned list fills as they are called.
    """
    orders = []

    def recording(fn):
        def wrapper(*args):
            orders.append(args[-1])
            return fn(*args)
        return wrapper

    for module in (quadelast.analysis, quadelast.assembly, quadelast.cli):
        for name in ("gauss_rule", "gauss_rule_1d"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    recording(getattr(module, name)))
    monkeypatch.setattr(ReferenceElement, "interpolation_matrix",
                        recording(ReferenceElement.interpolation_matrix))
    return orders


# ---------------------------------------------------------------------------
# plain-einsum oracles of the contractions over the cell axis, which the
# package runs through BLAS or writes out term by term


def einsum_geometry_at(corners, xhat):
    """``mapping.geometry_at``: X (E, q, 2), DF (E, q, 2, 2), J (E, q)."""
    N, dN = ref_shape(xhat)
    X = np.einsum("qc,ecd->eqd", N, corners)
    DF = np.einsum("qcj,eci->eqij", dN, corners)
    J = DF[..., 0, 0] * DF[..., 1, 1] - DF[..., 0, 1] * DF[..., 1, 0]
    return X, DF, J


def einsum_piola_values(DF, Phi):
    """Unscaled Piola values DF phi of reference basis values Phi (k, q, 2):
    shape (E, k, q, 2)."""
    return np.einsum("eqcx,kqx->ekqc", DF, Phi)


def einsum_evaluate_piola(f, xhat):
    """The Piola branch of ``fe_space.evaluate_batch``: (E, q, rows, 2)."""
    space = f.space
    C = space.local_coefficients(f.coefficients)
    _, DF, J = einsum_geometry_at(space.mesh.element_corners(), xhat)
    ref = np.einsum("rek,kpc->repc", C, space.element.basis.eval(xhat))
    return np.einsum("epck,repk->eprc", DF, ref) / J[..., None, None]


def einsum_reference_rows(sigma, mesh, xhat):
    """``analysis._reference_rows``: the rows pulled back by the adjugate
    of DF, (E, q, 2, 2), and J.  ``sigma`` is an FEFunction on a stress
    space or a callable of the physical points."""
    X, DF, J = einsum_geometry_at(mesh.element_corners(), xhat)
    vals = (einsum_evaluate_piola(sigma, xhat)
            if isinstance(sigma, FEFunction) else np.asarray(sigma(X)))
    adj = np.stack([np.stack([DF[..., 1, 1], -DF[..., 0, 1]], axis=-1),
                    np.stack([-DF[..., 1, 0], DF[..., 0, 0]], axis=-1)],
                   axis=-2)
    return np.einsum("epck,eprk->eprc", adj, vals), J


def einsum_gram(stress, disp, rot):
    """The arrays (G, Mv, Mq) of ``assembly.ynorm_gram``, on the whole mesh
    at once from ``mapping.geometry_at``."""
    rule = gauss_rule(default_quad(stress.element))
    X, DF, J = geometry_at(stress.mesh.element_corners(), rule.points)
    w = rule.weights
    UPV = einsum_piola_values(DF, stress.element.basis.eval(rule.points))
    dPhi = stress.element.basis.div(rule.points)
    woJ, wJ = w[None, :] / J, w[None, :] * J
    G = np.einsum("eq,eaqc,ebqc->eab", woJ, UPV, UPV)
    G += np.einsum("eq,aq,bq->eab", woJ, dPhi, dPhi)
    G *= stress.row_signs[:, :, None] * stress.row_signs[:, None, :]
    psi = disp.element.basis.eval(rule.points)[..., 0]
    Q = unmapped_basis(rot, X, slice(None))
    return (G, np.einsum("eq,iq,jq->eij", wJ, psi, psi),
            np.einsum("eq,ieq,jeq->eij", wJ, Q, Q))


def einsum_reference_dofs(W, sighat):
    """The reference dofs W (dim, q, 2) applied to pulled-back rows, in the
    order of ``check_commuting_projection``: (E, 2, dim)."""
    return np.einsum("ipc,eprc->eri", W, sighat)


def einsum_interpolate_stress(space, sigma):
    """Coefficients of ``analysis.interpolate_stress``, with the
    contraction in its (row, cell, dof) order."""
    points, W = space.element.interpolation_matrix(default_quad(space.element))
    sighat, _ = einsum_reference_rows(sigma, space.mesh, points)
    coef = np.zeros(space.n_dofs)
    coef[space.dofs] = np.einsum("ipc,eprc->rei", W, sighat) * space.row_signs
    return coef


# ---------------------------------------------------------------------------
# the CLI's former per-study, per-format table formatters, kept as the
# byte-level oracle of ``cli.format_convergence`` and ``cli.format_locking``


def _order_strings(table, fmt_one) -> dict:
    orders = table.orders() if len(table.rows) >= 2 else {}
    out = {}
    for name in ("sigma", "div", "u", "p"):
        vals = orders.get(name, np.empty(0))
        out[name] = [""] + [fmt_one(v) for v in vals]
    return out


def format_convergence_csv(table) -> str:
    ords = _order_strings(table, lambda v: f"{v:.2f}")
    lines = ["h,e_sigma,pct_sigma,ord_sigma,e_div,pct_div,ord_div,"
             "e_u,pct_u,ord_u,e_p,pct_p,ord_p"]
    for i, r in enumerate(table.rows):
        lines.append(",".join([
            f"{r.h:.6e}",
            f"{r.e_sigma:.6e}", f"{r.pct_sigma:.3f}", ords["sigma"][i],
            f"{r.e_div:.6e}", f"{r.pct_div:.3f}", ords["div"][i],
            f"{r.e_u:.6e}", f"{r.pct_u:.3f}", ords["u"][i],
            f"{r.e_p:.6e}", f"{r.pct_p:.3f}", ords["p"][i],
        ]))
    return "\n".join(lines) + "\n"


def format_convergence_md(table) -> str:
    ords = _order_strings(table, lambda v: f"{v:.1f}")
    header = ("| h | e_sigma | % | order | e_div | % | order "
              "| e_u | % | order | e_p | % | order |")
    lines = [header, "|" + "---|" * 13]
    for i, r in enumerate(table.rows):
        cells = [f"{r.h:.3e}"]
        for name, err, pct in (("sigma", r.e_sigma, r.pct_sigma),
                               ("div", r.e_div, r.pct_div),
                               ("u", r.e_u, r.pct_u),
                               ("p", r.e_p, r.pct_p)):
            cells += [f"{err:.2e}", f"{pct:.2f}", ords[name][i]]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def format_locking_csv(rows) -> str:
    lines = ["nu,n,total_dofs,e_sigma,e_u"]
    for r in rows:
        lines.append(f"{r.nu:g},{r.n},{r.total_dofs},"
                     f"{r.e_sigma:.6e},{r.e_u:.6e}")
    return "\n".join(lines) + "\n"


def format_locking_md(rows) -> str:
    lines = ["| nu | n | total_dofs | e_sigma | e_u |", "|" + "---|" * 5]
    for r in rows:
        lines.append(f"| {r.nu:g} | {r.n} | {r.total_dofs} "
                     f"| {r.e_sigma:.2e} | {r.e_u:.2e} |")
    return "\n".join(lines) + "\n"
