"""Helpers that only the tests use: patch-test data, the canonical
interpolant of one reference element, the compliance applied to a stack of
matrices, the monolithic sparse LU oracle of the solver, a square mesh
with jittered interior vertices, the per-cell oracle of assembly, a
system made of one class per cell, a system with one cell's compliance
negated, a system with its asymmetry block removed, a
stress space with one edge orientation flipped, the displacement space
paired with a stress space, the basis gradients by ``polyder``, a
recorder of the quadrature orders the package integrates at, the Gram
system's cell blocks and its global matrix summed from them, the Gram
matrix summed from the whole-mesh oracle's cell arrays, the trace system
summed by ``coo_matrix`` through a phantom row and sliced, a 2-norm that
calls no BLAS, the four independent closures of the trigonometric
benchmark solution, evaluation on every cell of a mesh, the
plain-``einsum`` forms of the batched geometry, Piola, interpolation and
Gram contractions, the four hand-written CSV and markdown table
formatters that the CLI's one table writer replaced, a context that runs
an oracle on one BLAS thread, the solver's former SuperLU factor of the
trace system and its former ARPACK inf-sup estimate, a hybrid factor's
cell trace blocks and the dense Cholesky factor held by its fronts, the
fronts' former elimination of a whole height at once, and a mesh of a
rectangular grid of cells read back from a mesh file."""

import dataclasses

import numpy as np
import numpy.polynomial.polynomial as npoly
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import quadelast.analysis
from quadelast import _blas
from quadelast._blas import openblas_controls
import quadelast.assembly
import quadelast.cli
import quadelast.solver
from quadelast.assembly import boundary_term, default_quad
from quadelast.fe_space import (FEFunction, build_displacement_space, scatter,
                                unmapped_basis)
from quadelast.mapping import (cell_batches, cell_chunks, gauss_rule,
                               geometry_at, piola_values, ref_shape)
from quadelast.mesh import (QuadMesh, generate_square_mesh, read_mesh,
                            write_mesh)
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
    assert norm(K @ x - b) <= RESIDUAL_TOL * norm(b)
    return x


def norm(v: np.ndarray) -> float:
    """The 2-norm of the vector ``v`` by numpy's pairwise sum: on long
    vectors ``np.linalg.norm`` calls a threaded BLAS dot, which can stall
    for milliseconds."""
    return float(np.sqrt(np.sum(v * v)))


def jittered_square_mesh(n: int, seed: int = 0) -> QuadMesh:
    """The n x n square mesh with every interior vertex moved by a seeded
    uniform offset of up to 0.2 h in each direction: no two cells are
    translates of each other."""
    mesh = generate_square_mesh(n)
    v = mesh.vertices.copy()
    interior = np.all((v > 0.0) & (v < 1.0), axis=1)
    rng = np.random.default_rng(seed)
    v[interior] += rng.uniform(-0.2, 0.2, size=(int(interior.sum()), 2)) / n
    return QuadMesh(v, mesh.quads)


def percell_assemble(stress, disp, rot, params, f=None, g=None):
    """Oracle of ``assembly.assemble``: every cell's signed matrix
    (E, k, k) tabulated on that cell, one ``cell_chunks`` batch of all the
    cells at a time, and the right-hand side."""
    mesh = stress.mesh
    rule = gauss_rule(default_quad(stress.element))
    w = rule.weights
    phi = stress.element.basis.eval(rule.points)
    dPhi = stress.element.basis.div(rule.points)
    Psi = disp.element.basis.eval(rule.points)[..., 0]
    dimS = dPhi.shape[0]
    C = compliance_matrix(params).reshape(2, 2, 2, 2)
    D0 = np.einsum("kq,mq,q->mk", dPhi, Psi, w)
    dimV, dimQ = disp.local_dim, rot.local_dim
    s = slice(0, 2 * dimS)
    s0, s1 = slice(0, dimS), slice(dimS, 2 * dimS)
    v0 = slice(2 * dimS, 2 * dimS + dimV)
    v1 = slice(v0.stop, v0.stop + dimV)
    q = slice(v1.stop, v1.stop + dimQ)
    b = slice(s1.stop, None)
    k = q.stop
    cell_matrices = np.zeros((mesh.n_quads, k, k))
    load = np.zeros((2,) + disp.row_dofs.shape)
    for cells, X, DF, J in cell_chunks(mesh, rule.points):
        A = cell_matrices[cells]
        sgn = stress.row_signs[cells]
        nc = len(sgn)
        UPV = piola_values(DF[:, None], phi)
        Q = unmapped_basis(rot, rule.points, cells)
        UPVw = UPV * (w[None, :] / J)[:, None, :, None]
        Aflat = UPV.transpose(0, 1, 3, 2).reshape(nc, dimS * 2, -1)
        Bflat = UPVw.transpose(0, 1, 3, 2).reshape(nc, dimS * 2, -1)
        T = (Bflat @ Aflat.transpose(0, 2, 1)).reshape(nc, dimS, 2, dimS, 2)
        L = np.einsum("xayb,eiajb->exiyj", C, T, optimize=True).reshape(
            nc, 2 * dimS, 2 * dimS)
        L = 0.5 * (L + L.transpose(0, 2, 1))
        sgn2 = np.tile(sgn, 2)
        L *= sgn2[:, :, None] * sgn2[:, None, :]
        A[:, s, s] = L
        for v, cols, comp, s_as in ((v0, s0, 1, 1.0), (v1, s1, 0, -1.0)):
            A[:, v, cols] = np.einsum("ek,mk->emk", sgn, D0)
            A[:, q, cols] = s_as * np.einsum(
                "meq,ekq,q->emk", Q, UPV[..., comp], w) * sgn[:, None, :]
        A[:, s, b] = A[:, b, s].transpose(0, 2, 1)
        if f is not None:
            fx = np.asarray(f(X))
            for rho in range(2):
                load[rho, cells] = np.einsum(
                    "eq,mq->em", w[None, :] * J * fx[..., rho], Psi)
    n = stress.n_dofs + disp.n_dofs + rot.n_dofs
    rhs = np.bincount((stress.n_dofs + disp.dofs).ravel(), load.ravel(),
                      minlength=n)
    if g is not None:
        rhs[: stress.n_dofs] = boundary_term(stress, g)
    return cell_matrices, rhs


def scattered_trace_system(T, slot_mult, n_mult):
    """Oracle of the trace system that ``solver.HybridFactor`` factors:
    every slot's block of the cell blocks ``T`` summed by ``coo_matrix``,
    the slots a cell does not share into a phantom last row and column,
    which are then sliced off."""
    Se = 0.5 * (T + T.transpose(0, 2, 1))
    n = n_mult
    rows = np.broadcast_to(slot_mult[:, :, None], Se.shape).ravel()
    cols = np.broadcast_to(slot_mult[:, None, :], Se.shape).ravel()
    S = sp.coo_matrix((Se.ravel(), (rows, cols)), shape=(n + 1, n + 1))
    return S.tocsr()[:n, :n].tocsc()


def cell_traces(factor):
    """A ``solver.HybridFactor``'s cell blocks of the trace system
    (E, m, m): each class's symmetrized block at the slots times the
    cell's slot signs."""
    sgn = factor.slot_sign
    return (factor.traces[factor.cell_class] * sgn[:, :, None]
            * sgn[:, None, :])


def superlu_trace_factor(factor):
    """Oracle of the trace system's factor: the symmetric-mode SuperLU
    factor, with no pivoting and in the order of the multipliers, of S
    summed by :func:`scattered_trace_system`, as the solver factored it
    before its fronts; None when S has no row."""
    m = factor.multipliers
    if m == 0:
        return None
    S = scattered_trace_system(cell_traces(factor), factor.slot_mult, m)
    return spla.splu(S, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def fronts_cholesky(fronts) -> np.ndarray:
    """The dense lower Cholesky factor L (M, M) that the fronts of a
    ``solver.HybridFactor`` hold: per node L11 = (L11^{-1})^{-1} on its own
    rows and L21 = (L21 L11^{-1}) L11 below them, at its multipliers."""
    M = fronts.plan.multipliers
    L = np.zeros((M + 1, M + 1))
    for height, G in zip(fronts.plan.heights, fronts.factors):
        O = height.own.shape[1]
        L11 = np.linalg.inv(G[:, :O])
        block = np.concatenate([L11, G[:, O:] @ L11], axis=1)
        rows = height.rows
        L[rows[:, :, None], height.own[:, None, :]] = block
    return L[:M, :M]


def whole_height_eliminate(fronts, height, G, blocks, floor, work):
    """Oracle of ``solver._Fronts._eliminate``, with its signature: every
    front of the height assembled at once, in one (P, F + 1, F + 1)
    array, by ``np.add.at`` over the children in mesh order, 128 at a
    time, then one batched Cholesky, inverse and two products for the
    whole height, as the fronts were factored before their batches.
    Writes G, adds the height's entries to ``fronts.nnz`` and returns the
    update matrices; ``work`` is not used."""
    rows, own, _, n_own, pos, _, start = height
    (P, F), O = rows.shape, own.shape[1]
    parent = np.repeat(np.arange(P), np.diff(start))
    offsets = (parent[:, None] * (F + 1) + pos) * (F + 1)
    children = np.arange(len(pos))
    if height is fronts.plan.heights[0]:
        # the cells in mesh order, not grouped by parent
        children = np.argsort(fronts.plan.cells)
    front = np.zeros((P, F + 1, F + 1))
    for batch in cell_batches(children):
        np.add.at(front.reshape(-1), (offsets[batch, :, None]
                                      + pos[batch, None, :]).ravel(),
                  blocks(batch).ravel())
    d = np.arange(O)
    front[:, d, d] += d >= n_own[:, None]
    try:
        L = np.linalg.cholesky(front[:, :O, :O])
    except np.linalg.LinAlgError:
        L = None
    if L is None or not np.all(
            np.diagonal(L, axis1=1, axis2=2)[d < n_own[:, None]] ** 2
            > floor):
        raise SingularSystem("trace system not positive definite beyond "
                             "tolerance; system nearly singular")
    G[:, :O] = np.linalg.inv(L)
    L21 = front[:, O:F, :O] @ G[:, :O].transpose(0, 2, 1)
    G[:, O:] = L21 @ G[:, :O]
    n_bound = np.count_nonzero(rows[:, O:] != fronts.plan.multipliers,
                               axis=1)
    fronts.nnz += int(np.sum(n_own * (n_own + 1) // 2 + n_own * n_bound))
    return front[:, O:F, O:F] - L21 @ L21.transpose(0, 2, 1)


def arpack_infsup(system, gram) -> float:
    """Oracle of ``analysis.infsup_estimate``: ARPACK's shift-invert
    Lanczos about zero on K x = lambda N x, N the Gram system summed by
    :func:`gram_matrix` and K^-1 the hybrid factor, from a seeded normal
    start vector; 0 where the factor refuses the system."""
    try:
        factor = quadelast.solver.HybridFactor(system)
    except quadelast.solver.SolverError:
        return 0.0
    N = gram_matrix(system, gram)
    K = spla.LinearOperator(
        N.shape, matvec=lambda x: quadelast.solver.cell_apply(system, x),
        dtype=float)
    Kinv = spla.LinearOperator(N.shape, matvec=factor.solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(system.n)
    lam = spla.eigsh(K, k=1, M=N, sigma=0, which="LM", tol=0, OPinv=Kinv,
                     v0=v0, return_eigenvectors=False)
    return float(abs(lam[0]))


def read_grid_mesh(path, nx: int, ny: int) -> QuadMesh:
    """The nx x ny grid of the unit square, written to ``path`` and read
    back by ``mesh.read_mesh``: with nx * ny not a power of 2 its
    dissection tree has nodes with one child."""
    x, y = np.meshgrid(np.linspace(0.0, 1.0, nx + 1),
                       np.linspace(0.0, 1.0, ny + 1))
    j, i = np.divmod(np.arange(nx * ny), nx)
    corner = j * (nx + 1) + i
    quads = np.stack([corner, corner + 1, corner + nx + 2, corner + nx + 1],
                     axis=1)
    write_mesh(QuadMesh(np.column_stack([x.ravel(), y.ravel()]), quads),
               path)
    return read_mesh(path)


def own_classes(system, cell_matrices):
    """The system with the signed ``cell_matrices`` (E, k, k) as its class
    matrices, one class per cell and every cell sign +1."""
    return dataclasses.replace(
        system, class_matrices=cell_matrices,
        cell_class=np.arange(len(cell_matrices)),
        cell_signs=np.ones(system.cell_dofs.shape))


def negated_cell_compliance(system, cell: int = 0):
    """The system with the compliance block of one cell matrix negated: the
    cell stays invertible, but the trace system is no longer positive
    definite, so the solver refuses it."""
    k_sigma = int(np.sum(system.cell_dofs[cell] < system.n_sigma))
    A = system.cell_matrices
    A[cell, :k_sigma, :k_sigma] *= -1.0
    return own_classes(system, A)


def without_asymmetry(system):
    """The system with the rotation rows and columns of every cell matrix
    zeroed: its asymmetry block Ba keeps its pattern, with zero values."""
    keep = system.cell_dofs[0] < system.n_sigma + system.n_v
    A = system.class_matrices * keep[:, None] * keep[None, :]
    return dataclasses.replace(system, class_matrices=A)


def cell_gram(system, gram):
    """The Gram system's cell blocks (E, k, k), signs included: the class
    array ``gram`` of ``assembly.ynorm_gram`` gathered to the cells of
    ``system`` like its class matrices.  It is the Gram of
    ``own_classes(system, system.cell_matrices)``."""
    return dataclasses.replace(system, class_matrices=gram).cell_matrices


def gram_matrix(system, gram):
    """The global Gram matrix: the Gram system's cell blocks
    (:func:`cell_gram`) summed over the system's cell dofs of stress rows
    0 and 1, displacement components 0 and 1 and rotation, like K."""
    A, D = cell_gram(system, gram), system.cell_dofs
    return scatter([(A[:, b, b], D[:, b], D[:, b])
                    for b in system.local_blocks], (system.n, system.n))


def einsum_gram_matrix(system, stress, disp, rot):
    """Oracle of the N that ``analysis.infsup_estimate`` sums: the global
    Gram matrix summed from :func:`einsum_gram`'s signed cell arrays
    (G, Mv, Mq) over the system's cell dofs of the five local slices."""
    G, Mv, Mq = einsum_gram(stress, disp, rot)
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
    """The Gram's cell arrays, signs included, on the whole mesh at once
    from ``mapping.geometry_at``: (tau, tau) + (div tau, div tau) of each
    stress row (E, dimS, dimS), the mass of each displacement component
    (E, dimV, dimV) and the rotation mass (E, dimQ, dimQ)."""
    rule = gauss_rule(default_quad(stress.element))
    _, DF, J = geometry_at(stress.mesh.element_corners(), rule.points)
    w = rule.weights
    UPV = einsum_piola_values(DF, stress.element.basis.eval(rule.points))
    dPhi = stress.element.basis.div(rule.points)
    woJ, wJ = w[None, :] / J, w[None, :] * J
    G = np.einsum("eq,eaqc,ebqc->eab", woJ, UPV, UPV)
    G += np.einsum("eq,aq,bq->eab", woJ, dPhi, dPhi)
    G *= stress.row_signs[:, :, None] * stress.row_signs[:, None, :]
    psi = disp.element.basis.eval(rule.points)[..., 0]
    Q = unmapped_basis(rot, rule.points, slice(None))
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


def openblas_thread_controls() -> list:
    """``(set, get)`` thread-count functions of the OpenBLAS copies that
    numpy and scipy bundle (``numpy.libs``, ``scipy.libs``), found through
    ctypes by their exported symbols.  A copy without both symbols, or a
    build that bundles none, gives no entry."""
    return [c for module in (np, scipy) for c in openblas_controls(module)]


def one_blas_thread():
    """Run the block with numpy's and scipy's bundled OpenBLAS on one
    thread each, and restore their thread counts after it.  For an
    oracle's own dense computations: OpenBLAS stalls on two threads on
    some hosts.  Where no copy is found it does nothing."""
    return _blas.one_blas_thread(openblas_thread_controls())
