import dataclasses

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
import scipy.linalg as la

import quadelast.analysis as analysis
import quadelast.solver
from quadelast.mesh import generate_square_mesh, generate_trapezoidal_mesh
from quadelast.fe_space import (
    FEFunction,
    build_elasticity_spaces,
    build_stress_space,
    evaluate_batch,
    stress_element,
)
from quadelast.problem import LameParams, trig_solution
from quadelast.assembly import BlockSystem, assemble, default_quad, ynorm_gram
from quadelast.solver import HybridFactor, SingularSystem, solve
import quadelast.cli as cli
from quadelast.cli import RunConfig, run_convergence, run_diagnostics
from quadelast.analysis import (
    INFSUP_CAP,
    NORM_QUAD,
    ConvergenceTable,
    ErrorReport,
    asymmetry_norm,
    check_commuting_projection,
    compute_errors,
    equilibrium_residual,
    infsup_estimate,
    interpolate_stress,
    normal_jump_norm,
    stress_l2_error,
)
from quadelast.mapping import gauss_rule, gauss_rule_1d, geometry_at
from quadelast.reference_elements import (
    EDGE_DIRS,
    EDGE_NORMALS,
    EDGE_STARTS,
    EdgeMoment,
    q_element,
    shifted_legendre,
)

from helpers import (arpack_infsup, cell_gram, einsum_gram,
                     einsum_gram_matrix,
                     flip_edge_sign, gram_matrix, jittered_square_mesh,
                     linear_solution, negated_cell_compliance, on_all_cells,
                     one_blas_thread, openblas_thread_controls,
                     paired_displacement, polyder_gradients,
                     record_quadrature_orders, without_asymmetry)
from test_assembly import random_quad_mesh

PARAMS = LameParams(mu=79.3, lam=123.0)
# the reference error magnitudes for the trigonometric benchmark were
# produced with the two Lame constants assigned this way round
BENCH = LameParams(mu=123.0, lam=79.3)


def solve_triple(mesh, family, sol, params=PARAMS):
    S, V, Q = build_elasticity_spaces(mesh, family)
    system = assemble(S, V, Q, params, f=sol.f, g=sol.g)
    sh, uh, ph = system.split(solve(system).solution)
    return FEFunction(S, sh), FEFunction(V, uh), FEFunction(Q, ph), system


def report(h=0.5, **kw):
    base = dict(e_sigma=1.0, e_div=1.0, e_u=1.0, e_p=1.0,
                pct_sigma=1.0, pct_div=1.0, pct_u=1.0, pct_p=1.0)
    base.update(kw)
    return ErrorReport(h=h, **base)


# ---------------------------------------------------------------- errors

def test_patch_test_errors_vanish():
    patch = linear_solution(PARAMS)
    sh, uh, ph, _ = solve_triple(generate_trapezoidal_mesh(4), "rt2", patch)
    r = compute_errors(sh, uh, ph, patch)
    assert max(r.e_sigma, r.e_div, r.e_u, r.e_p) <= 1e-9


def test_zero_solution_error_is_exact_norm():
    sol = trig_solution(PARAMS)
    mesh = generate_square_mesh(2)
    S, V, Q = build_elasticity_spaces(mesh, "rt2")
    zero = lambda sp_: FEFunction(sp_, np.zeros(sp_.n_dofs))
    r = compute_errors(zero(S), zero(V), zero(Q), sol)
    # ||u||_{L2} on the unit square: both components integrate to 1/4
    assert np.isclose(r.e_u, np.sqrt(0.5), rtol=1e-12)
    assert np.isclose(r.pct_u, 100.0, rtol=1e-12)
    assert np.isclose(r.pct_sigma, 100.0, rtol=1e-12)


def test_benchmark_errors_level_8():
    # regression values for the trigonometric benchmark, level h = 1/8
    sol = trig_solution(BENCH)
    sh, uh, ph, _ = solve_triple(generate_square_mesh(8), "rt2", sol, BENCH)
    r = compute_errors(sh, uh, ph, sol)
    assert np.isclose(r.h, np.sqrt(2) / 8, rtol=1e-12)
    assert np.isclose(r.e_sigma, 1.59e1, rtol=0.01)
    assert np.isclose(r.e_div, 1.07e2, rtol=0.01)
    assert np.isclose(r.e_u, 1.24e-2, rtol=0.01)
    assert np.isclose(r.e_p, 5.60e-2, rtol=0.01)
    assert np.isclose(r.pct_sigma, 1.65, atol=0.02)


# ---------------------------------------------------------------- orders

def test_orders_exact_powers():
    t = ConvergenceTable(rows=(report(h=0.5), report(h=0.25, e_sigma=0.25)))
    orders = t.orders()
    assert np.isclose(orders["sigma"][0], 2.0)
    assert np.isclose(orders["div"][0], 0.0)


def test_orders_match_reported_rates():
    rows = (report(h=0.5, e_sigma=3.06e2), report(h=0.25, e_sigma=6.64e1))
    val = ConvergenceTable(rows=rows).orders()["sigma"][0]
    assert round(val, 1) == 2.2

    rows = (report(h=1 / 64, e_div=1.03e3), report(h=1 / 128, e_div=1.02e3))
    val = ConvergenceTable(rows=rows).orders()["div"][0]
    assert np.isclose(val, 0.014, atol=0.005)


def test_orders_reject_non_dyadic():
    rows = (report(h=0.5), report(h=0.3))
    with pytest.raises(ValueError, match="halve"):
        ConvergenceTable(rows=rows).orders()


def test_orders_need_two_rows():
    with pytest.raises(ValueError, match="two rows"):
        ConvergenceTable(rows=(report(),)).orders()


def test_table_rejects_increasing_h():
    with pytest.raises(ValueError, match="decreasing"):
        ConvergenceTable(rows=(report(h=0.25), report(h=0.5)))


def test_orders_one_shorter_than_rows():
    rows = tuple(report(h=2.0 ** -k, e_u=4.0 ** -k) for k in range(1, 5))
    orders = ConvergenceTable(rows=rows).orders()
    assert all(len(v) == len(rows) - 1 for v in orders.values())
    assert np.allclose(orders["u"], 2.0)


# ---------------------------------------- commuting interpolation (S5)

def commuting(space, field):
    """The commuting residual of ``field`` on a stress space, projected
    onto its paired displacement space."""
    return check_commuting_projection(space, paired_displacement(space),
                                      field)


@pytest.mark.parametrize("family,tol", [("rt2", 1e-12), ("bdm1", 1e-12),
                                        ("rt3", 1e-10)])
@pytest.mark.parametrize("mesh_fn", [generate_square_mesh,
                                     generate_trapezoidal_mesh])
def test_commuting_residual_discrete_field(family, tol, mesh_fn):
    # a field already in the space is its own interpolant
    space = build_stress_space(mesh_fn(2), family)
    rng = np.random.RandomState(17)
    fn = FEFunction(space, rng.randn(space.n_dofs))
    assert commuting(space, fn) <= tol


def test_commuting_residual_smooth_field_rt2():
    space = build_stress_space(generate_trapezoidal_mesh(4), "rt2")
    sol = trig_solution(PARAMS)
    assert commuting(space, sol.sigma) <= 1e-10


def test_commuting_residual_is_relative_at_rt2_n64():
    # the absolute residual is 1.2e-10 here, from round-off alone
    space = build_stress_space(generate_trapezoidal_mesh(64), "rt2")
    sol = trig_solution(PARAMS)
    assert commuting(space, sol.sigma) <= 1e-10


@pytest.mark.parametrize("family", ["rt2", "bdm1"])
def test_commuting_residual_detects_flipped_sign(family):
    # the interpolant goes through the global dofs, so one edge
    # orientation the two cells disagree on is an O(1) relative residual
    space = flip_edge_sign(build_stress_space(generate_trapezoidal_mesh(4),
                                              family))
    sol = trig_solution(PARAMS)
    assert commuting(space, sol.sigma) > 1e-2


def test_commuting_residual_quadratic_field_bdm1():
    space = build_stress_space(generate_square_mesh(2), "bdm1")
    rng = np.random.RandomState(7)
    coeffs = rng.randn(2, 2, 3, 3)

    def field(x):
        out = np.empty(x.shape[:-1] + (2, 2))
        for i in range(2):
            for j in range(2):
                out[..., i, j] = np.polynomial.polynomial.polyval2d(
                    x[..., 0], x[..., 1], coeffs[i, j])
        return out

    assert commuting(space, field) <= 1e-10


# ------------------------------------------------------------- inf-sup

def test_infsup_positive_on_single_element():
    mesh = generate_square_mesh(1)
    S, V, Q = build_elasticity_spaces(mesh, "bdm1")
    system = assemble(S, V, Q, PARAMS)
    c0 = infsup_estimate(system, ynorm_gram(S, V, Q))
    assert c0 > 0.0


INFSUP_SWEEPS = [
    ("rt2", generate_square_mesh),
    ("rt2", generate_trapezoidal_mesh),
    ("bdm1", generate_square_mesh),
    ("bdm1", generate_trapezoidal_mesh),
]


@pytest.mark.parametrize("family,mesh_fn", INFSUP_SWEEPS)
def test_infsup_stable_under_refinement(family, mesh_fn):
    vals = []
    for n in (2, 4, 8):
        S, V, Q = build_elasticity_spaces(mesh_fn(n), family)
        system = assemble(S, V, Q, PARAMS)
        vals.append(infsup_estimate(system, ynorm_gram(S, V, Q)))
    vals = np.array(vals)
    assert vals.min() > 0.0
    assert (vals.max() - vals.min()) / vals.max() <= 0.20


@pytest.mark.parametrize("family,mesh_fn", INFSUP_SWEEPS)
def test_infsup_sees_constraint_blocks(family, mesh_fn):
    # With the default material the estimate sits on the compliance floor
    # 1/(2(mu+lambda)), the smallest eigenvalue the mass block alone can
    # give, at every level.  A soft material lifts that floor to 25, so the
    # smallest singular value comes from the constraint blocks Bd and Ba
    # and the refinement sweep actually tests their stability.
    soft = LameParams(mu=0.01, lam=0.01)
    floor = 1.0 / (2.0 * (soft.mu + soft.lam))
    vals = []
    for n in (4, 8):
        S, V, Q = build_elasticity_spaces(mesh_fn(n), family)
        system = assemble(S, V, Q, soft)
        vals.append(infsup_estimate(system, ynorm_gram(S, V, Q)))
    vals = np.array(vals)
    assert vals.max() < 1e-2 * floor
    assert vals.min() > 0.0
    assert (vals.max() - vals.min()) / vals.max() <= 0.20


def test_infsup_dimension_cap():
    # an empty system one unknown above the cap: the size check comes
    # before any factorization, so nothing of this size is ever assembled
    n = INFSUP_CAP + 1
    system = BlockSystem(n_sigma=n, n_v=0, n_q=0,
                         class_matrices=np.zeros((0, 0, 0)),
                         cell_class=np.zeros(0, dtype=np.int64),
                         cell_signs=np.zeros((0, 0)),
                         cell_dofs=np.zeros((0, 0), dtype=np.int64),
                         cell_leaf=np.zeros(0, dtype=np.int64),
                         rhs=np.zeros(n))
    with pytest.raises(ValueError, match="capped"):
        infsup_estimate(system, np.zeros((0, 0, 0)))


def test_ynorm_gram_positive_definite():
    S, V, Q = build_elasticity_spaces(generate_trapezoidal_mesh(2), "rt2")
    system = assemble(S, V, Q, PARAMS)
    gram = ynorm_gram(S, V, Q)
    assert gram.shape == system.class_matrices.shape
    N = gram_matrix(system, gram)
    assert N.shape == (S.n_dofs + V.n_dofs + Q.n_dofs,) * 2
    w = np.linalg.eigvalsh(N.toarray())
    assert w.min() > 0.0


@pytest.mark.parametrize("family", ["rt2", "rt3", "bdm1"])
def test_gram_cell_blocks_are_positive_definite(family):
    for seed in range(24):
        S, V, Q = build_elasticity_spaces(random_quad_mesh(seed), family)
        gram = ynorm_gram(S, V, Q)
        for b in assemble(S, V, Q, PARAMS).local_blocks:
            assert np.linalg.eigvalsh(gram[:, b, b]).min() > 0.0, seed


def test_gram_blocks_lie_on_the_cell_layout():
    # the Gram system's cell blocks are block diagonal in the order of the
    # cell matrices: stress rows against themselves, displacement
    # components, rotation; the whole-mesh oracle lays them out with zeros
    # between
    S, V, Q = build_elasticity_spaces(generate_trapezoidal_mesh(2), "bdm1")
    cells = cell_gram(assemble(S, V, Q, PARAMS), ynorm_gram(S, V, Q))
    cuts = np.cumsum([0, S.dofs.shape[2], S.dofs.shape[2], V.dofs.shape[2],
                      V.dofs.shape[2], Q.dofs.shape[2]])
    layout = np.zeros((S.mesh.n_quads, cuts[-1], cuts[-1]))
    G0, Mv0, Mq0 = einsum_gram(S, V, Q)
    for a, b, block in zip(cuts, cuts[1:], (G0, G0, Mv0, Mv0, Mq0)):
        layout[:, a:b, a:b] = block
    assert np.array_equal(cells, layout)


@pytest.mark.parametrize("family,mesh_fn", [
    ("bdm1", generate_trapezoidal_mesh), ("rt2", generate_trapezoidal_mesh),
    ("rt3", generate_square_mesh), ("rt2", jittered_square_mesh)])
def test_ynorm_gram_is_one_class_array_with_zeros_between_blocks(family,
                                                                 mesh_fn):
    S, V, Q = build_elasticity_spaces(mesh_fn(4), family)
    gram = ynorm_gram(S, V, Q)
    k = 2 * S.local_dim + 2 * V.local_dim + Q.local_dim
    assert gram.shape == (len(S.mesh.translation_classes[1]), k, k)
    inside = np.zeros((k, k), dtype=bool)
    for b in assemble(S, V, Q, PARAMS).local_blocks:
        inside[b, b] = True
    assert np.all(gram[:, ~inside] == 0.0)
    assert np.all(np.diagonal(gram, axis1=1, axis2=2) > 0.0)


@pytest.mark.parametrize("family,mesh_fn,n", [
    ("bdm1", generate_trapezoidal_mesh, 8),
    ("rt2", generate_trapezoidal_mesh, 4),
    ("rt3", generate_square_mesh, 3), ("rt2", jittered_square_mesh, 3)])
def test_infsup_gram_matrix_is_the_summed_cell_arrays(monkeypatch, family,
                                                      mesh_fn, n):
    # the Gram system's N, as the estimate applies it cell by cell and as
    # its cell blocks sum, is bit for bit the sum of the whole-mesh
    # oracle's signed cell arrays over the five local slices
    S, V, Q = build_elasticity_spaces(mesh_fn(n), family)
    system, gram = assemble(S, V, Q, PARAMS), ynorm_gram(S, V, Q)
    seen, cell_apply = {}, analysis.cell_apply

    def recording(applied, x):
        if applied.class_matrices is gram:
            seen[id(applied)] = applied
        return cell_apply(applied, x)

    monkeypatch.setattr(analysis, "cell_apply", recording)
    assert infsup_estimate(system, gram) > 0.0
    want = einsum_gram_matrix(system, S, V, Q).toarray()
    (applied,) = seen.values()
    columns = np.stack([cell_apply(applied, e) for e in np.eye(system.n)],
                       axis=1)
    for N in (columns, gram_matrix(system, gram).toarray()):
        assert np.array_equal(N, want)


def test_infsup_and_the_blocks_never_form_cell_matrices(monkeypatch):
    # M, Bd, Ba and N are summed from slices of the class matrices; the
    # (E, k, k) cell matrices are formed by nothing on the way
    S, V, Q = build_elasticity_spaces(generate_trapezoidal_mesh(4), "rt2")
    system = assemble(S, V, Q, PARAMS)
    reads, cell_matrices = [], BlockSystem.cell_matrices

    def counting(self):
        reads.append(1)
        return cell_matrices.fget(self)

    monkeypatch.setattr(BlockSystem, "cell_matrices", property(counting))
    assert infsup_estimate(system, ynorm_gram(S, V, Q)) > 0.0
    for block in (system.M, system.Bd, system.Ba, system.full_matrix()):
        assert block.nnz > 0
    assert reads == []
    system.cell_matrices  # the counter counts
    assert reads == [1]


# -------------------------------------------- solution-level residuals

@pytest.mark.parametrize("family,mesh_fn", [("rt2", generate_square_mesh),
                                            ("bdm1", generate_trapezoidal_mesh)])
def test_discrete_equilibrium(family, mesh_fn):
    sol = trig_solution(PARAMS)
    sh, uh, _, system = solve_triple(mesh_fn(4), family, sol)
    assert equilibrium_residual(sh, uh.space, sol.f) <= 1e-9


@pytest.mark.parametrize("family", ["rt2", "rt3", "bdm1"])
def test_equilibrium_residual_uses_assembly_quadrature(family, monkeypatch):
    sol = trig_solution(PARAMS)
    sh, uh, _, _ = solve_triple(generate_trapezoidal_mesh(4), family, sol)
    quad = default_quad(sh.space.element)
    assert quad == sh.space.element.n_edge_dofs + 6
    orders = record_quadrature_orders(monkeypatch)
    equilibrium_residual(sh, uh.space, sol.f)
    asymmetry_norm(sh)
    assert orders == [quad, quad]


@pytest.mark.parametrize("family", ["rt2", "rt3", "bdm1"])
def test_stress_l2_error(family, monkeypatch):
    space = build_elasticity_spaces(generate_trapezoidal_mesh(4), family)[0]

    def field(x):
        return np.broadcast_to(np.array([[2.0, -1.0], [0.5, 3.0]]),
                               x.shape[:-1] + (2, 2))

    zero = FEFunction(space, np.zeros(space.n_dofs))
    # the unit square has area 1, so the norm of a constant is its
    # Frobenius norm
    assert abs(stress_l2_error(zero, field) - np.sqrt(14.25)) <= 1e-13
    interpolant = interpolate_stress(space, field)
    orders = record_quadrature_orders(monkeypatch)
    assert stress_l2_error(interpolant, field) <= 1e-12
    assert orders == [default_quad(space.element)]


@pytest.mark.parametrize("family", ["rt2", "rt3", "bdm1"])
def test_quadrature_policy(family, monkeypatch):
    # one convergence level integrates at the assembly default and, for
    # the error norms only, at NORM_QUAD; the diagnostics at the default
    config = RunConfig(element=family, mesh_family="trapezoid", levels=(2,))
    quad = default_quad(stress_element(family))
    orders = record_quadrature_orders(monkeypatch)
    run_convergence(config)
    assert set(orders) == {quad, NORM_QUAD}
    assert orders.count(NORM_QUAD) == 1
    orders.clear()
    run_diagnostics(config)
    assert orders and set(orders) == {quad}


def test_discrete_asymmetry_orthogonality():
    # (as sigma_h, q) = 0 for every rotation basis function, scaled by ||q||
    sol = trig_solution(PARAMS)
    sh, _, _, system = solve_triple(generate_trapezoidal_mesh(4), "rt2", sol)
    S, V, Q = build_elasticity_spaces(sh.space.mesh, "rt2")
    N = gram_matrix(system, ynorm_gram(sh.space, V, Q))
    qnorms = np.sqrt(N.diagonal()[-Q.n_dofs:])
    resid = np.abs(system.Ba @ sh.coefficients)
    assert np.all(resid <= 1e-9 * qnorms)


# ----------------------------------------------------------- asymmetry

def test_asymmetry_of_patch_solution():
    patch = linear_solution(PARAMS)
    sh, _, _, _ = solve_triple(generate_trapezoidal_mesh(4), "rt2", patch)
    assert asymmetry_norm(sh) <= 1e-9


def test_asymmetry_of_interpolated_symmetric_field():
    # interpolation breaks symmetry only at the interpolation-error scale
    sol = trig_solution(PARAMS)
    vals = []
    for n in (2, 4):
        space = build_stress_space(generate_trapezoidal_mesh(n), "rt2")
        vals.append(asymmetry_norm(interpolate_stress(space, sol.sigma)))
    scale = np.sqrt(np.mean(sol.sigma(np.random.RandomState(0)
                                      .rand(200, 2)) ** 2))
    assert 0.0 < vals[0] < scale
    # second-order interpolation: halving h should cut the value by ~4
    assert vals[1] < 0.5 * vals[0]


def test_asymmetry_decreases_under_refinement():
    sol = trig_solution(PARAMS)
    vals = []
    for n in (2, 4, 8):
        sh, _, _, _ = solve_triple(generate_square_mesh(n), "rt2", sol)
        vals.append(asymmetry_norm(sh))
    assert vals[2] < vals[1] < vals[0]


# ------------------------------------------- per-cell reference oracles
#
# The loop implementations the batched diagnostics replaced.  They apply
# each dof functional on its own and pull fields back one element at a
# time with an explicit inverse Jacobian, so they share no code path with
# the batched dof weights and the adjugate pullback.

def dense_infsup(system, gram):
    """Smallest |eigenvalue| of N^(-1/2) K N^(-1/2), dense, on one BLAS
    thread."""
    K = system.full_matrix().toarray()
    N = gram_matrix(system, gram).toarray()
    with one_blas_thread():
        w, U = la.eigh(N)
        if w.min() <= 0.0:
            raise ValueError("Gram matrix is not positive definite")
        nmh = (U / np.sqrt(w)) @ U.T
        S = nmh @ K @ nmh
        S = 0.5 * (S + S.T)
        return float(np.min(np.abs(la.eigvalsh(S))))


def test_one_blas_thread_restores_the_thread_counts():
    controls = openblas_thread_controls()
    before = [get() for _, get in controls]
    with one_blas_thread():
        assert [get() for _, get in controls] == [1] * len(controls)
    assert [get() for _, get in controls] == before


def apply_dofs(elem, field, order):
    """Every dof functional of ``elem`` applied to ``field`` one by one."""
    t, w1 = gauss_rule_1d(order)
    rule = gauss_rule(order)
    x, y = rule.points[:, 0], rule.points[:, 1]
    cell = np.asarray(field(rule.points))
    edges = [np.asarray(field(EDGE_STARTS[e] + t[:, None] * EDGE_DIRS[e]))
             for e in range(4)]
    out = np.empty(elem.dim)
    for i, dof in enumerate(elem.dofs):
        if isinstance(dof, EdgeMoment):
            weight = npoly.polyval(t, shifted_legendre(dof.degree))
            out[i] = (w1 * weight) @ (edges[dof.edge] @ EDGE_NORMALS[dof.edge])
        else:
            integrand = sum(cell[:, c] * npoly.polyval2d(x, y, dof.weight[c])
                            for c in range(elem.ncomp))
            out[i] = rule.weights @ integrand
    return out


def percell_rows(sigma, corners, elem):
    """Pulled-back rows J DF^{-1} sigma_r on element ``elem``, as a callable."""

    def sighat(xhat):
        X, DF, J = geometry_at(corners[None], xhat)
        X, DF, J = X[0], DF[0], J[0]
        if isinstance(sigma, FEFunction):
            vals = on_all_cells(evaluate_batch, sigma, xhat)[elem]
        else:
            vals = np.asarray(sigma(X))
        DFinv = np.linalg.inv(DF)
        return J[..., None, None] * np.einsum("...ck,...rk->...rc",
                                              DFinv, vals)

    return sighat


def percell_interpolate(space, sigma):
    quad = default_quad(space.element)
    corners = space.mesh.element_corners()
    coef = np.zeros(space.n_dofs)
    for e in range(space.mesh.n_quads):
        sighat = percell_rows(sigma, corners[e], e)
        for rho in (0, 1):
            local = apply_dofs(space.element,
                               lambda xh, r=rho: sighat(xh)[..., r, :], quad)
            rows = rho * space.n_row_dofs + space.row_dofs[e]
            coef[rows] = local * space.row_signs[e]
    return coef


def percell_commuting(space, sigma):
    elem = space.element
    quad = default_quad(elem)
    psi_basis = q_element(elem.degree - 1).basis
    rule = gauss_rule(quad)
    t1, w1 = gauss_rule_1d(quad)
    corners = space.mesh.element_corners()
    psi = psi_basis.eval(rule.points)[..., 0]
    dpsi = polyder_gradients(psi_basis, rule.points)[:, 0]
    div_phi = elem.basis.div(rule.points)
    edge_pts = [EDGE_STARTS[j] + t1[:, None] * EDGE_DIRS[j] for j in range(4)]
    psi_edge = [psi_basis.eval(pts)[..., 0] for pts in edge_pts]
    total = scale = 0.0
    for e in range(space.mesh.n_quads):
        sighat = percell_rows(sigma, corners[e], e)
        coef = np.stack([apply_dofs(elem, lambda xh, r=rho: sighat(xh)[..., r, :],
                                    quad) for rho in (0, 1)])
        m1 = np.einsum("rk,kq,jq,q->rj", coef, div_phi, psi, rule.weights)
        m2 = -np.einsum("qrc,jcq,q->rj", sighat(rule.points), dpsi,
                        rule.weights)
        for j in range(4):
            edge_vals = sighat(edge_pts[j]) @ EDGE_NORMALS[j]
            m2 += np.einsum("qr,jq,q->rj", edge_vals, psi_edge[j], w1)
        _, _, J = geometry_at(corners[e][None], rule.points)
        mass = np.einsum("iq,jq,q->ij", psi, psi, rule.weights * J[0])
        diff = m1 - m2
        total += float(np.sum(diff * la.solve(mass, diff.T, assume_a="pos").T))
        scale += float(np.sum(m2 * la.solve(mass, m2.T, assume_a="pos").T))
    return float(np.sqrt(max(total, 0.0)) / max(np.sqrt(scale), 1.0))


def percell_jump(sigma):
    n1d = default_quad(sigma.space.element)
    mesh = sigma.space.mesh
    t, w = gauss_rule_1d(n1d)
    incidence = {}
    for q in range(mesh.n_quads):
        for j in range(4):
            e, orient = mesh.quad_edges[q, j]
            incidence.setdefault(int(e), []).append((q, j, int(orient)))
    total = 0.0
    for e, users in incidence.items():
        if len(users) != 2:
            continue
        lo, hi = mesh.edges[e]
        tang = mesh.vertices[hi] - mesh.vertices[lo]
        length = float(np.linalg.norm(tang))
        normal = np.array([tang[1], -tang[0]]) / length
        traces = []
        for q, j, orient in users:
            tloc = t if orient == 1 else 1.0 - t
            xhat = EDGE_STARTS[j] + tloc[:, None] * EDGE_DIRS[j]
            traces.append(on_all_cells(evaluate_batch, sigma, xhat)[q]
                          @ normal)
        jump = traces[0] - traces[1]
        total += length * float(w @ np.sum(jump ** 2, axis=-1))
    return float(np.sqrt(total))


def identity_field(x):
    return np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2))


def oracle_fields(space):
    """Trigonometric stress, a random discrete field and the identity."""
    rng = np.random.RandomState(5)
    return {
        "trig": trig_solution(PARAMS).sigma,
        "fefunction": FEFunction(space, rng.standard_normal(space.n_dofs)),
        "identity": identity_field,
    }


def close(batched, reference, scale=1.0, tol=1e-12):
    return abs(batched - reference) <= tol * max(abs(reference), scale)


ORACLE_CASES = [(family, mesh_fn, n)
                for family in ("rt2", "rt3", "bdm1")
                for mesh_fn in (generate_square_mesh, generate_trapezoidal_mesh)
                for n in (2, 4)]
ORACLE_IDS = [f"{f}-{m.__name__.split('_')[1]}-n{n}"
              for f, m, n in ORACLE_CASES]


@pytest.mark.parametrize("family,mesh_fn,n", ORACLE_CASES, ids=ORACLE_IDS)
def test_batched_interpolation_matches_percell(family, mesh_fn, n):
    space = build_stress_space(mesh_fn(n), family)
    for name, field in oracle_fields(space).items():
        ref = percell_interpolate(space, field)
        got = interpolate_stress(space, field).coefficients
        scale = max(np.abs(ref).max(), 1.0)
        assert np.abs(got - ref).max() <= 1e-12 * scale, name


@pytest.mark.parametrize("family,mesh_fn,n", ORACLE_CASES, ids=ORACLE_IDS)
def test_batched_commuting_matches_percell(family, mesh_fn, n):
    space = build_stress_space(mesh_fn(n), family)
    for name, field in oracle_fields(space).items():
        # the identity holds for the discrete moments of any field, so both
        # residuals are round-off of the moments, whose size the
        # interpolant's coefficients give
        scale = np.abs(interpolate_stress(space, field).coefficients).max()
        ref = percell_commuting(space, field)
        got = commuting(space, field)
        assert close(got, ref, scale), (name, got, ref)


@pytest.mark.parametrize("family,mesh_fn,n", ORACLE_CASES, ids=ORACLE_IDS)
def test_batched_jump_matches_percell(family, mesh_fn, n):
    space = build_stress_space(mesh_fn(n), family)
    fields = oracle_fields(space)
    functions = {
        "trig": interpolate_stress(space, fields["trig"]),
        "fefunction": fields["fefunction"],
        "identity": interpolate_stress(space, identity_field),
    }
    # one flipped shared-edge sign makes the jump O(1)
    functions["corrupted"] = FEFunction(flip_edge_sign(space),
                                        fields["fefunction"].coefficients)
    for name, fn in functions.items():
        ref = percell_jump(fn)
        assert close(normal_jump_norm(fn), ref), name
    assert percell_jump(functions["corrupted"]) > 1e-3


# the soft material lifts the compliance floor to 25, so the constraint
# blocks set the smallest singular value
SOFT = LameParams(mu=0.01, lam=0.01)
INFSUP_CASES = ([("bdm1", generate_square_mesh, 1, PARAMS)]
                + [case + (PARAMS,) for case in ORACLE_CASES]
                + [case + (SOFT,) for case in ORACLE_CASES])
INFSUP_IDS = (["bdm1-square-n1"] + ORACLE_IDS
              + [f"{name}-soft" for name in ORACLE_IDS])


@pytest.mark.parametrize("family,mesh_fn,n,params", INFSUP_CASES,
                         ids=INFSUP_IDS)
def test_infsup_matches_dense_oracle(family, mesh_fn, n, params):
    S, V, Q = build_elasticity_spaces(mesh_fn(n), family)
    system = assemble(S, V, Q, params)
    gram = ynorm_gram(S, V, Q)
    ref = dense_infsup(system, gram)
    assert abs(infsup_estimate(system, gram) - ref) <= 1e-10 * ref


@pytest.mark.parametrize("family,mesh_fn,n", ORACLE_CASES, ids=ORACLE_IDS)
def test_infsup_nearly_incompressible_is_compliance_floor(family, mesh_fn, n):
    # the dense oracle itself is off by up to 3.7e-9 relative here, so the
    # estimate is held to the closed-form floor 1/(2(mu + lambda)) instead
    params = LameParams.from_young_poisson(1000.0, 0.4999)
    floor = 1.0 / (2.0 * (params.mu + params.lam))
    assert abs(floor - 2.9998e-07) <= 1e-12 * floor
    S, V, Q = build_elasticity_spaces(mesh_fn(n), family)
    estimate = infsup_estimate(assemble(S, V, Q, params), ynorm_gram(S, V, Q))
    assert abs(estimate - floor) <= 1e-10 * floor


def test_infsup_is_zero_where_solve_refuses(monkeypatch):
    # every level's system has one cell's compliance negated, so its trace
    # system is not positive definite: solve refuses it, and the inf-sup
    # diagnostic must fail instead of passing on round-off estimates
    real_assemble, real_gram = cli.assemble, cli.ynorm_gram
    monkeypatch.setattr(cli, "assemble", lambda *args, **kwargs:
                        negated_cell_compliance(real_assemble(*args, **kwargs)))
    # the negated systems have one class per cell: their Gram is the
    # real system's Gram gathered to its cells
    monkeypatch.setattr(cli, "ynorm_gram", lambda *spaces: cell_gram(
        real_assemble(*spaces, PARAMS), real_gram(*spaces)))
    results = run_diagnostics(RunConfig(element="rt2", levels=(2, 4)))
    record = next(r for r in results if r.name.startswith("inf-sup"))
    assert not record.passed
    assert record.note == "estimates 0.000000e+00, 0.000000e+00"

    S, V, Q = build_elasticity_spaces(generate_trapezoidal_mesh(4), "rt2")
    system = assemble(S, V, Q, PARAMS)
    negated = negated_cell_compliance(system)
    with pytest.raises(SingularSystem, match="not positive definite"):
        solve(negated)
    # one class per cell: the Gram is gathered to those classes
    assert infsup_estimate(negated,
                           cell_gram(system, ynorm_gram(S, V, Q))) == 0.0


def test_infsup_estimate_is_deterministic():
    S, V, Q = build_elasticity_spaces(generate_trapezoidal_mesh(8), "bdm1")
    system, gram = assemble(S, V, Q, PARAMS), ynorm_gram(S, V, Q)
    assert infsup_estimate(system, gram) == infsup_estimate(system, gram)


def test_infsup_rejects_indefinite_gram():
    S, V, Q = build_elasticity_spaces(generate_square_mesh(2), "bdm1")
    system = assemble(S, V, Q, PARAMS)
    with pytest.raises(ValueError, match="not positive definite"):
        infsup_estimate(system, -ynorm_gram(S, V, Q))


def test_infsup_factors_only_the_trace_system(monkeypatch):
    # the Gram check is a batched Cholesky of the class matrices: the one
    # factorization of a global system left is the hybrid solver's trace
    # system, by its fronts
    S, V, Q = build_elasticity_spaces(generate_trapezoidal_mesh(4), "bdm1")
    system, gram = assemble(S, V, Q, PARAMS), ynorm_gram(S, V, Q)
    sizes, fronts = [], quadelast.solver._Fronts.__init__

    def recording(self, plan, *args):
        sizes.append(plan.multipliers)
        fronts(self, plan, *args)

    monkeypatch.setattr(quadelast.solver._Fronts, "__init__", recording)
    assert infsup_estimate(system, gram) > 0.0
    (size,) = sizes
    factor = HybridFactor(system)
    assert size == factor.multipliers


# bdm1 on trapezoids at n = 16 and 32, rt2 at n = 8 and rt3 at n = 4, both
# families at the soft material, the locking study's largest Poisson ratio
# and the one-cell square
ARPACK_CASES = [("bdm1", generate_trapezoidal_mesh, 16, PARAMS),
                ("bdm1", generate_trapezoidal_mesh, 32, PARAMS),
                ("rt2", generate_trapezoidal_mesh, 8, PARAMS),
                ("rt3", generate_trapezoidal_mesh, 4, PARAMS),
                ("rt2", generate_trapezoidal_mesh, 8,
                 LameParams(mu=0.01, lam=0.01)),
                ("bdm1", generate_trapezoidal_mesh, 8,
                 LameParams(mu=0.01, lam=0.01)),
                ("bdm1", generate_trapezoidal_mesh, 8,
                 LameParams.from_young_poisson(1000.0, 0.4999)),
                ("bdm1", generate_square_mesh, 1, PARAMS)]
ARPACK_IDS = ["bdm1-n16", "bdm1-n32", "rt2-n8", "rt3-n4", "rt2-n8-soft",
              "bdm1-n8-soft", "bdm1-n8-nu0.4999", "bdm1-square-n1"]


@pytest.mark.parametrize("family,mesh_fn,n,params", ARPACK_CASES,
                         ids=ARPACK_IDS)
def test_infsup_matches_the_arpack_oracle(family, mesh_fn, n, params):
    # the former estimate, ARPACK's shift-invert Lanczos on the summed N
    S, V, Q = build_elasticity_spaces(mesh_fn(n), family)
    system, gram = assemble(S, V, Q, params), ynorm_gram(S, V, Q)
    ref = arpack_infsup(system, gram)
    assert abs(infsup_estimate(system, gram) - ref) <= 1e-12 * ref


def test_infsup_rejects_one_negated_gram_block():
    S, V, Q = build_elasticity_spaces(generate_trapezoidal_mesh(4), "rt2")
    system = assemble(S, V, Q, PARAMS)
    gram = ynorm_gram(S, V, Q)
    b = system.local_blocks[0]
    gram[system.cell_class[5], b, b] *= -1.0
    with pytest.raises(ValueError, match="not positive definite"):
        infsup_estimate(system, gram)


def test_infsup_rejects_an_indefinite_block_with_positive_diagonal():
    S, V, Q = build_elasticity_spaces(generate_trapezoidal_mesh(4), "rt2")
    system = assemble(S, V, Q, PARAMS)
    gram = ynorm_gram(S, V, Q)
    G = gram[system.cell_class[5]]  # stress row 0 starts the local order
    d = G.diagonal()
    G[0, 1] = G[1, 0] = 2.0 * np.sqrt(d[0] * d[1])
    with pytest.raises(ValueError, match="not positive definite"):
        infsup_estimate(system, gram)


@pytest.mark.parametrize("array", [0, 1, 2], ids=["G", "Mv", "Mq"])
def test_infsup_rejects_a_nan_in_the_gram(array):
    # cholesky returns NaN for a NaN entry without raising, and a NaN off
    # the diagonal leaves the diagonal of the summed matrix positive
    S, V, Q = build_elasticity_spaces(generate_trapezoidal_mesh(2), "bdm1")
    system = assemble(S, V, Q, PARAMS)
    gram = ynorm_gram(S, V, Q)
    b = system.local_blocks[2 * array]
    block = gram[system.cell_class[1], b, b]
    block[0, -1] = block[-1, 0] = np.nan
    with pytest.raises(ValueError, match="not positive definite"):
        infsup_estimate(system, gram)


def test_infsup_rejects_a_dof_in_no_cell():
    # every block is positive definite, but the last rotation dof has no
    # cell: the summed Gram matrix has a zero row
    S, V, Q = build_elasticity_spaces(generate_square_mesh(2), "bdm1")
    system = assemble(S, V, Q, PARAMS)
    wider = dataclasses.replace(system, n_q=system.n_q + 1,
                                rhs=np.zeros(system.n + 1))
    with pytest.raises(ValueError, match="not positive definite"):
        infsup_estimate(wider, ynorm_gram(S, V, Q))


@pytest.mark.parametrize("gram", [
    lambda g: g[:, :-1, :-1],  # one local dof short
    lambda g: np.concatenate([g, g]),  # one class too many
    lambda g: g[0],  # one matrix, not a stack
], ids=["dof", "cell", "flat"])
def test_infsup_rejects_gram_of_another_shape(gram):
    # one cell: a stack of two matrices would broadcast against its dofs
    S, V, Q = build_elasticity_spaces(random_quad_mesh(0), "bdm1")
    system = assemble(S, V, Q, PARAMS)
    with pytest.raises(ValueError, match="shape"):
        infsup_estimate(system, gram(ynorm_gram(S, V, Q)))


def test_infsup_of_singular_system_is_zero():
    S, V, Q = build_elasticity_spaces(generate_square_mesh(2), "bdm1")
    system = assemble(S, V, Q, PARAMS)
    singular = without_asymmetry(system)
    assert infsup_estimate(singular, ynorm_gram(S, V, Q)) == 0.0
