import dataclasses

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from quadelast.mesh import generate_square_mesh, generate_trapezoidal_mesh
from quadelast.fe_space import (
    FEFunction,
    build_elasticity_spaces,
    build_stress_space,
    evaluate_batch,
)
from quadelast.problem import LameParams, trig_solution
from quadelast.assembly import BlockSystem, assemble, default_quad
from quadelast.solver import solve
from quadelast.analysis import (
    INFSUP_CAP,
    ConvergenceTable,
    ErrorReport,
    asymmetry_norm,
    check_commuting_projection,
    compute_errors,
    equilibrium_residual,
    infsup_estimate,
    interpolate_stress,
    normal_jump_norm,
    ynorm_gram,
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

from helpers import linear_solution

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
    r = compute_errors(sh, uh, ph, patch, quad=8)
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

@pytest.mark.parametrize("family,tol", [("rt2", 1e-12), ("bdm1", 1e-12),
                                        ("rt3", 1e-10)])
@pytest.mark.parametrize("mesh_fn", [generate_square_mesh,
                                     generate_trapezoidal_mesh])
def test_commuting_residual_discrete_field(family, tol, mesh_fn):
    # a field already in the space is its own interpolant
    space = build_stress_space(mesh_fn(2), family)
    rng = np.random.RandomState(17)
    fn = FEFunction(space, rng.randn(space.n_dofs))
    assert check_commuting_projection(space, fn) <= tol


def test_commuting_residual_smooth_field_rt2():
    space = build_stress_space(generate_trapezoidal_mesh(4), "rt2")
    sol = trig_solution(PARAMS)
    assert check_commuting_projection(space, sol.sigma) <= 1e-10


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

    assert check_commuting_projection(space, field) <= 1e-10


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
    system = BlockSystem(n_sigma=n, n_v=0, n_q=0, M=sp.csr_matrix((n, n)),
                         Bd=sp.csr_matrix((0, n)), Ba=sp.csr_matrix((0, n)),
                         rhs=np.zeros(n))
    with pytest.raises(ValueError, match="capped"):
        infsup_estimate(system, sp.identity(n, format="csr"))


def test_ynorm_gram_positive_definite():
    S, V, Q = build_elasticity_spaces(generate_trapezoidal_mesh(2), "rt2")
    N = ynorm_gram(S, V, Q)
    assert N.shape == (S.n_dofs + V.n_dofs + Q.n_dofs,) * 2
    w = np.linalg.eigvalsh(N.toarray())
    assert w.min() > 0.0


# -------------------------------------------- solution-level residuals

@pytest.mark.parametrize("family,mesh_fn", [("rt2", generate_square_mesh),
                                            ("bdm1", generate_trapezoidal_mesh)])
def test_discrete_equilibrium(family, mesh_fn):
    sol = trig_solution(PARAMS)
    sh, uh, _, system = solve_triple(mesh_fn(4), family, sol)
    assert equilibrium_residual(sh, uh.space, sol.f) <= 1e-9


@pytest.mark.parametrize("family", ["rt2", "rt3", "bdm1"])
def test_equilibrium_residual_uses_assembly_quadrature(family):
    sol = trig_solution(PARAMS)
    sh, uh, _, _ = solve_triple(generate_trapezoidal_mesh(4), family, sol)
    quad = default_quad(sh.space.element)
    assert quad == sh.space.element.n_edge_dofs + 6
    assert (equilibrium_residual(sh, uh.space, sol.f)
            == equilibrium_residual(sh, uh.space, sol.f, quad=quad))


def test_discrete_asymmetry_orthogonality():
    # (as sigma_h, q) = 0 for every rotation basis function, scaled by ||q||
    sol = trig_solution(PARAMS)
    sh, _, _, system = solve_triple(generate_trapezoidal_mesh(4), "rt2", sol)
    S, V, Q = build_elasticity_spaces(sh.space.mesh, "rt2")
    qnorms = np.sqrt(ynorm_gram(sh.space, V, Q).diagonal()[-Q.n_dofs:])
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
    """Smallest |eigenvalue| of N^(-1/2) K N^(-1/2), dense."""
    K = system.full_matrix().toarray()
    N = gram.toarray() if sp.issparse(gram) else np.asarray(gram)
    w, U = la.eigh(N)
    if w.min() <= 0.0:
        raise ValueError("Gram matrix is not positive definite")
    nmh = (U / np.sqrt(w)) @ U.T
    S = nmh @ K @ nmh
    S = 0.5 * (S + S.T)
    return float(np.min(np.abs(la.eigvalsh(S))))


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
            vals = evaluate_batch(sigma, xhat)[elem]
        else:
            vals = np.asarray(sigma(X))
        DFinv = np.linalg.inv(DF)
        return J[..., None, None] * np.einsum("...ck,...rk->...rc",
                                              DFinv, vals)

    return sighat


def percell_interpolate(space, sigma, quad=10):
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


def percell_commuting(space, sigma, quad=10):
    elem = space.element
    psi_basis = q_element(elem.degree - 1).basis
    rule = gauss_rule(quad)
    t1, w1 = gauss_rule_1d(quad)
    corners = space.mesh.element_corners()
    psi = psi_basis.eval(rule.points)[..., 0]
    dpsi = np.stack(
        [npoly.polyval2d(rule.points[:, 0], rule.points[:, 1],
                         npoly.polyder(c[0], axis=axis))
         for c in psi_basis.coeffs for axis in (0, 1)]
    ).reshape(len(psi_basis.coeffs), 2, -1)
    div_phi = elem.basis.div(rule.points)
    edge_pts = [EDGE_STARTS[j] + t1[:, None] * EDGE_DIRS[j] for j in range(4)]
    psi_edge = [psi_basis.eval(pts)[..., 0] for pts in edge_pts]
    total = 0.0
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
    return float(np.sqrt(max(total, 0.0)))


def percell_jump(sigma, n1d=8):
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
            traces.append(evaluate_batch(sigma, xhat)[q] @ normal)
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
        got = check_commuting_projection(space, field)
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
    signs = space.row_signs.copy()
    signs[0, space.element.edge_dofs[1][0]] *= -1.0
    broken = dataclasses.replace(space, row_signs=signs)
    functions["corrupted"] = FEFunction(broken,
                                        fields["fefunction"].coefficients)
    for name, fn in functions.items():
        ref = percell_jump(fn)
        assert close(normal_jump_norm(fn), ref), name
    assert percell_jump(functions["corrupted"]) > 1e-3


INFSUP_CASES = [("bdm1", generate_square_mesh, 1)] + ORACLE_CASES
INFSUP_IDS = ["bdm1-square-n1"] + ORACLE_IDS


@pytest.mark.parametrize("family,mesh_fn,n", INFSUP_CASES, ids=INFSUP_IDS)
def test_infsup_matches_dense_oracle(family, mesh_fn, n):
    S, V, Q = build_elasticity_spaces(mesh_fn(n), family)
    system = assemble(S, V, Q, PARAMS)
    gram = ynorm_gram(S, V, Q)
    ref = dense_infsup(system, gram)
    assert abs(infsup_estimate(system, gram) - ref) <= 1e-10 * ref


def test_infsup_rejects_indefinite_gram():
    S, V, Q = build_elasticity_spaces(generate_square_mesh(2), "bdm1")
    system = assemble(S, V, Q, PARAMS)
    with pytest.raises(ValueError, match="not positive definite"):
        infsup_estimate(system, -ynorm_gram(S, V, Q))


def test_infsup_of_singular_system_is_zero():
    S, V, Q = build_elasticity_spaces(generate_square_mesh(2), "bdm1")
    system = assemble(S, V, Q, PARAMS)
    singular = dataclasses.replace(system, Ba=0.0 * system.Ba)
    assert infsup_estimate(singular, ynorm_gram(S, V, Q)) == 0.0
