import numpy as np
import pytest

from quadelast.mesh import QuadMesh, generate_square_mesh, generate_trapezoidal_mesh
from quadelast.mapping import gauss_rule, gauss_rule_1d, geometry_at
from quadelast.reference_elements import EDGE_DIRS, EDGE_STARTS
from quadelast.fe_space import FEFunction, build_elasticity_spaces, evaluate_batch, evaluate_div_batch
from quadelast.problem import LameParams
import quadelast.assembly as assembly
from quadelast.assembly import assemble, boundary_term, default_quad
from quadelast.analysis import interpolate_stress

from helpers import on_all_cells

PARAMS = LameParams(mu=79.3, lam=123.0)


def sheared_mesh(n, s=0.35):
    """Affine image of the square mesh: every element a parallelogram."""
    mesh = generate_square_mesh(n)
    v = mesh.vertices @ np.array([[1.0, 0.0], [s, 1.0]]).T
    return QuadMesh(v, mesh.quads)


def random_quad_mesh(seed=0, amplitude=0.2):
    """Single random convex quadrilateral."""
    rng = np.random.RandomState(seed)
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    v = square + rng.uniform(-amplitude, amplitude, size=(4, 2))
    return QuadMesh(v, np.array([[0, 1, 2, 3]]))


def spaces_and_system(mesh, family, **kw):
    S, V, Q = build_elasticity_spaces(mesh, family)
    return S, V, Q, assemble(S, V, Q, PARAMS, **kw)


@pytest.mark.parametrize("family", ["rt2", "bdm1"])
def test_full_matrix_symmetric(family):
    _, _, _, system = spaces_and_system(generate_trapezoidal_mesh(3), family)
    K = system.full_matrix()
    assert (K - K.T).nnz == 0


@pytest.mark.parametrize("family", ["bdm1", "rt2", "rt3"])
def test_blocks_are_the_summed_cell_matrices(family):
    # the derived blocks lose nothing of the cell matrices: summing the
    # whole cell matrices over cell_dofs gives the same global matrix
    _, _, _, system = spaces_and_system(generate_trapezoidal_mesh(3), family)
    A, D = system.cell_matrices, system.cell_dofs
    k = {"bdm1": 19, "rt2": 35, "rt3": 72}[family]  # 2 dimS + 2 dimV + dimQ
    assert A.shape == (9, k, k) and D.shape == (9, k)
    assert np.array_equal(A, A.transpose(0, 2, 1))
    summed = np.zeros((system.n, system.n))
    np.add.at(summed, (D[:, :, None], D[:, None, :]), A)
    K = system.full_matrix().toarray()
    assert np.abs(summed - K).max() <= 1e-14 * np.abs(K).max()


def test_single_element_bdm1_system_order():
    S, V, Q, system = spaces_and_system(generate_square_mesh(1), "bdm1")
    assert (system.n_sigma, system.n_v, system.n_q) == (16, 2, 1)
    assert system.n == 8 * 2 + 2 + 1 == 19
    assert system.full_matrix().shape == (19, 19)


def test_mass_block_positive_definite():
    _, _, _, system = spaces_and_system(generate_trapezoidal_mesh(2), "rt2")
    w = np.linalg.eigvalsh(system.M.toarray())
    assert w.min() > 0


@pytest.mark.parametrize("family", ["rt2", "bdm1"])
def test_bd_entries_are_reference_integrals(family):
    # (div tau, v) on a random quadrilateral equals the reference-square
    # integral of (div tauhat, vhat): the Jacobians cancel identically
    mesh = random_quad_mesh(seed=3)
    S, V, _, system = spaces_and_system(mesh, family)
    rule = gauss_rule(10)
    dPhi = S.element.basis.div(rule.points)          # (dimS, q)
    psi = V.element.basis.eval(rule.points)[..., 0]  # (dimV, q)
    ref = np.einsum("iq,kq,q->ik", psi, dPhi, rule.weights)

    Bd = system.Bd.toarray()
    for rho in range(2):
        for i in range(V.local_dim):
            for k in range(S.local_dim):
                row = rho * V.n_row_dofs + V.row_dofs[0, i]
                col = rho * S.n_row_dofs + S.row_dofs[0, k]
                expected = S.row_signs[0, k] * ref[i, k]
                assert abs(Bd[row, col] - expected) < 1e-12
    # no coupling between displacement components
    assert abs(Bd[: V.n_row_dofs, S.n_row_dofs:]).max() < 1e-14


@pytest.mark.parametrize("family", ["rt2", "bdm1", "rt3"])
def test_quadrature_doubling_parallelogram(family, monkeypatch):
    mesh = sheared_mesh(3)
    S, V, Q = build_elasticity_spaces(mesh, family)
    K1 = assemble(S, V, Q, PARAMS).full_matrix()
    monkeypatch.setattr(assembly, "default_quad", lambda e: 2 * (e.degree + 6))
    K2 = assemble(S, V, Q, PARAMS).full_matrix()
    assert abs(K1 - K2).max() <= 1e-12 * abs(K1).max()


@pytest.mark.parametrize("family", ["rt2", "bdm1", "rt3"])
def test_quadrature_doubling_trapezoid(family, monkeypatch):
    mesh = generate_trapezoidal_mesh(3)
    S, V, Q = build_elasticity_spaces(mesh, family)
    K1 = assemble(S, V, Q, PARAMS).full_matrix()
    monkeypatch.setattr(assembly, "default_quad", lambda e: 2 * (e.degree + 6))
    K2 = assemble(S, V, Q, PARAMS).full_matrix()
    assert abs(K1 - K2).max() <= 1e-10 * abs(K1).max()


def test_assembly_deterministic():
    mesh = generate_trapezoidal_mesh(2)
    S, V, Q = build_elasticity_spaces(mesh, "rt2")
    sol_f = lambda x: np.stack([x[..., 0], x[..., 1] ** 2], axis=-1)
    s1 = assemble(S, V, Q, PARAMS, f=sol_f)
    s2 = assemble(S, V, Q, PARAMS, f=sol_f)
    assert (s1.full_matrix() - s2.full_matrix()).nnz == 0
    assert np.array_equal(s1.rhs, s2.rhs)


def test_rhs_block_structure():
    mesh = generate_trapezoidal_mesh(2)
    S, V, Q = build_elasticity_spaces(mesh, "rt2")
    nS, nV = S.n_dofs, V.n_dofs

    zero = assemble(S, V, Q, PARAMS)
    assert np.all(zero.rhs == 0.0)

    f_only = assemble(S, V, Q, PARAMS, f=lambda x: np.ones(x.shape[:-1] + (2,)))
    assert abs(f_only.rhs[:nS]).max() == 0.0
    assert abs(f_only.rhs[nS:nS + nV]).max() > 0.0
    assert abs(f_only.rhs[nS + nV:]).max() == 0.0

    g_only = assemble(S, V, Q, PARAMS, g=lambda x: x)
    assert abs(g_only.rhs[:nS]).max() > 0.0
    assert abs(g_only.rhs[nS:]).max() == 0.0


@pytest.mark.parametrize("family", ["rt2", "bdm1"])
@pytest.mark.parametrize("g", [
    lambda x: np.broadcast_to([0.7, -0.2], x.shape[:-1] + (2,)),
    lambda x: np.stack([np.sin(x[..., 1]), x[..., 0] * x[..., 1]], axis=-1),
])
def test_boundary_term_matches_physical_edge_integrals(family, g):
    # independent oracle: integrate g . (tau n) along each physical boundary
    # edge with arclength weights, against every global basis function
    mesh = generate_trapezoidal_mesh(2)
    S = build_elasticity_spaces(mesh, family)[0]
    rhs = boundary_term(S, g, n1d=10)

    t, w = gauss_rule_1d(10)
    expected = np.zeros(S.n_dofs)
    on_boundary = set(mesh.boundary_edges())
    corners = mesh.element_corners()
    for q in range(mesh.n_quads):
        for j in range(4):
            e, _ = mesh.quad_edges[q, j]
            if int(e) not in on_boundary:
                continue
            xhat = EDGE_STARTS[j] + t[:, None] * EDGE_DIRS[j]
            X, DF, _ = geometry_at(corners[q][None], xhat)
            tang = np.einsum("qcx,x->qc", DF[0], EDGE_DIRS[j])
            speed = np.linalg.norm(tang, axis=-1)
            normal = np.stack([tang[:, 1], -tang[:, 0]], axis=-1) / speed[:, None]
            gv = np.asarray(g(X[0]))
            for dof in range(S.n_dofs):
                coeffs = np.zeros(S.n_dofs)
                coeffs[dof] = 1.0
                sig = on_all_cells(evaluate_batch, FEFunction(S, coeffs),
                                   xhat)[q]
                flux = np.einsum("qrc,qc->qr", sig, normal)
                expected[dof] += w @ (np.sum(gv * flux, axis=-1) * speed)
    assert np.allclose(rhs, expected, rtol=1e-9, atol=1e-11)


def test_boundary_term_zero_data():
    S = build_elasticity_spaces(generate_square_mesh(2), "rt2")[0]
    zero = boundary_term(S, lambda x: np.zeros(x.shape[:-1] + (2,)),
                         default_quad(S.element))
    assert np.all(zero == 0.0)


@pytest.mark.parametrize("family", ["rt2", "bdm1"])
def test_identity_field_annihilated_by_constraints(family):
    # as(I) = 0 and div(I) = 0, so the interpolated identity field sits in
    # the kernel of both constraint blocks
    mesh = generate_trapezoidal_mesh(3)
    S, V, Q, system = spaces_and_system(mesh, family)
    eye = interpolate_stress(
        S, lambda x: np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)))
    scale = abs(eye.coefficients).max()
    assert abs(system.Ba @ eye.coefficients).max() < 1e-12 * scale
    assert abs(system.Bd @ eye.coefficients).max() < 1e-12 * scale


@pytest.mark.parametrize("family", ["rt2", "bdm1"])
def test_bd_kernel_is_divergence_free(family):
    # coefficient vectors annihilated by the divergence block represent
    # stresses with pointwise-zero divergence, not just zero moments
    import scipy.linalg

    mesh = random_quad_mesh(seed=11)
    S, _, _, system = spaces_and_system(mesh, family)
    Z = scipy.linalg.null_space(system.Bd.toarray())
    assert Z.shape[1] > 0
    rng = np.random.RandomState(4)
    z = Z @ rng.randn(Z.shape[1])
    rule = gauss_rule(6)
    _, _, J = geometry_at(mesh.element_corners(), rule.points)
    div = on_all_cells(evaluate_div_batch, FEFunction(S, z), rule.points)
    val = np.sum(rule.weights[None, :] * J * np.sum(div**2, axis=-1))
    assert val <= 1e-18


def test_mismatched_meshes_rejected():
    S = build_elasticity_spaces(generate_square_mesh(2), "rt2")[0]
    _, V, Q = build_elasticity_spaces(generate_square_mesh(3), "rt2")
    with pytest.raises(ValueError, match="same mesh"):
        assemble(S, V, Q, PARAMS)
