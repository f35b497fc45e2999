import numpy as np
import pytest

from quadelast.mesh import QuadMesh, generate_square_mesh, generate_trapezoidal_mesh
from quadelast.mapping import gauss_rule, gauss_rule_1d, geometry_at
from quadelast.reference_elements import EDGE_DIRS, EDGE_STARTS
from quadelast.fe_space import (
    FEFunction,
    build_displacement_space,
    build_elasticity_spaces,
    build_rotation_space,
    build_stress_space,
    evaluate_batch,
    evaluate_div_batch,
    family_order,
    grid_unknowns,
    stress_element,
    unmapped_basis,
)
from quadelast.assembly import default_quad

from helpers import on_all_cells


def perturbed_mesh(n, amplitude=0.18, seed=0):
    """Square mesh with interior vertices randomly displaced (still convex)."""
    mesh = generate_square_mesh(n)
    rng = np.random.RandomState(seed)
    v = mesh.vertices.copy()
    interior = ~(
        np.isclose(v[:, 0], 0) | np.isclose(v[:, 0], 1)
        | np.isclose(v[:, 1], 0) | np.isclose(v[:, 1], 1)
    )
    v[interior] += rng.uniform(-amplitude, amplitude, size=(interior.sum(), 2)) / n
    return QuadMesh(v, mesh.quads)


def edge_incidence(mesh):
    """Map edge index -> list of (quad, local_edge, orientation)."""
    inc = {}
    for q in range(mesh.n_quads):
        for j in range(4):
            e, s = mesh.quad_edges[q, j]
            inc.setdefault(int(e), []).append((q, j, int(s)))
    return inc


def normal_jump_sq(stress_fn, n1d=6):
    """Sum over interior edges of the squared normal-trace jump integral."""
    mesh = stress_fn.space.mesh
    t, w = gauss_rule_1d(n1d)
    total = 0.0
    for e, users in edge_incidence(mesh).items():
        if len(users) != 2:
            continue
        lo, hi = mesh.edges[e]
        tang = mesh.vertices[hi] - mesh.vertices[lo]
        length = np.linalg.norm(tang)
        normal = np.array([tang[1], -tang[0]]) / length
        traces = []
        for q, j, orient in users:
            tloc = t if orient == 1 else 1.0 - t
            xhat = EDGE_STARTS[j] + tloc[:, None] * EDGE_DIRS[j]
            # (n1d, 2, 2)
            sig = on_all_cells(evaluate_batch, stress_fn, xhat)[q]
            traces.append(sig @ normal)
        jump = traces[0] - traces[1]
        total += length * (w @ np.sum(jump**2, axis=-1))
    return total


def test_stress_dof_counts():
    mesh = generate_square_mesh(2)
    bdm = build_stress_space(mesh, "bdm1")
    assert bdm.n_row_dofs == 2 * mesh.n_edges == 24
    assert bdm.n_dofs == 48
    rt2 = build_stress_space(mesh, "rt2")
    assert rt2.n_row_dofs == 2 * 12 + 4 * 4 == 40
    assert rt2.n_dofs == 80
    single = build_stress_space(generate_square_mesh(1), "rt2")
    assert single.n_row_dofs == 2 * 4 + 4 == 12 == single.element.dim


def test_displacement_rotation_dof_counts():
    mesh = generate_square_mesh(2)
    assert build_displacement_space(mesh, 2).n_dofs == 4 * 4 * 2 == 32
    assert build_rotation_space(mesh, 2).n_dofs == 4 * 3 == 12
    assert build_displacement_space(mesh, 1).n_dofs == 8
    assert build_rotation_space(mesh, 1).n_dofs == 4


def test_family_order():
    assert family_order("rt2") == 2
    assert family_order("rt3") == 3
    assert family_order("bdm1") == 1
    # the order is the stress element's degree; the Gauss order is edge
    # moments per edge + 6: r + 6 for RT_r, 8 for BDM1
    for family, quad in (("rt2", 8), ("rt3", 9), ("bdm1", 8)):
        element = stress_element(family)
        assert family_order(family) == element.degree
        assert default_quad(element) == quad
    with pytest.raises(ValueError):
        build_stress_space(generate_square_mesh(1), "ned1")


def test_zero_coefficients():
    mesh = generate_trapezoidal_mesh(2)
    for space in build_elasticity_spaces(mesh, "rt2"):
        f = FEFunction(space, np.zeros(space.n_dofs))
        vals = on_all_cells(evaluate_batch, f, gauss_rule(2).points)
        assert np.all(vals == 0.0)


def test_identity_map_evaluation():
    # on the unit n=1 mesh the geometry map is the identity, so evaluation
    # with sign-adjusted coefficients reproduces the reference nodal basis
    mesh = generate_square_mesh(1)
    space = build_stress_space(mesh, "rt2")
    rng = np.random.RandomState(3)
    c_local = rng.randn(2, space.local_dim)
    coeffs = np.zeros(space.n_dofs)
    for rho in range(2):
        rows = rho * space.n_row_dofs + space.row_dofs[0]
        coeffs[rows] = c_local[rho] * space.row_signs[0]
    f = FEFunction(space, coeffs)
    pts = rng.uniform(0, 1, size=(5, 2))
    ref = space.element.basis.eval(pts)  # (dim, 5, 2)
    expect = np.einsum("rk,kpc->prc", c_local, ref)
    np.testing.assert_allclose(on_all_cells(evaluate_batch, f, pts)[0],
                               expect, atol=1e-13)


@pytest.mark.parametrize("family", ["rt2", "rt3", "bdm1"])
@pytest.mark.parametrize("mesh_fn", [
    lambda: generate_trapezoidal_mesh(3),
    lambda: perturbed_mesh(3),
])
def test_hdiv_conformity(family, mesh_fn):
    mesh = mesh_fn()
    space = build_stress_space(mesh, family)
    rng = np.random.RandomState(7)
    f = FEFunction(space, rng.randn(space.n_dofs))
    scale = float(np.sum(f.coefficients**2))
    assert normal_jump_sq(f) / scale < 1e-20


def test_interior_edge_dofs_shared_twice():
    mesh = generate_trapezoidal_mesh(3)
    space = build_stress_space(mesh, "rt2")
    r = space.element.n_edge_dofs
    counts = np.zeros(space.n_row_dofs, dtype=int)
    for q in range(mesh.n_quads):
        for k in range(space.local_dim):
            counts[space.row_dofs[q, k]] += 1
    n_interior_edges = mesh.n_edges - len(mesh.boundary_edges())
    assert np.sum(counts[: mesh.n_edges * r] == 2) == n_interior_edges * r
    assert np.all(counts[mesh.n_edges * r:] == 1)


@pytest.mark.parametrize("family", ["rt2", "rt3", "bdm1"])
@pytest.mark.parametrize("mesh_fn", [
    lambda: generate_trapezoidal_mesh(2),
    lambda: perturbed_mesh(2, seed=5),
])
def test_identity_representability(family, mesh_fn):
    # the constant identity matrix field lies in the stress space
    mesh = mesh_fn()
    space = build_stress_space(mesh, family)
    rule = gauss_rule(6)
    Phi = space.element.basis.eval(rule.points)  # (dim, q, 2)
    corners = space.mesh.element_corners()
    _, DF, J = geometry_at(corners, rule.points)
    # Piola values per element: (e, dim, q, 2)
    PV = np.einsum("eqcx,kqx->ekqc", DF, Phi) / J[:, None, :, None]
    wJ = rule.weights[None, :] * J  # (e, q)

    n = space.n_row_dofs
    G = np.zeros((n, n))
    m = np.zeros((2, n))
    for e in range(mesh.n_quads):
        dofs = space.row_dofs[e]
        signs = space.row_signs[e]
        local = np.einsum("kqc,lqc,q->kl", PV[e], PV[e], wJ[e])
        G[np.ix_(dofs, dofs)] += np.outer(signs, signs) * local
        for rho in range(2):
            m[rho, dofs] += signs * np.einsum("kq,q->k", PV[e][:, :, rho], wJ[e])
    coeffs = np.concatenate([np.linalg.solve(G, m[0]), np.linalg.solve(G, m[1])])

    f = FEFunction(space, coeffs)
    vals = on_all_cells(evaluate_batch, f, rule.points)  # (e, q, 2, 2)
    diff = vals - np.eye(2)
    resid = float(np.sum(wJ * np.sum(diff**2, axis=(-2, -1))))
    assert resid < 1e-10  # comfortably ~1e-25 in practice


@pytest.mark.parametrize("family", ["rt2", "rt3", "bdm1"])
@pytest.mark.parametrize("mesh_fn", [generate_square_mesh,
                                     generate_trapezoidal_mesh])
def test_grid_unknowns_count_the_built_spaces(family, mesh_fn):
    for n in range(1 if mesh_fn is generate_square_mesh else 2, 17):
        spaces = build_elasticity_spaces(mesh_fn(n), family)
        assert grid_unknowns(family, n) == sum(s.n_dofs for s in spaces)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_rotation_space_unmapped_span(r):
    # the rotation basis spans exactly P_{r-1} in physical coordinates
    mesh = generate_trapezoidal_mesh(2)
    space = build_rotation_space(mesh, r)
    rng = np.random.RandomState(11)
    cpoly = rng.randn(r, r)
    for i in range(r):
        for j in range(r):
            if i + j > r - 1:
                cpoly[i, j] = 0.0
    xhat = rng.uniform(0, 1, size=(space.element.dim + 4, 2))
    X, _, _ = geometry_at(mesh.element_corners(), xhat)
    target = np.polynomial.polynomial.polyval2d(X[..., 0], X[..., 1], cpoly)

    basis = unmapped_basis(space, X, slice(None))  # (dim, nq, npts)
    coeffs = np.zeros(space.n_dofs)
    for e in range(mesh.n_quads):
        A = basis[:, e].T
        sol, res, rank, _ = np.linalg.lstsq(A, target[e], rcond=None)
        coeffs[space.row_dofs[e]] = sol
        assert rank == space.element.dim
    f = FEFunction(space, coeffs)
    np.testing.assert_allclose(on_all_cells(evaluate_batch, f, xhat),
                               target, atol=1e-11)


def test_displacement_evaluation_compose():
    # compose mapping: physical value equals the reference polynomial value
    mesh = generate_trapezoidal_mesh(2)
    space = build_displacement_space(mesh, 2)
    rng = np.random.RandomState(13)
    f = FEFunction(space, rng.randn(space.n_dofs))
    xhat = rng.uniform(0, 1, size=(4, 2))
    vals = on_all_cells(evaluate_batch, f, xhat)
    assert vals.shape == (mesh.n_quads, 4, 2)
    e = 1
    ref = space.element.basis.eval(xhat)[..., 0]
    C = space.local_coefficients(f.coefficients)
    expect = np.einsum("rk,kp->pr", C[:, e], ref)
    np.testing.assert_allclose(vals[e], expect)


def test_div_evaluation_against_fd():
    # divergence via P2 matches centered finite differences of the field
    mesh = generate_trapezoidal_mesh(2)
    space = build_stress_space(mesh, "rt2")
    rng = np.random.RandomState(17)
    f = FEFunction(space, rng.randn(space.n_dofs))
    e = 2
    xhat0 = np.array([[0.4, 0.55]])
    div = on_all_cells(evaluate_div_batch, f, xhat0)[e, 0]

    # physical-coordinate finite differences need the inverse map; instead
    # use reference-coordinate steps mapped through the Jacobian
    h = 1e-6
    grad_ref = np.empty((2, 2, 2))  # d(sigma row i, comp c)/d xhat_j
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        sp = on_all_cells(evaluate_batch, f, xhat0 + step)[e, 0]
        sm = on_all_cells(evaluate_batch, f, xhat0 - step)[e, 0]
        grad_ref[..., j] = (sp - sm) / (2 * h)
    _, DF, _ = geometry_at(mesh.element_corners()[e][None], xhat0)
    grad_phys = grad_ref @ np.linalg.inv(DF[0, 0])
    fd_div = np.array([grad_phys[0, 0, 0] + grad_phys[0, 1, 1],
                       grad_phys[1, 0, 0] + grad_phys[1, 1, 1]])
    np.testing.assert_allclose(div, fd_div, atol=1e-5)


def test_div_requires_piola():
    mesh = generate_square_mesh(2)
    space = build_displacement_space(mesh, 2)
    f = FEFunction(space, np.zeros(space.n_dofs))
    with pytest.raises(ValueError):
        on_all_cells(evaluate_div_batch, f, np.array([0.5, 0.5]))
