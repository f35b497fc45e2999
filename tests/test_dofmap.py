"""The edge table of the mesh and the dof map of the spaces.

Edge numbering, stress dof numbering, the boundary term and the global
matrices used to be built by per-cell Python loops and hand-written COO
lists.  Those constructions live on here as oracles: the array-built
tables and the matrices summed by ``scatter`` must match them bit for bit
(the boundary term and M to 1e-14, since their summation order changed).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from quadelast.assembly import (assemble, boundary_term, default_quad,
                                ynorm_gram)
from quadelast.fe_space import (
    build_elasticity_spaces,
    build_stress_space,
    scatter,
    unmapped_basis,
)
from quadelast.mapping import gauss_rule, gauss_rule_1d, geometry_at, ref_shape
from quadelast.mesh import (
    LOCAL_EDGES,
    QuadMesh,
    generate_square_mesh,
    generate_trapezoidal_mesh,
)
from quadelast.problem import LameParams
from quadelast.reference_elements import EDGE_DIRS, EDGE_NORMALS, EDGE_STARTS

from helpers import einsum_gram, gram_matrix
from test_assembly import random_quad_mesh

FAMILIES = ["rt2", "rt3", "bdm1"]
PARAMS = LameParams(mu=79.3, lam=123.0)
#: The default material and the most nearly incompressible locking case.
MATERIALS = (PARAMS, LameParams.from_young_poisson(1000.0, 0.4999))


def perturbed_mesh(n, seed, amplitude=0.2):
    """n x n square mesh with interior vertices moved by up to amplitude*h."""
    mesh = generate_square_mesh(n)
    rng = np.random.RandomState(seed)
    v = mesh.vertices.copy()
    inner = np.all((v > 1e-12) & (v < 1 - 1e-12), axis=1)
    v[inner] += rng.uniform(-amplitude, amplitude, (inner.sum(), 2)) / n
    return QuadMesh(v, mesh.quads)


MESHES = {
    "square": lambda: generate_square_mesh(4),
    "trapezoid": lambda: generate_trapezoidal_mesh(4),
    "random-cell": lambda: random_quad_mesh(seed=5),
    "perturbed": lambda: perturbed_mesh(5, seed=2),
}


# ---------------------------------------------------------------------------
# oracles: the per-cell constructions the array code replaced


def dict_loop_edges(quads):
    """Edges numbered by first use, one dict lookup per local edge."""
    edge_ids = {}
    quad_edges = np.empty((len(quads), 4, 2), dtype=np.int64)
    for q, quad in enumerate(quads):
        for j, (a, b) in enumerate(LOCAL_EDGES):
            va, vb = int(quad[a]), int(quad[b])
            key = (va, vb) if va < vb else (vb, va)
            e = edge_ids.setdefault(key, len(edge_ids))
            quad_edges[q, j] = (e, 1 if va < vb else -1)
    return np.array(list(edge_ids), dtype=np.int64), quad_edges


def percell_stress_dofs(mesh, elem):
    """Row dofs and signs of a space of the element ``elem``, one cell, edge
    and dof at a time."""
    r = elem.n_edge_dofs
    n_int = len(elem.interior_dofs)
    row_dofs = np.empty((mesh.n_quads, elem.dim), dtype=np.int64)
    row_signs = np.ones((mesh.n_quads, elem.dim))
    for q in range(mesh.n_quads):
        for j in range(4):
            edge, orient = mesh.quad_edges[q, j]
            for dof_i in elem.edge_dofs[j]:
                deg = elem.dofs[dof_i].degree
                row_dofs[q, dof_i] = edge * r + deg
                if orient == -1:
                    row_signs[q, dof_i] = (-1.0) ** (deg + 1)
        for k, dof_i in enumerate(elem.interior_dofs):
            row_dofs[q, dof_i] = mesh.n_edges * r + q * n_int + k
    return row_dofs, row_signs


def loop_boundary_term(stress, g, n1d):
    """Consistent Dirichlet term, one boundary edge, dof and row at a time."""
    mesh = stress.mesh
    elem = stress.element
    t, w = gauss_rule_1d(n1d)
    out = np.zeros(stress.n_dofs)
    edge_pts = [EDGE_STARTS[j] + t[:, None] * EDGE_DIRS[j] for j in range(4)]
    traces = [elem.basis.eval(edge_pts[j]) @ EDGE_NORMALS[j] for j in range(4)]
    on_boundary = np.zeros(mesh.n_edges, dtype=bool)
    on_boundary[mesh.boundary_edges()] = True
    corners = mesh.element_corners()
    for q in range(mesh.n_quads):
        for j in range(4):
            edge, _ = mesh.quad_edges[q, j]
            if not on_boundary[edge]:
                continue
            N, _ = ref_shape(edge_pts[j])
            gx = np.asarray(g(N @ corners[q]))
            for i in elem.edge_dofs[j]:
                for rho in range(2):
                    val = (w * traces[j][i]) @ gx[:, rho]
                    gidx = rho * stress.n_row_dofs + stress.row_dofs[q, i]
                    out[gidx] += stress.row_signs[q, i] * val
    return out


def coo(rows, cols, data, shape):
    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape,
    ).tocsr()


def listed_blocks(stress, disp, rot, params, quad):
    """M, Bd and Ba through per-block COO lists indexed by
    ``rho * n_row_dofs + row_dofs``."""
    rule = gauss_rule(quad)
    w = rule.weights
    nq = stress.mesh.n_quads
    _, DF, J = geometry_at(stress.mesh.element_corners(), rule.points)
    Phi = stress.element.basis.eval(rule.points)
    dPhi = stress.element.basis.div(rule.points)
    Psi = disp.element.basis.eval(rule.points)[..., 0]
    Q = unmapped_basis(rot, rule.points, slice(None))
    dimS = Phi.shape[0]
    sgn, sdof = stress.row_signs, stress.row_dofs
    vdof, qdof = disp.row_dofs, rot.row_dofs
    UPV = np.einsum("eqcx,kqx->ekqc", DF, Phi)

    mu, lam = params.mu, params.lam
    alpha = 1.0 / (2.0 * mu)
    c_tr = lam / (2.0 * mu + 2.0 * lam)
    UPVw = UPV * (w[None, :] / J)[:, None, :, None]
    Aflat = UPV.transpose(0, 1, 3, 2).reshape(nq, dimS * 2, quad * quad)
    Bflat = UPVw.transpose(0, 1, 3, 2).reshape(nq, dimS * 2, quad * quad)
    T = (Bflat @ Aflat.transpose(0, 2, 1)).reshape(
        nq, dimS, 2, dimS, 2).transpose(0, 2, 4, 1, 3)
    S0 = T[:, 0, 0] + T[:, 1, 1]
    c_iso = 1.0 / (4.0 * mu)
    rows, cols, data = [], [], []
    sign_outer = np.einsum("ei,ej->eij", sgn, sgn)

    def emit(rho, rho2, block):
        gi = rho * stress.n_row_dofs + sdof
        gj = rho2 * stress.n_row_dofs + sdof
        rows.append(np.broadcast_to(gi[:, :, None], block.shape).ravel())
        cols.append(np.broadcast_to(gj[:, None, :], block.shape).ravel())
        data.append((sign_outer * block).ravel())

    for rho in range(2):
        for rho2 in range(rho, 2):
            block = (c_iso - alpha / 2.0) * T[:, rho2, rho] \
                - (c_tr / (2.0 * mu)) * T[:, rho, rho2]
            if rho == rho2:
                block = block + (c_iso + alpha / 2.0) * S0
                block = 0.5 * (block + block.transpose(0, 2, 1))
                emit(rho, rho2, block)
            else:
                emit(rho, rho2, block)
                emit(rho2, rho, block.transpose(0, 2, 1))
    M = coo(rows, cols, data, (stress.n_dofs, stress.n_dofs))

    D0 = np.einsum("kq,mq,q->mk", dPhi, Psi, w)
    rows, cols, data = [], [], []
    for rho in range(2):
        gv = rho * disp.n_row_dofs + vdof
        gs = rho * stress.n_row_dofs + sdof
        blk = np.einsum("ek,mk->emk", sgn, D0)
        rows.append(np.broadcast_to(gv[:, :, None], blk.shape).ravel())
        cols.append(np.broadcast_to(gs[:, None, :], blk.shape).ravel())
        data.append(blk.ravel())
    Bd = coo(rows, cols, data, (disp.n_dofs, stress.n_dofs))

    rows, cols, data = [], [], []
    for rho, (comp, s_as) in enumerate([(1, 1.0), (0, -1.0)]):
        blk = s_as * np.einsum("meq,ekq,q->emk", Q, UPV[..., comp], w)
        blk *= sgn[:, None, :]
        gs = rho * stress.n_row_dofs + sdof
        rows.append(np.broadcast_to(qdof[:, :, None], blk.shape).ravel())
        cols.append(np.broadcast_to(gs[:, None, :], blk.shape).ravel())
        data.append(blk.ravel())
    Ba = coo(rows, cols, data, (rot.n_dofs, stress.n_dofs))
    return M, Bd, Ba


def block_diagonal_gram(stress, disp, rot):
    """The Gram matrix as five per-row blocks joined by ``block_diag``."""
    G, Mv, Mq = einsum_gram(stress, disp, rot)

    def per_row(blocks, row_dofs, n):
        ii = np.broadcast_to(row_dofs[:, :, None], blocks.shape)
        jj = np.broadcast_to(row_dofs[:, None, :], blocks.shape)
        return sp.coo_matrix((blocks.ravel(), (ii.ravel(), jj.ravel())),
                             shape=(n, n)).tocsr()

    G_row = per_row(G, stress.row_dofs, stress.n_row_dofs)
    Mv_row = per_row(Mv, disp.row_dofs, disp.n_row_dofs)
    Mq_row = per_row(Mq, rot.row_dofs, rot.n_row_dofs)
    return sp.block_diag([G_row, G_row, Mv_row, Mv_row, Mq_row], format="csr")


def assert_same_sparse(a, b):
    a, b = sp.csr_matrix(a), sp.csr_matrix(b)
    a.sort_indices()
    b.sort_indices()
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def assert_close_sparse(a, b, rtol):
    """Same pattern, values within ``rtol`` of the largest entry of b."""
    a, b = sp.csr_matrix(a), sp.csr_matrix(b)
    a.sort_indices()
    b.sort_indices()
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.abs(a.data - b.data).max() <= rtol * np.abs(b.data).max()


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_edge_table_matches_dict_loop(mesh_name):
    mesh = MESHES[mesh_name]()
    edges, quad_edges = dict_loop_edges(mesh.quads)
    assert mesh.edges.dtype == edges.dtype and np.array_equal(mesh.edges, edges)
    assert mesh.quad_edges.dtype == quad_edges.dtype
    assert np.array_equal(mesh.quad_edges, quad_edges)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_grid_quads_row_major(n):
    quads = generate_square_mesh(n).quads
    expected = [(j * (n + 1) + i, j * (n + 1) + i + 1,
                 (j + 1) * (n + 1) + i + 1, (j + 1) * (n + 1) + i)
                for j in range(n) for i in range(n)]
    assert quads.dtype == np.int64
    assert np.array_equal(quads, expected)


@pytest.mark.parametrize("mesh_fn", [generate_square_mesh,
                                     generate_trapezoidal_mesh])
@pytest.mark.parametrize("n", [2, 3, 6])
def test_edge_slots(mesh_fn, n):
    mesh = mesh_fn(n)
    slots = mesh.edge_slots
    assert slots.shape == (mesh.n_edges, 2)
    boundary = slots[:, 1] < 0
    assert np.all(slots[boundary, 1] == -1)
    assert len(mesh.boundary_edges()) == boundary.sum() == 4 * n
    # every local edge slot is listed exactly once, first use first
    used = slots[slots >= 0]
    assert np.array_equal(np.sort(used), np.arange(4 * mesh.n_quads))
    assert np.all(slots[~boundary, 0] < slots[~boundary, 1])
    # each slot maps back to its edge; interior edges are traversed in
    # opposite directions by their two cells
    quad, local = np.divmod(slots[~boundary], 4)
    edge = mesh.quad_edges[quad, local, 0]
    orient = mesh.quad_edges[quad, local, 1]
    interior = np.flatnonzero(~boundary)
    assert np.array_equal(edge, np.stack([interior, interior], axis=1))
    assert np.all(orient[:, 0] == -orient[:, 1])
    q0, j0 = np.divmod(slots[boundary, 0], 4)
    assert np.array_equal(mesh.quad_edges[q0, j0, 0], np.flatnonzero(boundary))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_stress_space_matches_percell_loop(family, mesh_name):
    # one builder numbers all three spaces; the displacement and rotation
    # elements have no edge dofs, so their dofs run cell by cell
    mesh = MESHES[mesh_name]()
    for S in build_elasticity_spaces(mesh, family):
        row_dofs, row_signs = percell_stress_dofs(mesh, S.element)
        assert S.row_dofs.dtype == row_dofs.dtype
        assert np.array_equal(S.row_dofs, row_dofs)
        assert np.array_equal(S.row_signs, row_signs)
        # the dof map is the row offset plus the row-local dof
        for rho in range(S.components):
            assert np.array_equal(S.dofs[rho], rho * S.n_row_dofs + row_dofs)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_local_coefficients_match_row_blocks(family, mesh_name):
    spaces = build_elasticity_spaces(MESHES[mesh_name](), family)
    rng = np.random.RandomState(7)
    for space in spaces:
        c = rng.standard_normal(space.n_dofs)
        local = space.local_coefficients(c)
        for rho in range(space.components):
            block = c[rho * space.n_row_dofs:(rho + 1) * space.n_row_dofs]
            assert np.array_equal(local[rho],
                                  block[space.row_dofs] * space.row_signs)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("g", [
    lambda x: np.broadcast_to([0.7, -0.2], x.shape[:-1] + (2,)),
    lambda x: np.stack([np.sin(3 * x[..., 1]), x[..., 0] * x[..., 1]], axis=-1),
])
def test_boundary_term_matches_loop(family, mesh_name, g):
    S = build_stress_space(MESHES[mesh_name](), family)
    expected = loop_boundary_term(S, g, default_quad(S.element))
    got = boundary_term(S, g)
    assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_matrices_match_listed_blocks(family, mesh_name):
    spaces = build_elasticity_spaces(MESHES[mesh_name](), family)
    quad = spaces[0].element.n_edge_dofs + 6
    for params in MATERIALS:
        system = assemble(*spaces, params)
        M, Bd, Ba = listed_blocks(*spaces, params, quad)
        # M is one contraction with the compliance matrix, summed in
        # another order than the hand-expanded law of the oracle
        assert_close_sparse(system.M, M, rtol=1e-14)
        assert abs(system.M - system.M.T).max() == 0.0
        assert_same_sparse(system.Bd, Bd)
        assert_same_sparse(system.Ba, Ba)
    # the Gram cell arrays, summed over the system's cell dofs of the five
    # local slices, are the oracle's matrix to the last bit
    assert_same_sparse(gram_matrix(system, ynorm_gram(*spaces)),
                       block_diagonal_gram(*spaces))


def test_load_lands_on_displacement_dofs():
    S, V, Q = build_elasticity_spaces(perturbed_mesh(3, seed=4), "rt2")
    f = lambda x: np.stack([np.cos(x[..., 0]), x[..., 1] ** 2], axis=-1)
    rhs = assemble(S, V, Q, PARAMS, f=f).rhs
    rule = gauss_rule(S.element.n_edge_dofs + 6)
    X, _, J = geometry_at(S.mesh.element_corners(), rule.points)
    psi = V.element.basis.eval(rule.points)[..., 0]
    wJ = rule.weights[None, :] * J
    for rho in range(2):
        load = np.einsum("eq,mq->em", wJ * f(X)[..., rho], psi)
        assert np.array_equal(rhs[S.n_dofs + rho * V.n_row_dofs + V.row_dofs],
                              load)


def test_scatter_sums_repeated_entries():
    values = np.arange(8.0).reshape(2, 2, 2)
    rows = np.array([[0, 1], [1, 2]])
    cols = np.array([[0, 1], [1, 0]])
    got = scatter([(values, rows, cols), (values[:1], rows[:1], rows[:1])],
                  (3, 2))
    expected = np.zeros((3, 2))
    for vals, r, c in ((values, rows, cols), (values[:1], rows[:1], rows[:1])):
        for e in range(len(vals)):
            for i in range(2):
                for j in range(2):
                    expected[r[e, i], c[e, j]] += vals[e, i, j]
    assert isinstance(got, sp.csc_matrix)
    assert np.array_equal(got.toarray(), expected)
    # row 3 and column 2 are the phantoms of a (3, 2) matrix: entries on
    # them are left out, and an index past them raises
    rows = np.array([[0, 3], [1, 2]])
    cols = np.array([[0, 2], [1, 0]])
    got = scatter([(values, rows, cols)], (3, 2))
    expected = np.zeros((3, 2))
    for e in range(2):
        for i in range(2):
            for j in range(2):
                if rows[e, i] < 3 and cols[e, j] < 2:
                    expected[rows[e, i], cols[e, j]] += values[e, i, j]
    assert isinstance(got, sp.csc_matrix)
    assert got.nnz == 5 and np.array_equal(got.toarray(), expected)
    for past in ((rows + 1, cols), (rows, cols + 1)):
        with pytest.raises(ValueError):
            scatter([(values, *past)], (3, 2))
