"""The nested-dissection order of the trace system: the mesh's bisection
tree, the multiplier numbering read off it, and the fill of the factor
SuperLU computes in that order."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import quadelast.solver
from quadelast.assembly import assemble
from quadelast.fe_space import build_elasticity_spaces
from quadelast.mesh import generate_square_mesh, generate_trapezoidal_mesh
from quadelast.problem import LameParams
from quadelast.solver import HybridFactor, spd_factor

from helpers import jittered_square_mesh

PARAMS = LameParams(mu=79.3, lam=123.0)

MESHES = {"square": generate_square_mesh,
          "trapezoid": generate_trapezoidal_mesh,
          "jittered": jittered_square_mesh}


def levels(E: int) -> int:
    return max(E - 1, 0).bit_length()


@pytest.mark.parametrize("kind", sorted(MESHES))
@pytest.mark.parametrize("n", [2, 3, 5, 6, 8, 16])
def test_leaf_ids_are_unique_paths(kind, n):
    leaf = MESHES[kind](n).dissection_leaves
    assert len(np.unique(leaf)) == n * n
    assert leaf.min() >= 0 and leaf.max() < 2 ** levels(n * n)


@pytest.mark.parametrize("kind", sorted(MESHES))
@pytest.mark.parametrize("n", [3, 5, 8])
def test_first_split_is_at_the_median(kind, n):
    mesh = MESHES[kind](n)
    centroid = mesh.element_corners().mean(axis=1)
    right = mesh.dissection_leaves >> (levels(n * n) - 1) == 1
    assert np.count_nonzero(~right) == (n * n + 1) // 2
    # the split runs along the longer extent of the centroids
    axis = np.argmax(np.ptp(centroid, axis=0))
    x = centroid[:, axis]
    assert x[~right].max() <= x[right].min()


def test_regions_are_split_along_their_longer_extent():
    # a 4 x 1 strip of 8 x 8 cells: the first two cuts are vertical
    mesh = generate_square_mesh(8)
    strip = type(mesh)(mesh.vertices * [1.0, 0.25], mesh.quads)
    top = strip.dissection_leaves >> (levels(64) - 2)
    x = strip.element_corners().mean(axis=1)[:, 0]
    for quarter in range(3):
        assert x[top == quarter].max() < x[top == quarter + 1].min()


def postorder_numbering(cell_dofs, cell_leaf, L):
    """Oracle: each shared dof's node found bit by bit, the tree walked
    recursively in postorder, and a node's dofs numbered in increasing
    order after those of its two subtrees."""
    cells = {}
    for e, dofs in enumerate(cell_dofs):
        for d in dofs:
            cells.setdefault(int(d), []).append(int(cell_leaf[e]))
    at_node = {}
    for d, pair in sorted(cells.items()):
        if len(pair) == 2:
            a, b = pair
            level = next(i for i in range(L)
                         if (a >> (L - 1 - i)) != (b >> (L - 1 - i)))
            at_node.setdefault((level, a >> (L - level)), []).append(d)
    number = {}

    def visit(level, prefix):
        if level < L:
            visit(level + 1, 2 * prefix)
            visit(level + 1, 2 * prefix + 1)
            for d in at_node.get((level, prefix), []):
                number[d] = len(number)

    visit(0, 0)
    return number


@pytest.mark.parametrize("family", ["rt2", "bdm1"])
@pytest.mark.parametrize("mesh", [generate_trapezoidal_mesh(4),
                                  generate_square_mesh(5),
                                  jittered_square_mesh(6)],
                         ids=["trapezoid4", "square5", "jittered6"])
def test_multipliers_are_numbered_in_postorder(family, mesh):
    system = assemble(*build_elasticity_spaces(mesh, family), PARAMS)
    factor = HybridFactor(system)
    m = factor.multipliers
    real = factor.slot_mult != m
    # a permutation of 0 ... m-1, each tying exactly two cells
    np.testing.assert_array_equal(
        np.bincount(factor.slot_mult[real], minlength=m), np.full(m, 2))
    oracle = postorder_numbering(system.cell_dofs, system.cell_leaf,
                                 levels(mesh.n_quads))
    D = system.cell_dofs[:, factor.slots]
    assert len(oracle) == m
    for d, mult in zip(D[real], factor.slot_mult[real]):
        assert oracle[int(d)] == mult


@pytest.mark.parametrize("family", ["rt2", "rt3", "bdm1"])
def test_superlu_factors_in_the_mesh_order(family):
    system = assemble(*build_elasticity_spaces(
        generate_trapezoidal_mesh(8), family), PARAMS)
    lu = HybridFactor(system).lu
    np.testing.assert_array_equal(lu.perm_c, np.arange(lu.shape[0]))
    np.testing.assert_array_equal(lu.perm_r, lu.perm_c)


@pytest.mark.parametrize("kind", sorted(MESHES))
@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("family", ["rt2", "rt3", "bdm1"])
def test_fill_is_at_most_superlu_minimum_degree(family, n, kind,
                                                monkeypatch):
    system = assemble(*build_elasticity_spaces(MESHES[kind](n), family),
                      PARAMS)
    factored = []
    monkeypatch.setattr(quadelast.solver, "spd_factor",
                        lambda N: factored.append(N) or spd_factor(N))
    factor = HybridFactor(system)
    (S,) = factored
    mmd = spla.splu(S, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})
    assert factor.lu.nnz <= mmd.nnz
