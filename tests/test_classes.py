"""Translation classes: the system stores one unsigned matrix per class of
cells whose corners, relative to the first corner, are equal bit for bit.
The expanded cell matrices and the load are the per-cell oracle's to the
last bit, a mesh with one class per cell solves like any other, and the
assembled system and the solve's peak no longer hold E dense cell
matrices."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from quadelast.assembly import assemble, ynorm_gram
from quadelast.fe_space import build_elasticity_spaces
from quadelast.mesh import (QuadMesh, generate_square_mesh,
                            generate_trapezoidal_mesh)
from quadelast.problem import LameParams, trig_solution
from quadelast.solver import solve

from helpers import (cell_gram, einsum_gram, jittered_square_mesh,
                     monolithic_solve, percell_assemble)

SOLUTION = trig_solution(LameParams(mu=79.3, lam=123.0))

MESHES = {"square": lambda: generate_square_mesh(8),
          "trapezoid": lambda: generate_trapezoidal_mesh(8),
          "jittered": lambda: jittered_square_mesh(5)}


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_one_class_on_squares(n):
    # at the study levels, powers of two, every grid spacing is the same
    # double; linspace's 1/3 and 2/3 - 1/3 are not
    cell_class, representatives = generate_square_mesh(n).translation_classes
    assert np.array_equal(cell_class, np.zeros(n * n, dtype=int))
    assert np.array_equal(representatives, [0])


@pytest.mark.parametrize("n,count", [(2, 4), (4, 8), (8, 14), (16, 20),
                                     (32, 26)])
def test_class_count_on_trapezoids(n, count):
    mesh = generate_trapezoidal_mesh(n)
    cell_class, representatives = mesh.translation_classes
    assert len(representatives) == count
    # numbered by first cell: the representatives count up from class 0
    assert np.array_equal(cell_class[representatives], np.arange(count))
    assert np.all(np.diff(representatives) > 0)


def test_one_class_per_cell_on_a_jittered_mesh():
    mesh = jittered_square_mesh(8)
    cell_class, representatives = mesh.translation_classes
    assert np.array_equal(cell_class, np.arange(mesh.n_quads))
    assert np.array_equal(representatives, np.arange(mesh.n_quads))


def test_classes_need_bitwise_equal_corners():
    # one ulp on one interior vertex gives each of its four cells a shape
    # of its own; the other cells stay one class
    mesh = generate_square_mesh(4)
    v = mesh.vertices.copy()
    vertex = mesh.quads[5, 2]
    v[vertex, 0] = np.nextafter(v[vertex, 0], 2.0)
    cell_class, representatives = QuadMesh(v, mesh.quads).translation_classes
    touching = np.any(mesh.quads == vertex, axis=1)
    assert touching.sum() == 4 and len(representatives) == 5
    assert len(np.unique(cell_class[touching])) == 4
    assert len(np.unique(cell_class[~touching])) == 1


def test_classes_and_leaves_are_cached_and_read_only():
    mesh = generate_trapezoidal_mesh(8)
    assert mesh.translation_classes is mesh.translation_classes
    assert mesh.dissection_leaves is mesh.dissection_leaves
    for array in (*mesh.translation_classes, mesh.dissection_leaves):
        assert not array.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        mesh.translation_classes = None


@pytest.mark.parametrize("family", ["rt2", "rt3", "bdm1"])
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_expanded_cell_matrices_match_percell_oracle(family, mesh_name):
    spaces = build_elasticity_spaces(MESHES[mesh_name](), family)
    args = (*spaces, SOLUTION.params)
    system = assemble(*args, f=SOLUTION.f, g=SOLUTION.g)
    cell_matrices, rhs = percell_assemble(*args, f=SOLUTION.f, g=SOLUTION.g)
    np.testing.assert_array_equal(system.cell_matrices, cell_matrices)
    np.testing.assert_array_equal(system.rhs, rhs)
    assert len(system.class_matrices) == len(
        spaces[0].mesh.translation_classes[1])
    # the Gram system's cell blocks are the whole-mesh oracle's
    cells = cell_gram(system, ynorm_gram(*spaces))
    G, Mv, Mq = einsum_gram(*spaces)
    for b, want in zip(system.local_blocks, (G, G, Mv, Mv, Mq)):
        np.testing.assert_array_equal(cells[:, b, b], want)


@pytest.mark.parametrize("family", ["rt2", "bdm1"])
def test_jittered_solve_matches_monolithic_oracle(family):
    spaces = build_elasticity_spaces(jittered_square_mesh(6), family)
    system = assemble(*spaces, SOLUTION.params, f=SOLUTION.f, g=SOLUTION.g)
    assert len(system.class_matrices) == 36
    x = solve(system).solution
    xm = monolithic_solve(system)
    assert abs(x - xm).max() <= 1e-10 * abs(xm).max()


def traced(fn, *args, **kwargs):
    """``fn``'s result, the bytes still traced when it returns (its result
    included) and the traced peak."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def test_system_and_solve_hold_no_dense_cell_matrices():
    # rt2 trapezoid n = 32 with the trig load: E dense cell matrices alone
    # are 10 MB; with them the system held 10.1 MB and the solve's traced
    # peak was 35.8 MB
    spaces = build_elasticity_spaces(generate_trapezoidal_mesh(4), "rt2")
    solve(assemble(*spaces, SOLUTION.params, f=SOLUTION.f, g=SOLUTION.g))
    spaces = build_elasticity_spaces(generate_trapezoidal_mesh(32), "rt2")
    system, held, _ = traced(assemble, *spaces, SOLUTION.params,
                             f=SOLUTION.f, g=SOLUTION.g)
    assert held <= 2.5e6, held
    _, _, peak = traced(solve, system)
    assert peak <= 24e6, peak
