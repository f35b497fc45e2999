"""Cell batches: every per-cell result is the same, bit for bit, whatever
``mapping.CELL_CHUNK`` is, and the transient memory of assembly and error
evaluation does not grow with the mesh."""

import tracemalloc

import numpy as np
import pytest

import quadelast.mapping
from quadelast.analysis import compute_errors
from quadelast.assembly import assemble, ynorm_gram
from quadelast.fe_space import FEFunction, build_elasticity_spaces
from quadelast.mapping import CELL_CHUNK, cell_chunks, gauss_rule, geometry_at
from quadelast.mesh import generate_square_mesh, generate_trapezoidal_mesh
from quadelast.problem import LameParams, trig_solution
from quadelast.solver import solve

SOLUTION = trig_solution(LameParams(mu=79.3, lam=123.0))

# 144 cells is more than one default chunk; none of the cell counts is a
# multiple of 7
CASES = [("rt2", generate_trapezoidal_mesh, 12),
         ("rt3", generate_square_mesh, 3),
         ("bdm1", generate_trapezoidal_mesh, 12),
         ("bdm1", generate_square_mesh, 5)]
IDS = [f"{f}-{m.__name__.split('_')[1]}-n{n}" for f, m, n in CASES]


def level(spaces):
    """Cell matrices, load, Gram blocks, solution and error report of one
    level at the current chunk size."""
    system = assemble(*spaces, SOLUTION.params, f=SOLUTION.f, g=SOLUTION.g)
    x = solve(system).solution
    fields = [FEFunction(s, c) for s, c in zip(spaces, system.split(x))]
    return (system.cell_matrices, system.rhs, ynorm_gram(*spaces), x,
            compute_errors(*fields, SOLUTION))


def test_chunks_cover_the_cells_in_order(monkeypatch):
    mesh = generate_trapezoidal_mesh(3)
    xhat = gauss_rule(2).points
    whole = geometry_at(mesh.element_corners(), xhat)
    monkeypatch.setattr(quadelast.mapping, "CELL_CHUNK", 4)
    chunks = list(cell_chunks(mesh, xhat))
    assert [(c.start, c.stop) for c, *_ in chunks] == [(0, 4), (4, 8), (8, 12)]
    assert [len(J) for *_, J in chunks] == [4, 4, 1]
    for got, want in zip(zip(*(geom for _, *geom in chunks)), whole):
        np.testing.assert_array_equal(np.concatenate(got), want)


@pytest.mark.parametrize("family,mesh_fn,n", CASES, ids=IDS)
def test_results_do_not_depend_on_the_chunk(monkeypatch, family, mesh_fn, n):
    spaces = build_elasticity_spaces(mesh_fn(n), family)
    n_cells = spaces[0].mesh.n_quads
    *reference, report = level(spaces)
    for chunk in (1, 7, CELL_CHUNK, n_cells):
        monkeypatch.setattr(quadelast.mapping, "CELL_CHUNK", chunk)
        *arrays, got = level(spaces)
        for a, b in zip(arrays, reference):
            np.testing.assert_array_equal(a, b)
        # only the order of the global error sums changes
        for name, value in vars(got).items():
            want = getattr(report, name)
            assert abs(value - want) <= 1e-14 * abs(want), (chunk, name)


def transient_peak(fn, *args, **kwargs) -> int:
    """Bytes ``fn`` allocates beyond what is still alive when it returns,
    its result included: tracemalloc's peak minus its current count."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)  # noqa: F841 -- held while counting
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current


def test_transient_memory_does_not_grow_with_the_mesh():
    # at the parent of cell batches both grew about fourfold from n = 16 to
    # n = 32 (compute_errors 10.8 -> 42.8 MB, assemble 4.7 -> 18.4 MB)
    peaks = {}
    for n in (4, 16, 32):  # n = 4 fills the caches of the reference elements
        spaces = build_elasticity_spaces(generate_trapezoidal_mesh(n), "bdm1")
        fields = [FEFunction(s, np.ones(s.n_dofs)) for s in spaces]
        peaks[n] = (transient_peak(assemble, *spaces, SOLUTION.params,
                                   f=SOLUTION.f, g=SOLUTION.g),
                    transient_peak(compute_errors, *fields, SOLUTION))
    for small, large in zip(peaks[16], peaks[32]):
        assert large <= 1.1 * small, peaks
