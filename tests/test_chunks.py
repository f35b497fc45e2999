"""Cell batches: cell matrices, load, Gram matrices and solutions are the
same, bit for bit, whatever ``mapping.CELL_CHUNK`` is, errors, interpolants
and diagnostics agree to round-off, and the transient memory of assembly,
error evaluation and the diagnostics does not grow with the mesh."""

import tracemalloc

import numpy as np
import pytest

import quadelast.mapping
from quadelast.analysis import (
    asymmetry_norm,
    check_commuting_projection,
    compute_errors,
    equilibrium_residual,
    interpolate_stress,
    normal_jump_norm,
    stress_l2_error,
)
from quadelast.assembly import assemble, ynorm_gram
from quadelast.fe_space import FEFunction, build_elasticity_spaces
from quadelast.mapping import CELL_CHUNK, cell_chunks, gauss_rule, geometry_at
from quadelast.mesh import generate_square_mesh, generate_trapezoidal_mesh
from quadelast.problem import LameParams, trig_solution
from quadelast.solver import solve

from helpers import flip_edge_sign

SOLUTION = trig_solution(LameParams(mu=79.3, lam=123.0))

# 144 cells is more than one default chunk; none of the cell counts is a
# multiple of 7
CASES = [("rt2", generate_trapezoidal_mesh, 12),
         ("rt3", generate_square_mesh, 3),
         ("rt3", generate_trapezoidal_mesh, 12),
         ("bdm1", generate_trapezoidal_mesh, 12),
         ("bdm1", generate_square_mesh, 5)]
IDS = [f"{f}-{m.__name__.split('_')[1]}-n{n}" for f, m, n in CASES]


def level(spaces):
    """Cell matrices, load, Gram class matrices, solution and error report
    of one level at the current chunk size."""
    system = assemble(*spaces, SOLUTION.params, f=SOLUTION.f, g=SOLUTION.g)
    x = solve(system).solution
    fields = [FEFunction(s, c) for s, c in zip(spaces, system.split(x))]
    return (system.cell_matrices, system.rhs, ynorm_gram(*spaces), x,
            compute_errors(*fields, SOLUTION))


def diagnostics(stress, disp):
    """The interpolant's coefficients and the five norm diagnostics at the
    current chunk size, the norms each of a field whose values are O(1):
    random coefficients on a stress space with one edge orientation
    flipped, so that its normal jump and commuting residual are O(1) too."""
    flipped = flip_edge_sign(stress)
    fn = FEFunction(flipped,
                    np.random.RandomState(0).standard_normal(stress.n_dofs))
    return (interpolate_stress(stress, SOLUTION.sigma).coefficients,
            (check_commuting_projection(flipped, disp, SOLUTION.sigma),
             equilibrium_residual(fn, disp, SOLUTION.f),
             stress_l2_error(fn, SOLUTION.sigma),
             asymmetry_norm(fn),
             normal_jump_norm(fn)))


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
    coef, norms = diagnostics(*spaces[:2])
    for chunk in (1, 7, CELL_CHUNK, n_cells):
        monkeypatch.setattr(quadelast.mapping, "CELL_CHUNK", chunk)
        *arrays, got = level(spaces)
        for a, b in zip(arrays, reference):
            np.testing.assert_array_equal(a, b)
        # only the order of the global error sums changes
        for name, value in vars(got).items():
            want = getattr(report, name)
            assert abs(value - want) <= 1e-14 * abs(want), (chunk, name)
        # the interpolation dofs are one BLAS contraction per chunk, whose
        # bits depend on how many cells it holds
        got_coef, got_norms = diagnostics(*spaces[:2])
        assert np.abs(got_coef - coef).max() <= 1e-14 * np.abs(coef).max()
        for i, (value, want) in enumerate(zip(got_norms, norms)):
            assert abs(value - want) <= 1e-14 * abs(want), (chunk, i)


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
    # on the whole mesh at once all of them grew about fourfold from n = 16
    # to n = 32 (compute_errors 10.8 -> 42.8 MB, assemble 4.7 -> 18.4 MB,
    # asymmetry_norm 3.4 -> 13.3 MB, equilibrium_residual 2.9 -> 11.3 MB,
    # stress_l2_error 3.7 -> 14.7 MB, check_commuting_projection 4.7 ->
    # 18.9 MB)
    peaks = {}
    for n in (4, 16, 32):  # n = 4 fills the caches of the reference elements
        spaces = build_elasticity_spaces(generate_trapezoidal_mesh(n), "bdm1")
        fields = [FEFunction(s, np.ones(s.n_dofs)) for s in spaces]
        peaks[n] = (transient_peak(assemble, *spaces, SOLUTION.params,
                                   f=SOLUTION.f, g=SOLUTION.g),
                    transient_peak(compute_errors, *fields, SOLUTION),
                    transient_peak(asymmetry_norm, fields[0]),
                    transient_peak(equilibrium_residual, fields[0], spaces[1],
                                   SOLUTION.f),
                    transient_peak(stress_l2_error, fields[0], SOLUTION.sigma),
                    transient_peak(check_commuting_projection, *spaces[:2],
                                   SOLUTION.sigma))
    for small, large in zip(peaks[16], peaks[32]):
        assert large <= 1.1 * small, peaks
