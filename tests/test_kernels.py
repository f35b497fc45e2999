"""The batched contractions over the cell axis against their plain-einsum
forms.

Geometry, the Piola map, the pullback of rows and the interpolation
weights run through BLAS, whose summation order may differ from a plain
``einsum``; they must agree with it to round-off.  The unscaled Piola
values feed matrices that ``test_dofmap`` compares bit for bit, so they
must give the plain einsum's bits.
"""

import numpy as np
import pytest

from quadelast.analysis import (
    NORM_QUAD,
    _reference_dofs,
    _reference_rows,
    interpolate_stress,
)
from quadelast.assembly import default_quad
from quadelast.fe_space import FEFunction, build_stress_space, evaluate_batch
from quadelast.mapping import gauss_rule, geometry_at, piola_values
from quadelast.mesh import generate_trapezoidal_mesh
from quadelast.problem import LameParams, trig_solution

from helpers import (
    einsum_evaluate_piola,
    einsum_geometry_at,
    einsum_interpolate_stress,
    einsum_piola_values,
    einsum_reference_dofs,
    einsum_reference_rows,
    on_all_cells,
)
from test_assembly import random_quad_mesh
from test_dofmap import perturbed_mesh

FAMILIES = ["bdm1", "rt2", "rt3"]
MESHES = {
    "trapezoid-32": lambda: generate_trapezoidal_mesh(32),
    "random-cell": lambda: random_quad_mesh(seed=5),
    "perturbed": lambda: perturbed_mesh(5, seed=2),
}
SIGMA = trig_solution(LameParams(mu=79.3, lam=123.0)).sigma


def assert_close(got, expected, rtol=1e-14):
    """Max-norm difference within ``rtol`` of the largest oracle entry."""
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= rtol * np.abs(expected).max()


def random_stress(mesh, family, seed=3):
    space = build_stress_space(mesh, family)
    rng = np.random.RandomState(seed)
    return FEFunction(space, rng.standard_normal(space.n_dofs))


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_geometry_matches_einsum(mesh_name):
    corners = MESHES[mesh_name]().element_corners()
    for xhat in (gauss_rule(NORM_QUAD).points, gauss_rule(2).points):
        for got, expected in zip(geometry_at(corners, xhat),
                                 einsum_geometry_at(corners, xhat)):
            assert_close(got, expected)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_piola_values_bit_identical_to_einsum(family, mesh_name):
    mesh = MESHES[mesh_name]()
    elem = build_stress_space(mesh, family).element
    # the default rule, a lower one and the error-norm rule
    for k in (default_quad(elem), elem.degree + 3, NORM_QUAD):
        points = gauss_rule(k).points
        _, DF, _ = geometry_at(mesh.element_corners(), points)
        Phi = elem.basis.eval(points)
        assert np.array_equal(piola_values(DF[:, None], Phi),
                              einsum_piola_values(DF, Phi))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_evaluate_batch_matches_einsum(family, mesh_name):
    f = random_stress(MESHES[mesh_name](), family)
    xhat = gauss_rule(NORM_QUAD).points
    assert_close(on_all_cells(evaluate_batch, f, xhat),
                 einsum_evaluate_piola(f, xhat))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_reference_rows_match_einsum(family, mesh_name):
    mesh = MESHES[mesh_name]()
    elem = build_stress_space(mesh, family).element
    points, _ = elem.interpolation_matrix(default_quad(elem))
    for sigma in (random_stress(mesh, family), SIGMA):
        rows = on_all_cells(_reference_rows, sigma, points, mesh)
        J = geometry_at(mesh.element_corners(), points)[2]
        rows_ex, J_ex = einsum_reference_rows(sigma, mesh, points)
        assert_close(rows, rows_ex)
        assert_close(J, J_ex)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_interpolation_weights_match_einsum(family, mesh_name):
    mesh = MESHES[mesh_name]()
    space = build_stress_space(mesh, family)
    points, W = space.element.interpolation_matrix(default_quad(space.element))
    sighat, _ = einsum_reference_rows(SIGMA, mesh, points)
    assert_close(_reference_dofs(W, sighat), einsum_reference_dofs(W, sighat))
    assert_close(interpolate_stress(space, SIGMA).coefficients,
                 einsum_interpolate_stress(space, SIGMA))
