import dataclasses

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from quadelast.fe_space import (
    FEFunction,
    build_elasticity_spaces,
    evaluate_batch,
    evaluate_div_batch,
)
from quadelast.mapping import gauss_rule, gauss_rule_1d, geometry_at, ref_shape
from quadelast.mesh import QuadMesh, generate_trapezoidal_mesh

from helpers import interpolate, on_all_cells

IDENTITY = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
PARALLELOGRAM = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 1.0], [1.0, 1.0]])
TRAPEZOID = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.5], [0.0, 0.5]])
DILATION = 2.0 * IDENTITY  # F(xhat) = 2*xhat: grad F = 2I, J = 4


def geometry(corners, xhat):
    """Points, Jacobians and determinants on one cell, via geometry_at."""
    X, DF, J = geometry_at(corners[None], xhat)
    return X[0], DF[0], J[0]


def one_cell_mesh(corners):
    return QuadMesh(corners, np.array([[0, 1, 2, 3]]))


def row_space(stress):
    """The vector-valued H(div) space of one stress row."""
    return dataclasses.replace(stress, components=1)


def random_fields(corners, family, seed):
    """Random stress and displacement functions on a one-cell mesh."""
    S, V, _ = build_elasticity_spaces(one_cell_mesh(corners), family)
    rng = np.random.RandomState(seed)
    return (FEFunction(S, rng.uniform(-1, 1, S.n_dofs)),
            FEFunction(V, rng.uniform(-1, 1, V.n_dofs)))


def reference_values(f, z):
    """Reference-side values of ``f`` on its one cell, shape (p, rows, ncomp).

    Evaluated coefficient by coefficient with polyval2d, so ``z`` may be
    complex (for complex-step derivatives).
    """
    C = f.space.local_coefficients(f.coefficients)[:, 0]  # (rows, dim)
    x, y = z[..., 0], z[..., 1]
    phi = np.array([[P.polyval2d(x, y, c) for c in comps]
                    for comps in f.space.element.basis.coeffs])
    return np.einsum("rk,kcp->prc", C, phi)


def reference_div(f, xhat):
    """Reference-side row divergences of a Piola function, shape (p, rows)."""
    C = f.space.local_coefficients(f.coefficients)[:, 0]
    return np.einsum("rk,kp->pr", C, f.space.element.basis.div(xhat))


def rand_poly2(rng, deg):
    """Random scalar bivariate polynomial of coordinate degree <= deg."""
    c = rng.uniform(-1, 1, size=(deg + 1, deg + 1))

    def f(xhat):
        return P.polyval2d(xhat[..., 0], xhat[..., 1], c)

    f.coeffs = c
    return f


def test_identity_map():
    xhat = np.random.RandomState(0).uniform(0, 1, size=(7, 2))
    X, DF, J = geometry(IDENTITY, xhat)
    np.testing.assert_allclose(X, xhat)
    np.testing.assert_allclose(DF, np.broadcast_to(np.eye(2), (7, 2, 2)))
    np.testing.assert_allclose(J, 1.0)


def test_parallelogram_map():
    xhat = np.random.RandomState(1).uniform(0, 1, size=(5, 2))
    _, DF, J = geometry(PARALLELOGRAM, xhat)
    np.testing.assert_allclose(DF, np.broadcast_to([[2.0, 1.0], [0.0, 1.0]], (5, 2, 2)))
    np.testing.assert_allclose(J, 2.0)


def test_trapezoid_jacobian():
    # corners (0,0),(1,0),(1,1.5),(0,0.5): J(xhat) = 0.5 + xhat_1
    xhat = np.random.RandomState(2).uniform(0, 1, size=(9, 2))
    _, DF, J = geometry(TRAPEZOID, xhat)
    np.testing.assert_allclose(J, 0.5 + xhat[:, 0], atol=1e-14)
    # by hand: F(xhat) = (xhat_1, 0.5 xhat_2 + xhat_1 xhat_2), so
    # DF = [[1, 0], [xhat_2, 0.5 + xhat_1]]
    hand = np.zeros((9, 2, 2))
    hand[:, 0, 0] = 1.0
    hand[:, 1, 0] = xhat[:, 1]
    hand[:, 1, 1] = 0.5 + xhat[:, 0]
    np.testing.assert_allclose(DF, hand, atol=1e-14)
    _, _, J0 = geometry(TRAPEZOID, np.array([[0.5, 0.5]]))
    assert np.isclose(J0[0], 1.0)


def test_map_corners_and_edges():
    corners = TRAPEZOID
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    X, _, _ = geometry(corners, ref)
    np.testing.assert_allclose(X, corners, atol=1e-15)
    # edge midpoints map to chord midpoints (edges are straight)
    mid, _, _ = geometry(corners, np.array([[0.5, 0.0], [1.0, 0.5]]))
    np.testing.assert_allclose(mid[0], 0.5 * (corners[0] + corners[1]))
    np.testing.assert_allclose(mid[1], 0.5 * (corners[1] + corners[2]))


def test_nonconvex_map_rejected():
    with pytest.raises(ValueError):
        one_cell_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.3], [0.0, 1.0]]))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="longdouble is no wider than float64")
def test_geometry_round_off_does_not_grow_with_n():
    # DF (about 1/n) contracted from the absolute corners (about 1) loses
    # digits by cancellation: 1.4e-14 relative on DF and 2.2e-14 on J at
    # n = 128, against 1.9e-16 from the corners relative to the first one
    corners = generate_trapezoidal_mesh(128).element_corners()
    xhat = gauss_rule(4).points
    _, DF, J = geometry_at(corners, xhat)
    _, dN = ref_shape(xhat)
    DF_ld = np.einsum("qcj,eci->eqij", dN.astype(np.longdouble),
                      corners.astype(np.longdouble))
    J_ld = (DF_ld[..., 0, 0] * DF_ld[..., 1, 1]
            - DF_ld[..., 0, 1] * DF_ld[..., 1, 0])
    for got, exact in ((DF, DF_ld), (J, J_ld)):
        err = np.max(np.abs(got - exact)) / np.max(np.abs(exact))
        assert err <= 1e-15


def test_gauss_rule_basics():
    with pytest.raises(ValueError):
        gauss_rule(0)
    r1 = gauss_rule(1)
    np.testing.assert_allclose(r1.points, [[0.5, 0.5]])
    np.testing.assert_allclose(r1.weights, [1.0])
    for k in (1, 2, 3, 5, 8):
        r = gauss_rule(k)
        assert len(r.weights) == k * k
        assert np.all(r.weights > 0)
        assert np.isclose(r.weights.sum(), 1.0)


def test_gauss_exactness():
    r2 = gauss_rule(2)
    assert np.isclose(r2.weights @ r2.points[:, 0] ** 2, 1.0 / 3.0)
    r3 = gauss_rule(3)
    val = r3.weights @ (r3.points[:, 0] ** 4 * r3.points[:, 1] ** 4)
    assert np.isclose(val, 1.0 / 25.0, atol=1e-15)
    # order k integrates Q_{2k-1}
    rk = gauss_rule(4)
    assert np.isclose(rk.weights @ (rk.points[:, 0] ** 7 * rk.points[:, 1] ** 7),
                      1.0 / 64.0, atol=1e-15)


def test_gauss_rule_1d():
    x, w = gauss_rule_1d(3)
    assert np.isclose(w.sum(), 1.0)
    assert np.isclose(w @ x ** 5, 1.0 / 6.0)


@pytest.mark.parametrize("k", range(1, 15))
def test_gauss_rules_are_cached_read_only_and_unchanged(k):
    rule, (t, w) = gauss_rule(k), gauss_rule_1d(k)
    assert gauss_rule(k) is rule
    assert all(a is b for a, b in zip(gauss_rule_1d(k), (t, w)))
    for a in (rule.points, rule.weights, t, w):
        assert not a.flags.writeable
    # the bits of the rules as computed on every call before the cache
    x, v = np.polynomial.legendre.leggauss(k)
    x, v = 0.5 * (x + 1.0), 0.5 * v
    X, Y = np.meshgrid(x, x, indexing="ij")
    np.testing.assert_array_equal(t, x)
    np.testing.assert_array_equal(w, v)
    np.testing.assert_array_equal(rule.points,
                                  np.column_stack([X.ravel(), Y.ravel()]))
    np.testing.assert_array_equal(rule.weights, np.outer(v, v).ravel())


@pytest.mark.parametrize("F", [IDENTITY, PARALLELOGRAM, TRAPEZOID])
def test_area_identity(F):
    r = gauss_rule(2)
    _, _, J = geometry(F, r.points)
    shoelace = 0.5 * np.sum(F[:, 0] * np.roll(F[:, 1], -1) - np.roll(F[:, 0], -1) * F[:, 1])
    assert np.isclose(r.weights @ J, shoelace, atol=1e-14)


def test_transforms_identity_map():
    sigma, u = random_fields(IDENTITY, "rt2", seed=3)
    xhat = np.random.RandomState(3).uniform(0, 1, size=(6, 2))
    np.testing.assert_allclose(on_all_cells(evaluate_batch, u, xhat)[0],
                               reference_values(u, xhat)[..., 0])
    np.testing.assert_allclose(on_all_cells(evaluate_batch, sigma, xhat)[0],
                               reference_values(sigma, xhat))
    np.testing.assert_allclose(
        on_all_cells(evaluate_div_batch, sigma, xhat)[0],
        reference_div(sigma, xhat))


def test_transforms_dilation():
    sigma, u = random_fields(DILATION, "rt2", seed=4)
    v = FEFunction(row_space(sigma.space),
                   sigma.coefficients[: sigma.space.n_row_dofs])
    xhat = np.random.RandomState(4).uniform(0, 1, size=(5, 2))
    np.testing.assert_allclose(on_all_cells(evaluate_batch, u, xhat)[0],
                               reference_values(u, xhat)[..., 0])
    np.testing.assert_allclose(on_all_cells(evaluate_batch, v, xhat)[0, :, 0],
                               reference_values(v, xhat)[:, 0] / 2.0)
    np.testing.assert_allclose(on_all_cells(evaluate_batch, sigma, xhat)[0],
                               reference_values(sigma, xhat) / 2.0)
    np.testing.assert_allclose(
        on_all_cells(evaluate_div_batch, sigma, xhat)[0],
        reference_div(sigma, xhat) / 4.0)


def _phys_grad(F, ref_values_c, xhat):
    """Physical gradient of a composed scalar field by chain rule.

    ``ref_values_c`` maps complex reference points to values; the reference
    gradient is obtained by complex-step differentiation, then converted with
    grad_x = DF^{-T} grad_xhat.
    """
    h = 1e-150
    g = np.empty(xhat.shape)
    for j in range(2):
        z = xhat.astype(complex)
        z[..., j] += 1j * h
        g[..., j] = ref_values_c(z).imag / h
    _, DF, _ = geometry(F, xhat)
    return np.linalg.solve(np.swapaxes(DF, -1, -2), g[..., None])[..., 0]


@pytest.mark.parametrize("F", [PARALLELOGRAM, TRAPEZOID])
def test_commuting_curl(F):
    # curl(qhat o F^-1) = P1(curl qhat) with curl q = (dq/dy, -dq/dx); for
    # q in Q_3 the reference curl lies in RT_3, so it is an RT_3 function
    rng = np.random.RandomState(5)
    q = rand_poly2(rng, 3)
    xhat = rng.uniform(0.05, 0.95, size=(8, 2))

    grad = _phys_grad(F, q, xhat)
    lhs = np.stack([grad[:, 1], -grad[:, 0]], axis=-1)

    cy, cx = P.polyder(q.coeffs, axis=1), P.polyder(q.coeffs, axis=0)

    def curl_ref(z):
        x, y = z[..., 0], z[..., 1]
        return np.stack([P.polyval2d(x, y, cy), -P.polyval2d(x, y, cx)], axis=-1)

    space = row_space(build_elasticity_spaces(one_cell_mesh(F), "rt3")[0])
    coeffs = np.zeros(space.n_dofs)
    coeffs[space.row_dofs[0]] = (interpolate(space.element, curl_ref)
                                 * space.row_signs[0])
    rhs = on_all_cells(evaluate_batch, FEFunction(space, coeffs),
                       xhat)[0, :, 0]
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


@pytest.mark.parametrize("F", [PARALLELOGRAM, TRAPEZOID])
@pytest.mark.parametrize("matrix", [False, True])
def test_commuting_div(F, matrix):
    # div(P1 tauhat) = P2(div tauhat), row-wise for matrix fields
    tau, _ = random_fields(F, "rt3", seed=6)
    if not matrix:
        tau = FEFunction(row_space(tau.space),
                         tau.coefficients[: tau.space.n_row_dofs])
    xhat = np.random.RandomState(6).uniform(0.05, 0.95, size=(6, 2))

    def pushed_c(z):
        # complex-capable Piola push-forward (1/J) DF tauhat, row by row
        _, DF, J = geometry(F, z)
        return (np.einsum("pij,prj->pri", DF, reference_values(tau, z))
                / J[:, None, None])

    # the batched evaluation is this push-forward
    vals = on_all_cells(evaluate_batch, tau, xhat)[0]
    np.testing.assert_allclose(vals.reshape(pushed_c(xhat).shape),
                               pushed_c(xhat).real, atol=1e-13)

    # reference-coordinate gradient of the pushed field by complex step
    h = 1e-150
    grads = []
    for j in range(2):
        z = xhat.astype(complex)
        z[..., j] += 1j * h
        grads.append(pushed_c(z).imag / h)
    grad_ref = np.stack(grads, axis=-1)  # (p, rows, 2, dxhat)

    _, DF, _ = geometry(F, xhat)
    DFinv = np.linalg.inv(DF)
    grad_phys = np.einsum("prij,pjk->prik", grad_ref, DFinv)
    lhs = np.einsum("prii->pr", grad_phys)

    rhs = on_all_cells(evaluate_div_batch, tau, xhat)[0].reshape(lhs.shape)
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


@pytest.mark.parametrize("F", [PARALLELOGRAM, TRAPEZOID])
def test_integral_identities(F):
    # (P2 div tauhat, P0 what)_K = (div tauhat, what)_Khat, row by row
    sigma, u = random_fields(F, "rt2", seed=7)
    r = gauss_rule(6)
    _, _, J = geometry(F, r.points)

    div = on_all_cells(evaluate_div_batch, sigma, r.points)[0]  # (q, rows)
    w = on_all_cells(evaluate_batch, u, r.points)[0]  # (q, rows)
    divhat = reference_div(sigma, r.points)
    what = reference_values(u, r.points)[..., 0]
    for row in range(2):
        lhs = r.weights @ (div[:, row] * w[:, row] * J)
        rhs = r.weights @ (divhat[:, row] * what[:, row])
        assert np.isclose(lhs, rhs, atol=1e-12)
