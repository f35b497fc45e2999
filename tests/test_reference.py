import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from quadelast.mapping import gauss_rule
from quadelast.reference_elements import (
    EDGE_DIRS,
    EDGE_NORMALS,
    EDGE_STARTS,
    bdm1_element,
    p_element,
    q_element,
    rt_element,
    shifted_legendre,
)

from helpers import interpolate, polyder_gradients

ALL_ELEMENTS = [
    rt_element(1),
    rt_element(2),
    rt_element(3),
    bdm1_element(),
    q_element(0),
    q_element(1),
    q_element(2),
    p_element(0),
    p_element(1),
    p_element(2),
]


@pytest.mark.parametrize("elem", ALL_ELEMENTS, ids=lambda e: e.name)
def test_basis_gradients_match_polyder(elem):
    pts = np.random.default_rng(3).uniform(0, 1, size=(17, 2))
    grad = elem.basis.grad(pts)
    np.testing.assert_array_equal(grad, polyder_gradients(elem.basis, pts))
    if elem.ncomp == 2:
        np.testing.assert_allclose(elem.basis.div(pts),
                                   grad[:, 0, 0] + grad[:, 1, 1],
                                   rtol=0, atol=1e-13 * np.abs(grad).max())


EVALUATED_ELEMENTS = ([rt_element(r) for r in range(1, 5)] + [bdm1_element()]
                      + [q_element(r) for r in range(4)]
                      + [p_element(r) for r in range(4)])


@pytest.mark.parametrize("shape", [(2,), (0, 2), (17, 2), (3, 5, 2)],
                         ids=str)
@pytest.mark.parametrize("elem", EVALUATED_ELEMENTS, ids=lambda e: e.name)
def test_basis_values_and_div_match_polyval2d(elem, shape):
    # the whole-array evaluation makes the same Horner steps as a
    # per-function polyval2d loop, so the bits agree
    xhat = np.random.default_rng(5).uniform(0, 1, size=shape)
    x, y = xhat[..., 0], xhat[..., 1]
    values = elem.basis.eval(xhat)
    expected = np.empty((elem.dim,) + x.shape + (elem.ncomp,))
    for k, comps in enumerate(elem.basis.coeffs):
        for c, coeffs in enumerate(comps):
            expected[k, ..., c] = P.polyval2d(x, y, coeffs)
    np.testing.assert_array_equal(values, expected)
    assert values.flags.c_contiguous
    if elem.ncomp == 2:
        expected = np.array([P.polyval2d(x, y, P.polyder(c0, axis=0))
                             + P.polyval2d(x, y, P.polyder(c1, axis=1))
                             for c0, c1 in elem.basis.coeffs])
        np.testing.assert_array_equal(elem.basis.div(xhat), expected)


def test_shifted_legendre():
    t = np.linspace(0, 1, 11)
    np.testing.assert_allclose(P.polyval(t, shifted_legendre(0)), 1.0)
    np.testing.assert_allclose(P.polyval(t, shifted_legendre(1)), 2 * t - 1)
    # orthogonality on [0,1]
    x, w = np.polynomial.legendre.leggauss(6)
    x, w = 0.5 * (x + 1), 0.5 * w
    for m in range(4):
        for k in range(4):
            v = w @ (P.polyval(x, shifted_legendre(m)) * P.polyval(x, shifted_legendre(k)))
            expect = 1.0 / (2 * m + 1) if m == k else 0.0
            assert np.isclose(v, expect, atol=1e-14)


@pytest.mark.parametrize("r,dim", [(1, 4), (2, 12), (3, 24)])
def test_rt_dimensions(r, dim):
    elem = rt_element(r)
    assert elem.dim == 2 * r * (r + 1) == dim
    assert elem.n_edge_dofs == r
    assert len(elem.interior_dofs) == dim - 4 * r


def test_rt_rejects_zero():
    with pytest.raises(ValueError):
        rt_element(0)


def test_bdm1_dimension():
    elem = bdm1_element()
    assert elem.dim == 8
    assert elem.n_edge_dofs == 2
    assert len(elem.interior_dofs) == 0
    assert elem.dof_cond < 100


@pytest.mark.parametrize("r,dim", [(0, 1), (1, 4), (2, 9)])
def test_q_dimensions(r, dim):
    assert q_element(r).dim == (r + 1) ** 2 == dim


@pytest.mark.parametrize("r,dim", [(0, 1), (1, 3), (2, 6)])
def test_p_dimensions(r, dim):
    assert p_element(r).dim == (r + 1) * (r + 2) // 2 == dim


def test_p0_equals_q0():
    np.testing.assert_allclose(p_element(0).basis.coeffs, q_element(0).basis.coeffs)


@pytest.mark.parametrize("elem", ALL_ELEMENTS, ids=lambda e: e.name)
def test_unisolvence(elem):
    D = np.empty((elem.dim, elem.dim))
    for j in range(elem.dim):
        coeffs = elem.basis.coeffs[j]

        def f(xhat, c=coeffs):
            x, y = xhat[..., 0], xhat[..., 1]
            if elem.ncomp == 1:
                return P.polyval2d(x, y, c[0])
            return np.stack([P.polyval2d(x, y, c[0]), P.polyval2d(x, y, c[1])], axis=-1)

        D[:, j] = interpolate(elem, f, order=elem.degree + 4)
    np.testing.assert_allclose(D, np.eye(elem.dim), atol=1e-12)


def div_fit_residual(elem, r):
    """Residual of a least-squares fit of the divergences in Q_{r-1},
    relative to the largest divergence value.

    The divergences are sampled on a Gauss grid with more points than
    Q_{r-1} has monomials, so a zero residual means they lie in Q_{r-1}.
    """
    pts = gauss_rule(r + 2).points
    V = np.stack([pts[:, 0] ** i * pts[:, 1] ** j
                  for i in range(r) for j in range(r)], axis=-1)
    divs = elem.basis.div(pts).T  # (npts, dim)
    coef, *_ = np.linalg.lstsq(V, divs, rcond=None)
    return abs(V @ coef - divs).max() / abs(divs).max()


@pytest.mark.parametrize("r", [1, 2, 3])
def test_rt_div_range(r):
    # div RT_r is contained in Q_{r-1}
    assert div_fit_residual(rt_element(r), r) < 1e-12


def test_bdm1_div_constant():
    # divergence of every nodal function is constant
    assert div_fit_residual(bdm1_element(), 1) < 1e-12


@pytest.mark.parametrize("elem", [rt_element(1), rt_element(2), rt_element(3),
                                  bdm1_element()], ids=lambda e: e.name)
def test_edge_trace_degree(elem):
    # normal trace on each edge is polynomial of degree <= n_edge_dofs - 1
    deg = elem.n_edge_dofs - 1
    t = np.linspace(0, 1, deg + 4)
    for e in range(4):
        pts = EDGE_STARTS[e] + t[:, None] * EDGE_DIRS[e]
        vals = elem.basis.eval(pts) @ EDGE_NORMALS[e]  # (dim, npts)
        V = np.vander(t, deg + 1)
        for k in range(elem.dim):
            resid = np.linalg.lstsq(V, vals[k], rcond=None)[1]
            if resid.size:
                assert resid[0] < 1e-20


@pytest.mark.parametrize("elem", [rt_element(1), rt_element(2), rt_element(3),
                                  bdm1_element()], ids=lambda e: e.name)
def test_edge_dof_nodality(elem):
    # edge dof (e, m) of nodal function j is delta_{ij}: the normal trace of a
    # non-edge-j function vanishes on that edge in the dual Legendre sense,
    # and functions nodal to other edges have zero trace there entirely.
    r = elem.n_edge_dofs
    for e in range(4):
        ids = elem.edge_dofs[e]
        assert len(ids) == r
        assert [elem.dofs[i].degree for i in ids] == list(range(r))
        assert all(elem.dofs[i].edge == e for i in ids)


@pytest.mark.parametrize("elem", [rt_element(2), rt_element(3), bdm1_element()],
                         ids=lambda e: e.name)
def test_contains_p1_vectors(elem):
    # each row of a P1 matrix field is representable: fit 1, x, y per component
    rule = gauss_rule(4)
    x, y = rule.points[:, 0], rule.points[:, 1]
    vals = elem.basis.eval(rule.points)  # (dim, nq, 2)
    A = (vals * np.sqrt(rule.weights)[None, :, None]).reshape(elem.dim, -1).T
    for target in [(np.ones_like(x), 0 * x), (x, 0 * x), (y, 0 * x),
                   (0 * x, np.ones_like(x)), (0 * x, x), (0 * x, y)]:
        b = (np.stack(target, axis=-1) * np.sqrt(rule.weights)[:, None]).ravel()
        c, res, *_ = np.linalg.lstsq(A, b, rcond=None)
        fitted = np.einsum("k,kqc->qc", c, vals)
        err = rule.weights @ np.sum((fitted - np.stack(target, axis=-1)) ** 2, axis=-1)
        assert err < 1e-20


@pytest.mark.parametrize("r", [0, 1, 2])
def test_scalar_elements_span(r):
    # Q_r spans all monomials x^i y^j with i,j <= r; P_r all with i+j <= r
    rule = gauss_rule(r + 2)
    x, y = rule.points[:, 0], rule.points[:, 1]
    for elem, pairs in [
        (q_element(r), [(i, j) for i in range(r + 1) for j in range(r + 1)]),
        (p_element(r), [(i, j) for i in range(r + 1) for j in range(r + 1 - i)]),
    ]:
        vals = elem.basis.eval(rule.points)[..., 0]  # (dim, nq)
        A = (vals * rule.weights[None]).T
        G = vals @ A  # Gram
        for i, j in pairs:
            target = x ** i * y ** j
            m = vals @ (rule.weights * target)
            c = np.linalg.solve(G, m)
            err = rule.weights @ (c @ vals - target) ** 2
            assert err < 1e-20
