import numpy as np
import pytest

from quadelast.problem import (
    LameParams,
    ManufacturedSolution,
    compliance_matrix,
    trig_solution,
)

from helpers import compliance_apply, trig_closures

MATERIAL = LameParams(mu=79.3, lam=123.0)


def trig_grad_u(x):
    """Gradient of the benchmark displacement: ``[..., i, j]`` is
    du_i/dx_j."""
    pi = np.pi
    x1, x2 = x[..., 0], x[..., 1]
    d11 = -pi * np.sin(pi * x1) * np.sin(2 * pi * x2)
    d12 = 2 * pi * np.cos(pi * x1) * np.cos(2 * pi * x2)
    d21 = pi * np.cos(pi * x1) * np.cos(pi * x2)
    d22 = -pi * np.sin(pi * x1) * np.sin(pi * x2)
    return np.stack([np.stack([d11, d12], axis=-1),
                     np.stack([d21, d22], axis=-1)], axis=-2)


def test_lame_validation():
    with pytest.raises(ValueError):
        LameParams(mu=0.0, lam=1.0)
    with pytest.raises(ValueError):
        LameParams(mu=1.0, lam=-0.1)
    LameParams(mu=1.0, lam=0.0)  # boundary of the admissible range is fine
    inf, nan = float("inf"), float("nan")
    for mu, lam in ((inf, 1.0), (1.0, inf), (nan, 1.0), (1.0, nan),
                    (1e308, 1e308), (1e-310, 1.0)):
        with pytest.raises(ValueError):
            LameParams(mu=mu, lam=lam)
    with pytest.raises(ValueError):
        LameParams.from_young_poisson(E=inf, nu=0.3)


def test_from_young_poisson():
    p = LameParams.from_young_poisson(E=1000.0, nu=0.3)
    assert np.isclose(p.mu, 1000.0 / 2.6)
    assert np.isclose(p.lam, 1000.0 * 0.3 / (1.3 * 0.4))
    # nearly incompressible value used in the locking study
    p = LameParams.from_young_poisson(E=1000.0, nu=0.4999)
    assert np.isclose(p.lam, 1000.0 * 0.4999 / (1.4999 * 0.0002), rtol=1e-12)
    assert p.lam > 1.6e6
    with pytest.raises(ValueError):
        LameParams.from_young_poisson(E=1.0, nu=0.5)


def test_compliance_identity_simple():
    A = LameParams(mu=0.5, lam=0.0)
    np.testing.assert_allclose(compliance_apply(A, np.eye(2)), np.eye(2))


def test_compliance_identity_benchmark_material():
    out = compliance_apply(MATERIAL, np.eye(2))
    # (1/158.6) * (1 - 246/404.6) = 1/404.6 on each diagonal entry
    np.testing.assert_allclose(out, np.eye(2) / 404.6)
    assert np.isclose(out[0, 0], 0.0024716, atol=1e-7)


def test_compliance_skew_part():
    skw = np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(compliance_apply(MATERIAL, skw),
                               skw / (2 * 79.3))


def test_compliance_symmetry():
    rng = np.random.RandomState(0)
    for _ in range(20):
        t, e = rng.randn(2, 2), rng.randn(2, 2)
        lhs = np.sum(compliance_apply(MATERIAL, t) * e)
        rhs = np.sum(t * compliance_apply(MATERIAL, e))
        assert np.isclose(lhs, rhs, atol=1e-14)


@pytest.mark.parametrize("params", [
    MATERIAL,
    LameParams(mu=1.0, lam=0.0),
    LameParams.from_young_poisson(1000.0, 0.4999),
])
def test_compliance_positivity(params):
    A4 = compliance_matrix(params)
    assert np.array_equal(A4, A4.T)
    ev = np.linalg.eigvalsh(A4)
    assert ev.min() > 0
    mu, lam = params.mu, params.lam
    # spectrum: 1/(2(mu+lam)) on traces, 1/(2mu) elsewhere, skew included
    expect = sorted([1 / (2 * (mu + lam)), 1 / (2 * mu), 1 / (2 * mu), 1 / (2 * mu)])
    np.testing.assert_allclose(sorted(ev), expect, rtol=1e-12)


def test_compliance_floor_at_default_material():
    # the smallest eigenvalue is the floor the inf-sup estimate returns
    # at the default material
    ev = np.linalg.eigvalsh(compliance_matrix(MATERIAL))
    assert np.isclose(ev.min(), 2.471577e-03, rtol=1e-6)
    assert np.isclose(ev.min(), 1 / (2 * (79.3 + 123.0)), rtol=1e-14)


def test_solution_point_values():
    sol = trig_solution(MATERIAL)
    assert np.isclose(sol.p(np.array([0.0, 0.0])), np.pi / 2)
    # div u at (1/2, 1/2) is -pi
    g = trig_grad_u(np.array([0.5, 0.5]))
    assert np.isclose(g[0, 0] + g[1, 1], -np.pi)
    # boundary data does not vanish on the left edge
    assert abs(sol.g(np.array([0.0, 0.25]))[0]) > 0.9


def test_sigma_symmetric():
    sol = trig_solution(MATERIAL)
    x = np.random.RandomState(1).uniform(0, 1, size=(50, 2))
    s = sol.sigma(x)
    np.testing.assert_allclose(s[..., 0, 1], s[..., 1, 0])


def test_grad_u_against_fd():
    sol = trig_solution(MATERIAL)
    rng = np.random.RandomState(2)
    x = rng.uniform(0.1, 0.9, size=(30, 2))
    h = 1e-7
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        fd = (sol.u(x + step) - sol.u(x - step)) / (2 * h)
        np.testing.assert_allclose(trig_grad_u(x)[..., j], fd, atol=1e-6)


def test_constitutive_residual():
    # A sigma + [[0, p], [-p, 0]] = grad u pointwise
    sol = trig_solution(MATERIAL)
    x = np.random.RandomState(3).uniform(0, 1, size=(1000, 2))
    p = sol.p(x)
    skw = np.zeros(x.shape[:-1] + (2, 2))
    skw[..., 0, 1] = p
    skw[..., 1, 0] = -p
    resid = compliance_apply(MATERIAL, sol.sigma(x)) + skw - trig_grad_u(x)
    assert np.abs(resid).max() < 1e-12


def test_equilibrium_fd_rate():
    # f = div sigma: centered differences converge at second order
    sol = trig_solution(MATERIAL)
    rng = np.random.RandomState(4)
    x = rng.uniform(0.2, 0.8, size=(100, 2))
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        div_fd = np.zeros(x.shape[:-1] + (2,))
        for j in range(2):
            step = np.zeros(2)
            step[j] = h
            ds = (sol.sigma(x + step) - sol.sigma(x - step)) / (2 * h)
            div_fd += ds[..., :, j]
        errs.append(np.abs(div_fd - sol.f(x)).max())
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    assert 1.9 < rate1 < 2.1 and 1.9 < rate2 < 2.1


def test_solution_carries_params():
    sol = trig_solution(LameParams(mu=2.0, lam=5.0))
    assert isinstance(sol, ManufacturedSolution)
    assert sol.params.mu == 2.0
    # sigma depends on the material: pure shear entry scales with mu
    x = np.array([0.0, 0.0])
    s_small = trig_solution(LameParams(mu=1.0, lam=5.0)).sigma(x)
    np.testing.assert_allclose(sol.sigma(x)[0, 1], 2.0 * s_small[0, 1])


@pytest.mark.parametrize("params", [
    MATERIAL,
    LameParams.from_young_poisson(1000.0, 0.3),
    LameParams.from_young_poisson(1000.0, 0.4999),
], ids=["default", "E1000-nu0.3", "E1000-nu0.4999"])
def test_trig_fields_match_independent_closures(params):
    # the closures and fields() share six sin/cos arrays; each field must
    # still equal, bit for bit, its own closure evaluated independently
    sol, oracle = trig_solution(params), trig_closures(params)
    x = np.random.default_rng(5).uniform(-0.5, 1.5, size=(7, 40, 2))
    for name in ("u", "p", "sigma", "f"):
        np.testing.assert_array_equal(getattr(sol, name)(x), oracle[name](x))
    for name, value in zip(("sigma", "f", "u", "p"), sol.fields(x)):
        np.testing.assert_array_equal(value, oracle[name](x))
    point = np.array([0.3, 0.7])  # a single point, shape (2,)
    np.testing.assert_array_equal(sol.fields(point)[0],
                                  oracle["sigma"](point))
