import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from quadelast.mesh import generate_square_mesh, generate_trapezoidal_mesh
from quadelast.mapping import gauss_rule, geometry_at
from quadelast.fe_space import FEFunction, build_elasticity_spaces, evaluate_batch
from quadelast.problem import LameParams, trig_solution
from quadelast.assembly import BlockSystem, assemble
from quadelast.solver import (
    ResidualTooLarge,
    SingularSystem,
    SolverError,
    solve,
)
from quadelast.analysis import compute_errors

from helpers import linear_solution

PARAMS = LameParams(mu=79.3, lam=123.0)
TRIG = trig_solution(PARAMS)


def assembled(mesh, family="rt2", sol=TRIG, **kw):
    S, V, Q = build_elasticity_spaces(mesh, family)
    f = sol.f if sol is not None else None
    g = sol.g if sol is not None else None
    return (S, V, Q), assemble(S, V, Q, PARAMS, f=f, g=g, **kw)


def dense_solve(system):
    """Oracle: LAPACK's symmetric-indefinite solve of the dense matrix."""
    return la.solve(system.full_matrix().toarray(), system.rhs, assume_a="sym")


def relative_residual(system, x):
    K = system.full_matrix()
    return np.linalg.norm(K @ x - system.rhs) / np.linalg.norm(system.rhs)


def test_sparse_and_dense_paths_agree():
    _, system = assembled(generate_square_mesh(1), "bdm1")
    assert system.n == 19
    xs = solve(system)
    xd = dense_solve(system)
    assert xs.factorization == "sparse"
    scale = abs(xd).max()
    assert np.allclose(xs.solution, xd, rtol=1e-10, atol=1e-12 * scale)


ORACLE_CASES = [(family, mesh_fn, n, PARAMS)
                for family in ("bdm1", "rt2", "rt3")
                for mesh_fn in (generate_square_mesh, generate_trapezoidal_mesh)
                for n in (2, 4)]
ORACLE_IDS = [f"{f}-{m.__name__.split('_')[1]}-n{n}"
              for f, m, n, _ in ORACLE_CASES]
# nearly incompressible: the locking study's largest Poisson ratio
ORACLE_CASES.append(("bdm1", generate_trapezoidal_mesh, 8,
                     LameParams.from_young_poisson(1000.0, 0.4999)))
ORACLE_IDS.append("bdm1-trapezoidal-n8-nu0.4999")


@pytest.mark.parametrize("family,mesh_fn,n,params", ORACLE_CASES,
                         ids=ORACLE_IDS)
def test_solve_matches_dense_oracle(family, mesh_fn, n, params):
    S, V, Q = build_elasticity_spaces(mesh_fn(n), family)
    sol = trig_solution(params)
    system = assemble(S, V, Q, params, f=sol.f, g=sol.g)
    x = solve(system).solution
    xd = dense_solve(system)
    assert abs(x - xd).max() <= 1e-10 * abs(xd).max()


def test_residual_verified_on_report():
    _, system = assembled(generate_square_mesh(4), "rt2")
    report = solve(system)
    assert report.residual <= 1e-10
    assert np.isclose(report.residual,
                      relative_residual(system, report.solution), rtol=1e-6)
    assert relative_residual(system, dense_solve(system)) <= 1e-10


@pytest.mark.parametrize("method", ["sparse", "dense"])
def test_patch_test_reproduced_exactly(method):
    # linear displacement data: the exact triple lies in the discrete
    # spaces, so the solver and the dense oracle must return it up to
    # roundoff
    patch = linear_solution(PARAMS)
    (S, V, Q), system = assembled(generate_trapezoidal_mesh(4), "rt2", sol=patch)
    x = solve(system).solution if method == "sparse" else dense_solve(system)
    sh, uh, ph = system.split(x)
    errs = compute_errors(FEFunction(S, sh), FEFunction(V, uh),
                          FEFunction(Q, ph), patch, quad=8)
    assert errs.e_sigma <= 1e-9
    assert errs.e_div <= 1e-9
    assert errs.e_u <= 1e-9
    assert errs.e_p <= 1e-9


def test_zero_data_gives_zero_solution():
    _, system = assembled(generate_square_mesh(2), "rt2", sol=None)
    assert np.all(system.rhs == 0.0)
    for x in (solve(system).solution, dense_solve(system)):
        assert abs(x).max() <= 1e-13


def test_solver_deterministic():
    _, system = assembled(generate_trapezoidal_mesh(3), "rt2")
    a = solve(system).solution
    b = solve(system).solution
    assert np.array_equal(a, b)


def test_energy_identity():
    # x^T K x = (f, u_h) + boundary pairing; the load term is recomputed
    # by independent quadrature, which checks the assembled rhs as well
    (S, V, Q), system = assembled(generate_trapezoidal_mesh(4), "rt2")
    x = solve(system).solution
    energy = x @ (system.full_matrix() @ x)

    sh, uh, _ = system.split(x)
    rule = gauss_rule(8)
    X, _, J = geometry_at(S.mesh.element_corners(), rule.points)
    wJ = rule.weights[None, :] * J
    uvals = evaluate_batch(FEFunction(V, uh), rule.points)
    load = np.sum(wJ * np.sum(TRIG.f(X) * uvals, axis=-1))
    pairing = system.rhs[: S.n_dofs] @ sh
    assert np.isclose(energy, load + pairing, rtol=1e-9)


def test_scaling_equivariance():
    s = -2.5
    sol = TRIG
    (S, V, Q), system = assembled(generate_square_mesh(3), "rt2")
    scaled = assemble(S, V, Q, PARAMS,
                      f=lambda x: s * sol.f(x), g=lambda x: s * sol.g(x))
    x = solve(system).solution
    xs = solve(scaled).solution
    assert np.allclose(xs, s * x, rtol=1e-12, atol=1e-12 * abs(s * x).max())


def singular_system():
    # zero row in the divergence block makes the full matrix singular
    M = sp.identity(2, format="csr")
    Bd = sp.csr_matrix((1, 2))
    Ba = sp.csr_matrix(np.array([[1.0, 0.5]]))
    return BlockSystem(n_sigma=2, n_v=1, n_q=1, M=M, Bd=Bd, Ba=Ba,
                       rhs=np.ones(4))


def test_singular_system_raises_sparse():
    with pytest.raises(SingularSystem):
        solve(singular_system())


def test_exception_hierarchy():
    assert issubclass(SingularSystem, SolverError)
    assert issubclass(ResidualTooLarge, SolverError)

