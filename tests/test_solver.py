import dataclasses

import numpy as np
import pytest
import scipy.linalg as la

import quadelast.assembly
import quadelast.fe_space
import quadelast.solver
from quadelast import cli

from quadelast.mesh import generate_square_mesh, generate_trapezoidal_mesh
from quadelast.mapping import gauss_rule, geometry_at
from quadelast.fe_space import FEFunction, build_elasticity_spaces, evaluate_batch
from quadelast.problem import LameParams, trig_solution
from quadelast.assembly import BlockSystem, assemble
from quadelast.solver import (
    HybridFactor,
    ResidualTooLarge,
    SingularSystem,
    SolverError,
    cell_apply,
    solve,
)
from quadelast.analysis import compute_errors, infsup_estimate
from quadelast.assembly import ynorm_gram

from helpers import (cell_traces, jittered_square_mesh, linear_solution,
                     monolithic_solve, negated_cell_compliance, norm,
                     on_all_cells, read_grid_mesh, superlu_trace_factor,
                     whole_height_eliminate)

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
    return norm(K @ x - system.rhs) / norm(system.rhs)


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


MONOLITHIC_CASES = [(family, mesh_fn, n, params)
                    for family in ("bdm1", "rt2", "rt3")
                    for mesh_fn in (generate_square_mesh,
                                    generate_trapezoidal_mesh)
                    for n in (2, 4, 16)
                    for params in (PARAMS, LameParams.from_young_poisson(
                        1000.0, 0.4999))]
# one cell: no dof is shared, so there is no trace system
MONOLITHIC_CASES += [(family, generate_square_mesh, 1, PARAMS)
                     for family in ("bdm1", "rt2", "rt3")]
MONOLITHIC_IDS = [f"{f}-{m.__name__.split('_')[1]}-n{n}-lam{p.lam:.4g}"
                  for f, m, n, p in MONOLITHIC_CASES]


@pytest.mark.parametrize("family,mesh_fn,n,params", MONOLITHIC_CASES,
                         ids=MONOLITHIC_IDS)
def test_solve_matches_monolithic_oracle(family, mesh_fn, n, params):
    S, V, Q = build_elasticity_spaces(mesh_fn(n), family)
    sol = trig_solution(params)
    system = assemble(S, V, Q, params, f=sol.f, g=sol.g)
    report = solve(system)
    xm = monolithic_solve(system)
    assert abs(report.solution - xm).max() <= 1e-10 * abs(xm).max()
    assert np.isclose(report.residual,
                      relative_residual(system, report.solution), rtol=1e-6)
    assert (report.multipliers == 0) == (n == 1)


def trace_solves_agree(factor):
    """The fronts' S^{-1} g against the SuperLU oracle's, for a seeded g."""
    lu, m = superlu_trace_factor(factor), factor.multipliers
    g = np.random.default_rng(4).standard_normal(m + 1)
    x = factor.fronts.solve(g)
    assert x[m] == 0.0
    if lu is None:
        return
    want = lu.solve(g[:m])
    assert abs(x[:m] - want).max() <= 1e-12 * abs(want).max()


@pytest.mark.parametrize("family,mesh_fn,n,params", ORACLE_CASES,
                         ids=ORACLE_IDS)
def test_trace_system_matches_scattered_oracle(family, mesh_fn, n, params):
    # the fronts solve the trace system that the coo_matrix-and-slice
    # oracle sums, as SuperLU does
    system = assemble(*build_elasticity_spaces(mesh_fn(n), family), params)
    trace_solves_agree(HybridFactor(system))


TREE_MESHES = {
    "jittered-n8": lambda path: jittered_square_mesh(8),
    "square-n3": lambda path: generate_square_mesh(3),
    "square-n1": lambda path: generate_square_mesh(1),
    "read-5x3": lambda path: read_grid_mesh(path, 5, 3),
}


@pytest.mark.parametrize("family", ["bdm1", "rt2", "rt3"])
@pytest.mark.parametrize("mesh", sorted(TREE_MESHES))
def test_fronts_match_superlu_where_nodes_have_one_child(family, mesh,
                                                         tmp_path):
    # cell counts that are not powers of 2 leave nodes with one child, and
    # one cell leaves no trace system at all
    S, V, Q = build_elasticity_spaces(
        TREE_MESHES[mesh](tmp_path / "mesh.txt"), family)
    system = assemble(S, V, Q, PARAMS, f=TRIG.f, g=TRIG.g)
    trace_solves_agree(HybridFactor(system))
    x, xm = solve(system).solution, monolithic_solve(system)
    assert abs(x - xm).max() <= 1e-10 * abs(xm).max()


BATCH_MESHES = dict(TREE_MESHES, **{
    "trapezoid-n32": lambda path: generate_trapezoidal_mesh(32)})
BATCH_CASES = ([(mesh, family) for mesh in sorted(TREE_MESHES)
                for family in ("bdm1", "rt2", "rt3")]
               + [("trapezoid-n32", "rt2"), ("trapezoid-n32", "bdm1")])


def batches(height) -> int:
    P, F = height.rows.shape
    return len(range(0, P, quadelast.solver._batch(F)))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mesh,family", BATCH_CASES)
def test_batched_fronts_match_whole_heights_bit_for_bit(mesh, family,
                                                        tmp_path,
                                                        monkeypatch):
    # the fronts, factored in batches, hold the factor of every front of a
    # height factored at once, to the last bit, and so give the same
    # solution; at trapezoid n = 32 heights split into several batches
    S, V, Q = build_elasticity_spaces(
        BATCH_MESHES[mesh](tmp_path / "mesh.txt"), family)
    system = assemble(S, V, Q, PARAMS, f=TRIG.f, g=TRIG.g)
    if mesh == "trapezoid-n32":
        assert max(map(batches, S.trace_plan.heights)) > 1
    batched, x = HybridFactor(system).fronts, solve(system).solution
    monkeypatch.setattr(quadelast.solver._Fronts, "_eliminate",
                        whole_height_eliminate)
    whole = HybridFactor(system).fronts
    assert whole.nnz == batched.nnz
    assert len(whole.factors) == len(batched.factors) == len(
        S.trace_plan.heights)
    for a, b in zip(whole.factors, batched.factors):
        assert same_bits(a, b)
    assert same_bits(solve(system).solution, x)


def test_pivot_under_the_floor_in_a_later_batch_is_singular(monkeypatch):
    # the first height of rt2 trapezoid n = 32 is factored in several
    # batches: a pivot under the floor in the last front of its third
    # batch is refused there, after two batches of the height have passed
    S, V, Q = build_elasticity_spaces(generate_trapezoidal_mesh(32), "rt2")
    system = assemble(S, V, Q, PARAMS, f=TRIG.f, g=TRIG.g)
    assert batches(S.trace_plan.heights[0]) > 3
    cholesky, calls = np.linalg.cholesky, []

    def small_pivot_in_third_batch(a):
        calls.append(a.shape)
        L = cholesky(a)
        if len(calls) == 3:
            L[-1, 0, 0] *= 1e-7
        return L

    monkeypatch.setattr(np.linalg, "cholesky", small_pivot_in_third_batch)
    with pytest.raises(SingularSystem, match="not positive definite"):
        solve(system)
    assert len(calls) == 3


def test_trace_system_is_built_without_a_copy_of_its_entries(monkeypatch):
    # S is never summed: the fronts are read from the cells' trace blocks,
    # so neither a solve nor the inf-sup estimate calls the sparse sum
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        raise AssertionError("scatter called")

    for module in (quadelast.fe_space, quadelast.assembly):
        monkeypatch.setattr(module, "scatter", counting)
    S, V, Q = build_elasticity_spaces(generate_trapezoidal_mesh(4), "rt2")
    system = assemble(S, V, Q, PARAMS, f=TRIG.f, g=TRIG.g)
    assert solve(system).residual <= 1e-10
    assert infsup_estimate(assemble(S, V, Q, PARAMS),
                           ynorm_gram(S, V, Q)) > 0.0
    assert calls == []


@pytest.mark.parametrize("family,mesh_fn,n,params", ORACLE_CASES,
                         ids=ORACLE_IDS)
def test_cell_traces_are_symmetric_bit_for_bit(family, mesh_fn, n, params):
    system = assemble(*build_elasticity_spaces(mesh_fn(n), family), params)
    factor = HybridFactor(system)
    for T in (factor.traces, cell_traces(factor)):
        assert np.array_equal(T, T.transpose(0, 2, 1))


@pytest.mark.parametrize("family", ["bdm1", "rt2"])
def test_residual_matches_blas_norms(family):
    _, system = assembled(generate_trapezoidal_mesh(8), family)
    report = solve(system)
    r = cell_apply(system, report.solution) - system.rhs
    expected = np.linalg.norm(r) / np.linalg.norm(system.rhs)
    assert abs(report.residual - expected) <= 1e-14 * expected


@pytest.mark.parametrize("family", ["bdm1", "rt2"])
def test_load_on_shared_dofs_matches_monolithic_oracle(family):
    # assembled loads vanish on the shared edge moments; a load on every
    # dof checks that each shared dof's load is split between its cells
    _, system = assembled(generate_trapezoidal_mesh(4), family)
    rhs = np.random.RandomState(3).standard_normal(system.n)
    system = dataclasses.replace(system, rhs=rhs)
    x = solve(system).solution
    xm = monolithic_solve(system)
    assert abs(x - xm).max() <= 1e-10 * abs(xm).max()


@pytest.mark.parametrize("family", ["bdm1", "rt2"])
def test_one_factor_solves_several_right_hand_sides(family):
    _, system = assembled(generate_trapezoidal_mesh(4), family)
    factor = HybridFactor(system)
    assert factor.solution is None
    rng = np.random.RandomState(5)
    for _ in range(3):
        rhs = rng.standard_normal(system.n)
        x = factor.solve(rhs)
        xm = monolithic_solve(dataclasses.replace(system, rhs=rhs))
        assert abs(x - xm).max() <= 1e-10 * abs(xm).max()
        assert (np.linalg.norm(cell_apply(system, x) - rhs)
                <= 1e-10 * np.linalg.norm(rhs))
        # the load carried in the factor's own cell solve gives the same x
        carried = HybridFactor(system, rhs=rhs).solution
        assert abs(carried - xm).max() <= 1e-10 * abs(xm).max()


def test_report_counts_multipliers_and_factor_fill():
    # rt2 on 4 x 4 cells: 24 interior edges, 2 moments per edge and stress
    # row, so 96 normal moments are shared and tied by a multiplier
    _, system = assembled(generate_trapezoidal_mesh(4), "rt2")
    report = solve(system)
    assert report.multipliers == 96
    assert report.factor_nnz > 0
    _, single = assembled(generate_square_mesh(1), "rt2")
    assert solve(single).multipliers == 0
    assert solve(single).factor_nnz == 0


@pytest.mark.parametrize("nu", [0.4996, 0.4998])
def test_nearly_incompressible_cell_load_is_solved_by_lu(nu):
    # one bdm1 cell has no multipliers, so its load's cell solve alone sets
    # the residual; products with the class inverse, in place of the LU
    # solve, are not backward stable here and push it past the tolerance
    # (the monolithic sparse LU oracle fails its own residual check here)
    params = LameParams.from_young_poisson(1000.0, nu)
    sol = trig_solution(params)
    S, V, Q = build_elasticity_spaces(generate_square_mesh(1), "bdm1")
    report = solve(assemble(S, V, Q, params, f=sol.f, g=sol.g))
    assert report.multipliers == 0
    assert report.residual <= 1e-10


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
                          FEFunction(Q, ph), patch)
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
    uvals = on_all_cells(evaluate_batch, FEFunction(V, uh), rule.points)
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
    # zero row in the divergence block makes the full matrix singular; one
    # cell lists every dof, so the cell solve meets the zero row directly
    K = np.zeros((4, 4))
    K[:2, :2] = np.identity(2)
    K[3, :2] = K[:2, 3] = [1.0, 0.5]
    return BlockSystem(n_sigma=2, n_v=1, n_q=1, class_matrices=K[None],
                       cell_class=np.arange(1), cell_signs=np.ones((1, 4)),
                       cell_dofs=np.arange(4)[None], cell_leaf=np.arange(1),
                       rhs=np.ones(4))


def test_singular_system_raises_sparse():
    with pytest.raises(SingularSystem):
        solve(singular_system())


@pytest.mark.parametrize("family", ["bdm1", "rt2", "rt3"])
@pytest.mark.parametrize("mesh_fn,n", [(generate_square_mesh, 2),
                                       (generate_trapezoidal_mesh, 4),
                                       (generate_trapezoidal_mesh, 8)])
def test_negated_cell_compliance_makes_trace_system_indefinite(family,
                                                               mesh_fn, n):
    _, system = assembled(mesh_fn(n), family)
    with pytest.raises(SingularSystem, match="not positive definite"):
        solve(negated_cell_compliance(system))


def test_pivot_under_the_floor_is_singular(monkeypatch):
    # a front whose Cholesky succeeds with a pivot under PIVOT_TOL times
    # S's largest diagonal entry is refused all the same: the first pivot
    # of every front at the first height is scaled to 1e-14 of its square
    _, system = assembled(generate_trapezoidal_mesh(4), "rt2")
    cholesky, calls = np.linalg.cholesky, []

    def small_first_pivot(a):
        calls.append(a.shape)
        L = cholesky(a)
        if len(calls) == 1:
            L[:, 0, 0] *= 1e-7
        return L

    monkeypatch.setattr(np.linalg, "cholesky", small_first_pivot)
    with pytest.raises(SingularSystem, match="not positive definite"):
        solve(system)
    assert len(calls) == 1


def test_dof_listed_by_three_cells_rejected():
    _, system = assembled(generate_square_mesh(2), "bdm1", sol=None)
    D = system.cell_dofs.copy()
    D[2, 0] = D[0, 0] = D[1, 0]
    with pytest.raises(ValueError, match="three or more cells"):
        solve(dataclasses.replace(system, cell_dofs=D))


@pytest.mark.parametrize("message,raises", [
    # the two texts scipy's SuperLU raised at rt2 trapezoid n = 256 under a
    # 1.5 GB address-space limit; the fronts now allocate through numpy, and
    # a failed allocation inside their Cholesky must still reach the caller
    # as MemoryError, not be taken for a singular front
    ("SUPERLU_MALLOC fails for buf in intCalloc() at line 173 in file "
     "../scipy/sparse/linalg/_dsolve/SuperLU/SRC/memory.c", MemoryError),
    ("Malloc fails for local work[].", MemoryError)])
def test_superlu_allocation_failure_is_out_of_memory(message, raises,
                                                     monkeypatch):
    def failing(a):
        raise raises(message)

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    _, system = assembled(generate_trapezoidal_mesh(2), "rt2")
    with pytest.raises(raises) as info:
        solve(system)
    assert str(info.value) == message


def test_memory_error_in_the_factor_exits_1_naming_the_level(capsys,
                                                           monkeypatch):
    # numpy raises MemoryError where an allocation fails; one inside the
    # fronts' Cholesky ends the run with exit code 1 and the level named
    def exhausted(a):
        raise MemoryError("Unable to allocate 1.00 GiB for an array")

    monkeypatch.setattr(np.linalg, "cholesky", exhausted)
    code = cli.main(["convergence", "--element", "rt2", "--mesh",
                     "trapezoid", "--levels", "2,4"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == ("solver failure: convergence run failed at level n=2: "
                   "out of memory\n")


def test_exception_hierarchy():
    assert issubclass(SingularSystem, SolverError)
    assert issubclass(ResidualTooLarge, SolverError)

