"""Direct solution of the assembled saddle-point system.

The matrix is symmetric indefinite, and scipy has no sparse
symmetric-indefinite factorization, so every system goes through one
SuperLU factorization with COLAMD ordering and partial pivoting.  A pivot
check flags a (numerically) singular system, and every solve is verified
a posteriori against a relative-residual threshold, which catches the
conditioning failures a Bunch--Kaufman pivot test would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import BlockSystem

__all__ = ["SolveReport", "SolverError", "SingularSystem", "ResidualTooLarge",
           "solve"]

RESIDUAL_TOL = 1e-10
PIVOT_TOL = 1e-13


class SolverError(Exception):
    """Base class for solver failures."""


class SingularSystem(SolverError):
    """A pivot vanished beyond tolerance; the system is (numerically)
    singular, typically signalling an unstable space combination."""


class ResidualTooLarge(SolverError):
    """Factorization succeeded but the verified residual is unacceptable."""


@dataclass(frozen=True)
class SolveReport:
    solution: np.ndarray
    residual: float  # ||Kx - b|| / ||b||  (or absolute for b = 0)
    factorization: str  # always "sparse"


def _check_residual(K, x, b) -> SolveReport:
    bnorm = np.linalg.norm(b)
    residual = float(np.linalg.norm(K @ x - b))
    if bnorm == 0.0:
        if residual > 1e-12:
            raise ResidualTooLarge(
                f"zero-load residual {residual:.3e} exceeds 1e-12")
    else:
        residual /= bnorm
        if residual > RESIDUAL_TOL:
            raise ResidualTooLarge(
                f"relative residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return SolveReport(solution=x, residual=residual, factorization="sparse")


def solve(system: BlockSystem) -> SolveReport:
    """Solve the block system by one sparse LU factorization.

    Raises SingularSystem on a vanished pivot and ResidualTooLarge when the
    verified residual exceeds tolerance.
    """
    K = system.full_matrix()
    b = system.rhs
    try:
        lu = spla.splu(K, permc_spec="COLAMD")
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularSystem(str(exc)) from exc
    piv = np.abs(lu.U.diagonal())
    if piv.min() < PIVOT_TOL * np.abs(K.diagonal()).max():
        raise SingularSystem(
            f"pivot {piv.min():.3e} below tolerance; system nearly singular")
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystem("non-finite entries in sparse solution")
    return _check_residual(K, x, b)
