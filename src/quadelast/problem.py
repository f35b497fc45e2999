"""Material law and the trigonometric benchmark problem.

The compliance tensor is the isotropic plane-strain law

    A tau = (1/2mu) (tau - lambda/(2mu+2lambda) tr(tau) I)

on all 2x2 matrices: the weakly symmetric method applies it to a discrete
stress that is not symmetric, so the skew part is scaled by 1/2mu like the
deviatoric part (Arnold, Falk & Winther, Math. Comp. 76, 2007).
:func:`compliance_matrix` is the one place the law is written.  The
benchmark displacement

    u1 = cos(pi x) sin(2 pi y),    u2 = sin(pi x) cos(pi y)

drives the convergence studies; stress, rotation, body force and boundary
data are derived from it analytically.  Note u does not vanish on the whole
boundary, so the boundary data g = u|_dOmega must be carried through the
weak form's consistent boundary term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "LameParams",
    "ManufacturedSolution",
    "compliance_matrix",
    "trig_solution",
]


@dataclass(frozen=True)
class LameParams:
    """Lame constants with the admissible range mu > 0, lambda >= 0.

    Both must be finite, and so must 2(mu + lambda) and 1/(2 mu), which the
    compliance law divides by and multiplies with.
    """

    mu: float
    lam: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if not self.lam >= 0:
            raise ValueError("lambda must be nonnegative")
        mu, lam = float(self.mu), float(self.lam)
        if not (math.isfinite(2.0 * (mu + lam))
                and math.isfinite(1.0 / (2.0 * mu))):
            raise ValueError("mu and lambda must be finite, and neither "
                             "2(mu + lambda) nor 1/(2 mu) may overflow")

    @classmethod
    def from_young_poisson(cls, E: float, nu: float) -> "LameParams":
        """Standard isotropic conversion; nu must lie in [0, 1/2)."""
        if not 0 <= nu < 0.5:
            raise ValueError("Poisson ratio must lie in [0, 1/2)")
        return cls(mu=E / (2.0 * (1.0 + nu)),
                   lam=E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu)))


def compliance_matrix(params: LameParams) -> np.ndarray:
    """4x4 matrix of the compliance on vec(tau) = (t11, t12, t21, t22).

    (I - c vec(I) vec(I)^T) / (2 mu) with c = lambda/(2mu+2lambda): the
    eigenvalue is 1/(2(mu+lambda)) on multiples of the identity and 1/(2mu)
    on their orthogonal complement, skew-symmetric matrices included.
    """
    vec_i = np.eye(2).reshape(4)
    c = params.lam / (2.0 * params.mu + 2.0 * params.lam)
    return (np.eye(4) - c * np.outer(vec_i, vec_i)) / (2.0 * params.mu)


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form solution fields of the elasticity system.

    ``g`` is the Dirichlet displacement trace (here simply u restricted to
    the boundary).  All closures accept points of shape (..., 2).
    """

    params: LameParams
    u: Callable[[np.ndarray], np.ndarray]
    p: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "g", self.u)


def trig_solution(params: LameParams) -> ManufacturedSolution:
    """The trigonometric benchmark solution for given Lame constants."""
    mu, lam = params.mu, params.lam
    pi = np.pi

    def u(x):
        x = np.asarray(x)
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([np.cos(pi * x1) * np.sin(2 * pi * x2),
                         np.sin(pi * x1) * np.cos(pi * x2)], axis=-1)

    def p(x):
        x = np.asarray(x)
        x1, x2 = x[..., 0], x[..., 1]
        return 0.5 * pi * np.cos(pi * x1) * (2 * np.cos(2 * pi * x2)
                                             - np.cos(pi * x2))

    def sigma(x):
        x = np.asarray(x)
        x1, x2 = x[..., 0], x[..., 1]
        s1, s2, sx = np.sin(2 * pi * x2), np.sin(pi * x2), np.sin(pi * x1)
        s11 = -pi * sx * ((2 * mu + lam) * s1 + lam * s2)
        s22 = -pi * sx * (lam * s1 + (2 * mu + lam) * s2)
        s12 = mu * pi * np.cos(pi * x1) * (2 * np.cos(2 * pi * x2)
                                           + np.cos(pi * x2))
        return np.stack([np.stack([s11, s12], axis=-1),
                         np.stack([s12, s22], axis=-1)], axis=-2)

    def f(x):
        x = np.asarray(x)
        x1, x2 = x[..., 0], x[..., 1]
        f1 = -pi**2 * np.cos(pi * x1) * ((6 * mu + lam) * np.sin(2 * pi * x2)
                                         + (lam + mu) * np.sin(pi * x2))
        f2 = -pi**2 * np.sin(pi * x1) * ((2 * mu + 2 * lam) * np.cos(2 * pi * x2)
                                         + (3 * mu + lam) * np.cos(pi * x2))
        return np.stack([f1, f2], axis=-1)

    return ManufacturedSolution(params=params, u=u, p=p, sigma=sigma, f=f)
