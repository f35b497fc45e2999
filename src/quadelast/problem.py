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
    the boundary).  ``fields(x)`` returns ``(sigma(x), f(x), u(x), p(x))``;
    by default it calls the four closures, and a solution whose fields
    share work passes one function that does it once.  All closures accept
    points of shape (..., 2).
    """

    params: LameParams
    u: Callable[[np.ndarray], np.ndarray]
    p: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    fields: Callable[[np.ndarray], tuple] | None = None
    g: Callable[[np.ndarray], np.ndarray] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "g", self.u)
        if self.fields is None:
            object.__setattr__(self, "fields", lambda x: (
                self.sigma(x), self.f(x), self.u(x), self.p(x)))


def trig_solution(params: LameParams) -> ManufacturedSolution:
    """The trigonometric benchmark solution for given Lame constants.

    Every field is a product of the six waves sin and cos of pi x1, pi x2
    and 2 pi x2; ``fields`` evaluates them once for all four.
    """
    mu, lam = params.mu, params.lam
    pi = np.pi

    def waves(x):
        x = np.asarray(x)
        x1, x2 = x[..., 0], x[..., 1]
        return (np.sin(pi * x1), np.cos(pi * x1), np.sin(pi * x2),
                np.cos(pi * x2), np.sin(2 * pi * x2), np.cos(2 * pi * x2))

    def u_of(sx, cx, sy, cy, s2y, c2y):
        return np.stack([cx * s2y, sx * cy], axis=-1)

    def p_of(sx, cx, sy, cy, s2y, c2y):
        return 0.5 * pi * cx * (2 * c2y - cy)

    def sigma_of(sx, cx, sy, cy, s2y, c2y):
        s11 = -pi * sx * ((2 * mu + lam) * s2y + lam * sy)
        s22 = -pi * sx * (lam * s2y + (2 * mu + lam) * sy)
        s12 = mu * pi * cx * (2 * c2y + cy)
        return np.stack([np.stack([s11, s12], axis=-1),
                         np.stack([s12, s22], axis=-1)], axis=-2)

    def f_of(sx, cx, sy, cy, s2y, c2y):
        f1 = -pi**2 * cx * ((6 * mu + lam) * s2y + (lam + mu) * sy)
        f2 = -pi**2 * sx * ((2 * mu + 2 * lam) * c2y + (3 * mu + lam) * cy)
        return np.stack([f1, f2], axis=-1)

    def fields(x):
        w = waves(x)
        return sigma_of(*w), f_of(*w), u_of(*w), p_of(*w)

    return ManufacturedSolution(
        params=params, u=lambda x: u_of(*waves(x)),
        p=lambda x: p_of(*waves(x)), sigma=lambda x: sigma_of(*waves(x)),
        f=lambda x: f_of(*waves(x)), fields=fields)
