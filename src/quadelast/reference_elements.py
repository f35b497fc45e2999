"""Shape-function spaces on the reference square with their degrees of freedom.

Four element families are provided:

* ``rt_element(r)`` -- the tensor Raviart--Thomas space
  P_{r,r-1} x P_{r-1,r} with normal edge moments and interior moments,
* ``bdm1_element()`` -- the 8-dimensional space spanned by P_1 vector fields
  plus curl(x^2 y) and curl(x y^2), with two normal moments per edge,
* ``q_element(r)`` -- the scalar tensor space Q_r with interior moments,
* ``p_element(r)`` -- scalar polynomials of total degree <= r with interior
  moments.

Edge moments use shifted Legendre weights in the counterclockwise edge
parametrization against the outward normal; moment weights of equal degree
pairs are L2-orthogonal, which keeps every degree-of-freedom matrix well
conditioned (diagonal for the scalar families).  Every functional is a
weighted sum of field values at fixed edge and cell Gauss points, so the
dofs of an element are one weight array over those points
(:meth:`ReferenceElement.interpolation_matrix`).  Nodal bases are obtained
by inverting the DOF matrix once at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as npoly

from .mapping import gauss_rule, gauss_rule_1d

__all__ = [
    "PolyBasis",
    "EdgeMoment",
    "InteriorMoment",
    "ReferenceElement",
    "rt_element",
    "bdm1_element",
    "q_element",
    "p_element",
    "shifted_legendre",
    "EDGE_STARTS",
    "EDGE_DIRS",
    "EDGE_NORMALS",
]

# Counterclockwise parametrization x(t) = start + t*dir of the four edges of
# the reference square, with outward unit normals.
EDGE_STARTS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
EDGE_DIRS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
EDGE_NORMALS = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])


@lru_cache(maxsize=None)
def shifted_legendre(m: int) -> np.ndarray:
    """Power-basis coefficients of the shifted Legendre polynomial P_m(2t-1).

    The coefficients are exact integers; the family is orthogonal on [0,1]
    with ||P_m||^2 = 1/(2m+1).
    """
    series = np.zeros(m + 1)
    series[m] = 1.0
    p = legendre.leg2poly(series)
    out = np.array([p[-1]])
    for c in p[-2::-1]:
        out = npoly.polyadd(npoly.polymul(out, [-1.0, 2.0]), [c])
    return out


@dataclass(frozen=True)
class PolyBasis:
    """Basis of bivariate polynomials, scalar (ncomp=1) or vector (ncomp=2).

    ``coeffs[k, c, i, j]`` is the coefficient of x^i y^j in component c of
    basis function k.
    """

    coeffs: np.ndarray  # (n, ncomp, dx+1, dy+1)

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=float)
        if c.ndim != 4:
            raise ValueError("coeffs must have shape (n, ncomp, dx, dy)")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[1]

    def eval(self, xhat: np.ndarray) -> np.ndarray:
        """Values of all basis functions; shape (n, ..., ncomp)."""
        xhat = np.asarray(xhat)
        x, y = xhat[..., 0], xhat[..., 1]
        out = np.empty((self.n,) + x.shape + (self.ncomp,))
        for k in range(self.n):
            for c in range(self.ncomp):
                out[k, ..., c] = npoly.polyval2d(x, y, self.coeffs[k, c])
        return out

    def div(self, xhat: np.ndarray) -> np.ndarray:
        """Divergence of all (vector) basis functions; shape (n, ...)."""
        if self.ncomp != 2:
            raise ValueError("div is defined for vector bases only")
        xhat = np.asarray(xhat)
        x, y = xhat[..., 0], xhat[..., 1]
        out = np.empty((self.n,) + x.shape)
        for k in range(self.n):
            dx = npoly.polyder(self.coeffs[k, 0], axis=0)
            dy = npoly.polyder(self.coeffs[k, 1], axis=1)
            out[k] = npoly.polyval2d(x, y, dx) + npoly.polyval2d(x, y, dy)
        return out


@dataclass(frozen=True)
class EdgeMoment:
    """Moment of the normal component on one edge against P_degree(2t-1)."""

    edge: int
    degree: int


@dataclass(frozen=True)
class InteriorMoment:
    """Moment against a polynomial weight over the reference square."""

    weight: np.ndarray  # (ncomp, dx+1, dy+1)

    def __post_init__(self):
        w = np.ascontiguousarray(self.weight, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weight", w)


def _dof_points(order: int) -> np.ndarray:
    """Points at which the dof functionals sample a field, shape (npts, 2).

    The ``order`` Gauss points of each edge in its counterclockwise
    parametrization, edge by edge, followed by the ``order`` x ``order``
    tensor Gauss points of the cell.
    """
    t, _ = gauss_rule_1d(order)
    edges = EDGE_STARTS[:, None, :] + t[None, :, None] * EDGE_DIRS[:, None, :]
    return np.concatenate([edges.reshape(-1, 2), gauss_rule(order).points])


def _dof_weights(dofs, ncomp: int, order: int) -> np.ndarray:
    """Weights W (ndofs, npts, ncomp): dof_i(v) = sum(W[i] * v(points)).

    An edge moment weighs the normal component with the Gauss weight times
    the Legendre weight at the edge points; an interior moment weighs each
    component with the Gauss weight times its polynomial weight at the cell
    points.
    """
    t, w1 = gauss_rule_1d(order)
    rule = gauss_rule(order)
    x, y = rule.points[:, 0], rule.points[:, 1]
    W = np.zeros((len(dofs), 4 * order + len(rule.weights), ncomp))
    for i, dof in enumerate(dofs):
        if isinstance(dof, EdgeMoment):
            lo = dof.edge * order
            scale = w1 * npoly.polyval(t, shifted_legendre(dof.degree))
            W[i, lo:lo + order] = scale[:, None] * EDGE_NORMALS[dof.edge]
        else:
            for c in range(ncomp):
                W[i, 4 * order:, c] = rule.weights * npoly.polyval2d(
                    x, y, dof.weight[c])
    return W


@dataclass(frozen=True)
class ReferenceElement:
    """Unisolvent finite element on the reference square.

    ``basis`` is nodal with respect to ``dofs``: dof i applied to basis
    function j gives the Kronecker delta.  ``edge_dofs[e]`` lists the dof
    indices on edge e ordered by moment degree (empty for scalar elements);
    the remaining dofs are interior.
    """

    name: str
    degree: int
    basis: PolyBasis
    dofs: tuple
    edge_dofs: tuple  # 4-tuple of index tuples
    interior_dofs: tuple
    dof_cond: float

    @property
    def dim(self) -> int:
        return self.basis.n

    @property
    def ncomp(self) -> int:
        return self.basis.ncomp

    @property
    def n_edge_dofs(self) -> int:
        return len(self.edge_dofs[0])

    def interpolation_matrix(self, order: int = 10):
        """Sampling points and dof weights for a quadrature order.

        Returns ``(points, W)`` from :func:`_dof_points` and the weight array
        of shape (dim, npts, ncomp): the dofs of a field v are
        ``einsum("ipc,pc->i", W, v(points))``.
        """
        return _dof_points(order), _dof_weights(self.dofs, self.ncomp, order)


def _legendre_product(i: int, j: int, shape: tuple[int, int]) -> np.ndarray:
    """Coefficient array of P_i(2x-1) P_j(2y-1), zero-padded to ``shape``."""
    out = np.zeros(shape)
    out[: i + 1, : j + 1] = np.outer(shifted_legendre(i), shifted_legendre(j))
    return out


def _nodalize(name, degree, raw, dofs, edge_dofs, interior_dofs, order):
    n = raw.shape[0]
    if len(dofs) != n:
        raise ValueError(f"{name}: {len(dofs)} dofs for dimension {n}")
    W = _dof_weights(dofs, raw.shape[1], order)
    D = np.einsum("ipc,jpc->ij", W, PolyBasis(raw).eval(_dof_points(order)))
    cond = float(np.linalg.cond(D))
    C = np.linalg.solve(D, np.eye(n))
    nodal = np.einsum("jk,jcab->kcab", C, raw)
    return ReferenceElement(
        name=name,
        degree=degree,
        basis=PolyBasis(nodal),
        dofs=tuple(dofs),
        edge_dofs=tuple(tuple(e) for e in edge_dofs),
        interior_dofs=tuple(interior_dofs),
        dof_cond=cond,
    )


@lru_cache(maxsize=None)
def rt_element(r: int) -> ReferenceElement:
    """Tensor Raviart--Thomas element of order r >= 1.

    Shape space P_{r,r-1} x P_{r-1,r} of dimension 2r(r+1); r normal moments
    per edge plus, for r >= 2, interior moments against
    P_{r-2,r-1} x P_{r-1,r-2}.
    """
    if r < 1:
        raise ValueError("Raviart-Thomas order must be >= 1")
    shape = (r + 1, r + 1)
    raw = []
    for i in range(r + 1):  # first component: degree (r, r-1)
        for j in range(r):
            raw.append(np.stack([_legendre_product(i, j, shape), np.zeros(shape)]))
    for i in range(r):  # second component: degree (r-1, r)
        for j in range(r + 1):
            raw.append(np.stack([np.zeros(shape), _legendre_product(i, j, shape)]))
    raw = np.array(raw)

    dofs = []
    edge_dofs = []
    for e in range(4):
        edge_dofs.append(range(len(dofs), len(dofs) + r))
        dofs.extend(EdgeMoment(e, m) for m in range(r))
    interior_start = len(dofs)
    for i in range(max(r - 1, 0)):  # weights P_{r-2,r-1} for the first row
        for j in range(r):
            w = np.stack([_legendre_product(i, j, shape), np.zeros(shape)])
            dofs.append(InteriorMoment(w))
    for i in range(r):  # weights P_{r-1,r-2} for the second row
        for j in range(max(r - 1, 0)):
            w = np.stack([np.zeros(shape), _legendre_product(i, j, shape)])
            dofs.append(InteriorMoment(w))
    interior = range(interior_start, len(dofs))
    return _nodalize(f"RT{r}", r, raw, dofs, edge_dofs, interior, order=r + 3)


@lru_cache(maxsize=None)
def bdm1_element() -> ReferenceElement:
    """8-dimensional Brezzi--Douglas--Marini-type element.

    P_1 vector fields plus curl(x^2 y) = (x^2, -2xy) and
    curl(x y^2) = (2xy, -y^2); both extra fields are divergence free, so the
    divergence of the space is the constants.  Two normal moments per edge.
    """
    shape = (3, 3)

    def cmat(entries):
        out = np.zeros(shape)
        for (i, j), v in entries.items():
            out[i, j] = v
        return out

    zero = np.zeros(shape)
    p1 = [cmat({(0, 0): 1.0}), cmat({(1, 0): 1.0}), cmat({(0, 1): 1.0})]
    raw = [np.stack([c, zero]) for c in p1] + [np.stack([zero, c]) for c in p1]
    raw.append(np.stack([cmat({(2, 0): 1.0}), cmat({(1, 1): -2.0})]))
    raw.append(np.stack([cmat({(1, 1): 2.0}), cmat({(0, 2): -1.0})]))
    raw = np.array(raw)

    dofs = []
    edge_dofs = []
    for e in range(4):
        edge_dofs.append(range(len(dofs), len(dofs) + 2))
        dofs.extend(EdgeMoment(e, m) for m in range(2))
    return _nodalize("BDM1", 1, raw, dofs, edge_dofs, (), order=5)


@lru_cache(maxsize=None)
def q_element(r: int) -> ReferenceElement:
    """Scalar tensor-product element Q_r with interior moment dofs."""
    if r < 0:
        raise ValueError("polynomial degree must be >= 0")
    shape = (r + 1, r + 1)
    raw = np.array(
        [[_legendre_product(i, j, shape)] for i in range(r + 1) for j in range(r + 1)]
    )
    dofs = [
        InteriorMoment(np.array([_legendre_product(i, j, shape)]))
        for i in range(r + 1)
        for j in range(r + 1)
    ]
    return _nodalize(f"Q{r}", r, raw, dofs, ((), (), (), ()),
                     range(len(dofs)), order=r + 2)


@lru_cache(maxsize=None)
def p_element(r: int) -> ReferenceElement:
    """Scalar element of total degree <= r with interior moment dofs."""
    if r < 0:
        raise ValueError("polynomial degree must be >= 0")
    shape = (r + 1, r + 1)
    pairs = [(i, j) for i in range(r + 1) for j in range(r + 1 - i)]
    raw = np.array([[_legendre_product(i, j, shape)] for i, j in pairs])
    dofs = [InteriorMoment(np.array([_legendre_product(i, j, shape)]))
            for i, j in pairs]
    return _nodalize(f"P{r}", r, raw, dofs, ((), (), (), ()),
                     range(len(dofs)), order=r + 2)
