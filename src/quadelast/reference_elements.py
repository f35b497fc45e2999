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
    "edge_points",
]

# Counterclockwise parametrization x(t) = start + t*dir of the four edges of
# the reference square, with outward unit normals.
EDGE_STARTS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
EDGE_DIRS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
EDGE_NORMALS = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])


def edge_points(t) -> np.ndarray:
    """The points start + t*dir of the four edges at the parameters ``t``
    (any shape): shape (4, *t.shape, 2)."""
    return np.moveaxis(EDGE_STARTS + np.multiply.outer(t, EDGE_DIRS), -2, 0)


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


def _polyval2d(coeffs: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """Every 2-D block ``coeffs[..., :, :]`` evaluated at ``xhat`` (..., 2).

    Returns shape ``coeffs.shape[:-2] + xhat.shape[:-1]``.  The two Horner
    passes are the ones ``npoly.polyval2d`` makes for a single block, so
    the values are bit-identical to a per-block loop.
    """
    x, y = np.moveaxis(np.asarray(xhat), -1, 0)
    c = npoly.polyval(x, np.moveaxis(coeffs, (-2, -1), (0, 1)))
    return npoly.polyval(y, c, tensor=False)


@dataclass(frozen=True)
class PolyBasis:
    """Basis of bivariate polynomials, scalar (ncomp=1) or vector (ncomp=2).

    ``coeffs[k, c, i, j]`` is the coefficient of x^i y^j in component c of
    basis function k.  Values, gradients and divergences of all functions
    are evaluated in one pass over the whole coefficient array
    (:func:`_polyval2d`).
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
        """Values of all basis functions; shape (n, ..., ncomp), C-contiguous.

        The layout matters: plain ``einsum`` sums in memory order, so the
        nodal coefficients depend on it (:func:`_nodalize`).
        """
        values = _polyval2d(self.coeffs, xhat)
        return np.ascontiguousarray(np.moveaxis(values, 1, -1))

    def grad(self, xhat: np.ndarray) -> np.ndarray:
        """Gradients of all basis functions; shape (n, ncomp, 2, ...)."""
        return np.stack([_polyval2d(npoly.polyder(self.coeffs, axis=a), xhat)
                         for a in (2, 3)], axis=2)

    def div(self, xhat: np.ndarray) -> np.ndarray:
        """Divergence of all (vector) basis functions; shape (n, ...)."""
        if self.ncomp != 2:
            raise ValueError("div is defined for vector bases only")
        c = self.coeffs
        return (_polyval2d(npoly.polyder(c[:, 0], axis=1), xhat)
                + _polyval2d(npoly.polyder(c[:, 1], axis=2), xhat))


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
    edges = edge_points(gauss_rule_1d(order)[0]).reshape(-1, 2)
    return np.concatenate([edges, gauss_rule(order).points])


def _dof_weights(dofs, ncomp: int, order: int) -> np.ndarray:
    """Weights W (ndofs, npts, ncomp): dof_i(v) = sum(W[i] * v(points)).

    An edge moment weighs the normal component with the Gauss weight times
    the Legendre weight at the edge points; an interior moment weighs each
    component with the Gauss weight times its polynomial weight at the cell
    points.
    """
    t, w1 = gauss_rule_1d(order)
    rule = gauss_rule(order)
    W = np.zeros((len(dofs), 4 * order + len(rule.weights), ncomp))
    for i, dof in enumerate(dofs):
        if isinstance(dof, EdgeMoment):
            lo = dof.edge * order
            scale = w1 * npoly.polyval(t, shifted_legendre(dof.degree))
            W[i, lo:lo + order] = scale[:, None] * EDGE_NORMALS[dof.edge]
        else:
            W[i, 4 * order:] = (rule.weights[:, None]
                                * _polyval2d(dof.weight, rule.points).T)
    return W


@dataclass(frozen=True)
class ReferenceElement:
    """Unisolvent finite element on the reference square.

    ``basis`` is nodal with respect to ``dofs``: dof i applied to basis
    function j gives the Kronecker delta.  ``dofs`` is the one source of
    the dof layout: ``edge_dofs[e]`` (the indices of the edge moments on
    edge e, ordered by moment degree; empty for scalar elements) and
    ``interior_dofs`` (the indices of the interior moments) are derived
    from it by :func:`_nodalize`.
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

    def interpolation_matrix(self, order: int):
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


def _nodalize(name, degree, raw, dofs, order):
    n = raw.shape[0]
    if len(dofs) != n:
        raise ValueError(f"{name}: {len(dofs)} dofs for dimension {n}")
    W = _dof_weights(dofs, raw.shape[1], order)
    D = np.einsum("ipc,jpc->ij", W, PolyBasis(raw).eval(_dof_points(order)))
    cond = float(np.linalg.cond(D))
    C = np.linalg.solve(D, np.eye(n))
    nodal = np.einsum("jk,jcab->kcab", C, raw)
    edges = [sorted((d.degree, i) for i, d in enumerate(dofs)
                    if isinstance(d, EdgeMoment) and d.edge == e)
             for e in range(4)]
    return ReferenceElement(
        name=name,
        degree=degree,
        basis=PolyBasis(nodal),
        dofs=tuple(dofs),
        edge_dofs=tuple(tuple(i for _, i in e) for e in edges),
        interior_dofs=tuple(i for i, d in enumerate(dofs)
                            if isinstance(d, InteriorMoment)),
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
    raw, inner = [], []
    for i in range(r + 1):  # first component: degree (r, r-1)
        for j in range(r):
            raw.append(np.stack([_legendre_product(i, j, shape), np.zeros(shape)]))
            inner.append(i < r - 1)
    for i in range(r):  # second component: degree (r-1, r)
        for j in range(r + 1):
            raw.append(np.stack([np.zeros(shape), _legendre_product(i, j, shape)]))
            inner.append(j < r - 1)
    raw = np.array(raw)

    dofs = [EdgeMoment(e, m) for e in range(4) for m in range(r)]
    # the interior weights P_{r-2,r-1} x P_{r-1,r-2} are the shape functions
    # of degree below r-1 along their own component
    dofs += [InteriorMoment(w) for w, keep in zip(raw, inner) if keep]
    return _nodalize(f"RT{r}", r, raw, dofs, order=r + 3)


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

    dofs = [EdgeMoment(e, m) for e in range(4) for m in range(2)]
    return _nodalize("BDM1", 1, raw, dofs, order=5)


def _scalar_element(family: str, r: int, pairs) -> ReferenceElement:
    """Scalar element spanned by P_i(2x-1) P_j(2y-1) for (i, j) in
    ``pairs``, with the moments against the same polynomials as dofs."""
    if r < 0:
        raise ValueError("polynomial degree must be >= 0")
    shape = (r + 1, r + 1)
    raw = np.array([[_legendre_product(i, j, shape)] for i, j in pairs])
    dofs = [InteriorMoment(w) for w in raw]
    return _nodalize(f"{family}{r}", r, raw, dofs, order=r + 2)


@lru_cache(maxsize=None)
def q_element(r: int) -> ReferenceElement:
    """Scalar tensor-product element Q_r with interior moment dofs."""
    return _scalar_element("Q", r, [(i, j) for i in range(r + 1)
                                    for j in range(r + 1)])


@lru_cache(maxsize=None)
def p_element(r: int) -> ReferenceElement:
    """Scalar element of total degree <= r with interior moment dofs."""
    return _scalar_element("P", r, [(i, j) for i in range(r + 1)
                                    for j in range(r + 1 - i)])
