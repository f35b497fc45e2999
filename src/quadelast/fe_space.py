"""Global finite element spaces: stress, displacement and rotation.

A space couples a reference element to a mesh through one of three mapping
kinds:

* ``piola`` -- H(div)-conforming spaces (stress rows).  Edge dofs are shared
  between neighbouring elements; the stored sign makes the normal trace
  single-valued.  An element that traverses a global edge against its lo->hi
  direction sees the reference moment of degree m flipped by (-1)**(m+1):
  the outward normal flips sign and the reversed parametrization contributes
  (-1)**m from the Legendre weight.
* ``compose`` -- fully discontinuous spaces mapped by composition
  (displacements).
* ``unmapped`` -- the rotation multiplier: the element's basis at
  (x - x_K)/h_K + 1/2 in physical coordinates, x_K the vertex centroid
  and h_K the diameter the mesh stores, all three taken relative to the
  cell's first corner, so a translated cell gets the same basis bit for
  bit (:func:`unmapped_basis`).

One builder numbers all three spaces through the element's ``edge_dofs``
and ``interior_dofs``, tables derived from its dof list: edge moments first
(global edge E, moment m -> E*r + m), then each cell's interior block.  A
discontinuous space has no edge moments: it is numbered cell by cell.

Multi-component spaces (matrix-valued stress, vector displacement) store one
dof block per row: global dof = row * n_row_dofs + row-local dof, which
``FESpace.dofs`` tabulates for every element.  :func:`scatter` is the one
sum of per-element blocks into a sparse matrix, ``BlockSystem.block_sum``'s
M, Bd and Ba, which only the tests and the benchmark read; vectors are
summed by ``np.bincount``.  A stress space caches the hybrid solver's
plan of its shared dofs (``FESpace.trace_plan``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import QuadMesh
from .mapping import piola_values, ref_shape, relative_corners
from .reference_elements import (
    ReferenceElement,
    bdm1_element,
    p_element,
    q_element,
    rt_element,
)

__all__ = [
    "PIOLA",
    "COMPOSE",
    "UNMAPPED",
    "FESpace",
    "FEFunction",
    "stress_element",
    "family_order",
    "build_stress_space",
    "build_displacement_space",
    "build_rotation_space",
    "build_elasticity_spaces",
    "grid_unknowns",
    "scatter",
    "evaluate_batch",
    "evaluate_div_batch",
    "unmapped_basis",
]

PIOLA = "piola"
COMPOSE = "compose"
UNMAPPED = "unmapped"


def stress_element(family: str) -> ReferenceElement:
    """Reference row element for a stress family name ('rt2', 'rt3', 'bdm1')."""
    fam = family.lower()
    if fam == "bdm1":
        return bdm1_element()
    if fam.startswith("rt") and fam[2:].isdigit():
        return rt_element(int(fam[2:]))
    raise ValueError(f"unknown stress family {family!r}")


def family_order(family: str) -> int:
    """Order r of a family (rt_r -> r, bdm1 -> 1): its stress element's
    degree.  Displacement and rotation companions have polynomial degree
    r-1.
    """
    return stress_element(family).degree


@dataclass(frozen=True)
class FESpace:
    """Finite element space on a mesh.

    ``row_dofs[e, i]`` is the row-local global dof of local basis function i
    on element e; ``row_signs`` the orientation sign (always +1 except for
    shared Piola edge dofs).  ``components`` counts identical rows (2 for
    stress matrices and vector displacements, 1 for rotations).  Every kind
    evaluates ``element.basis``; ``kind`` says how it reaches the cells.
    """

    mesh: QuadMesh
    element: ReferenceElement
    kind: str
    components: int
    row_dofs: np.ndarray  # (nq, local_dim) int
    row_signs: np.ndarray  # (nq, local_dim) float
    n_row_dofs: int

    @property
    def n_dofs(self) -> int:
        return self.components * self.n_row_dofs

    @property
    def local_dim(self) -> int:
        return self.row_dofs.shape[1]

    @property
    def dofs(self) -> np.ndarray:
        """Global dof of every local basis function of every row.

        Shape (components, nq, local_dim): ``rho * n_row_dofs + row_dofs``.
        """
        return self.dofs_on(slice(None))

    def dofs_on(self, cells) -> np.ndarray:
        """:attr:`dofs` of the cells ``cells`` (a slice or index array)."""
        rows = np.arange(self.components)[:, None, None] * self.n_row_dofs
        return rows + self.row_dofs[cells]

    def local_coefficients(self, coefficients: np.ndarray,
                           cells=slice(None)) -> np.ndarray:
        """Per-element, per-row coefficients including orientation signs,
        on the cells ``cells``, by default all.

        Returns shape (components, cells, local_dim).
        """
        coefficients = np.asarray(coefficients)
        if coefficients.shape != (self.n_dofs,):
            raise ValueError(
                f"expected {self.n_dofs} coefficients, got {coefficients.shape}"
            )
        return coefficients[self.dofs_on(cells)] * self.row_signs[cells]

    @cached_property
    def trace_plan(self):
        """The hybrid solver's material-free ``solver.TracePlan`` of this
        stress space's shared dofs in the mesh's nested dissection, made
        once and shared by every system assembled on the space."""
        from .solver import TracePlan  # the solver imports this module
        return TracePlan(np.concatenate(self.dofs, axis=1),
                         self.mesh.dissection_leaves)


@dataclass
class FEFunction:
    """Coefficient vector attached to a space."""

    space: FESpace
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.space.n_dofs,):
            raise ValueError("coefficient vector does not match space size")


def _build_space(mesh: QuadMesh, elem, kind: str, components: int) -> FESpace:
    r = elem.n_edge_dofs
    n_int = len(elem.interior_dofs)
    nq, ne = mesh.n_quads, mesh.n_edges
    edge, orient = mesh.quad_edges[..., :1], mesh.quad_edges[..., 1:]
    m = np.arange(r)  # edge_dofs[j] lists local edge j's dofs by degree m
    on_edges = np.array(elem.edge_dofs, dtype=np.int64)  # (4, r), r may be 0
    row_dofs = np.empty((nq, elem.dim), dtype=np.int64)
    row_signs = np.ones((nq, elem.dim))
    row_dofs[:, on_edges] = edge * r + m
    row_signs[:, on_edges] = np.where(orient == -1, (-1.0) ** (m + 1), 1.0)
    row_dofs[:, list(elem.interior_dofs)] = (
        ne * r + np.arange(nq * n_int).reshape(nq, n_int))
    return FESpace(mesh, elem, kind, components, row_dofs, row_signs,
                   n_row_dofs=ne * r + nq * n_int)


def build_stress_space(mesh: QuadMesh, family: str) -> FESpace:
    """H(div)-conforming matrix-valued stress space; each row a Piola copy."""
    return _build_space(mesh, stress_element(family), PIOLA, 2)


def build_displacement_space(mesh: QuadMesh, r: int) -> FESpace:
    """Vector displacement space, Q_{r-1} per component, mapped by composition."""
    if r < 1:
        raise ValueError("family order r must be >= 1")
    return _build_space(mesh, q_element(r - 1), COMPOSE, 2)


def build_rotation_space(mesh: QuadMesh, r: int) -> FESpace:
    """Scalar rotation space, unmapped P_{r-1} in scaled element coordinates."""
    if r < 1:
        raise ValueError("family order r must be >= 1")
    return _build_space(mesh, p_element(r - 1), UNMAPPED, 1)


def build_elasticity_spaces(mesh: QuadMesh, family: str):
    """The (stress, displacement, rotation) triple for one family."""
    r = family_order(family)
    return (
        build_stress_space(mesh, family),
        build_displacement_space(mesh, r),
        build_rotation_space(mesh, r),
    )


def grid_unknowns(family: str, n: int) -> int:
    """Unknowns of :func:`build_elasticity_spaces` on an n x n grid, counted
    per row as the builder numbers them."""
    r = family_order(family)
    nq, ne = n * n, 2 * n * (n + 1)  # cells and edges; no mesh is built
    return sum(rows * (ne * e.n_edge_dofs + nq * len(e.interior_dofs))
               for e, rows in ((stress_element(family), 2),
                               (q_element(r - 1), 2), (p_element(r - 1), 1)))


def scatter(blocks, shape):
    """Sum per-element dense blocks into one sparse CSC matrix: every
    ``BlockSystem.block_sum``.  Its callers, ``BlockSystem.M``, ``Bd``,
    ``Ba`` and ``full_matrix``, serve only the tests and the benchmark's
    tracing, so the sparse-matrix package is imported here, on the first
    call, and never on the package's import path.

    ``blocks`` holds ``(values, rows, cols)`` triples: ``values[e, i, j]``
    is added at global ``(rows[e, i], cols[e, j])``.  An entry whose row
    or column index equals the matrix size is left out, as a phantom.  An
    index past it raises ValueError.
    """
    import scipy.sparse as sp

    data, ii, jj = [], [], []
    for values, rows, cols in blocks:
        keep = ((rows != shape[0])[:, :, None]
                & (cols != shape[1])[:, None, :])
        data.append(values[keep])
        ii.append(np.broadcast_to(rows[:, :, None], values.shape)[keep])
        jj.append(np.broadcast_to(cols[:, None, :], values.shape)[keep])
    # one block is summed as it is: concatenating it would copy every entry
    data, ii, jj = (a[0] if len(a) == 1 else np.concatenate(a)
                    for a in (data, ii, jj))
    return sp.csc_matrix((data, (ii, jj)), shape=shape)


def unmapped_basis(space: FESpace, xhat: np.ndarray, cells) -> np.ndarray:
    """``element.basis`` at (x - x_K)/h_K + 1/2 at the reference points
    ``xhat`` (npts, 2) of the cells ``cells``, x_K the vertex centroid and
    h_K ``mesh.diameters``.  x - x_K and x_K come from the
    :func:`mapping.relative_corners`, like DF and h_K, so every cell of a
    translation class gets the same bits, in any batch.  (dim, cells, npts)."""
    mesh = space.mesh
    rel = relative_corners(mesh.vertices[mesh.quads[cells]])
    x = np.einsum("qc,ecd->eqd", ref_shape(xhat)[0], rel, optimize=True)
    eta = ((x - rel.mean(axis=1)[:, None, :])
           / mesh.diameters[cells][:, None, None] + 0.5)
    return space.element.basis.eval(eta)[..., 0]


def evaluate_batch(f: FEFunction, xhat: np.ndarray, chunk) -> np.ndarray:
    """Values of ``f`` at the same reference points on the cells of one
    batch, ``chunk``: one ``(cells, X, DF, J)`` of
    :func:`mapping.cell_chunks` at ``xhat``, whose geometry it uses.
    Returns shape (n, npts, 2, 2) for stress, (n, npts, 2) for
    displacement, (n, npts) for rotation, n the cells of the chunk.
    """
    space = f.space
    cells, _, DF, J = chunk
    C = space.local_coefficients(f.coefficients, cells)

    if space.kind == UNMAPPED:
        return np.einsum("ek,kep->ep", C[0],
                         unmapped_basis(space, xhat, cells))

    Phi = space.element.basis.eval(xhat)  # (dim, npts, ncomp)
    if space.kind == COMPOSE:
        return np.einsum("rek,kp->epr", C, Phi[..., 0], optimize=True)

    # Piola rows
    ref = np.einsum("rek,kpc->repc", C, Phi, optimize=True)
    return (piola_values(DF, ref) / J[..., None]).transpose(1, 2, 0, 3)


def evaluate_div_batch(f: FEFunction, xhat: np.ndarray, chunk) -> np.ndarray:
    """Row-wise divergence of a Piola-mapped function, via the 1/J
    transform; ``chunk`` as in :func:`evaluate_batch`."""
    space = f.space
    if space.kind != PIOLA:
        raise ValueError("divergence evaluation requires a Piola-mapped space")
    cells, _, _, J = chunk
    C = space.local_coefficients(f.coefficients, cells)
    dPhi = space.element.basis.div(xhat)  # (dim, npts)
    ref = np.einsum("rek,kp->epr", C, dPhi, optimize=True)
    return ref / J[..., None]
