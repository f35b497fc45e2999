"""Quadrilateral meshes of the unit square.

The mesh container, which owns its edge topology, cell diameters, translation
classes and nested dissection; the generators of uniform squares and congruent
trapezoids; the shape-regularity metric; and a plain-text mesh format.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .mapping import geometry_at, relative_corners
from .reference_elements import EDGE_STARTS

__all__ = [
    "QuadMesh",
    "MeshQuality",
    "generate_square_mesh",
    "generate_trapezoidal_mesh",
    "mesh_quality",
    "write_mesh",
    "read_mesh",
]

# Local edges of a quad as (start, end) vertex slots, counterclockwise.
LOCAL_EDGES = ((0, 1), (1, 2), (2, 3), (3, 0))

#: Default trapezoid offset d of :func:`generate_trapezoidal_mesh`.
DEFAULT_DISTORTION = 1.0 / 6.0

@dataclass(frozen=True)
class QuadMesh:
    """Conforming mesh of strictly convex quadrilaterals.

    Vertices and quads are given; edge topology is derived on construction.
    Edges are keyed by their sorted vertex pair, directed lo -> hi and
    numbered by first use, so a shared edge has one well-defined global
    direction.  ``quad_edges`` stores, per quad, four ``(edge index,
    orientation)`` pairs where orientation is +1 when the quad's
    counterclockwise traversal runs lo -> hi and -1 otherwise.
    ``edge_slots`` lists, per edge, the local edge slots ``4 * quad + j``
    that use it in increasing order, with -1 as the second slot of a
    boundary edge.
    """

    vertices: np.ndarray  # (nv, 2) float
    quads: np.ndarray  # (nq, 4) int, counterclockwise
    edges: np.ndarray = field(init=False)  # (ne, 2) int, lo < hi
    quad_edges: np.ndarray = field(init=False)  # (nq, 4, 2) int: (edge, +-1)
    edge_slots: np.ndarray = field(init=False)  # (ne, 2) int, -1 on boundary
    diameters: np.ndarray = field(init=False)  # (nq,) float
    h: float = field(init=False)

    def __post_init__(self):
        vertices = np.ascontiguousarray(self.vertices, dtype=float)
        quads = np.ascontiguousarray(self.quads, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (nv, 2)")
        if quads.ndim != 2 or quads.shape[1] != 4:
            raise ValueError("quads must have shape (nq, 4)")
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertex coordinates must be finite")
        if quads.size and (quads.min() < 0 or quads.max() >= len(vertices)):
            raise ValueError(
                f"vertex indices must lie in [0, {len(vertices)}); "
                f"got {quads.min()} to {quads.max()}")

        # J at the reference corners (the local edges' start points); it is
        # affine in the reference coordinates, so positive at the four
        # corners means positive on the whole cell (strict convexity)
        jac = geometry_at(vertices[quads], EDGE_STARTS)[2]
        if not np.all(jac > 0.0):
            bad = int(np.argwhere(~np.all(jac > 0.0, axis=1))[0, 0])
            raise ValueError(
                f"quad {bad} is not strictly convex / counterclockwise "
                f"(corner Jacobians {jac[bad]})"
            )

        pairs = quads[:, LOCAL_EDGES].reshape(-1, 2)  # one row per slot
        keys = np.sort(pairs, axis=1)
        _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                      return_inverse=True)
        # number the edges by first use: edge k opens at slot first_slot[k]
        edge = np.argsort(np.argsort(first))[inverse.ravel()]
        first_slot = np.sort(first)
        edges = keys[first_slot]
        orient = np.where(pairs[:, 0] < pairs[:, 1], 1, -1)
        quad_edges = np.stack([edge, orient], axis=-1).reshape(-1, 4, 2)

        if np.bincount(edge).max(initial=0) > 2:
            raise ValueError("non-manifold mesh: an edge is shared by >2 quads")
        if len(vertices) - len(edges) + len(quads) != 1:
            raise ValueError("Euler count check failed; mesh is not a simply "
                             "connected quad partition")
        edge_slots = np.full((len(edges), 2), -1, dtype=np.int64)
        edge_slots[:, 0] = first_slot
        later = np.ones(len(edge), dtype=bool)
        later[first_slot] = False
        edge_slots[edge[later], 1] = np.flatnonzero(later)

        p = relative_corners(vertices[quads])
        diameters = np.linalg.norm(p[:, :, None, :] - p[:, None, :, :],
                                   axis=-1).max(axis=(1, 2))

        for name, value in (("vertices", vertices), ("quads", quads),
                            ("edges", edges), ("quad_edges", quad_edges),
                            ("edge_slots", edge_slots),
                            ("diameters", diameters)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "h", float(diameters.max()))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_quads(self) -> int:
        return len(self.quads)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def boundary_edges(self) -> np.ndarray:
        """Indices of edges adjacent to exactly one quad."""
        return np.flatnonzero(self.edge_slots[:, 1] < 0)

    def element_corners(self) -> np.ndarray:
        """Corner coordinates per element, shape (nq, 4, 2)."""
        return self.vertices[self.quads]

    @cached_property
    def translation_classes(self) -> tuple:
        """Read-only ``(cell_class (E,), representatives (C,))``: cells
        whose :func:`mapping.relative_corners` are equal bit for bit share
        a class, and classes are numbered by their first cell, the
        representative, so ``cell_class[representatives]`` counts up."""
        rel = relative_corners(self.element_corners()).reshape(-1, 8)
        # each row as one 64-byte value, so equal means bit-identical
        _, first, inverse = np.unique(rel.view("V64").ravel(),
                                      return_index=True, return_inverse=True)
        classes = np.argsort(np.argsort(first))[inverse], np.sort(first)
        for a in classes:
            a.setflags(write=False)
        return classes

    @cached_property
    def dissection_leaves(self) -> np.ndarray:
        """Each cell's leaf in a geometric nested dissection (George, 1973;
        Lipton, Rose & Tarjan, 1979), read-only.  The cells are bisected at
        the median of their centroids, level by level: every region is
        sorted along the longer extent of its centroids and its lower half
        goes left, until each region holds one cell.  A leaf id is the
        cell's path from the root, one bit per level (0 left), most
        significant first: the ids are unique, and two cells part where
        their ids first differ."""
        centroid = self.element_corners().mean(axis=1)
        E = len(centroid)
        leaf = np.zeros(E, dtype=np.int64)
        for level in range(max(E - 1, 0).bit_length()):
            regions = 1 << level
            lo = np.full((2, regions), np.inf)
            hi = -lo
            # one axis at a time: ufunc.at is several times slower on rows
            for x, low, high in zip(centroid.T, lo, hi):
                np.minimum.at(low, leaf, x)
                np.maximum.at(high, leaf, x)
            axis = np.argmax(hi - lo, axis=0)[leaf]
            order = np.lexsort((centroid[np.arange(E), axis], leaf))
            size = np.bincount(leaf, minlength=regions)
            rank = np.empty(E, dtype=np.int64)
            rank[order] = np.arange(E) - (np.cumsum(size) - size)[leaf[order]]
            leaf = 2 * leaf + (rank >= (size[leaf] + 1) // 2)
        leaf.setflags(write=False)
        return leaf


@dataclass(frozen=True)
class MeshQuality:
    h_max: float
    shape_regularity: float  # max over elements of diam(K) / rho_K


def _incircle_diameter(a, b, c):
    """Diameter of the inscribed circle of triangle abc (vectorized)."""
    la = np.linalg.norm(b - c, axis=-1)
    lb = np.linalg.norm(c - a, axis=-1)
    lc = np.linalg.norm(a - b, axis=-1)
    area = 0.5 * np.abs(
        (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
        - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0])
    )
    return 4.0 * area / (la + lb + lc)


def mesh_quality(mesh: QuadMesh) -> MeshQuality:
    """Shape-regularity metric max_K diam(K) / rho_K.

    rho_K is the smallest inscribed-circle diameter among the four triangles
    obtained by dropping one vertex of the quadrilateral.
    """
    # corners of the triangle left by dropping corner k, for k = 0..3
    tri = mesh.element_corners()[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]]
    rho = _incircle_diameter(tri[..., 0, :], tri[..., 1, :],
                             tri[..., 2, :]).min(axis=1)
    return MeshQuality(h_max=mesh.h,
                       shape_regularity=float((mesh.diameters / rho).max()))


def _grid_quads(n: int) -> np.ndarray:
    """Counterclockwise quads for an (n+1) x (n+1) vertex grid, row-major."""
    j, i = np.divmod(np.arange(n * n, dtype=np.int64), n)
    corner = j * (n + 1) + i
    return np.stack([corner, corner + 1, corner + n + 2, corner + n + 1],
                    axis=1)


def generate_square_mesh(n: int) -> QuadMesh:
    """Uniform n x n mesh of the unit square into congruent subsquares."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    coords = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])
    return QuadMesh(vertices, _grid_quads(n))


def generate_trapezoidal_mesh(n: int,
                              d: float = DEFAULT_DISTORTION) -> QuadMesh:
    """n x n mesh in which every interior element is a fixed trapezoid.

    Vertices sit on the uniform grid in x; interior horizontal grid lines are
    displaced vertically by +-d*h in a checkerboard pattern,

        y_{i,j} = h * (j + (-1)**(i+j) * d),   1 <= j <= n-1,

    with the top and bottom rows kept flat so the mesh conforms to the unit
    square.  Interior elements have vertical parallel edges of lengths
    h*(1-2d) and h*(1+2d); the default d = 1/6 gives the 1:2 edge ratio of
    the classical distorted-mesh family.
    """
    if n < 2:
        raise ValueError("n must be >= 2 for the trapezoidal family")
    if not 0.0 <= d < 0.5:
        raise ValueError("distortion d must satisfy 0 <= d < 1/2")
    h = 1.0 / n
    i_idx, j_idx = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    x = i_idx * h
    y = (j_idx + np.where((i_idx + j_idx) % 2 == 0, d, -d)) * h
    y[:, :] = np.where((j_idx == 0) | (j_idx == n), j_idx * h, y)
    vertices = np.column_stack([x.ravel(), y.ravel()])
    return QuadMesh(vertices, _grid_quads(n))


def write_mesh(mesh: QuadMesh, path) -> None:
    """Write the plain-text format: header, vertex lines, quad lines."""
    with open(path, "w") as fh:
        fh.write(f"quadmesh {mesh.n_vertices} {mesh.n_quads}\n")
        np.savetxt(fh, mesh.vertices, fmt="%.17g")
        np.savetxt(fh, mesh.quads, fmt="%d")


def _read_rows(fh, count: int, dtype) -> np.ndarray:
    """The next ``count`` lines of ``fh`` that are not blank, as rows of
    numbers; fewer if the file ends first.  ``np.loadtxt`` never sees an
    empty section, on which it warns."""
    lines = list(itertools.islice(filter(str.strip, fh), count))
    if not lines:
        return np.empty((0, 0), dtype=dtype)
    return np.loadtxt(lines, dtype=dtype, ndmin=2)


def read_mesh(path) -> QuadMesh:
    """Read the plain-text format written by :func:`write_mesh`; a file
    that does not hold what its header promises raises ValueError."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "quadmesh":
            raise ValueError("not a quadmesh file")
        nv, nq = int(header[1]), int(header[2])
        if nv < 0 or nq < 0:
            raise ValueError(f"negative count in the header: {nv} {nq}")
        vertices = _read_rows(fh, nv, float)
        quads = _read_rows(fh, nq, np.int64)
        left_over = any(map(str.strip, fh))
    # a file too short or too long breaks it; QuadMesh checks the columns
    if left_over or (len(vertices), len(quads)) != (nv, nq):
        raise ValueError(f"the header promises {nv} vertices and {nq} quads")
    return QuadMesh(vertices, quads)
