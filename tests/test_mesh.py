import random
import warnings

import numpy as np
import pytest

from quadelast.mesh import (
    QuadMesh,
    generate_square_mesh,
    generate_trapezoidal_mesh,
    mesh_quality,
    read_mesh,
    write_mesh,
)


def quad_areas(mesh):
    p = mesh.element_corners()
    x, y = p[..., 0], p[..., 1]
    xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
    return 0.5 * np.sum(x * yn - xn * y, axis=1)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_square_mesh_counts(n):
    mesh = generate_square_mesh(n)
    assert mesh.n_vertices == (n + 1) ** 2
    assert mesh.n_quads == n * n
    assert mesh.n_edges == 2 * n * (n + 1)
    assert np.isclose(mesh.h, np.sqrt(2.0) / n)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("d", [0.0, 1.0 / 6.0, 0.3, 0.49])
def test_trapezoidal_mesh_valid(n, d):
    mesh = generate_trapezoidal_mesh(n, d)
    assert mesh.n_vertices == (n + 1) ** 2
    assert mesh.n_quads == n * n
    assert np.isclose(quad_areas(mesh).sum(), 1.0, atol=1e-12)
    # boundary vertices stay on the unit square
    v = mesh.vertices
    on_boundary = (
        np.isclose(v[:, 0], 0) | np.isclose(v[:, 0], 1)
        | np.isclose(v[:, 1], 0) | np.isclose(v[:, 1], 1)
    )
    assert on_boundary.sum() == 4 * n


def test_trapezoidal_d0_is_square():
    a = generate_trapezoidal_mesh(4, 0.0)
    b = generate_square_mesh(4)
    np.testing.assert_allclose(a.vertices, b.vertices)
    np.testing.assert_array_equal(a.quads, b.quads)


def test_trapezoid_edge_ratio():
    # d = 1/6: interior vertical edges alternate h*(2/3) and h*(4/3).
    mesh = generate_trapezoidal_mesh(4, 1.0 / 6.0)
    v = mesh.vertices
    lengths = set()
    for a, b in mesh.edges:
        if np.isclose(v[a, 0], v[b, 0]) and 0 < v[a, 0] < 1:
            if 0 < min(v[a, 1], v[b, 1]) and max(v[a, 1], v[b, 1]) < 1:
                lengths.add(round(abs(v[a, 1] - v[b, 1]), 12))
    lengths = sorted(lengths)
    assert len(lengths) == 2
    assert np.isclose(lengths[1] / lengths[0], 2.0)


def test_edge_orientations_consistent():
    mesh = generate_trapezoidal_mesh(3, 1.0 / 6.0)
    # every interior edge is traversed once in each direction
    seen = {}
    for q in range(mesh.n_quads):
        for e, s in mesh.quad_edges[q]:
            seen.setdefault(int(e), []).append(int(s))
    for e, signs in seen.items():
        if len(signs) == 2:
            assert sorted(signs) == [-1, 1]
    # edge endpoints are sorted
    assert np.all(mesh.edges[:, 0] < mesh.edges[:, 1])
    # quad_edges endpoints agree with the quads arrays
    for q in range(mesh.n_quads):
        quad = mesh.quads[q]
        for j, (a, b) in enumerate(((0, 1), (1, 2), (2, 3), (3, 0))):
            e, s = mesh.quad_edges[q, j]
            lo, hi = mesh.edges[e]
            if s == 1:
                assert (quad[a], quad[b]) == (lo, hi)
            else:
                assert (quad[a], quad[b]) == (hi, lo)


def test_boundary_edges():
    mesh = generate_square_mesh(3)
    assert len(mesh.boundary_edges()) == 4 * 3


def test_nonconvex_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.4, 0.4], [0.0, 1.0]])
    quads = np.array([[0, 1, 2, 3]])
    with pytest.raises(ValueError, match="convex"):
        QuadMesh(vertices, quads)


def test_clockwise_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    quads = np.array([[0, 3, 2, 1]])
    with pytest.raises(ValueError):
        QuadMesh(vertices, quads)


def test_degenerate_distortion_rejected():
    with pytest.raises(ValueError):
        generate_trapezoidal_mesh(4, 0.5)
    with pytest.raises(ValueError):
        generate_trapezoidal_mesh(4, -0.1)


def test_quality_unit_square():
    mesh = generate_square_mesh(1)
    q = mesh_quality(mesh)
    # corner triangles of the unit square have incircle diameter 2 - sqrt(2)
    assert np.isclose(q.h_max, np.sqrt(2.0))
    assert np.isclose(q.shape_regularity, np.sqrt(2.0) / (2.0 - np.sqrt(2.0)))
    assert np.isclose(q.shape_regularity, np.sqrt(2.0) + 1.0)


def test_quality_scale_invariant():
    base = generate_trapezoidal_mesh(2, 1.0 / 6.0)
    scaled = QuadMesh(0.37 * base.vertices, base.quads)
    qa, qb = mesh_quality(base), mesh_quality(scaled)
    assert np.isclose(qa.shape_regularity, qb.shape_regularity)
    assert np.isclose(qb.h_max, 0.37 * qa.h_max)


def test_quality_refinement_invariant():
    # the trapezoidal family is uniformly shape regular under refinement
    vals = [mesh_quality(generate_trapezoidal_mesh(n, 1.0 / 6.0)).shape_regularity
            for n in (4, 8, 16)]
    assert np.allclose(vals[1:], vals[0], rtol=1e-10)


def test_mesh_io_roundtrip(tmp_path):
    mesh = generate_trapezoidal_mesh(5, 1.0 / 6.0)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.quads, mesh.quads)
    np.testing.assert_array_equal(back.edges, mesh.edges)


def test_mesh_io_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("trimesh 3 1\n")
    with pytest.raises(ValueError):
        read_mesh(path)


SQUARE_FILE = "quadmesh 4 1\n0 0\n1 0\n1 1\n0 1\n0 1 2 3\n"


def test_read_mesh_reads_the_square(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE_FILE)
    mesh = read_mesh(path)
    assert mesh.vertices.dtype == np.float64 and mesh.quads.dtype == np.int64
    np.testing.assert_array_equal(mesh.vertices, UNIT_SQUARE)
    np.testing.assert_array_equal(mesh.quads, [[0, 1, 2, 3]])


def test_read_mesh_skips_blank_lines_without_warning(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE_FILE.replace("0 1 2 3", "\n0 1 2 3"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mesh = read_mesh(path)
    np.testing.assert_array_equal(mesh.quads, [[0, 1, 2, 3]])


@pytest.mark.parametrize("text,match", [
    (SQUARE_FILE[:-len("0 1 2 3\n")], "header promises"),  # no quad line
    ("quadmesh 4 1\n0 0\n1 0\n", "header promises"),  # truncated
    (SQUARE_FILE.replace("1 1\n", "1\n"), "columns"),  # short vertex line
    (SQUARE_FILE.replace("0 1 2 3", "0 1 2"), "shape"),  # short quad
    (SQUARE_FILE.replace("1 1\n", "1 x\n"), "convert"),  # not a number
    (SQUARE_FILE.replace("0 1 2 3", "0 1 2 3.5"), "convert"),  # not an int
    (SQUARE_FILE.replace("4 1", "-4 1"), "negative count"),
    (SQUARE_FILE.replace("4 1", "4 -1"), "negative count"),
], ids=["no-quads", "truncated", "short-vertex", "short-quad", "token",
        "float-index", "negative-vertices", "negative-quads"])
def test_read_mesh_rejects_malformed_files(tmp_path, text, match):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the ValueError alone, no warning
        with pytest.raises(ValueError, match=match):
            read_mesh(path)


UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("quad", [[0, 1, 2, -1], [0, 1, 2, 4], [7, 1, 2, 3]])
def test_vertex_index_out_of_range_rejected(quad):
    with pytest.raises(ValueError, match="vertex indices"):
        QuadMesh(UNIT_SQUARE, np.array([quad]))


@pytest.mark.parametrize("bad", ["0 1 2 -1", "0 1 2 4"])
def test_read_mesh_rejects_vertex_index_out_of_range(tmp_path, bad):
    path = tmp_path / "bad.txt"
    path.write_text("quadmesh 4 1\n0 0\n1 0\n1 1\n0 1\n" + bad + "\n")
    with pytest.raises(ValueError, match="vertex indices"):
        read_mesh(path)


def test_cell_diameters():
    mesh = generate_trapezoidal_mesh(3, 1.0 / 6.0)
    p = mesh.element_corners()
    expected = [max(np.linalg.norm(a - b) for a in cell for b in cell)
                for cell in p]
    np.testing.assert_allclose(mesh.diameters, expected, rtol=1e-15)
    assert mesh.h == max(mesh.diameters)
    assert mesh_quality(mesh).h_max == mesh.h


FUZZ_TOKENS = ("nan", "inf", "1e400", "-1", "99999999999999999999", "x",
               "\x00")


def _mutate(rng, text):
    """``text`` with one random truncation, deletion, blank line or
    inserted token."""
    kind = rng.randrange(4)
    if kind == 0:  # truncation
        return text[:rng.randrange(len(text))]
    if kind == 1:  # deletion of a character span or a whole line
        if rng.random() < 0.5:
            a = rng.randrange(len(text))
            return text[:a] + text[a + rng.randint(1, 8):]
        lines = text.splitlines(keepends=True)
        del lines[rng.randrange(len(lines))]
        return "".join(lines)
    if kind == 2:  # inserted blank line
        lines = text.splitlines(keepends=True)
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(("\n", " \n")))
        return "".join(lines)
    a = rng.randrange(len(text) + 1)  # inserted token, possibly mid-number
    sep = rng.choice(("", " "))
    return text[:a] + sep + rng.choice(FUZZ_TOKENS) + sep + text[a:]


def test_read_mesh_mutation_fuzz(tmp_path):
    # every corruption of a valid file is a mesh or a ValueError: no other
    # exception, and no warning on the way
    source = tmp_path / "trapezoid.txt"
    write_mesh(generate_trapezoidal_mesh(2), source)
    text = source.read_text()
    path = tmp_path / "mutant.txt"
    rng = random.Random(20240611)
    outcomes = {"mesh": 0, "ValueError": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2000):
            mutant = text
            for _ in range(rng.randint(1, 3)):
                # an emptied file stays one newline, so it can mutate again
                mutant = _mutate(rng, mutant) or "\n"
            path.write_text(mutant)
            try:
                assert isinstance(read_mesh(path), QuadMesh)
                outcomes["mesh"] += 1
            except ValueError:
                outcomes["ValueError"] += 1
    # both outcomes occur, so the mutations neither always nor never break
    # the file
    assert min(outcomes.values()) > 0
