import re

import numpy as np
import pytest

from mesh_helpers import edge_counts, signed_areas, swap_axes_permutation, triangles
from thermoloop.mesh import build_mesh


def test_counts_n2():
    m = build_mesh(2)
    assert m.n_vertices == 9
    assert len(triangles(m)) == 8
    assert m.h == 1.0


def test_counts_n100():
    m = build_mesh(100)
    assert m.n_vertices == 10201
    assert len(triangles(m)) == 20000
    assert m.h == pytest.approx(0.02)


def test_smallest_mesh():
    m = build_mesh(1)
    assert m.n_vertices == 4
    assert len(triangles(m)) == 2
    assert signed_areas(m).sum() == pytest.approx(4.0)


def test_rejects_zero_divisions():
    with pytest.raises(ValueError):
        build_mesh(0)


# 2.5 would give 16 vertices with ticks up to 1.4, which assembly cannot use
@pytest.mark.parametrize("n_div", [2.5, 2.0, True, "2"])
def test_rejects_non_integer_divisions(n_div):
    message = f"n_div must be an integer, got {n_div!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_mesh(n_div)


def test_vertex_coordinates_corners_and_center():
    m = build_mesh(2)
    assert np.allclose(m.vertices[0], (-1, -1))
    assert np.allclose(m.vertices[4], (0, 0))
    assert np.allclose(m.vertices[8], (1, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_partition_and_orientation(n):
    m = build_mesh(n)
    areas = signed_areas(m)
    assert np.all(areas > 0)
    assert np.allclose(areas, m.h ** 2 / 2)
    assert abs(areas.sum() - 4.0) <= 1e-12 * 4.0


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_edge_sharing(n):
    m = build_mesh(n)
    counts = edge_counts(m)
    assert set(counts.values()) <= {1, 2}
    boundary_edges = [e for e, c in counts.items() if c == 1]
    # diagonals are always interior, so the boundary is the 4n outer edges
    assert len(boundary_edges) == 4 * n
    for a, b in boundary_edges:
        pa, pb = m.vertices[a], m.vertices[b]
        assert any(abs(pa[i]) == 1.0 and pa[i] == pb[i] for i in range(2))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_euler_formula(n):
    m = build_mesh(n)
    V, E, F = m.n_vertices, len(edge_counts(m)), len(triangles(m))
    assert V - E + F == 1


def test_vertices_row_major_x_fastest():
    m = build_mesh(3)
    # consecutive indices advance x until the row wraps
    assert np.allclose(m.vertices[1] - m.vertices[0], (m.h, 0))
    assert np.allclose(m.vertices[4] - m.vertices[0], (0, m.h))


def test_swap_axes_permutation_is_involution():
    m = build_mesh(4)
    perm = swap_axes_permutation(m)
    assert np.array_equal(perm[perm], np.arange(m.n_vertices))
    swapped = m.vertices[perm]
    assert np.allclose(swapped[:, 0], m.vertices[:, 1])
    assert np.allclose(swapped[:, 1], m.vertices[:, 0])


def test_mesh_arrays_read_only():
    m = build_mesh(2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0
