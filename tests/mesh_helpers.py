"""Mesh helpers shared by the tests: the explicit triangle list and its
topology, the element-by-element assembly of the mesh operators kept as the
reference, the disc indicators, and the scipy form of a stored matrix, the
reference for its operations."""

import numpy as np
import scipy.sparse as sp

from thermoloop.fem import disc_rows
from thermoloop.linalg import CsrMatrix


def as_scipy(A: CsrMatrix):
    """A's arrays as the scipy matrix of the same storage: DIA for a banded
    matrix, CSR otherwise."""
    shape = (A.n_rows, A.n_cols)
    if A.bands is not None:
        return sp.dia_matrix((A.bands, A.offsets), shape=shape)
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=shape)


def disc_indicators(mesh, centers, radius) -> CsrMatrix:
    """The (J, n) 0/1 disc indicators I: ``disc_rows`` on the banded identity."""
    n = mesh.n_vertices
    return disc_rows(mesh, centers, radius, CsrMatrix.banded(np.ones((1, n)), [0]))


def csr(m, shape=None) -> CsrMatrix:
    """The CSR matrix of scipy's canonical CSR form of m, in fresh arrays: m is
    a dense array or a CsrMatrix (their nonzero entries) or (vals, (rows, cols))
    triplets, whose duplicates are summed."""
    if isinstance(m, CsrMatrix):
        m = as_scipy(m)
    c = sp.csr_matrix(m, shape=shape, dtype=np.float64)
    c.sum_duplicates()   # sorted column indices, each position once
    return CsrMatrix(c.shape, indptr=c.indptr.astype(np.int32),
                     indices=c.indices.astype(np.int32), data=c.data.copy())


def triangles(mesh) -> np.ndarray:
    """The (2*n_div**2, 3) vertex triples of the triangulation, counterclockwise:
    cell by cell, its lower (n00, n10, n11) and upper (n00, n11, n01) triangle."""
    n = mesh.n_div + 1
    cells_i, cells_j = np.meshgrid(np.arange(mesh.n_div), np.arange(mesh.n_div), indexing="xy")
    n00 = (cells_j * n + cells_i).ravel()
    n10, n01 = n00 + 1, n00 + n
    n11 = n01 + 1
    tri = np.empty((2 * mesh.n_div ** 2, 3), dtype=np.int64)
    tri[0::2] = np.column_stack([n00, n10, n11])
    tri[1::2] = np.column_stack([n00, n11, n01])
    return tri


def edge_counts(mesh) -> dict[tuple[int, int], int]:
    """How many triangles share each (sorted) vertex-pair edge."""
    counts: dict[tuple[int, int], int] = {}
    for a, b, c in triangles(mesh):
        for u, v in ((a, b), (b, c), (c, a)):
            edge = (int(min(u, v)), int(max(u, v)))
            counts[edge] = counts.get(edge, 0) + 1
    return counts


def swap_axes_permutation(mesh) -> np.ndarray:
    """Vertex permutation induced by swapping the two coordinate axes of a
    square mesh: the transpose of the row-major vertex grid."""
    n = mesh.n_div + 1
    return np.arange(n * n).reshape(n, n).T.ravel()


def signed_areas(mesh) -> np.ndarray:
    """Signed area of every triangle (positive for counterclockwise)."""
    p = mesh.vertices[triangles(mesh)]  # (nt, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _from_element_blocks(mesh, vals) -> CsrMatrix:
    """Sum the (nt, 3, 3) element blocks into the global matrix through COO."""
    tri = triangles(mesh)
    rows = np.repeat(tri, 3, axis=1)            # (nt, 9): i i i j j j k k k
    cols = np.tile(tri, (1, 3))                 # (nt, 9): i j k i j k i j k
    return csr((vals.ravel(), (rows.ravel(), cols.ravel())),
               shape=(mesh.n_vertices, mesh.n_vertices))


def element_mass(mesh) -> CsrMatrix:
    """The mass matrix assembled triangle by triangle from each one's own
    computed area: the reference for the banded assembly."""
    local = np.array([[2.0, 1.0, 1.0],
                      [1.0, 2.0, 1.0],
                      [1.0, 1.0, 2.0]]) / 12.0
    return _from_element_blocks(mesh, signed_areas(mesh)[:, None, None] * local[None, :, :])


def element_stiffness(mesh) -> CsrMatrix:
    """The stiffness matrix assembled triangle by triangle from the gradients
    of each one's barycentric basis functions: the reference for the banded
    assembly."""
    p = mesh.vertices[triangles(mesh)]  # (nt, 3, 2)
    areas = signed_areas(mesh)
    b = np.stack([p[:, 1, 1] - p[:, 2, 1],
                  p[:, 2, 1] - p[:, 0, 1],
                  p[:, 0, 1] - p[:, 1, 1]], axis=1) / (2.0 * areas[:, None])
    c = np.stack([p[:, 2, 0] - p[:, 1, 0],
                  p[:, 0, 0] - p[:, 2, 0],
                  p[:, 1, 0] - p[:, 0, 0]], axis=1) / (2.0 * areas[:, None])
    vals = areas[:, None, None] * (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    return _from_element_blocks(mesh, vals)
