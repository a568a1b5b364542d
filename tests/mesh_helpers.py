"""Mesh topology helpers shared by the mesh and stability tests."""

import numpy as np


def edge_counts(mesh) -> dict[tuple[int, int], int]:
    """How many triangles share each (sorted) vertex-pair edge."""
    counts: dict[tuple[int, int], int] = {}
    for a, b, c in mesh.triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            edge = (int(min(u, v)), int(max(u, v)))
            counts[edge] = counts.get(edge, 0) + 1
    return counts


def swap_axes_permutation(mesh) -> np.ndarray:
    """Vertex permutation induced by swapping the two coordinate axes of a
    square mesh: the transpose of the row-major vertex grid."""
    n = mesh.n_div + 1
    return np.arange(n * n).reshape(n, n).T.ravel()
