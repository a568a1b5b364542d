"""P1 finite-element operators and discrete integral functionals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import CsrMatrix
from .mesh import Mesh, signed_areas


@dataclass(frozen=True)
class NodalField:
    """Coefficient vector of a continuous piecewise-linear function.

    One value per mesh vertex, tied to its mesh through ``mesh_key``.
    """

    values: np.ndarray
    mesh_key: tuple

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if not np.isfinite(values).all():
            raise ValueError("nodal field contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


def field_from_values(mesh: Mesh, values: np.ndarray) -> NodalField:
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (mesh.n_vertices,):
        raise ValueError(f"expected {mesh.n_vertices} values, got {values.shape}")
    return NodalField(values=values, mesh_key=mesh.key)


def interpolate(mesh: Mesh, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> NodalField:
    """Nodal interpolation: field value at each vertex is fn(x1, x2).

    ``fn`` must accept numpy arrays of coordinates and broadcast.
    Non-finite results are rejected.
    """
    raw = fn(mesh.vertices[:, 0], mesh.vertices[:, 1])
    values = np.broadcast_to(np.asarray(raw, dtype=np.float64), (mesh.n_vertices,)).copy()
    return field_from_values(mesh, values)


def _require_same_mesh(matrix: CsrMatrix, *fields: NodalField) -> None:
    for f in fields:
        if f.mesh_key != matrix.tag:
            raise ValueError(f"field mesh {f.mesh_key} does not match operator mesh {matrix.tag}")
        if len(f) != matrix.n_cols:
            raise ValueError("field length does not match operator size")


def assemble_mass(mesh: Mesh) -> CsrMatrix:
    """Consistent P1 mass matrix: M[i,j] = integral of phi_i * phi_j.

    On each triangle of area A the local block is A/12 * [[2,1,1],[1,2,1],[1,1,2]].
    The entry sum equals the domain area (partition of unity).
    """
    areas = signed_areas(mesh)
    tri = mesh.triangles
    local = np.array([[2.0, 1.0, 1.0],
                      [1.0, 2.0, 1.0],
                      [1.0, 1.0, 2.0]]) / 12.0
    vals = areas[:, None, None] * local[None, :, :]
    rows = np.repeat(tri, 3, axis=1)            # (nt, 9): i i i j j j k k k
    cols = np.tile(tri, (1, 3))                 # (nt, 9): i j k i j k i j k
    return CsrMatrix.from_coo(rows.ravel(), cols.ravel(), vals.ravel(),
                              shape=(mesh.n_vertices, mesh.n_vertices), tag=mesh.key)


def assemble_stiffness(mesh: Mesh) -> CsrMatrix:
    """P1 stiffness matrix: K[i,j] = integral of grad(phi_i) . grad(phi_j).

    Pure natural (zero-flux) boundary conditions: no boundary terms, so
    constants lie in the kernel and K is symmetric positive semidefinite.
    """
    p = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    areas = signed_areas(mesh)
    # gradients of the three barycentric basis functions, constant per triangle
    b = np.stack([p[:, 1, 1] - p[:, 2, 1],
                  p[:, 2, 1] - p[:, 0, 1],
                  p[:, 0, 1] - p[:, 1, 1]], axis=1) / (2.0 * areas[:, None])
    c = np.stack([p[:, 2, 0] - p[:, 1, 0],
                  p[:, 0, 0] - p[:, 2, 0],
                  p[:, 1, 0] - p[:, 0, 0]], axis=1) / (2.0 * areas[:, None])
    vals = areas[:, None, None] * (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1)
    cols = np.tile(tri, (1, 3))
    return CsrMatrix.from_coo(rows.ravel(), cols.ravel(), vals.ravel(),
                              shape=(mesh.n_vertices, mesh.n_vertices), tag=mesh.key)


def integral_product(M: CsrMatrix, a: NodalField, b: NodalField) -> float:
    """Discrete integral of a*b over the domain: a^T M b."""
    _require_same_mesh(M, a, b)
    return float(a.values @ M.dot(b.values))


def l2_norm(M: CsrMatrix, a: NodalField) -> float:
    """Discrete L2 norm sqrt(a^T M a)."""
    _require_same_mesh(M, a)
    quad = float(a.values @ M.dot(a.values))
    return float(np.sqrt(max(quad, 0.0)))


def h1_seminorm(K: CsrMatrix, a: NodalField) -> float:
    """Discrete gradient seminorm sqrt(a^T K a); zero for constant fields."""
    _require_same_mesh(K, a)
    quad = float(a.values @ K.dot(a.values))
    return float(np.sqrt(max(quad, 0.0)))
