"""P1 finite-element operators and discrete integral functionals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import CsrMatrix
from .mesh import Mesh


@dataclass(frozen=True)
class NodalField:
    """Coefficient vector of a continuous piecewise-linear function: one
    value per mesh vertex, read-only float64.  A field fits a mesh or an
    operator when its length does.  Values from outside are checked by
    ``field_from_values``; the stepper checks each iterate it computes.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


def field_from_values(mesh: Mesh, values: np.ndarray) -> NodalField:
    """The checked constructor of a field: a copy of exactly ``mesh.n_vertices``
    finite values, else ValueError."""
    values = np.array(values, dtype=np.float64)
    if values.shape != (mesh.n_vertices,):
        raise ValueError(f"expected {mesh.n_vertices} values, got {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("nodal field contains non-finite values")
    return NodalField(values)


def interpolate(mesh: Mesh, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> NodalField:
    """Nodal interpolation: field value at each vertex is fn(x1, x2).

    ``fn`` (a field spec, or any function) must accept numpy arrays of
    coordinates and broadcast.  Non-finite results are rejected.
    """
    raw = fn(mesh.vertices[:, 0], mesh.vertices[:, 1])
    return field_from_values(mesh, np.broadcast_to(raw, (mesh.n_vertices,)))


def _assemble_banded(mesh: Mesh, lower, upper) -> CsrMatrix:
    """The matrix with element matrix ``lower`` on every cell's triangle
    (n00, n10, n11) and ``upper`` on its (n00, n11, n01), stored only as its
    7 diagonals.

    Entry (a, b) lies in the band of offset b - a at column b; seen as a
    grid over the column vertex, corner b of every cell is one slice.
    """
    N = mesh.n_div
    n = N + 1
    offsets = np.array([-N - 2, -N - 1, -1, 0, 1, N + 1, N + 2])
    bands = np.zeros((7, n, n))
    for element, corners in ((lower, ((0, 0), (0, 1), (1, 1))),
                             (upper, ((0, 0), (1, 1), (1, 0)))):
        for (ay, ax), row in zip(corners, element):
            for (by, bx), value in zip(corners, row):
                band = np.searchsorted(offsets, (by - ay) * n + bx - ax)
                bands[band, by:by + N, bx:bx + N] += value
    return CsrMatrix.banded(bands.reshape(7, n * n), offsets, shape=(n * n, n * n))


def assemble_mass(mesh: Mesh) -> CsrMatrix:
    """Consistent P1 mass matrix: M[i,j] = integral of phi_i * phi_j.

    On each triangle, of area A = h^2/2, the local block is
    A/12 * [[2,1,1],[1,2,1],[1,1,2]].  The entries sum to the domain area.
    """
    area = mesh.h * mesh.h / 2.0
    local = area / 12.0 * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    return _assemble_banded(mesh, local, local)


def assemble_stiffness(mesh: Mesh) -> CsrMatrix:
    """P1 stiffness matrix: K[i,j] = integral of grad(phi_i) . grad(phi_j).

    The local blocks of the two right isosceles triangles do not depend on
    h; the couplings along the cells' diagonals are zero.  Pure natural
    (zero-flux) boundary conditions: no boundary terms, so constants lie in
    the kernel and K is symmetric positive semidefinite.
    """
    lower = 0.5 * np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    upper = 0.5 * np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]])
    return _assemble_banded(mesh, lower, upper)


def form_norm(A: CsrMatrix, values: np.ndarray) -> float:
    """sqrt(v^T A v) of a coefficient vector v; a form rounded below 0 reads 0.

    With the mass matrix M it is the discrete L2 norm, with the stiffness
    matrix K the gradient seminorm (zero for constant fields).
    """
    return math.sqrt(max(float(values @ A.dot(values)), 0.0))
