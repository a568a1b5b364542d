"""P1 finite-element operators, banded on the P1 stencil, the disc operators
summed from their rows (``disc_rows``), and discrete integral functionals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import CsrMatrix, dot
from .mesh import Mesh


@dataclass(frozen=True, eq=False)
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


# The P1 stencil: the (dy, dx) grid steps to the grid neighbours and the diagonal
# ones along the cells' split, in increasing band offset dy * (n_div + 1) + dx.
_STENCIL = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))


def _assemble_banded(mesh: Mesh, lower, upper) -> CsrMatrix:
    """The matrix with element matrix ``lower`` on every cell's triangle
    (n00, n10, n11) and ``upper`` on its (n00, n11, n01), stored only as its
    7 diagonals, one per step of the stencil.

    Entry (a, b) lies in the band of offset b - a at column b; seen as a
    grid over the column vertex, corner b of every cell is one slice.
    """
    N = mesh.n_div
    n = N + 1
    bands = np.zeros((len(_STENCIL), n, n))
    for element, corners in ((lower, ((0, 0), (0, 1), (1, 1))),
                             (upper, ((0, 0), (1, 1), (1, 0)))):
        for (ay, ax), row in zip(corners, element):
            for (by, bx), value in zip(corners, row):
                bands[_STENCIL.index((by - ay, bx - ax)), by:by + N, bx:bx + N] += value
    return CsrMatrix.banded(bands.reshape(len(_STENCIL), n * n),
                            [dy * n + dx for dy, dx in _STENCIL])


def disc_rows(mesh: Mesh, centers, radius: float, operator: CsrMatrix) -> CsrMatrix:
    """I @ B as canonical CSR, for the (J, n) 0/1 disc indicators I and a
    banded mesh operator B: row j sums B's rows at the vertices of disc j.
    On the banded identity it is I; on the mass matrix, the device operator.

    A vertex is in a disc when dx*dx + dy*dy <= radius**2 (the closed ball).
    Each disc first keeps the grid ticks with dx*dx <= r**2 and dy*dy <= r**2
    (a rounded sum of two nonnegative terms is at least each term, so no
    member is dropped), and all discs are tested at once in a (J, W, W)
    window array.  B's band dy*(n_div+1) + dx, for the stencil step
    (dy, dx), couples vertex (x, y) to (x + dx, y + dy), so row j lies in
    disc j's window padded by one tick.  The bands are added there from zero
    in decreasing offset order, which is increasing row of B, the order of
    scipy's sparse product: the sums are bitwise its entries.  Exact zeros
    are dropped; the rest come out disc by disc in increasing vertex index,
    as canonical CSR.

    Raises ValueError for a CSR operator or one of another size, and for a
    band outside the P1 stencil or coupling the ends of two grid rows.
    """
    n, size = mesh.n_div + 1, mesh.n_vertices
    if operator.bands is None or operator.n_rows != size:   # banded matrices are square
        raise ValueError(f"disc_rows needs a banded {size} x {size} operator")
    steps = {dy * n + dx: (dy, dx) for dy, dx in _STENCIL}
    grids = np.zeros((len(operator.offsets), n + 2, n + 2))   # each band on the grid, padded with 0
    grids[:, 1:-1, 1:-1] = operator.bands.reshape(-1, n, n)
    for offset, grid in zip(operator.offsets.tolist(), grids):
        if offset not in steps:
            raise ValueError(f"band offset {offset} is not in the P1 stencil of the mesh")
        if steps[offset][1] and grid[1:-1, 1 if steps[offset][1] > 0 else n].any():
            raise ValueError(f"band offset {offset} couples the ends of two grid rows")

    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    r2 = radius ** 2
    windows = []   # per axis: each disc's first kept tick, its (J, W) ticks and their d*d
    for ticks, c in ((mesh.vertices[:n, 0], centers[:, 0]), (mesh.vertices[::n, 1], centers[:, 1])):
        d2 = np.square(ticks - c[:, None])           # (J, n)
        near = d2 <= r2
        start, count = near.argmax(axis=1), near.sum(axis=1)
        window = np.arange(count.max(initial=0))
        kept = np.minimum(start[:, None] + window, n - 1)
        d2 = np.take_along_axis(d2, kept, axis=1)
        windows.append((start, kept, np.where(window < count[:, None], d2, np.inf)))   # inf fails
    (x0, tx, dx2), (y0, ty, dy2) = windows
    member = dx2[:, None, :] + dy2[:, :, None] <= r2   # (J, Wy, Wx)
    J, wy, wx = member.shape
    rows = np.zeros((J, wy + 2, wx + 2))   # [j, a, b]: entry (j, vertex (x0 - 1 + b, y0 - 1 + a))
    at = (ty[:, :, None] + 1) * (n + 2) + tx[:, None, :] + 1   # each window tick in the grids
    for offset, grid in zip(operator.offsets.tolist()[::-1], grids[::-1]):
        dy, dx = steps[offset]   # a member's entry sits dy, dx ticks away, 0 off the grid
        terms = grid.ravel()[at + dy * (n + 2) + dx]
        rows[:, 1 + dy:1 + dy + wy, 1 + dx:1 + dx + wx] += np.where(member, terms, 0.0)
    nonzero = rows != 0
    indptr = np.zeros(J + 1, dtype=np.int32)
    np.cumsum(nonzero.sum(axis=(1, 2)), out=indptr[1:])
    corner = (y0 - 1) * n + x0 - 1   # each padded window's first vertex
    cols = corner[:, None, None] + np.arange(wy + 2)[:, None] * n + np.arange(wx + 2)
    return CsrMatrix((J, size), indptr=indptr, indices=cols[nonzero].astype(np.int32),
                     data=rows[nonzero])


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
    return math.sqrt(max(dot(values, A.dot(values)), 0.0))
