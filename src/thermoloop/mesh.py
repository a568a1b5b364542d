"""Structured triangulations of the square (-1,1)^2 with P1 nodal indexing."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


def as_int(value, name: str) -> int:
    """An integer parameter as a Python int; numpy integers are accepted.

    A bool, a float or anything else without ``__index__`` is a ValueError
    naming the parameter.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def require_finite(**params) -> None:
    """Raise ValueError naming the first parameter with a bool or non-finite entry.

    Each value is a real number or a sequence of them; numpy scalars and
    arrays are accepted.
    """
    for name, value in params.items():
        # np.isfinite takes True for 1.0, and a config file cannot hold it as a number
        if any(isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat):
            raise ValueError(f"{name} must be real, not a bool, got {value!r}")
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True, eq=False)
class Mesh:
    """Uniform triangulation of the square (-1,1)^2.

    Every grid cell is split along its lower-left to upper-right diagonal,
    giving 2*n_div**2 triangles with positive (counterclockwise) orientation
    and identical area h**2/2.  The triangles are implicit in the grid: the
    operators are assembled from the cells' two reference triangles, so only
    the vertices are stored.  Vertices are numbered row-major with the first
    coordinate varying fastest, so vertex k sits at
    (-1 + (k % (n_div+1))*h, -1 + (k // (n_div+1))*h).  The vertex count
    (n_div+1)**2 fixes n_div, so it is the mesh's only identity: a field or an
    operator fits the mesh when its length is the vertex count.
    """

    n_div: int
    vertices: np.ndarray   # (n_vertices, 2) float

    @property
    def h(self) -> float:
        """Spatial step: 2 / n_div."""
        return 2.0 / self.n_div

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]


def build_mesh(n_div: int) -> Mesh:
    """Triangulate (-1,1)^2 with n_div cells per side.

    Rejects a non-integer n_div (numpy integers are accepted) and n_div < 1.
    """
    n_div = as_int(n_div, "n_div")
    if n_div < 1:
        raise ValueError(f"n_div must be >= 1, got {n_div}")

    ticks = -1.0 + (2.0 / n_div) * np.arange(n_div + 1)
    # row-major, x fastest
    xx, yy = np.meshgrid(ticks, ticks, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    vertices.setflags(write=False)
    return Mesh(n_div=n_div, vertices=vertices)
