"""Continuous-problem ingredients: reaction, switching, devices, thermostats.

The controlled system couples a reaction-diffusion field y to a bank of
signal ODEs.  Measurement devices integrate the deviation y - y* against
fixed spatial profiles; switching functions turn those scalars into bounded
signal demands; weights route demands to signal generators whose outputs
scale the control-device source terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import CsrMatrix
from .mesh import Mesh


@dataclass(frozen=True)
class ReactionTerm:
    """Pointwise source nonlinearity f(s).

    Kinds: ``zero``; ``cubic_bistable`` (-s^3 + s, with stable wells at
    +-1 and an unstable rest point at 0).
    """

    kind: str

    _KINDS = ("zero", "cubic_bistable")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown reaction kind {self.kind!r}; expected one of {self._KINDS}")

    @classmethod
    def zero(cls) -> "ReactionTerm":
        return cls(kind="zero")

    @classmethod
    def cubic_bistable(cls) -> "ReactionTerm":
        return cls(kind="cubic_bistable")


def eval_reaction(f: ReactionTerm, s):
    """Evaluate f at a scalar or numpy array of values."""
    s = np.asarray(s, dtype=np.float64)
    if f.kind == "zero":
        out = np.zeros_like(s)
    else:  # cubic_bistable
        out = s - s * s * s  # s ** 3 takes numpy's slow pow path for negative s
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SwitchingFunction:
    """Clamped-linear switch w(s) = H_w * max(min(L_w * s, 1), -1).

    ``L_w`` is the inner slope (its sign selects the feedback direction),
    ``H_w`` the output amplitude, so |w| <= H_w everywhere and w(0) = 0.
    """

    L_w: float
    H_w: float

    def __post_init__(self):
        if self.H_w <= 0:
            raise ValueError(f"H_w must be positive, got {self.H_w}")


def eval_switch(w: SwitchingFunction, s):
    """Evaluate the switch at a scalar or array; clamps for |L_w * s| >= 1."""
    s = np.asarray(s, dtype=np.float64)
    out = w.H_w * np.maximum(np.minimum(w.L_w * s, 1.0), -1.0)
    return float(out) if out.ndim == 0 else out


def calibrate_ch(L_w: float, C_switch: float, r_sigma: float) -> float:
    """Measurement-device height making the switch saturate at deviation C_switch.

    Solves C_switch * integral(sigma_h) = 1/|L_w| for a disc profile of
    radius r_sigma, giving C_h = 1 / (pi * |L_w| * C_switch * r_sigma^2).
    """
    if L_w == 0:
        raise ValueError("L_w must be nonzero to calibrate the measurement height")
    if C_switch <= 0 or r_sigma <= 0:
        raise ValueError("C_switch and r_sigma must be positive")
    return 1.0 / (math.pi * abs(L_w) * C_switch * r_sigma ** 2)


def disc_rows(mesh: Mesh, centers, radius: float, operator: CsrMatrix) -> CsrMatrix:
    """I @ B as canonical CSR, for the (J, n) 0/1 disc indicators I and a
    banded mesh operator B: row j sums B's rows at the vertices of disc j.
    On the banded identity it is I; on the mass matrix, the device operator.

    A vertex is in a disc when dx*dx + dy*dy <= radius**2 (the closed ball).
    Each disc first keeps the grid ticks with dx*dx <= r**2 and dy*dy <= r**2
    (a rounded sum of two nonnegative terms is at least each term, so no
    member is dropped), and all discs are tested at once in a (J, W, W)
    window array.  B's band dy*(n_div+1) + dx couples vertex (x, y) to
    (x + dx, y + dy), so row j lies in disc j's window padded by one tick.
    The bands are added there from zero in decreasing offset order, which is
    increasing row of B, the order of scipy's sparse product: the sums are
    bitwise its entries.  Exact zeros are dropped; the rest come out disc by
    disc in increasing vertex index, as canonical CSR.

    Raises ValueError for a CSR operator or one of another size, and for a
    band outside the P1 stencil or coupling the ends of two grid rows.
    """
    n, size = mesh.n_div + 1, mesh.n_vertices
    if operator.bands is None or (operator.n_rows, operator.n_cols) != (size, size):
        raise ValueError(f"disc_rows needs a banded {size} x {size} operator")
    # the P1 couplings: grid neighbours, diagonal ones along the cells' split
    steps = {dy * n + dx: (dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy * dx >= 0}
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


def thermostat_step(beta: np.ndarray | float, kappa_prev: np.ndarray | float,
                    W: np.ndarray | float, tau: float) -> np.ndarray | float:
    """One implicit Euler step of beta * kappa' + kappa = W, for every device.

    ``beta``, ``kappa_prev`` and ``W`` are the (J,) time constants, signals
    and demands of the J thermostats (scalars for one).  Returns
    (beta * kappa_prev + tau * W) / (beta + tau), a convex combination of
    kappa_prev and W, so |kappa| can never exceed max(|kappa_prev|, |W|).
    """
    b = np.asarray(beta)
    # one reduction: min propagates NaN, so "not > 0" rejects a NaN as well as a value <= 0
    if (b.size and not b.min() > 0) or not tau > 0:
        raise ValueError("beta and tau must be positive")
    return (beta * kappa_prev + tau * W) / (beta + tau)
