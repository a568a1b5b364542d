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


def disc_indicators(mesh: Mesh, centers, radius: float) -> CsrMatrix:
    """Sparse (J, n) 0/1 matrix; row j marks the vertices of disc j.

    A vertex belongs to a disc when its distance from the center is <= radius
    (the closed ball, a deterministic tie-break for vertices on the circle),
    tested as dx*dx + dy*dy <= radius**2.  Vertex k sits at (x_i, y_j) on the
    mesh's grid ticks, so each disc first keeps the ticks with dx*dx <= r**2
    and dy*dy <= r**2 and tests only that block: a rounded sum of two
    nonnegative terms is at least each term, so no member is dropped.  The
    kept ticks of an axis are consecutive, at most W of them, so the blocks
    of all discs are tested at once in one (J, W, W) array.  Its nonzeros
    come out disc by disc and, within a disc, in increasing vertex index:
    they are the matrix's canonical CSR arrays as they stand.
    """
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    n = mesh.n_div + 1
    r2 = radius ** 2
    xs, ys = mesh.vertices[:n, 0], mesh.vertices[::n, 1]
    blocks = []   # per axis: each disc's first kept tick and the (J, W) kept d*d
    for ticks, c in ((xs, centers[:, 0]), (ys, centers[:, 1])):
        d = ticks - c[:, None]
        d2 = d * d                                   # (J, n)
        near = d2 <= r2
        start, count = near.argmax(axis=1), near.sum(axis=1)
        window = np.arange(count.max(initial=0))
        d2 = np.take_along_axis(d2, np.minimum(start[:, None] + window, n - 1), axis=1)
        blocks.append((start, np.where(window < count[:, None], d2, np.inf)))   # inf fails
    (x0, dx2), (y0, dy2) = blocks
    rows, bk, bi = np.nonzero(dx2[:, None, :] + dy2[:, :, None] <= r2)
    indptr = np.zeros(len(centers) + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=len(centers)), out=indptr[1:])
    cols = ((y0[rows] + bk) * n + x0[rows] + bi).astype(np.int32)
    return CsrMatrix((len(centers), mesh.n_vertices), indptr=indptr, indices=cols,
                     data=np.ones(len(cols)))


def thermostat_step(beta: float, kappa_prev: float, W: float, tau: float):
    """One implicit Euler step of beta * kappa' + kappa = W.

    Returns (beta * kappa_prev + tau * W) / (beta + tau), a convex
    combination of kappa_prev and W, so |kappa| can never exceed
    max(|kappa_prev|, |W|).
    """
    b = np.asarray(beta)
    # one reduction: min propagates NaN, so "not > 0" rejects a NaN as well as a value <= 0
    if (b.size and not b.min() > 0) or not tau > 0:
        raise ValueError("beta and tau must be positive")
    return (beta * kappa_prev + tau * W) / (beta + tau)
