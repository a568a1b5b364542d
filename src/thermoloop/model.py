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

from .fem import NodalField, field_from_values
from .linalg import CsrMatrix
from .mesh import Mesh


@dataclass(frozen=True)
class ReactionTerm:
    """Pointwise source nonlinearity f(s).

    Kinds: ``zero``; ``linear`` (slope * s); ``cubic_bistable`` (-s^3 + s,
    with stable wells at +-1 and an unstable rest point at 0);
    ``polynomial`` (coefficients in ascending powers).
    """

    kind: str
    slope: float = 1.0
    coefficients: tuple[float, ...] = ()

    _KINDS = ("zero", "linear", "cubic_bistable", "polynomial")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown reaction kind {self.kind!r}; expected one of {self._KINDS}")

    @classmethod
    def zero(cls) -> "ReactionTerm":
        return cls(kind="zero")

    @classmethod
    def linear(cls, slope: float) -> "ReactionTerm":
        return cls(kind="linear", slope=float(slope))

    @classmethod
    def cubic_bistable(cls) -> "ReactionTerm":
        return cls(kind="cubic_bistable")

    @classmethod
    def polynomial(cls, coefficients) -> "ReactionTerm":
        return cls(kind="polynomial", coefficients=tuple(float(c) for c in coefficients))


def eval_reaction(f: ReactionTerm, s):
    """Evaluate f at a scalar or numpy array of values."""
    s = np.asarray(s, dtype=np.float64)
    if f.kind == "zero":
        out = np.zeros_like(s)
    elif f.kind == "linear":
        out = f.slope * s
    elif f.kind == "cubic_bistable":
        out = s - s * s * s  # s ** 3 takes numpy's slow pow path for negative s
    else:  # polynomial, ascending powers
        out = np.zeros_like(s)
        for c in reversed(f.coefficients):
            out = out * s + c
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

    @property
    def lipschitz(self) -> float:
        return abs(self.L_w) * self.H_w


def eval_switch(w: SwitchingFunction, s):
    """Evaluate the switch at a scalar or array; clamps for |L_w * s| >= 1."""
    s = np.asarray(s, dtype=np.float64)
    out = w.H_w * np.clip(w.L_w * s, -1.0, 1.0)
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


@dataclass(frozen=True)
class Device:
    """Disc-shaped device: height * indicator of the closed ball B(center, radius)."""

    center: tuple[float, float]
    radius: float
    height: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"device radius must be positive, got {self.radius}")
        if self.height <= 0:
            raise ValueError(f"device height must be positive, got {self.height}")


def device_field(mesh: Mesh, device: Device) -> NodalField:
    """Nodal interpolation of the device profile.

    Vertices with distance <= radius from the center (closed ball, a
    deterministic tie-break for points exactly on the circle) carry the
    device height; all others are zero.
    """
    inside = disc_indicators(mesh, [device.center], device.radius).toarray()[0]
    return field_from_values(mesh, device.height * inside)


def disc_indicators(mesh: Mesh, centers, radius: float) -> CsrMatrix:
    """Sparse (J, n) 0/1 matrix; row j marks the vertices of disc j.

    A vertex belongs to a disc when its distance from the center is <= radius
    (the closed ball, a deterministic tie-break for vertices on the circle).
    """
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    dx = mesh.vertices[:, 0] - centers[:, :1]
    dy = mesh.vertices[:, 1] - centers[:, 1:]
    rows, cols = np.nonzero(dx * dx + dy * dy <= radius ** 2)
    return CsrMatrix.from_coo(rows, cols, np.ones(len(rows)),
                              shape=(len(centers), mesh.n_vertices), tag=mesh.key)


@dataclass(frozen=True)
class DeviceSet:
    """Controls g_j, measurements h_k, and the routing weights alpha[j, k]."""

    controls: tuple[Device, ...]
    measurements: tuple[Device, ...]
    alpha: np.ndarray

    def __post_init__(self):
        if len(self.controls) < 1 or len(self.measurements) < 1:
            raise ValueError("a device set needs at least one control and one measurement device")
        alpha = np.asarray(self.alpha, dtype=np.float64)
        if alpha.shape != (len(self.controls), len(self.measurements)):
            raise ValueError(f"alpha shape {alpha.shape} does not match "
                             f"(J={len(self.controls)}, K={len(self.measurements)})")
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)

    @property
    def n_controls(self) -> int:
        return len(self.controls)

    @property
    def n_measurements(self) -> int:
        return len(self.measurements)

    @classmethod
    def paired(cls, centers, radius: float, control_height: float,
               measurement_height: float) -> "DeviceSet":
        """One measurement device on top of each control device, identity weights."""
        controls = tuple(Device((float(cx), float(cy)), radius, control_height)
                         for cx, cy in centers)
        measurements = tuple(Device((float(cx), float(cy)), radius, measurement_height)
                             for cx, cy in centers)
        return cls(controls=controls, measurements=measurements,
                   alpha=np.eye(len(controls)))


@dataclass(frozen=True)
class ThermostatBank:
    """First-order signal generators: beta_j * kappa_j' + kappa_j = W_j."""

    beta: np.ndarray
    kappa0: np.ndarray

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=np.float64))
        kappa0 = np.atleast_1d(np.asarray(self.kappa0, dtype=np.float64))
        if beta.shape != kappa0.shape:
            raise ValueError("beta and kappa0 must have the same length")
        if np.any(beta <= 0):
            raise ValueError("all thermostat time constants beta_j must be strictly positive")
        beta.setflags(write=False)
        kappa0.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "kappa0", kappa0)

    def __len__(self) -> int:
        return len(self.beta)


def measurement(M: CsrMatrix, h_field: NodalField, y: NodalField, ystar: NodalField) -> float:
    """Measured deviation: integral of h * (y - y*), evaluated as h^T M (y - y*)."""
    for f in (h_field, y, ystar):
        if f.mesh_key != M.tag:
            raise ValueError("measurement fields must live on the mass matrix's mesh")
    return float(h_field.values @ M.dot(y.values - ystar.values))


def feedback(alpha_row: np.ndarray, switches, measurements) -> float:
    """Signal demand W_j = sum_k alpha[j,k] * w_k(m_k)."""
    alpha_row = np.asarray(alpha_row, dtype=np.float64)
    measurements = np.asarray(measurements, dtype=np.float64)
    if not (len(alpha_row) == len(switches) == len(measurements)):
        raise ValueError("alpha row, switches and measurements must have equal length")
    return float(sum(a * eval_switch(w, m)
                     for a, w, m in zip(alpha_row, switches, measurements)))


def thermostat_step(beta: float, kappa_prev: float, W: float, tau: float):
    """One implicit Euler step of beta * kappa' + kappa = W.

    Returns (beta * kappa_prev + tau * W) / (beta + tau), a convex
    combination of kappa_prev and W, so |kappa| can never exceed
    max(|kappa_prev|, |W|).
    """
    if np.any(np.asarray(beta) <= 0) or tau <= 0:
        raise ValueError("beta and tau must be positive")
    return (beta * kappa_prev + tau * W) / (beta + tau)
