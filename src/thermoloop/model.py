"""Continuous-problem ingredients: reaction, switching, devices, thermostats.

The controlled system couples a reaction-diffusion field y to a bank of
signal ODEs.  Measurement devices integrate the deviation y - y* against
fixed spatial profiles; switching functions turn those scalars into bounded
signal demands; weights route demands to signal generators whose outputs
scale the control-device source terms.  ``fem.disc_rows`` builds the
discrete device operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import require_finite


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
        require_finite(L_w=self.L_w, H_w=self.H_w)
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
    require_finite(L_w=L_w, C_switch=C_switch, r_sigma=r_sigma)
    if L_w == 0:
        raise ValueError("L_w must be nonzero to calibrate the measurement height")
    if C_switch <= 0:
        raise ValueError(f"C_switch must be positive, got {C_switch}")
    if r_sigma <= 0:
        raise ValueError(f"r_sigma must be positive, got {r_sigma}")
    return 1.0 / (math.pi * abs(L_w) * C_switch * r_sigma ** 2)


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
