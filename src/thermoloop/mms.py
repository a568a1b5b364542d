"""Manufactured-solution convergence study for the pure heat equation.

With the reaction and all devices switched off the scheme reduces to
implicit Euler for y_t = D * Laplace(y) with zero-flux boundaries.  The
closed-form solution

    y(x, t) = exp(-D * pi^2 * t / 4) * cos(pi * (x1 + 1) / 2)

is flux-free on the boundary of (-1,1)^2, so the discrete L2 error at a
fixed final time measures the combined space/time accuracy.  Halving h with
tau proportional to h^2 should show second-order decay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .experiments import ConstantField, ExperimentConfig, ExplicitLayout, run_experiment
from .fem import form_norm, interpolate
from .model import ReactionTerm
from .stepper import SchemeSpec


# The study's diffusivity, final time, coarsest step count and CG tolerance.
D = 0.1
T = 0.5
BASE_STEPS = 4
CG_TOL = 1e-12


def exact_heat_solution(D: float, t: float):
    """The manufactured solution at time t, as a vectorized callable."""
    decay = np.exp(-D * np.pi ** 2 * t / 4.0)

    def fn(x1, x2):
        return decay * np.cos(np.pi * (x1 + 1.0) / 2.0)

    return fn


@dataclass(frozen=True)
class ConvergenceRow:
    n_div: int
    h: float
    n_steps: int
    error: float


def heat_error(n_div: int, n_steps: int) -> float:
    """Discrete L2 error at time T of a run_experiment started from the manufactured solution."""
    # no devices, so the switch and calibration parameters are placeholders
    config = ExperimentConfig(
        T=T, D=D, beta=(), kappa0=(), C_g=0.0, C_switch=1.0, L_w=1.0, H_w=1.0,
        r_sigma=1.0, layout=ExplicitLayout((), 1.0),
        y0=exact_heat_solution(D, 0.0), ystar=ConstantField(0.0),
        scheme=SchemeSpec(n_div=n_div, n_steps=n_steps, n_picard=1, cg_tol=CG_TOL),
        reaction=ReactionTerm.zero())
    out = run_experiment(config)
    exact = interpolate(out.problem.mesh, exact_heat_solution(D, T))
    return form_norm(out.problem.mass, out.final_state.y.values - exact.values)


def convergence_study(base_n: int = 10,
                      levels: int = 3) -> tuple[list[ConvergenceRow], list[float]]:
    """Errors on successively halved meshes with tau ~ h^2, plus observed orders.

    Returns (rows, orders) where orders[i] = log2(error[i] / error[i+1]).
    An order needs two meshes, so ``levels`` must be at least 2.
    """
    if levels < 2:
        raise ValueError(f"levels must be >= 2 to measure an order, got {levels}")
    rows = []
    for level in range(levels):
        n = base_n * 2 ** level
        steps = BASE_STEPS * 4 ** level
        err = heat_error(n, steps)
        rows.append(ConvergenceRow(n_div=n, h=2.0 / n, n_steps=steps, error=err))
    orders = [float(np.log2(rows[i].error / rows[i + 1].error)) for i in range(levels - 1)]
    return rows, orders
