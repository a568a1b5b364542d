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

from .fem import assemble_mass, assemble_stiffness, interpolate, l2_norm, NodalField
from .linalg import CsrMatrix
from .mesh import build_mesh
from .model import ReactionTerm, ThermostatBank
from .stepper import DiscreteProblem, SchemeParams, SimState, build_step_operator, run


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


def heat_error(n_div: int, n_steps: int, D: float, T: float, cg_tol: float = 1e-12) -> float:
    """Discrete L2 error against the manufactured solution at time T."""
    mesh = build_mesh(n_div)
    mass = assemble_mass(mesh)
    stiffness = assemble_stiffness(mesh)
    tau = T / n_steps
    problem = DiscreteProblem(
        mesh=mesh, mass=mass, stiffness=stiffness,
        step_matrix=build_step_operator(mass, stiffness, D, tau), tau=tau,
        device_mass=CsrMatrix.from_coo([], [], [], shape=(0, mesh.n_vertices), tag=mesh.key),
        C_g=0.0, C_h=0.0, alpha=np.zeros((0, 0)), switch=None,
        thermostats=ThermostatBank(beta=np.zeros(0), kappa0=np.zeros(0)),
        reaction=ReactionTerm.zero(),
        ystar=interpolate(mesh, lambda x, y: np.zeros_like(x)))
    initial = SimState(step_index=0, time=0.0,
                       y=interpolate(mesh, exact_heat_solution(D, 0.0)),
                       kappa=np.zeros(0))
    out = run(initial, problem, SchemeParams(n_steps=n_steps, tau=tau, n_picard=1,
                                             cg_tol=cg_tol))
    exact = interpolate(mesh, exact_heat_solution(D, T))
    diff = NodalField(out.final_state.y.values - exact.values, mesh.key)
    return l2_norm(mass, diff)


def convergence_study(base_n: int = 10, levels: int = 3, D: float = 0.1,
                      T: float = 0.5, base_steps: int = 4) -> tuple[list[ConvergenceRow], list[float]]:
    """Errors on successively halved meshes with tau ~ h^2, plus observed orders.

    Returns (rows, orders) where orders[i] = log2(error[i] / error[i+1]).
    """
    rows = []
    for level in range(levels):
        n = base_n * 2 ** level
        steps = base_steps * 4 ** level
        err = heat_error(n, steps, D, T)
        rows.append(ConvergenceRow(n_div=n, h=2.0 / n, n_steps=steps, error=err))
    orders = [float(np.log2(rows[i].error / rows[i + 1].error)) for i in range(levels - 1)]
    return rows, orders
