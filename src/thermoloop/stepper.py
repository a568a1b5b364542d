"""Implicit Euler stepping of the coupled field/thermostat system.

Each time step advances (y, kappa_1..kappa_J) with a fixed number of Picard
sweeps.  Within a sweep the measurement and thermostat update use the newest
field iterate (implicit coupling) while the reaction term is lagged one
iterate, so the linear system keeps the constant SPD matrix M + tau*D*K,
solved by Jacobi-preconditioned conjugate gradients.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np

from .fem import NodalField
from .linalg import CsrMatrix, ConvergenceError, cg_solve
from .mesh import Mesh
from .metrics import ErrorRecorder, ErrorSeries, SnapshotRecorder, TrajectoryRecorder
from .model import (ReactionTerm, SwitchingFunction, ThermostatBank,
                    eval_reaction, eval_switch, thermostat_step)


@dataclass(frozen=True)
class SchemeParams:
    """Time discretization controls.

    ``n_steps`` is the step count M (tau = T / M), ``n_picard`` the fixed
    number of Picard sweeps per step.  ``explicit_measure`` switches the
    measurement to the previous accepted state instead of the current Picard
    iterate (a sensitivity-study variant, off by default).
    """

    n_steps: int
    tau: float
    n_picard: int = 3
    cg_tol: float = 1e-10
    cg_max_iters: int | None = None
    explicit_measure: bool = False

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.n_picard < 1:
            raise ValueError(f"n_picard must be >= 1, got {self.n_picard}")


@dataclass(frozen=True)
class StepDiagnostics:
    cg_iters: int
    cg_residual: float
    picard_increment: float  # max-abs change of y over the last Picard sweep


@dataclass(frozen=True)
class SimState:
    """The unknowns (y, kappa) at one time node."""

    step_index: int
    time: float
    y: NodalField
    kappa: np.ndarray
    diagnostics: StepDiagnostics | None = None

    def __post_init__(self):
        kappa = np.atleast_1d(np.asarray(self.kappa, dtype=np.float64))
        if not np.isfinite(kappa).all():
            raise ValueError("kappa contains non-finite values")
        kappa.setflags(write=False)
        object.__setattr__(self, "kappa", kappa)


@dataclass(frozen=True)
class DiscreteProblem:
    """Assembled operators and model terms for a run; immutable and shareable.

    The J devices are paired discs: control j and measurement j cover the
    same vertices, marked by row j of the 0/1 indicator matrix I.  Both act
    through one sparse (J, n) product ``device_mass`` P = I M, scaled by the
    device heights: the measurements are m = C_h * (P y - P y*) and the
    control load is C_g * P^T kappa (M is symmetric, so this is M I^T kappa).
    P^T, the constant P y* and the inverse diagonal of the step matrix (the
    Jacobi preconditioner of every solve) are derived once, at construction.
    All devices share one ``switch`` (scalar L_w and H_w), which is None for
    a device-free problem; ``alpha`` routes the J switch outputs to the J
    thermostats.
    """

    mesh: Mesh
    mass: CsrMatrix
    stiffness: CsrMatrix
    step_matrix: CsrMatrix
    tau: float
    device_mass: CsrMatrix           # P = I M, (J, n)
    C_g: float
    C_h: float
    alpha: np.ndarray                # (J, J)
    switch: SwitchingFunction | None
    thermostats: ThermostatBank
    reaction: ReactionTerm
    ystar: NodalField
    device_mass_t: CsrMatrix = field(init=False, repr=False)   # P^T, (n, J)
    device_mass_ystar: np.ndarray = field(init=False, repr=False)  # P y*, (J,)
    step_inv_diag: np.ndarray = field(init=False, repr=False)      # 1 / diag(step_matrix)

    def __post_init__(self):
        if self.device_mass.n_cols != self.mesh.n_vertices:
            raise ValueError("device operator width does not match the mesh")
        if self.device_mass.n_rows and self.switch is None:
            raise ValueError("a problem with devices needs a switching function")
        object.__setattr__(self, "device_mass_t", self.device_mass.transpose())
        object.__setattr__(self, "device_mass_ystar", self.device_mass.dot(self.ystar.values))
        diag = self.step_matrix.diagonal()
        if not np.all(diag > 0):
            raise ValueError("the step matrix needs a positive diagonal (it must be SPD)")
        inv_diag = 1.0 / diag
        inv_diag.setflags(write=False)
        object.__setattr__(self, "step_inv_diag", inv_diag)

    @property
    def n_controls(self) -> int:
        return self.device_mass.n_rows


@dataclass(frozen=True)
class RunOutput:
    """Everything collected from one run."""

    final_state: SimState
    series: ErrorSeries | None = None
    snapshots: tuple = ()
    trajectory_y: np.ndarray | None = None      # (M+1, n) when recorded
    trajectory_kappa: np.ndarray | None = None  # (M+1, J) when recorded
    config_echo: dict | None = None
    timings: dict = field(default_factory=dict)


def build_step_operator(M_mass: CsrMatrix, K_stiff: CsrMatrix, D: float, tau: float) -> CsrMatrix:
    """Implicit Euler step matrix A = M + tau * D * K (symmetric positive definite)."""
    if (M_mass.n_rows, M_mass.n_cols) != (K_stiff.n_rows, K_stiff.n_cols):
        raise ValueError("mass and stiffness dimensions disagree")
    if M_mass.tag != K_stiff.tag:
        raise ValueError("mass and stiffness come from different meshes")
    if D <= 0 or tau < 0:
        raise ValueError("require D > 0 and tau >= 0")
    return M_mass.scaled_add(tau * D, K_stiff)


def _update_thermostats(problem: DiscreteProblem, kappa_m: np.ndarray, y: np.ndarray,
                        tau: float) -> np.ndarray:
    """Measure y, switch, and advance every thermostat one step from kappa_m."""
    m_vals = problem.C_h * (problem.device_mass.dot(y) - problem.device_mass_ystar)
    demands = problem.alpha @ eval_switch(problem.switch, m_vals)
    return thermostat_step(problem.thermostats.beta, kappa_m, demands, tau)


def picard_step(state: SimState, problem: DiscreteProblem, params: SchemeParams) -> SimState:
    """Advance one implicit Euler step with a fixed number of Picard sweeps.

    Sweep p measures all devices at once, m = C_h * (P y - P y*) with the
    sparse P = I M, passes the (J,) vector through the shared switch in one
    call, forms demands W = alpha @ w(m) and updates kappa implicitly.  It
    then solves (M + tau*D*K) y = M (y_m + tau * f(y_lag)) + tau * C_g * P^T kappa
    by Jacobi-preconditioned conjugate gradients warm-started from the
    previous iterate, with the cubic lagged one iterate.  With
    ``explicit_measure`` the thermostats are updated once per step from y_m
    instead of once per sweep.

    A lagged reaction term that overflows means the Picard iteration
    diverged; that raises ConvergenceError naming the step, the sweep and the
    last finite Picard increment.
    """
    tau = problem.tau
    M = problem.mass
    y_m = state.y.values
    kappa_m = state.kappa
    controlled = problem.n_controls > 0
    kappa_new = kappa_m
    if controlled and params.explicit_measure:
        kappa_new = _update_thermostats(problem, kappa_m, y_m, tau)

    y_before = y_prev = y_m
    sol = None
    for p in range(params.n_picard):
        if controlled and not params.explicit_measure:
            kappa_new = _update_thermostats(problem, kappa_m, y_prev, tau)
        with np.errstate(over="ignore"):
            reaction = eval_reaction(problem.reaction, y_prev)
        if not np.isfinite(reaction).all():
            if p > 0:
                last = _max_change(y_prev, y_before)
            else:
                last = state.diagnostics.picard_increment if state.diagnostics else float("nan")
            raise ConvergenceError(
                f"Picard iteration diverged at step {state.step_index + 1}, "
                f"Picard sweep {p + 1}: the lagged reaction term is non-finite "
                f"(last finite Picard increment {last:.3e})", p, last)
        rhs = M.dot(y_m + tau * reaction)
        if controlled:
            rhs += tau * problem.C_g * problem.device_mass_t.dot(kappa_new)
        try:
            sol = cg_solve(problem.step_matrix, rhs, rel_tol=params.cg_tol,
                           max_iters=params.cg_max_iters, inv_diag=problem.step_inv_diag,
                           x0=y_prev)
        except ConvergenceError as err:
            raise ConvergenceError(
                f"linear solve failed at step {state.step_index + 1}, "
                f"Picard sweep {p + 1}: {err}", err.iters, err.residual) from err
        if not np.isfinite(sol.x).all():
            raise RuntimeError(
                f"non-finite iterate at step {state.step_index + 1}, Picard sweep {p + 1}; "
                f"kappa range [{kappa_new.min() if len(kappa_new) else 0}, "
                f"{kappa_new.max() if len(kappa_new) else 0}]")
        y_before, y_prev = y_prev, sol.x

    diags = StepDiagnostics(cg_iters=sol.iters, cg_residual=sol.residual,
                            picard_increment=_max_change(y_prev, y_before))
    # node time from the index, not by accumulation: exact for every step
    return SimState(step_index=state.step_index + 1,
                    time=(state.step_index + 1) * tau,
                    y=NodalField(y_prev, state.y.mesh_key),
                    kappa=kappa_new,
                    diagnostics=diags)


def _max_change(new: np.ndarray, old: np.ndarray) -> float:
    """Max-abs difference of two Picard iterates (0 on an empty mesh)."""
    return float(np.max(np.abs(new - old))) if len(new) else 0.0


def run(initial: SimState, problem: DiscreteProblem, params: SchemeParams,
        observers=()) -> RunOutput:
    """Apply picard_step n_steps times, invoking every observer at each node.

    Observers are callables taking the current SimState; the initial state is
    observed too, so series have n_steps + 1 entries.  Recorder observers
    from the metrics module are recognized and folded into the RunOutput.
    """
    if params.n_steps < 1:
        raise ValueError("a run needs at least one step")
    t_start = _time.perf_counter()
    state = initial
    for obs in observers:
        obs(state)
    for _ in range(params.n_steps):
        state = picard_step(state, problem, params)
        for obs in observers:
            obs(state)
    elapsed = _time.perf_counter() - t_start

    series = None
    snapshots: tuple = ()
    traj_y = traj_kappa = None
    for obs in observers:
        if isinstance(obs, ErrorRecorder) and series is None:
            series = obs.series()
        elif isinstance(obs, SnapshotRecorder) and not snapshots:
            snapshots = tuple(obs.snapshots)
        elif isinstance(obs, TrajectoryRecorder) and traj_y is None:
            traj_y, traj_kappa = obs.ys(), obs.kappas()
    return RunOutput(final_state=state, series=series, snapshots=snapshots,
                     trajectory_y=traj_y, trajectory_kappa=traj_kappa,
                     timings={"stepping_s": elapsed})
