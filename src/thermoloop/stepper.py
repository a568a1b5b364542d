"""Implicit Euler stepping of the coupled field/thermostat system.

Each time step advances (y, kappa_1..kappa_J) with a fixed number of Picard
sweeps.  Within a sweep the measurement and thermostat update use the newest
field iterate (implicit coupling) while the reaction term is lagged one
iterate, so the linear system keeps the constant SPD matrix M + tau*D*K,
solved by Jacobi-preconditioned conjugate gradients.  Each solve starts from
the previous iterate plus the correction its sweep made at the last steps,
extrapolated in time.
"""

from __future__ import annotations

import math
import operator
import time as _time
from dataclasses import dataclass, field

import numpy as np

from .fem import NodalField
from .linalg import CsrMatrix, ConvergenceError, cg_solve
from .mesh import Mesh
from .metrics import ErrorRecorder, ErrorSeries, SnapshotRecorder, TrajectoryRecorder
from .model import (ReactionTerm, SwitchingFunction, eval_reaction, eval_switch,
                    thermostat_step)

# Order of the extrapolation in time of each sweep's correction
# (the warm start of its solve), and the binomial weights of the last d
# corrections, newest first, for each history length d <= the order:
# (), (1,), (2, -1), (3, -3, 1).
WARM_START_ORDER = 3
_EXTRAPOLATION_WEIGHTS = tuple(tuple((-1.0) ** k * math.comb(d, k + 1) for k in range(d))
                               for d in range(WARM_START_ORDER + 1))


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


@dataclass(frozen=True)
class SchemeSpec:
    """Discretization block: mesh divisions, step count, Picard sweeps, solver knobs.

    ``n_steps`` is the step count M (the problem carries tau = T / M),
    ``n_picard`` the fixed number of Picard sweeps per step.
    ``explicit_measure`` switches the measurement to the previous accepted
    state instead of the current Picard iterate (a sensitivity-study
    variant, off by default).
    """

    n_div: int
    n_steps: int
    n_picard: int = 3
    cg_tol: float = 1e-10
    cg_max_iters: int | None = None
    explicit_measure: bool = False

    def __post_init__(self):
        counts = ("n_div", "n_steps", "n_picard") + (
            () if self.cg_max_iters is None else ("cg_max_iters",))
        for name in counts:
            object.__setattr__(self, name, as_int(getattr(self, name), f"scheme.{name}"))
        if self.n_div < 1:
            raise ValueError("scheme.n_div must be >= 1")
        if self.n_steps < 1:
            raise ValueError("scheme.n_steps must be >= 1")
        if self.n_picard < 1:
            raise ValueError("scheme.n_picard must be >= 1")
        if not 0 < self.cg_tol < 1:   # also rejects nan and inf
            raise ValueError(f"scheme.cg_tol must lie in (0, 1), got {self.cg_tol}")
        if self.cg_max_iters is not None and self.cg_max_iters < 1:
            raise ValueError("scheme.cg_max_iters must be >= 1 or null")


@dataclass(frozen=True)
class StepDiagnostics:
    cg_iters: int
    cg_residual: float
    picard_increment: float  # max-abs change of y over the last Picard sweep


@dataclass(frozen=True)
class SimState:
    """The unknowns (y, kappa) at one time node.

    ``history`` holds the read-only (n_picard, n) Picard corrections
    y_p - y_{p-1} of up to the last WARM_START_ORDER steps, newest first;
    picard_step extrapolates them into the warm starts of its solves.  It is
    solver state, not part of the solution: states compare without it, and
    a state without history (every initial state) steps exactly as a
    solve warm-started from the previous iterate.
    """

    step_index: int
    time: float
    y: NodalField
    kappa: np.ndarray
    diagnostics: StepDiagnostics | None = None
    history: tuple = field(default=(), compare=False, repr=False)

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
    All devices share one ``switch`` (scalar L_w and H_w); ``alpha`` routes
    the J switch outputs to the J thermostats, whose time constants are the
    read-only (J,) ``beta``.  A device-free problem has J = 0: its empty
    operands make every device term an empty or zero vector.
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
    switch: SwitchingFunction
    beta: np.ndarray                 # (J,), entries > 0
    reaction: ReactionTerm
    ystar: NodalField
    device_mass_t: CsrMatrix = field(init=False, repr=False)   # P^T, (n, J)
    device_mass_ystar: np.ndarray = field(init=False, repr=False)  # P y*, (J,)
    step_inv_diag: np.ndarray = field(init=False, repr=False)      # 1 / diag(step_matrix)

    def __post_init__(self):
        if not 0 < self.tau < math.inf:   # also rejects nan
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        if self.device_mass.n_cols != self.mesh.n_vertices:
            raise ValueError("device operator width does not match the mesh")
        J = self.device_mass.n_rows
        beta = np.array(self.beta, dtype=np.float64)
        if beta.shape != (J,) or not np.all(np.isfinite(beta) & (beta > 0)):
            raise ValueError(f"beta must hold {J} finite thermostat time constants "
                             f"beta_j > 0, got shape {beta.shape}")
        alpha = np.array(self.alpha, dtype=np.float64)
        if alpha.shape != (J, J):
            raise ValueError(f"alpha shape {alpha.shape} does not match the {J} devices, "
                             f"({J}, {J})")
        ystar_measured = self.device_mass.dot(self.ystar.values)
        for name, value in (("beta", beta), ("alpha", alpha),
                            ("device_mass_ystar", ystar_measured)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "device_mass_t", self.device_mass.transpose())
        diag = self.step_matrix.diagonal()
        if not np.all(diag > 0):
            raise ValueError("the step matrix needs a positive diagonal (it must be SPD)")
        inv_diag = 1.0 / diag
        inv_diag.setflags(write=False)
        object.__setattr__(self, "step_inv_diag", inv_diag)


@dataclass(frozen=True)
class RunOutput:
    """Everything collected from one run, with the problem it ran."""

    final_state: SimState
    problem: DiscreteProblem
    series: ErrorSeries | None = None
    snapshots: tuple = ()
    trajectory_y: np.ndarray | None = None      # (M+1, n) when recorded
    trajectory_kappa: np.ndarray | None = None  # (M+1, J) when recorded
    timings: dict = field(default_factory=dict)


def _update_thermostats(problem: DiscreteProblem, kappa_m: np.ndarray, y: np.ndarray,
                        tau: float) -> np.ndarray:
    """Measure y, switch, and advance every thermostat one step from kappa_m."""
    m_vals = problem.C_h * (problem.device_mass.dot(y) - problem.device_mass_ystar)
    demands = problem.alpha @ eval_switch(problem.switch, m_vals)
    return thermostat_step(problem.beta, kappa_m, demands, tau)


def picard_step(state: SimState, problem: DiscreteProblem, scheme: SchemeSpec) -> SimState:
    """Advance one implicit Euler step with a fixed number of Picard sweeps.

    Sweep p measures all devices at once, m = C_h * (P y - P y*) with the
    sparse P = I M, passes the (J,) vector through the shared switch in one
    call, forms demands W = alpha @ w(m) and updates kappa implicitly.  It
    then solves (M + tau*D*K) y = M (y_m + tau * f(y_lag)) + tau * C_g * P^T kappa
    by Jacobi-preconditioned conjugate gradients, with the cubic lagged one
    iterate.  With ``explicit_measure`` the thermostats are updated once per
    step from y_m instead of once per sweep.

    The solve of sweep p starts from the previous iterate y_{p-1} plus the
    correction c_p = y_p - y_{p-1} that sweep p will make, extrapolated in
    time from the corrections it made at the last d <= WARM_START_ORDER
    steps (``state.history``): x0 = y_{p-1} + 3 c_p^(m) - 3 c_p^(m-1) + c_p^(m-2)
    for d = 3, with the lower-order binomial weights for d = 1, 2.  With no
    usable history (d = 0, or arrays that are not (n_picard, n)) or a
    non-finite guess the solve starts from y_{p-1}.  The new state carries
    this step's corrections in front of the history.

    A Picard iteration that diverges raises ConvergenceError.  An overflow of
    the lagged reaction or of the right-hand side names the step, the sweep
    and the last finite Picard increment.  A last sweep that moves y further
    in max-abs than the first (never with one sweep) and than the floor
    sqrt(cg_tol) * max|y_new| names the step and both increments.  The floor
    lies above solver noise: a solve stopped at ||b - A x||_2 <= cg_tol ||b||_2
    is off by at most cond(A) sqrt(n) cg_tol max|y|, so a converged sweep's
    correction, the difference of two such errors, stays below
    2e3 cg_tol max|y| on the presets (cond(A) < 10, n = 101^2); the floor is
    1e5 cg_tol max|y| at the default cg_tol = 1e-10.
    """
    tau = problem.tau
    M = problem.mass
    y_m = state.y.values
    kappa_m = state.kappa
    if scheme.explicit_measure:
        kappa_new = _update_thermostats(problem, kappa_m, y_m, tau)

    corrections = np.empty((scheme.n_picard, len(y_m)))
    history = state.history
    if any(np.shape(h) != corrections.shape for h in history):
        history = ()
    history = history[:WARM_START_ORDER]
    weights = _EXTRAPOLATION_WEIGHTS[len(history)]

    y_prev = y_m
    sol = None
    for p in range(scheme.n_picard):
        if not scheme.explicit_measure:
            kappa_new = _update_thermostats(problem, kappa_m, y_prev, tau)
        # a non-finite reaction gives a non-finite right-hand side (tau > 0 and
        # diag(M) > 0), which cg_solve rejects before its first iteration
        with np.errstate(over="ignore"):
            reaction = eval_reaction(problem.reaction, y_prev)
            rhs = M.dot(y_m + tau * reaction)
        rhs += tau * problem.C_g * problem.device_mass_t.dot(kappa_new)
        x0 = y_prev
        if weights:
            guess = y_prev + weights[0] * history[0][p]
            for w, h in zip(weights[1:], history[1:]):
                guess += w * h[p]
            if np.isfinite(guess).all():
                x0 = guess
        try:
            sol = cg_solve(problem.step_matrix, rhs, rel_tol=scheme.cg_tol,
                           max_iters=scheme.cg_max_iters, inv_diag=problem.step_inv_diag,
                           x0=x0)
        except ConvergenceError as err:
            if err.iters == 0 and not np.isfinite(err.residual):
                if not np.isfinite(reaction).all():
                    cause = "the lagged reaction term is non-finite"
                else:
                    cause = f"the linear solve rejected its right-hand side: {err}"
                raise _divergence(state, p, corrections, cause) from err
            raise ConvergenceError(
                f"linear solve failed at step {state.step_index + 1}, "
                f"Picard sweep {p + 1}: {err}", err.iters, err.residual) from err
        if not np.isfinite(sol.x).all():
            raise RuntimeError(
                f"non-finite iterate at step {state.step_index + 1}, Picard sweep {p + 1}; "
                f"kappa range [{kappa_new.min() if len(kappa_new) else 0}, "
                f"{kappa_new.max() if len(kappa_new) else 0}]")
        np.subtract(sol.x, y_prev, out=corrections[p])
        y_prev = sol.x

    increment, first = _max_abs(corrections[-1]), _max_abs(corrections[0])
    if increment > first and increment > math.sqrt(scheme.cg_tol) * _max_abs(y_prev):
        raise ConvergenceError(
            f"Picard iteration diverged at step {state.step_index + 1}: the last sweep "
            f"moved y by {increment:.3e}, more than the first sweep's {first:.3e}",
            scheme.n_picard, increment)
    corrections.setflags(write=False)
    diags = StepDiagnostics(cg_iters=sol.iters, cg_residual=sol.residual,
                            picard_increment=increment)
    # node time from the index, not by accumulation: exact for every step
    return SimState(step_index=state.step_index + 1,
                    time=(state.step_index + 1) * tau,
                    y=NodalField(y_prev, state.y.mesh_key),
                    kappa=kappa_new,
                    diagnostics=diags,
                    history=((corrections,) + history)[:WARM_START_ORDER])


def _divergence(state: SimState, p: int, corrections: np.ndarray, cause: str) -> ConvergenceError:
    """The error for a Picard iteration that diverged in sweep p (0-based)."""
    if p > 0:
        last = _max_abs(corrections[p - 1])
    else:
        last = state.diagnostics.picard_increment if state.diagnostics else float("nan")
    return ConvergenceError(
        f"Picard iteration diverged at step {state.step_index + 1}, "
        f"Picard sweep {p + 1}: {cause} (last finite Picard increment {last:.3e})", p, last)


def _max_abs(v: np.ndarray) -> float:
    """Max-abs entry of a Picard correction (0 on an empty mesh)."""
    return float(np.abs(v).max()) if len(v) else 0.0


def run(initial: SimState, problem: DiscreteProblem, scheme: SchemeSpec,
        observers=()) -> RunOutput:
    """Apply picard_step n_steps times, invoking every observer at each node.

    Observers are callables taking the current SimState; the initial state is
    observed too, so series have n_steps + 1 entries.  Recorder observers
    from the metrics module are recognized and folded into the RunOutput.
    """
    t_start = _time.perf_counter()
    state = initial
    for obs in observers:
        obs(state)
    for _ in range(scheme.n_steps):
        state = picard_step(state, problem, scheme)
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
    return RunOutput(final_state=state, problem=problem, series=series, snapshots=snapshots,
                     trajectory_y=traj_y, trajectory_kappa=traj_kappa,
                     timings={"stepping_s": elapsed})
