"""Implicit Euler stepping of the coupled field/thermostat system.

Each time step advances (y, kappa_1..kappa_J) with a fixed number of Picard
sweeps.  Within a sweep the measurement and thermostat update use the newest
field iterate (implicit coupling) while the reaction term is lagged one
iterate, so the linear system keeps the constant SPD matrix M + tau*D*K,
solved by conjugate gradients on its Jacobi-scaled form.  Each solve starts from
the previous iterate plus the combination of the corrections its sweep made at
the last steps that leaves the smallest residual (a minimal-residual fit).
"""

from __future__ import annotations

import math
import time as _time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .fem import NodalField
from .linalg import CsrMatrix, ConvergenceError, cg_solve, row_dots
from .mesh import Mesh, as_int
from .metrics import ErrorRecorder, ErrorSeries, SnapshotRecorder, TrajectoryRecorder
from .model import (ReactionTerm, SwitchingFunction, eval_reaction, eval_switch,
                    thermostat_step)

# How many of its sweep's last corrections, one per step, the warm start of
# each solve combines
WARM_START_DEPTH = 6


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
            value = as_int(getattr(self, name), f"scheme.{name}")
            if value < 1:
                raise ValueError(f"scheme.{name} must be >= 1"
                                 + (" or null" if name == "cg_max_iters" else ""))
            object.__setattr__(self, name, value)
        if not 0 < self.cg_tol < 1:   # also rejects nan and inf
            raise ValueError(f"scheme.cg_tol must lie in (0, 1), got {self.cg_tol}")
        object.__setattr__(self, "cg_tol", float(self.cg_tol))   # not a numpy scalar
        # a truthy "no" would select the explicit variant; a config file holds only true or false
        if not isinstance(self.explicit_measure, (bool, np.bool_)):
            raise ValueError(f"scheme.explicit_measure must be true or false, "
                             f"got {self.explicit_measure!r}")
        object.__setattr__(self, "explicit_measure", bool(self.explicit_measure))


@dataclass(frozen=True)
class StepDiagnostics:
    cg_iters: int
    cg_residual: float
    picard_increment: float  # max-abs change of y over the last Picard sweep


class _WarmStartScratch:
    """The vectors the warm starts of one run fit, written in place from step
    to step (every state of the run shares them, none is copied).  For each
    sweep p and each of the last WARM_START_DEPTH steps, ring slot
    ``slots[p, j]`` holds the correction c = y_p - y_{p-1} the sweep made, in
    its first n values, and the image S A S (c / s) of that correction to the
    scaled unknown x = y / s, in its last n.  ``gram[p]`` holds the inner
    products of sweep p's images; ``steps`` counts the steps written."""

    def __init__(self, n_picard: int, n: int):
        self.slots = np.zeros((n_picard, WARM_START_DEPTH, 2 * n))
        self.gram = np.zeros((n_picard, WARM_START_DEPTH, WARM_START_DEPTH))
        self.steps = 0


@dataclass(frozen=True, eq=False)
class WarmStartHistory(Sequence):
    """A stepped state's warm-start history: as a sequence, the read-only
    (n_picard, n) Picard corrections y_p - y_{p-1} of its last
    min(steps, WARM_START_DEPTH) steps, newest first, as views of the run's
    ``scratch``.  ``image`` is S A S x of the solve that gave the state's y,
    x = y / s, which estimates the start residual of the next step's first
    solve.  The history is current while the scratch has written ``steps``
    steps; once a step is made from the state, the scratch moves on and the
    views show later corrections."""

    scratch: _WarmStartScratch = field(repr=False)
    steps: int
    image: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return min(self.steps, WARM_START_DEPTH)

    def __getitem__(self, k: int) -> np.ndarray:
        slot = (self.steps - 1 - range(len(self))[k]) % WARM_START_DEPTH
        n = self.scratch.slots.shape[2] // 2
        view = self.scratch.slots[:, slot, :n]
        view.setflags(write=False)
        return view


@dataclass(frozen=True, eq=False)
class SimState:
    """The unknowns (y, kappa) at one time node, ``step_index`` (an integer
    >= 0, else ValueError) steps from the start: at time step_index * tau,
    which ``ErrorRecorder`` records.  States compare by identity.

    ``history`` is the solver state the warm starts of picard_step's solves
    fit (a ``WarmStartHistory``, which picard_step makes), not part of the
    solution.  A state without one (``()``, every initial state) steps
    exactly as a solve started from the previous iterate, and so does a state
    whose history is stale (a step was already made from it) or was made for
    another number of sweeps or vertices.
    """

    step_index: int
    y: NodalField
    kappa: np.ndarray
    diagnostics: StepDiagnostics | None = None
    history: Sequence = field(default=(), repr=False)

    def __post_init__(self):
        step_index = as_int(self.step_index, "step_index")
        if step_index < 0:
            raise ValueError(f"step_index must be >= 0, got {step_index}")
        object.__setattr__(self, "step_index", step_index)
        kappa = np.atleast_1d(np.asarray(self.kappa, dtype=np.float64))
        if not np.isfinite(kappa).all():
            raise ValueError("kappa contains non-finite values")
        kappa.setflags(write=False)
        object.__setattr__(self, "kappa", kappa)


@dataclass(frozen=True, eq=False)
class DiscreteProblem:
    """Assembled operators and model terms for a run; immutable and shareable.

    The J devices are paired discs: control j and measurement j cover the
    same vertices, marked by row j of the 0/1 indicator matrix I.  Both act
    through one sparse (J, n) product ``device_mass`` P = I M, scaled by the
    device heights: the measurements are m = C_h * (P y - P y*) and the
    control load is C_g * P^T kappa (M is symmetric, so this is M I^T kappa),
    computed from P's own arrays (``CsrMatrix.tdot``): P is stored once.
    The constant P y* and the Jacobi scaling of the step matrix A
    (``CsrMatrix.jacobi_scaled``: the read-only scale s = 1 / sqrt(diag(A))
    and S A S, S = diag(s)) are derived once, at construction: every solve
    runs on S A S.
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
    device_mass_ystar: np.ndarray = field(init=False, repr=False)  # P y*, (J,)
    step_scale: np.ndarray = field(init=False, repr=False)         # s = 1 / sqrt(diag(A))
    scaled_step_matrix: CsrMatrix = field(init=False, repr=False)  # S A S, banded as A

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
        for name, value in zip(("step_scale", "scaled_step_matrix"),
                               self.step_matrix.jacobi_scaled()):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class RunOutput:
    """Everything collected from one run, with the problem it ran."""

    final_state: SimState                       # without its warm-start history
    problem: DiscreteProblem
    series: ErrorSeries | None = None
    snapshots: tuple = ()
    trajectory_y: np.ndarray | None = None      # (M+1, n) when recorded
    trajectory_kappa: np.ndarray | None = None  # (M+1, J) when recorded
    timings: dict = field(default_factory=dict)


def picard_step(state: SimState, problem: DiscreteProblem, scheme: SchemeSpec) -> SimState:
    """Advance one implicit Euler step with a fixed number of Picard sweeps.

    Sweep p measures all devices at once, m = C_h * (P y - P y*) with the
    sparse P = I M, passes the (J,) vector through the shared switch in one
    call, forms demands W = alpha @ w(m) and updates kappa implicitly.  It
    then solves A y = b, A = M + tau*D*K and b = M (y_m + tau * f(y_lag)) +
    tau * C_g * P^T kappa, with the cubic lagged one iterate: conjugate
    gradients solve the Jacobi-scaled system (S A S) x = S b, S = diag(s),
    s = 1 / sqrt(diag(A)), from x0 / s, and y = s * x.  ``cg_tol`` bounds the
    scaled residual, ||S (b - A y)||_2 <= cg_tol ||S b||_2, which is the
    ``cg_residual`` of the step's diagnostics.  With ``explicit_measure`` the
    step keeps the first sweep's thermostat update, made from y_m, in every
    later sweep.

    The solve of sweep p starts from the minimal-residual fit of the
    corrections c = y_p - y_{p-1} that sweep made at the last
    k <= WARM_START_DEPTH steps (``state.history``): with the scaled
    corrections d_i = c_i / s and their images S A S d_i as the rows of D
    and F, it starts from x0 = y_{p-1} / s + D^T g, where g solves
    (F F^T) g = F e and e = S b - S A S (y_{p-1} / s) is the cold start's
    residual, so ||e - F^T g||_2, the start residual, is least.  The images
    and e come from consecutive solves, as (S b - r) - (S b' - r') and
    S b - (S b' - r') for the final residual r' of the solve that gave
    y_{p-1} (the previous step's last solve for p = 0), so the fit adds no
    product with A but one at a cold start, for its first solve.  cg_solve
    recomputes the start residual exactly, so the fit only
    changes the iteration count, never the tolerance met.  A state without a
    current history of this shape starts every solve from y_{p-1} / s, and
    a singular or non-finite fit falls back to that cold start.  The new
    state carries the run's history, written in place.

    A kappa that is not the (J,) vector of one signal per thermostat raises
    ValueError before the first sweep.  A Picard iteration that diverges
    raises ConvergenceError.  An overflow of the lagged reaction or of the
    right-hand side names the step, the sweep and the last finite Picard
    increment.  A last sweep that moves y further in max-abs than the first
    (never with one sweep) and than the floor sqrt(cg_tol) * max|y_new|
    names the step and both increments.  The floor
    lies above solver noise: x = y / s is off by at most cond(S A S) cg_tol
    ||x||_2, so y is off by at most (max s / min s) cond(S A S) sqrt(n)
    cg_tol max|y| in max-abs, and a converged sweep's correction, the
    difference of two such errors, stays below 2.2e3 cg_tol max|y| on the
    presets.  There max s / min s = sqrt(max d / min d) <= 2.41 for
    d = diag(A), and cond(S A S) is at most 3.24 at N = 20 and 4.33 at
    N = 100 (n = 101^2).  The floor is 1e5 cg_tol max|y| at the default
    cg_tol = 1e-10.
    """
    tau = problem.tau
    M = problem.mass
    s = problem.step_scale
    y_m = state.y.values
    kappa_m = state.kappa
    if kappa_m.shape != problem.beta.shape:
        raise ValueError(f"kappa of shape {kappa_m.shape} for {len(problem.beta)} thermostats")

    n = len(y_m)
    history = state.history
    if (isinstance(history, WarmStartHistory) and history.steps == history.scratch.steps
            and history.scratch.slots.shape[::2] == (scheme.n_picard, 2 * n)):
        scratch, image = history.scratch, history.image
    else:   # no history, a stale one or one of another shape: every solve starts cold
        scratch, image = _WarmStartScratch(scheme.n_picard, n), None
    kept = min(scratch.steps, WARM_START_DEPTH)   # the corrections each solve fits
    slot = scratch.steps % WARM_START_DEPTH       # the ring slot this step writes
    scratch.steps += 1                            # the history stepped from is stale now
    written = min(scratch.steps, WARM_START_DEPTH)
    corrections = scratch.slots[:, slot, :n]

    y_prev = y_m
    sol = None
    # a non-finite reaction gives a non-finite right-hand side (tau > 0, diag(M) > 0
    # and s > 0), which cg_solve rejects before its first iteration, and a fit that
    # is not finite falls back to a cold start
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(scheme.n_picard):
            if p == 0 or not scheme.explicit_measure:   # y_prev is y_m in the first sweep
                m_vals = problem.C_h * (problem.device_mass.dot(y_prev)
                                        - problem.device_mass_ystar)
                # every assembled alpha is I, so each demand is one exact term, whatever
                # order a threaded BLAS sums in
                demands = problem.alpha @ eval_switch(problem.switch, m_vals)
                kappa_new = thermostat_step(problem.beta, kappa_m, demands, tau)
            reaction = eval_reaction(problem.reaction, y_prev)
            rhs = M.dot(y_m + tau * reaction)
            rhs += tau * problem.C_g * problem.device_mass.tdot(kappa_new)
            rhs *= s   # S b, the right-hand side of the scaled system
            x0 = _fitted_start(scratch.gram[p, :kept, :kept], scratch.slots[p, :kept],
                               rhs - image, y_prev, s) if kept else None
            if x0 is None:
                x0 = y_prev / s
            if image is None:   # a cold start's first solve: no solve before it
                image = problem.scaled_step_matrix.dot(x0)
            try:
                sol = cg_solve(problem.scaled_step_matrix, rhs, rel_tol=scheme.cg_tol,
                               max_iters=scheme.cg_max_iters, x0=x0)
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
            y_new = np.multiply(sol.x, s, out=sol.x)   # y = S x, in cg_solve's own array
            if not np.isfinite(y_new).all():
                raise RuntimeError(
                    f"non-finite iterate at step {state.step_index + 1}, Picard sweep {p + 1}; "
                    f"kappa range [{kappa_new.min() if len(kappa_new) else 0}, "
                    f"{kappa_new.max() if len(kappa_new) else 0}]")
            np.subtract(y_new, y_prev, out=corrections[p])
            y_prev = y_new
            # the image S A S x = S b - r of the solution, and of the correction
            new_image = np.subtract(rhs, sol.r, out=sol.r)
            images = scratch.slots[p, :written, n:]
            np.subtract(new_image, image, out=images[slot])
            products = row_dots(images, images[slot])
            scratch.gram[p, slot, :written] = products
            scratch.gram[p, :written, slot] = products
            image = new_image

    increment, first = _max_abs(corrections[-1]), _max_abs(corrections[0])
    if increment > first and increment > math.sqrt(scheme.cg_tol) * _max_abs(y_prev):
        raise ConvergenceError(
            f"Picard iteration diverged at step {state.step_index + 1}: the last sweep "
            f"moved y by {increment:.3e}, more than the first sweep's {first:.3e}",
            scheme.n_picard, increment)
    diags = StepDiagnostics(cg_iters=sol.iters, cg_residual=sol.residual,
                            picard_increment=increment)
    return SimState(step_index=state.step_index + 1,
                    y=NodalField(y_prev),   # checked finite after its solve
                    kappa=kappa_new,
                    diagnostics=diags,
                    history=WarmStartHistory(scratch, scratch.steps, image))


def _fitted_start(gram: np.ndarray, fits: np.ndarray, residual: np.ndarray,
                  y_prev: np.ndarray, s: np.ndarray) -> np.ndarray | None:
    """The scaled start x0 = (y_prev + C^T g) / s of a solve whose cold start
    y_prev / s leaves the residual ``residual``, for the k corrections C in
    the first n columns of the (k, 2n) ``fits`` and their images F in the
    last n: g solves the k x k system ``gram`` g = F residual (gram = F F^T),
    so x0's residual is the one of least 2-norm over the span of the
    corrections.  ``np.linalg.solve`` solves the system by LU with partial
    pivoting, backward stable where ``gram`` is ill conditioned (an explicit
    inverse is not).  None where ``gram`` is singular or x0 is not finite."""
    n = len(y_prev)
    try:
        g = np.linalg.solve(gram, row_dots(fits[:, n:], residual))
    except np.linalg.LinAlgError:   # zero or repeated corrections
        return None
    x0 = g @ fits[:, :n]   # each entry a sum of k terms, bitwise for any BLAS threads
    x0 += y_prev
    x0 /= s
    return x0 if np.isfinite(x0).all() else None


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
    Observers see each state's warm-start history; the returned final state
    carries none (``history=()``), so a run continued from it steps as a
    fresh start, the same solution within ``cg_tol`` but not the same bits.
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
    return RunOutput(final_state=replace(state, history=()), problem=problem, series=series,
                     snapshots=snapshots, trajectory_y=traj_y, trajectory_kappa=traj_kappa,
                     timings={"stepping_s": elapsed})
