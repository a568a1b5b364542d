"""Error functionals and trajectory recorders."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import NodalField, l2_norm, h1_seminorm
from .linalg import CsrMatrix


@dataclass(frozen=True)
class ErrorSeries:
    """Per-time-node diagnostics of a run."""

    times: np.ndarray         # (M+1,)
    e_y: np.ndarray           # (M+1,) L2 error
    e_grad: np.ndarray        # (M+1,) gradient error
    kappa_traces: np.ndarray  # (J, M+1)
    mass_trace: np.ndarray    # (M+1,) discrete integral of y

    def __post_init__(self):
        n = len(self.times)
        if not (len(self.e_y) == len(self.e_grad) == len(self.mass_trace) == n
                and self.kappa_traces.shape[1:] == (n,)):
            raise ValueError("series lengths disagree")
        for arr in (self.times, self.e_y, self.e_grad, self.kappa_traces, self.mass_trace):
            if not np.isfinite(arr).all():
                raise ValueError("series contains non-finite entries")
        if np.any(self.e_y < 0) or np.any(self.e_grad < 0):
            raise ValueError("error series must be nonnegative")

    @property
    def n_nodes(self) -> int:
        return len(self.times)


class ErrorRecorder:
    """Observer collecting E_y, E_grad, kappa and mass at every time node.

    The reference ``ystar`` is one field, or an (M+1, n) array whose row m
    is the reference at step m (a recorded trajectory): the errors are then
    the distances between two runs.  It is checked against the mass
    matrix's mesh once, here; each observed field meets ``l2_norm``'s check.
    """

    def __init__(self, mass: CsrMatrix, stiffness: CsrMatrix,
                 ystar: NodalField | np.ndarray):
        if isinstance(ystar, np.ndarray):
            if ystar.shape[1:] != (mass.n_cols,):
                raise ValueError(f"reference trajectory of shape {ystar.shape} is not "
                                 f"{mass.n_cols} columns wide")
        elif ystar.mesh_key != mass.tag:
            raise ValueError(f"reference ystar lives on mesh {ystar.mesh_key}, not on {mass.tag}")
        self._mass = mass
        self._stiffness = stiffness
        self._ystar = ystar
        self._weights = mass.dot(np.ones(mass.n_cols))  # row sums; mass of y is w . y
        self._times: list[float] = []
        self._e_y: list[float] = []
        self._e_grad: list[float] = []
        self._kappa: list[np.ndarray] = []
        self._mass_trace: list[float] = []

    def __call__(self, state) -> None:
        y, ref = state.y, self._ystar
        ref = ref[state.step_index] if isinstance(ref, np.ndarray) else ref.values
        self._times.append(state.time)
        deviation = NodalField(y.values - ref, y.mesh_key)
        self._e_y.append(l2_norm(self._mass, deviation))
        self._e_grad.append(h1_seminorm(self._stiffness, deviation))
        self._kappa.append(np.array(state.kappa))
        self._mass_trace.append(float(self._weights @ state.y.values))

    def series(self) -> ErrorSeries:
        return ErrorSeries(times=np.array(self._times),
                           e_y=np.array(self._e_y),
                           e_grad=np.array(self._e_grad),
                           kappa_traces=np.array(self._kappa).T,
                           mass_trace=np.array(self._mass_trace))


class SnapshotRecorder:
    """Observer storing (step_index, field) pairs at the given steps."""

    def __init__(self, steps):
        self.steps = frozenset(int(s) for s in steps)
        self.snapshots: list[tuple[int, NodalField]] = []

    def __call__(self, state) -> None:
        if state.step_index in self.steps:
            self.snapshots.append((state.step_index, state.y))


class TrajectoryRecorder:
    """Observer keeping the full (y, kappa) history of ``n_nodes`` time nodes.

    A run of M steps has M + 1 nodes.  The rows are written into one
    (n_nodes, n) and one (n_nodes, J) array, allocated at the first node;
    memory-heavy on fine meshes.  A node beyond ``n_nodes`` raises ValueError.
    """

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ValueError(f"a trajectory has at least one node, got {n_nodes}")
        self.n_nodes = n_nodes
        self._count = 0
        self._ys = self._kappas = np.zeros((0, 0))

    def __call__(self, state) -> None:
        m = self._count
        if m == self.n_nodes:
            raise ValueError(f"trajectory recorder sized for {self.n_nodes} time nodes "
                             f"was given another (step {state.step_index})")
        if m == 0:
            self._ys = np.empty((self.n_nodes, len(state.y.values)))
            self._kappas = np.empty((self.n_nodes, len(state.kappa)))
        self._ys[m] = state.y.values
        self._kappas[m] = state.kappa
        self._count = m + 1

    def ys(self) -> np.ndarray:
        """The (nodes recorded, n) field history."""
        return self._ys[:self._count]

    def kappas(self) -> np.ndarray:
        """The (nodes recorded, J) signal history."""
        return self._kappas[:self._count]
