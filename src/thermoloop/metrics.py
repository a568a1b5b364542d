"""Error functionals and trajectory recorders."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import NodalField, form_norm
from .linalg import CsrMatrix, dot
from .mesh import as_int


@dataclass(frozen=True, eq=False)
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
    """Observer collecting E_y, E_grad, kappa and mass at each of ``n_nodes`` time nodes.

    A state at step m is recorded at time m * ``tau``, the run's step size
    (finite and > 0, else ValueError).
    The ``reference`` is an array: the (mass.n_cols,) values of one
    field, or a (k, mass.n_cols) array whose row m is the reference at step
    m (a recorded trajectory): the errors are then the distances between two
    runs.  Its width and a trajectory's k >= n_nodes rows are checked once,
    here; a later step without a row (a run continued from a later state)
    raises ValueError.  An observed field of the wrong length fails y - y*
    or a ``CsrMatrix.dot`` product with ValueError before it is recorded.

    A run of M steps has M + 1 nodes.  The four scalar series and the
    (n_nodes, J) kappa rows are allocated once (the rows at the first node)
    and written in place; ``series()`` returns views of the filled part.  A
    node beyond ``n_nodes`` raises ValueError.
    """

    def __init__(self, mass: CsrMatrix, stiffness: CsrMatrix, reference: np.ndarray,
                 n_nodes: int, tau: float):
        if not isinstance(reference, np.ndarray):
            raise TypeError(f"reference ystar must be an array, not {type(reference).__name__}")
        if reference.ndim == 1 and len(reference) != mass.n_cols:
            raise ValueError(f"reference ystar has {len(reference)} values, not {mass.n_cols}")
        if reference.ndim != 1 and reference.shape[1:] != (mass.n_cols,):
            raise ValueError(f"reference trajectory of shape {reference.shape} is not "
                             f"{mass.n_cols} columns wide")
        n_nodes = as_int(n_nodes, "n_nodes")
        if n_nodes < 1:
            raise ValueError(f"a series has at least one node, got {n_nodes}")
        if not 0 < tau < math.inf:   # also rejects nan
            raise ValueError(f"tau must be finite and > 0, got {tau}")
        if reference.ndim == 2 and len(reference) < n_nodes:
            raise ValueError(f"reference trajectory has {len(reference)} rows for {n_nodes} nodes")
        self._mass = mass
        self._stiffness = stiffness
        self._ystar = reference   # (n,) field or (k, n) trajectory
        self._weights = mass.dot(np.ones(mass.n_cols))  # row sums; mass of y is w . y
        self._tau = tau
        self.n_nodes = n_nodes
        self._count = 0
        self._times, self._e_y, self._e_grad, self._mass_trace = np.empty((4, n_nodes))
        self._kappas = np.zeros((0, 0))   # (n_nodes, J), allocated at the first node

    def __call__(self, state) -> None:
        m = self._count
        if m == self.n_nodes:
            raise ValueError(f"error recorder sized for {self.n_nodes} time nodes "
                             f"was given another (step {state.step_index})")
        y, ref, step = state.y.values, self._ystar, state.step_index
        if ref.ndim == 2 and step >= len(ref):
            raise ValueError(f"step {step} is beyond the reference trajectory of {len(ref)} rows")
        deviation = y - (ref[step] if ref.ndim == 2 else ref)
        e_y, e_grad = form_norm(self._mass, deviation), form_norm(self._stiffness, deviation)
        if m == 0:
            self._kappas = np.empty((self.n_nodes, len(state.kappa)))
        self._times[m] = step * self._tau
        self._e_y[m] = e_y
        self._e_grad[m] = e_grad
        self._kappas[m] = state.kappa
        self._mass_trace[m] = dot(self._weights, y)
        self._count = m + 1

    def series(self) -> ErrorSeries:
        """Views of the recorded nodes; ``kappa_traces`` is the (J, nodes) transpose."""
        m = self._count
        return ErrorSeries(times=self._times[:m], e_y=self._e_y[:m], e_grad=self._e_grad[:m],
                           kappa_traces=self._kappas[:m].T, mass_trace=self._mass_trace[:m])


class SnapshotRecorder:
    """Observer storing (step_index, field) pairs at the given steps.

    Each step is an integer (a numpy integer too); a float or a bool is a
    ValueError, not a step rounded down.
    """

    def __init__(self, steps):
        self.steps = frozenset(as_int(s, "snapshot step") for s in steps)
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
        n_nodes = as_int(n_nodes, "n_nodes")
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
