"""Empirical probes of trajectory bounds and Lipschitz-type stability.

The probes run a base configuration against perturbed copies (initial data
shifted along a fixed direction, or control height scaled) and report the
response-to-perturbation ratios.  Near-constant ratios across perturbation
decades are the numerical signature of Lipschitz stability with respect to
data and control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import experiments
from .experiments import ExperimentConfig, FieldSpec, FieldSum, run_experiment
from .fem import form_norm
from .stepper import RunOutput


@dataclass(frozen=True)
class TrajectoryNorms:
    """Discrete analogs of the trajectory-space norm components."""

    sup_l2_y: float    # max over time nodes of ||y||_L2
    l2_grad_y: float   # (tau * sum_m y_m^T K y_m)^(1/2), right-endpoint rule
    sup_kappa: float   # max over devices and nodes of |kappa|
    l2_dkappa: float   # root-sum-square of backward-difference kappa rates


def _norms(e_y: np.ndarray, e_grad: np.ndarray, kappas: np.ndarray,
           tau: float) -> TrajectoryNorms:
    """The four norms from per-node L2 and gradient norms and (J, M+1) kappas."""
    dk = np.diff(kappas, axis=1) / tau
    return TrajectoryNorms(
        sup_l2_y=float(np.max(e_y)),
        l2_grad_y=float(np.sqrt(tau * np.sum(e_grad[1:] ** 2))),
        sup_kappa=float(np.max(np.abs(kappas), initial=0.0)),
        l2_dkappa=float(np.sqrt(tau * np.sum(dk ** 2))))


def trajectory_norms(out: RunOutput) -> TrajectoryNorms:
    """Norms of a completed run; requires a recorded trajectory."""
    if out.trajectory_y is None:
        raise ValueError("run output has no recorded trajectory "
                         "(pass record_trajectory=True)")
    P = out.problem
    e_y = np.array([form_norm(P.mass, y) for y in out.trajectory_y])
    e_grad = np.array([form_norm(P.stiffness, y) for y in out.trajectory_y])
    return _norms(e_y, e_grad, out.trajectory_kappa.T, P.tau)


@dataclass(frozen=True)
class StabilityReport:
    """Responses of perturbed runs, aligned with strictly decreasing deltas.

    ``responses`` holds the headline scalar (sup-in-time L2 of the field
    difference plus per-device sup of the signal difference); the full
    trajectory-norm components of each difference are carried alongside in
    ``difference_norms``.
    """

    kind: str                        # "initial_data" or "control_height"
    deltas: tuple[float, ...]
    responses: tuple[float, ...]
    difference_norms: tuple[TrajectoryNorms, ...] = ()

    def __post_init__(self):
        # as floats, so that ratios and spread are defined for every report
        for name in ("deltas", "responses"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        if len(self.deltas) != len(self.responses):
            raise ValueError("report lists must be aligned")
        if self.difference_norms and len(self.difference_norms) != len(self.deltas):
            raise ValueError("report lists must be aligned")
        if not all(b < a for a, b in zip(self.deltas, self.deltas[1:])):   # false for a NaN
            raise ValueError("deltas must be strictly decreasing")

    @property
    def ratios(self) -> tuple[float, ...]:
        """response / delta, nan where delta is not positive."""
        return tuple(r / d if d > 0 else math.nan for d, r in zip(self.deltas, self.responses))

    @property
    def spread(self) -> float:
        """max/min of the positive-delta ratios.

        ``inf`` unless there is such a ratio and each is positive and finite:
        a probe whose responses vanish shows no Lipschitz response.
        """
        ratios = [q for d, q in zip(self.deltas, self.ratios) if d > 0]
        if not ratios or not all(0 < q < math.inf for q in ratios):
            return math.inf
        return max(ratios) / min(ratios)


def _check_deltas(deltas) -> tuple[float, ...]:
    deltas = tuple(float(d) for d in deltas)
    if not all(math.isfinite(d) for d in deltas):
        raise ValueError(f"perturbation sizes must be finite, got {deltas}")
    if any(d < 0 for d in deltas):
        raise ValueError("perturbation sizes must be nonnegative")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("perturbation sizes must be strictly decreasing")
    positive = [d for d in deltas if d > 0]
    if len(positive) < 3 or positive[0] / positive[-1] < 100.0 * (1.0 - 1e-12):
        raise ValueError("need at least 3 positive perturbation sizes spanning "
                         ">= 2 decades (zeros may be appended as determinism checks)")
    return deltas


def response_norm(e_y: np.ndarray, dkappa: np.ndarray) -> float:
    """sup-in-time L2 distance of the fields plus per-device sup distance of kappa.

    ``e_y`` holds the (M+1,) L2 distances of the fields, ``dkappa`` the
    (J, M+1) differences of the signals.
    """
    return float(np.max(e_y)) + float(np.sum(np.max(np.abs(dkappa), axis=1)))


def _probe(base: ExperimentConfig, perturb, deltas, kind: str) -> StabilityReport:
    """Run the base, then each member against the base's one stored trajectory.

    The base is assembled once; every run reuses its mesh and operators.  A
    member's ``series.e_y`` and ``e_grad`` are its distances to the base run.
    """
    deltas = _check_deltas(deltas)
    # through the module attribute, so a wrapper set on experiments.assemble sees the call
    built = experiments.assemble(base)
    base_out = run_experiment(base, record_trajectory=True, assembled=built)
    responses = []
    norms = []
    for d in deltas:
        # delta 0 reruns the base configuration unchanged: a determinism check
        cfg = base if d == 0.0 else perturb(d)
        dy = run_experiment(cfg, reference=base_out.trajectory_y, assembled=built).series
        dk = dy.kappa_traces - base_out.series.kappa_traces
        responses.append(response_norm(dy.e_y, dk))
        norms.append(_norms(dy.e_y, dy.e_grad, dk, base.tau))
    return StabilityReport(kind=kind, deltas=deltas, responses=tuple(responses),
                           difference_norms=tuple(norms))


def probe_data_stability(base: ExperimentConfig, direction: FieldSpec,
                         deltas) -> StabilityReport:
    """Perturb the initial state along ``direction`` scaled by each delta."""

    def perturb(d: float) -> ExperimentConfig:
        return replace(base, y0=FieldSum((base.y0, direction.scaled(d))))

    return _probe(base, perturb, deltas, kind="initial_data")


def probe_control_stability(base: ExperimentConfig, deltas) -> StabilityReport:
    """Scale the control-device height by (1 + delta) for each delta.

    A base without control (C_g = 0, or no device) raises ValueError: every
    member would rerun the base, and the probe would pass on no response.
    """
    if base.C_g == 0 or base.n_devices == 0:
        raise ValueError(f"C_g = {base.C_g} on {base.n_devices} devices: scaling the "
                         f"control height by (1 + delta) perturbs nothing")

    def perturb(d: float) -> ExperimentConfig:
        return replace(base, C_g=base.C_g * (1.0 + d))

    return _probe(base, perturb, deltas, kind="control_height")
