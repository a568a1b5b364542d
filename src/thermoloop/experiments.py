"""Experiment presets: device layouts, field generators, parameter bundles.

Initial and reference states ship as documented analytic generators (blob
mixtures) so every preset is exactly reproducible from this file alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Union

import numpy as np

from .fem import NodalField, assemble_mass, assemble_stiffness, field_from_values
from .mesh import Mesh, build_mesh
from .metrics import ErrorRecorder, SnapshotRecorder, TrajectoryRecorder
from .model import ReactionTerm, SwitchingFunction, calibrate_ch, disc_indicators
from .stepper import DiscreteProblem, RunOutput, SchemeSpec, SimState, as_int, run


def _require_finite(spec, *names) -> None:
    """Raise ValueError naming the first of ``names`` with a non-finite entry."""
    for name in names:
        if not np.isfinite(getattr(spec, name)).all():
            raise ValueError(f"{name} must be finite")


# --------------------------------------------------------------------------
# analytic field generators

@dataclass(frozen=True)
class Blob:
    center: tuple[float, float]
    width: float
    amplitude: float

    def __post_init__(self):
        _require_finite(self, "center", "width", "amplitude")
        if self.width <= 0:
            raise ValueError("blob width must be positive")


@dataclass(frozen=True)
class ConstantField:
    value: float

    def __post_init__(self):
        _require_finite(self, "value")


@dataclass(frozen=True)
class GaussianBlobs:
    """Sum of isotropic bumps a * exp(-|x - c|^2 / (2 w^2))."""

    blobs: tuple[Blob, ...]


@dataclass(frozen=True)
class FieldSum:
    terms: tuple[FieldSpec, ...]


FieldSpec = Union[ConstantField, GaussianBlobs, FieldSum]


def evaluate_field(spec: FieldSpec, x, y):
    """Evaluate a field spec at numpy coordinate arrays."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if isinstance(spec, ConstantField):
        return np.full(np.broadcast(x, y).shape, float(spec.value))
    if isinstance(spec, GaussianBlobs):
        out = np.zeros(np.broadcast(x, y).shape)
        for b in spec.blobs:
            r2 = (x - b.center[0]) ** 2 + (y - b.center[1]) ** 2
            out += b.amplitude * np.exp(-r2 / (2.0 * b.width ** 2))
        return out
    if isinstance(spec, FieldSum):
        out = np.zeros(np.broadcast(x, y).shape)
        for term in spec.terms:
            out = out + evaluate_field(term, x, y)
        return out
    raise TypeError(f"not a field spec: {spec!r}")


def realize_field(spec: FieldSpec, mesh: Mesh) -> NodalField:
    """Nodal interpolation of an analytic field spec."""
    values = evaluate_field(spec, mesh.vertices[:, 0], mesh.vertices[:, 1])
    return field_from_values(mesh, values)


def scale_field(spec: FieldSpec, factor: float) -> FieldSpec:
    """Multiply a field spec by a scalar, returning a new spec."""
    if isinstance(spec, ConstantField):
        return ConstantField(spec.value * factor)
    if isinstance(spec, GaussianBlobs):
        return GaussianBlobs(tuple(Blob(b.center, b.width, b.amplitude * factor)
                                   for b in spec.blobs))
    if isinstance(spec, FieldSum):
        return FieldSum(tuple(scale_field(t, factor) for t in spec.terms))
    raise TypeError(f"not a field spec: {spec!r}")


# --------------------------------------------------------------------------
# device layouts

@dataclass(frozen=True)
class GridLayout:
    """n x n devices tightly covering the square; tangent discs at radius 1/n."""

    n_per_side: int
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "n_per_side", as_int(self.n_per_side, "n_per_side"))
        if self.n_per_side < 1:
            raise ValueError("grid needs at least one device per side")
        _require_finite(self, "radius")
        if self.radius <= 0:
            raise ValueError("device radius must be positive")
        if self.radius > 1.0 / self.n_per_side + 1e-12:
            raise ValueError(
                f"radius {self.radius} makes grid discs overlap "
                f"(limit 1/{self.n_per_side})")


@dataclass(frozen=True)
class GridSubsetLayout:
    """A kept subset of the n x n grid, by row-major center index."""

    n_per_side: int
    radius: float
    kept_indices: tuple[int, ...]

    def __post_init__(self):
        grid = GridLayout(self.n_per_side, self.radius)  # reuse grid validation
        object.__setattr__(self, "n_per_side", grid.n_per_side)
        object.__setattr__(self, "kept_indices",
                           tuple(as_int(i, "kept_indices") for i in self.kept_indices))
        n2 = self.n_per_side ** 2
        if len(set(self.kept_indices)) != len(self.kept_indices):
            raise ValueError("kept_indices contains duplicates")
        if any(not 0 <= i < n2 for i in self.kept_indices):
            raise ValueError(f"kept_indices must lie in [0, {n2})")


@dataclass(frozen=True)
class ExplicitLayout:
    """Device centers given directly; may be empty (control disabled)."""

    centers: tuple[tuple[float, float], ...]
    radius: float

    def __post_init__(self):
        _require_finite(self, "centers", "radius")
        if self.radius <= 0:
            raise ValueError("device radius must be positive")


LayoutSpec = Union[GridLayout, GridSubsetLayout, ExplicitLayout]


def grid_layout(n_per_side: int, radius: float) -> GridLayout:
    """Uniform n x n layout with centers at odd multiples of 1/n from the edges."""
    return GridLayout(n_per_side=n_per_side, radius=float(radius))


def _grid_centers(n: int) -> np.ndarray:
    ticks = np.array([-1.0 + (2 * i - 1) / n for i in range(1, n + 1)])
    cx, cy = np.meshgrid(ticks, ticks, indexing="xy")  # row-major, x fastest
    return np.column_stack([cx.ravel(), cy.ravel()])


def layout_centers(layout: LayoutSpec) -> np.ndarray:
    """Device center coordinates, shape (J, 2)."""
    if isinstance(layout, GridLayout):
        return _grid_centers(layout.n_per_side)
    if isinstance(layout, GridSubsetLayout):
        return _grid_centers(layout.n_per_side)[list(layout.kept_indices)]
    if isinstance(layout, ExplicitLayout):
        if not layout.centers:
            return np.zeros((0, 2))
        return np.array(layout.centers, dtype=np.float64)
    raise TypeError(f"not a layout spec: {layout!r}")


def device_count(layout: LayoutSpec) -> int:
    return layout_centers(layout).shape[0]


# The 20-device subset of the 8 x 8 grid: an L-shaped triple in each corner,
# the central 2 x 2 block, and one device per edge midpoint, chosen so the
# whole pattern is invariant under 90-degree rotation.  Indices are row-major
# (x fastest) into the 8 x 8 center list.
SUBSET20_INDICES: tuple[int, ...] = (
    0, 1, 8,        # lower-left corner block
    7, 6, 15,       # lower-right
    63, 62, 55,     # upper-right
    56, 57, 48,     # upper-left
    27, 28, 35, 36,  # central 2 x 2
    4, 39, 59, 24,  # edge midpoints (bottom, right, top, left)
)


# --------------------------------------------------------------------------
# full experiment configuration

@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one run.

    Control and measurement devices are paired (same centers and radius,
    identity routing weights); they differ only in height: C_g for controls
    and the calibrated C_h for measurements.
    """

    T: float
    D: float
    beta: tuple[float, ...]
    kappa0: tuple[float, ...]
    C_g: float
    C_switch: float
    L_w: float
    H_w: float
    r_sigma: float
    layout: LayoutSpec
    y0: FieldSpec
    ystar: FieldSpec
    scheme: SchemeSpec
    reaction: ReactionTerm = field(default_factory=ReactionTerm.cubic_bistable)

    def __post_init__(self):
        _require_finite(self, "T", "D", "C_g", "C_switch", "L_w", "H_w", "r_sigma", "beta",
                        "kappa0")
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.D <= 0:
            raise ValueError("D must be positive")
        if self.H_w <= 0:
            raise ValueError("H_w must be positive")
        if self.L_w == 0:
            raise ValueError("L_w must be nonzero")
        if self.C_switch <= 0:
            raise ValueError("C_switch must be positive")
        if self.C_g < 0:
            raise ValueError("C_g must be nonnegative")
        if self.r_sigma <= 0:
            raise ValueError("r_sigma must be positive")
        if abs(self.r_sigma - self.layout.radius) > 1e-12:
            raise ValueError("r_sigma must equal the layout's device radius")
        J = device_count(self.layout)
        if len(self.beta) != J:
            raise ValueError(f"beta has {len(self.beta)} entries but the layout has {J} devices")
        if len(self.kappa0) != J:
            raise ValueError(f"kappa0 has {len(self.kappa0)} entries but the layout has {J} devices")
        if any(b <= 0 for b in self.beta):
            raise ValueError("beta entries must be strictly positive "
                             "(thermostat time constants beta_j > 0)")

    @property
    def n_devices(self) -> int:
        return device_count(self.layout)

    @property
    def tau(self) -> float:
        return self.T / self.scheme.n_steps

    @property
    def C_h(self) -> float:
        return calibrate_ch(self.L_w, self.C_switch, self.r_sigma)


# --------------------------------------------------------------------------
# shipped preset fields (analytic stand-ins, amplitudes within [-1, 1])

ICOND_VARIANT1 = GaussianBlobs((
    Blob((-0.45, -0.40), 0.30, 0.80),
    Blob((0.50, 0.45), 0.26, -0.70),
    Blob((0.15, -0.35), 0.22, 0.55),
    Blob((-0.30, 0.50), 0.28, -0.50),
    Blob((0.60, -0.55), 0.20, -0.45),
))

ICOND_VARIANT2 = GaussianBlobs((
    Blob((0.40, -0.45), 0.28, -0.75),
    Blob((-0.50, 0.40), 0.30, 0.65),
    Blob((-0.15, -0.25), 0.24, -0.50),
    Blob((0.35, 0.30), 0.26, 0.60),
    Blob((-0.60, -0.60), 0.20, 0.40),
))

REFERENCE_STATE = GaussianBlobs((
    Blob((-0.35, -0.30), 0.50, 0.55),
    Blob((0.40, 0.35), 0.45, -0.55),
))

# default direction for initial-condition perturbation probes
PROBE_DIRECTION = GaussianBlobs((Blob((0.20, -0.10), 0.30, 1.00),))


def make_experiment(exp_id: int, devices: int | None = None,
                    variant: int | None = None) -> ExperimentConfig:
    """Parameter bundle for one of the three shipped campaigns.

    Campaign 1 holds the unstable rest state y* = 0 with 16, 36 or 64
    tightly covering devices (select with ``devices``).  Campaign 2 tracks a
    structured reference state from two initial conditions (``variant`` 1 or
    2) with 64 devices.  Campaign 3 compares 64 devices against a 20-device
    subset (``devices``).
    """
    common = dict(C_g=16.0 / math.pi, C_switch=0.2, L_w=-10.0, H_w=10.0,
                  reaction=ReactionTerm.cubic_bistable())
    if exp_id == 1:
        devices = 64 if devices is None else devices
        if devices not in (16, 36, 64):
            raise ValueError("campaign 1 supports 16, 36 or 64 devices")
        n = int(math.isqrt(devices))
        layout = grid_layout(n, 1.0 / n)
        return ExperimentConfig(
            T=24.0, D=0.01,
            beta=(1.0,) * devices, kappa0=(0.0,) * devices,
            r_sigma=1.0 / n, layout=layout,
            y0=ICOND_VARIANT1, ystar=ConstantField(0.0),
            scheme=SchemeSpec(n_div=100, n_steps=2400, n_picard=3),
            **common)
    if exp_id == 2:
        variant = 1 if variant is None else variant
        if variant not in (1, 2):
            raise ValueError("campaign 2 has initial-condition variants 1 and 2")
        return ExperimentConfig(
            T=4.0, D=0.02,
            beta=(1.0,) * 64, kappa0=(0.0,) * 64,
            r_sigma=0.125, layout=grid_layout(8, 0.125),
            y0=ICOND_VARIANT1 if variant == 1 else ICOND_VARIANT2,
            ystar=REFERENCE_STATE,
            scheme=SchemeSpec(n_div=100, n_steps=400, n_picard=3),
            **common)
    if exp_id == 3:
        devices = 64 if devices is None else devices
        if devices not in (64, 20):
            raise ValueError("campaign 3 supports 64 or 20 devices")
        if devices == 64:
            layout: LayoutSpec = grid_layout(8, 0.125)
        else:
            layout = GridSubsetLayout(8, 0.125, SUBSET20_INDICES)
        return ExperimentConfig(
            T=4.0, D=0.02,
            beta=(1.0,) * devices, kappa0=(0.0,) * devices,
            r_sigma=0.125, layout=layout,
            y0=ICOND_VARIANT1, ystar=REFERENCE_STATE,
            scheme=SchemeSpec(n_div=100, n_steps=400, n_picard=3),
            **common)
    raise ValueError(f"unknown experiment id {exp_id!r} (expected 1, 2 or 3)")


_PRESETS = {
    "exp1-16": lambda: make_experiment(1, devices=16),
    "exp1-36": lambda: make_experiment(1, devices=36),
    "exp1-64": lambda: make_experiment(1, devices=64),
    "exp2-ic1": lambda: make_experiment(2, variant=1),
    "exp2-ic2": lambda: make_experiment(2, variant=2),
    "exp3-64": lambda: make_experiment(3, devices=64),
    "exp3-20": lambda: make_experiment(3, devices=20),
}


def list_presets() -> list[str]:
    return sorted(_PRESETS)


def preset(name: str) -> ExperimentConfig:
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(list_presets())}")
    return factory()


# --------------------------------------------------------------------------
# assembly and driving

@dataclass(frozen=True)
class AssembledExperiment:
    """The mesh, operators and initial state built from ``config``."""

    config: ExperimentConfig
    problem: DiscreteProblem
    initial: SimState


# The config fields a run may change and still reuse another config's assembly:
# the initial state and the control height, which enters the problem as a scale.
_REUSABLE_FIELDS = ("y0", "kappa0", "C_g")


def _initial_state(config: ExperimentConfig, mesh: Mesh) -> SimState:
    return SimState(step_index=0, time=0.0, y=realize_field(config.y0, mesh),
                    kappa=config.kappa0)


def _first_difference(a, b, names) -> str | None:
    """The dotted name of the first of ``names`` in which dataclasses a and b differ."""
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        if x != y:
            if is_dataclass(x) and type(x) is type(y):
                return f"{name}.{_first_difference(x, y, [f.name for f in fields(x)])}"
            return name
    return None


def assemble(config: ExperimentConfig) -> AssembledExperiment:
    """Mesh, operators, device profiles and initial state for a config."""
    mesh = build_mesh(config.scheme.n_div)
    mass = assemble_mass(mesh)
    stiffness = assemble_stiffness(mesh)

    # unit-height indicators: the heights enter as scale factors, so a zero
    # C_g (control switched off) stays representable
    indicators = disc_indicators(mesh, layout_centers(config.layout), config.r_sigma)

    problem = DiscreteProblem(
        mesh=mesh, mass=mass, stiffness=stiffness,
        step_matrix=mass.scaled_add(config.tau * config.D, stiffness), tau=config.tau,
        device_mass=indicators.matmul(mass),
        C_g=config.C_g, C_h=config.C_h,
        alpha=np.eye(indicators.n_rows),
        switch=SwitchingFunction(config.L_w, config.H_w),
        beta=config.beta,
        reaction=config.reaction,
        ystar=realize_field(config.ystar, mesh))
    return AssembledExperiment(config=config, problem=problem,
                               initial=_initial_state(config, mesh))


def _reuse_assembly(assembled: AssembledExperiment,
                    config: ExperimentConfig) -> AssembledExperiment:
    if config == assembled.config:
        return assembled
    fixed = [f.name for f in fields(config) if f.name not in _REUSABLE_FIELDS]
    differs = _first_difference(config, assembled.config, fixed)
    if differs is not None:
        raise ValueError(f"cannot reuse the assembly of a config that differs in {differs} "
                         f"(only {', '.join(_REUSABLE_FIELDS)} may differ)")
    problem = assembled.problem
    if config.C_g != problem.C_g:
        # replace reruns __post_init__, which re-derives P^T, P y* and the
        # Jacobi diagonal; none of them depends on C_g
        problem = replace(problem, C_g=config.C_g)
    return AssembledExperiment(config=config, problem=problem,
                               initial=_initial_state(config, problem.mesh))


def run_experiment(config: ExperimentConfig, snap_steps=(), record_trajectory: bool = False,
                   extra_observers=(), assembled: AssembledExperiment | None = None) -> RunOutput:
    """Assemble and run a configured experiment with the standard recorders.

    The field is kept at each step in ``snap_steps`` (``out.snapshots``).

    With ``assembled`` the run reuses its mesh and operators instead of
    assembling anew, and gives the same bits as a run without it.
    ``config`` may differ from ``assembled.config`` only in ``y0``,
    ``kappa0`` and ``C_g``: the initial state is built anew, and a
    different C_g goes into a copy of the problem.  Any other difference
    raises ValueError naming the first field that differs.

    ``timings["assembly_s"]`` is the time before stepping: the whole
    assembly, or with ``assembled`` only the check of the configs and what
    the reuse builds.
    """
    import time as _time

    t0 = _time.perf_counter()
    built = assemble(config) if assembled is None else _reuse_assembly(assembled, config)
    t_assembly = _time.perf_counter() - t0

    observers: list = [ErrorRecorder(built.problem.mass, built.problem.stiffness,
                                     built.problem.ystar)]
    if snap_steps:
        observers.append(SnapshotRecorder(snap_steps))
    if record_trajectory:
        observers.append(TrajectoryRecorder(config.scheme.n_steps + 1))
    observers.extend(extra_observers)

    out = run(built.initial, built.problem, config.scheme, observers)
    timings = dict(out.timings)
    timings["assembly_s"] = t_assembly
    return replace(out, timings=timings)
