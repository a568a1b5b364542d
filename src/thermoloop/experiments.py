"""Experiment presets: device layouts, field generators, parameter bundles.

Initial and reference states ship as documented analytic generators (blob
mixtures) so every preset is exactly reproducible from this file alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Union

import numpy as np

from .fem import assemble_mass, assemble_stiffness, disc_rows, interpolate
from .mesh import as_int, build_mesh, require_finite
from .metrics import ErrorRecorder, SnapshotRecorder, TrajectoryRecorder
from .model import ReactionTerm, SwitchingFunction, calibrate_ch
from .stepper import DiscreteProblem, RunOutput, SchemeSpec, SimState, run


# --------------------------------------------------------------------------
# analytic field generators

@dataclass(frozen=True)
class Blob:
    center: tuple[float, float]
    width: float
    amplitude: float

    def __post_init__(self):
        require_finite(center=self.center, width=self.width, amplitude=self.amplitude)
        if self.width <= 0:
            raise ValueError("blob width must be positive")
        # floats, as ExperimentConfig stores its parameters: a float32 width
        # interpolated 1.2e-8 off its equal float twin
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "amplitude", float(self.amplitude))


@dataclass(frozen=True)
class ConstantField:
    value: float

    def __post_init__(self):
        require_finite(value=self.value)
        object.__setattr__(self, "value", float(self.value))

    def __call__(self, x, y) -> np.ndarray:
        return np.full(np.broadcast(x, y).shape, self.value)

    def scaled(self, factor: float) -> ConstantField:
        return ConstantField(self.value * factor)


@dataclass(frozen=True)
class GaussianBlobs:
    """Sum of isotropic bumps a * exp(-|x - c|^2 / (2 w^2))."""

    blobs: tuple[Blob, ...]

    def __call__(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        out = np.zeros(np.broadcast(x, y).shape)
        for b in self.blobs:
            r2 = (x - b.center[0]) ** 2 + (y - b.center[1]) ** 2
            out += b.amplitude * np.exp(-r2 / (2.0 * b.width ** 2))
        return out

    def scaled(self, factor: float) -> GaussianBlobs:
        return GaussianBlobs(tuple(Blob(b.center, b.width, b.amplitude * factor)
                                   for b in self.blobs))


@dataclass(frozen=True)
class FieldSum:
    terms: tuple[FieldSpec, ...]

    def __call__(self, x, y) -> np.ndarray:
        out = np.zeros(np.broadcast(x, y).shape)
        for term in self.terms:
            out = out + term(x, y)
        return out

    def scaled(self, factor: float) -> FieldSum:
        return FieldSum(tuple(t.scaled(factor) for t in self.terms))


# A field spec is a function of numpy coordinate arrays that broadcasts;
# fem.interpolate(mesh, spec) gives its nodal field.
FieldSpec = Union[ConstantField, GaussianBlobs, FieldSum]


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
        require_finite(radius=self.radius)
        if self.radius <= 0:
            raise ValueError("device radius must be positive")
        if self.radius > 1.0 / self.n_per_side + 1e-12:
            raise ValueError(
                f"radius {self.radius} makes grid discs overlap "
                f"(limit 1/{self.n_per_side})")
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def centers(self) -> np.ndarray:
        """Centers at odd multiples of 1/n from the edges, row-major (x fastest), (n*n, 2)."""
        n = self.n_per_side
        ticks = np.array([-1.0 + (2 * i - 1) / n for i in range(1, n + 1)])
        cx, cy = np.meshgrid(ticks, ticks, indexing="xy")
        return np.column_stack([cx.ravel(), cy.ravel()])


@dataclass(frozen=True)
class GridSubsetLayout:
    """A kept subset of the n x n grid, by row-major center index."""

    n_per_side: int
    radius: float
    kept_indices: tuple[int, ...]

    def __post_init__(self):
        grid = GridLayout(self.n_per_side, self.radius)  # reuse grid validation
        object.__setattr__(self, "n_per_side", grid.n_per_side)
        object.__setattr__(self, "radius", grid.radius)
        object.__setattr__(self, "kept_indices",
                           tuple(as_int(i, "kept_indices") for i in self.kept_indices))
        n2 = self.n_per_side ** 2
        if len(set(self.kept_indices)) != len(self.kept_indices):
            raise ValueError("kept_indices contains duplicates")
        if any(not 0 <= i < n2 for i in self.kept_indices):
            raise ValueError(f"kept_indices must lie in [0, {n2})")

    @property
    def centers(self) -> np.ndarray:
        """The kept centers of the grid, in ``kept_indices`` order, shape (J, 2)."""
        return GridLayout(self.n_per_side, self.radius).centers[list(self.kept_indices)]


@dataclass(frozen=True)
class ExplicitLayout:
    """Device centers given directly as (x, y) pairs; may be empty (control disabled)."""

    centers: tuple[tuple[float, float], ...]
    radius: float

    def __post_init__(self):
        for c in self.centers:
            if np.shape(c) != (2,):
                raise ValueError(f"device center {c!r} is not an (x, y) pair")
        require_finite(centers=self.centers, radius=self.radius)
        if self.radius <= 0:
            raise ValueError("device radius must be positive")
        # stored as ExperimentConfig stores beta and kappa0, for == and the dump
        object.__setattr__(self, "centers", tuple((float(x), float(y)) for x, y in self.centers))
        object.__setattr__(self, "radius", float(self.radius))


LayoutSpec = Union[GridLayout, GridSubsetLayout, ExplicitLayout]


def grid_layout(n_per_side: int, radius: float) -> GridLayout:
    """Uniform n x n layout with centers at odd multiples of 1/n from the edges."""
    return GridLayout(n_per_side=n_per_side, radius=radius)


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
    and the calibrated C_h for measurements.  The disc radius is
    ``layout.radius``; ``r_sigma`` must equal it exactly.
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
        require_finite(T=self.T, D=self.D, C_g=self.C_g, r_sigma=self.r_sigma,
                       beta=self.beta, kappa0=self.kappa0)
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.D <= 0:
            raise ValueError("D must be positive")
        if self.C_g < 0:
            raise ValueError("C_g must be nonnegative")
        # the parts check their own parameters, and the layout its radius
        SwitchingFunction(self.L_w, self.H_w)
        calibrate_ch(self.L_w, self.C_switch, self.layout.radius)
        if self.r_sigma != self.layout.radius:
            raise ValueError(f"r_sigma {self.r_sigma!r} must equal the layout's device "
                             f"radius {self.layout.radius!r}")
        J = self.n_devices
        if len(self.beta) != J:
            raise ValueError(f"beta has {len(self.beta)} entries but the layout has {J} devices")
        if len(self.kappa0) != J:
            raise ValueError(f"kappa0 has {len(self.kappa0)} entries but the layout has {J} devices")
        # an array would make == between configs ambiguous and not dump to JSON,
        # and a list would compare unequal to the tuple its dump re-parses to; a
        # numpy scalar would compute in its own precision (a float32 T, a float32
        # tau) while comparing equal to the float its dump re-parses to
        for name in ("beta", "kappa0"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        for name in ("T", "D", "C_g", "C_switch", "L_w", "H_w", "r_sigma"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if any(b <= 0 for b in self.beta):
            raise ValueError("beta entries must be strictly positive "
                             "(thermostat time constants beta_j > 0)")

    @property
    def n_devices(self) -> int:
        return len(self.layout.centers)

    @property
    def tau(self) -> float:
        return self.T / self.scheme.n_steps

    @property
    def C_h(self) -> float:
        return calibrate_ch(self.L_w, self.C_switch, self.layout.radius)


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
    subset (``devices``).  An argument the campaign does not take
    (``variant`` for campaigns 1 and 3, ``devices`` for campaign 2) raises
    ValueError.
    """
    if exp_id in (1, 2, 3):
        name, value = ("devices", devices) if exp_id == 2 else ("variant", variant)
        if value is not None:
            raise ValueError(f"campaign {exp_id} takes no {name} argument, got {name}={value!r}")
    if exp_id == 1:
        devices = 64 if devices is None else as_int(devices, "devices")
        if devices not in (16, 36, 64):
            raise ValueError("campaign 1 supports 16, 36 or 64 devices")
        n = math.isqrt(devices)
        T, D, n_steps, layout = 24.0, 0.01, 2400, grid_layout(n, 1.0 / n)
        y0, ystar = ICOND_VARIANT1, ConstantField(0.0)
    elif exp_id == 2:
        variant = 1 if variant is None else as_int(variant, "variant")
        if variant not in (1, 2):
            raise ValueError("campaign 2 has initial-condition variants 1 and 2")
        T, D, n_steps, layout = 4.0, 0.02, 400, grid_layout(8, 0.125)
        y0 = ICOND_VARIANT1 if variant == 1 else ICOND_VARIANT2
        ystar = REFERENCE_STATE
    elif exp_id == 3:
        devices = 64 if devices is None else as_int(devices, "devices")
        if devices not in (64, 20):
            raise ValueError("campaign 3 supports 64 or 20 devices")
        T, D, n_steps = 4.0, 0.02, 400
        layout = (grid_layout(8, 0.125) if devices == 64
                  else GridSubsetLayout(8, 0.125, SUBSET20_INDICES))
        y0, ystar = ICOND_VARIANT1, REFERENCE_STATE
    else:
        raise ValueError(f"unknown experiment id {exp_id!r} (expected 1, 2 or 3)")
    J = len(layout.centers)
    return ExperimentConfig(
        T=T, D=D, beta=(1.0,) * J, kappa0=(0.0,) * J,
        C_g=16.0 / math.pi, C_switch=0.2, L_w=-10.0, H_w=10.0,
        r_sigma=layout.radius, layout=layout, y0=y0, ystar=ystar,
        scheme=SchemeSpec(n_div=100, n_steps=n_steps, n_picard=3),
        reaction=ReactionTerm.cubic_bistable())


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
    """The mesh, operators and device profiles built from ``config``: what its runs share."""

    config: ExperimentConfig
    problem: DiscreteProblem


# The config fields a run may change and still reuse another config's assembly:
# the initial state and the control height, which enters the problem as a scale.
_REUSABLE_FIELDS = ("y0", "kappa0", "C_g")


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
    """Mesh, operators and device profiles for a config.

    A device whose disc covers no mesh vertex raises ValueError.
    """
    mesh = build_mesh(config.scheme.n_div)
    mass = assemble_mass(mesh)
    stiffness = assemble_stiffness(mesh)

    # P = I M of unit-height indicators I: the heights enter as scale factors,
    # so a zero C_g (control switched off) stays representable
    device_mass = disc_rows(mesh, config.layout.centers, config.layout.radius, mass)
    # a device that covers no vertex has an empty row: it would measure 0 and load nothing
    empty = np.flatnonzero(np.diff(device_mass.indptr) == 0)
    if len(empty):
        raise ValueError(f"devices {empty.tolist()} cover no vertex of the "
                         f"n_div={config.scheme.n_div} mesh")

    problem = DiscreteProblem(
        mesh=mesh, mass=mass, stiffness=stiffness,
        step_matrix=mass.scaled_add(config.tau * config.D, stiffness), tau=config.tau,
        device_mass=device_mass,
        C_g=config.C_g, C_h=config.C_h,
        alpha=np.eye(device_mass.n_rows),
        switch=SwitchingFunction(config.L_w, config.H_w),
        beta=config.beta,
        reaction=config.reaction,
        ystar=interpolate(mesh, config.ystar))
    return AssembledExperiment(config=config, problem=problem)


def _problem_for(assembled: AssembledExperiment, config: ExperimentConfig) -> DiscreteProblem:
    """The assembled problem of ``assembled``, for a run of ``config``."""
    problem = assembled.problem
    if config == assembled.config:
        return problem
    fixed = [f.name for f in fields(config) if f.name not in _REUSABLE_FIELDS]
    differs = _first_difference(config, assembled.config, fixed)
    if differs is not None:
        raise ValueError(f"cannot reuse the assembly of a config that differs in {differs} "
                         f"(only {', '.join(_REUSABLE_FIELDS)} may differ)")
    if config.C_g != problem.C_g:
        # replace reruns __post_init__, which re-derives P y*, the Jacobi
        # scale and S A S; none of them depends on C_g
        problem = replace(problem, C_g=config.C_g)
    return problem


def run_experiment(config: ExperimentConfig, snap_steps=(), record_trajectory: bool = False,
                   reference: np.ndarray | None = None,
                   assembled: AssembledExperiment | None = None) -> RunOutput:
    """Assemble and run a configured experiment with the standard recorders.

    The run's one ``ErrorRecorder`` measures ``out.series`` against
    ``reference``: the values of ``problem.ystar`` by default, or another
    run's (M+1, n) trajectory, so that ``e_y`` and ``e_grad`` are the
    distances to that run.  The field is kept at each step in ``snap_steps``
    (``out.snapshots``); a step outside 0..n_steps raises ValueError naming
    it, before the assembly.

    Every run builds its own initial state from its own ``config``
    (``y0`` interpolated on the mesh, ``kappa0``).  With ``assembled`` the
    run reuses its mesh and operators instead of assembling anew, and gives
    the same bits as a run without it.  ``config`` may differ from
    ``assembled.config`` only in ``y0``, ``kappa0`` and ``C_g``: a
    different C_g goes into a copy of the problem.  Any other difference
    raises ValueError naming the first field that differs.

    ``timings["assembly_s"]`` is the time before stepping: the whole
    assembly, or with ``assembled`` only the check of the configs and what
    the reuse builds, and in both cases the initial state.
    """
    import time as _time

    snapshots, n_steps = SnapshotRecorder(snap_steps), config.scheme.n_steps
    for step in sorted(snapshots.steps):
        if not 0 <= step <= n_steps:
            raise ValueError(f"snapshot step {step} lies outside the run's steps 0..{n_steps}")

    t0 = _time.perf_counter()
    P = _problem_for(assemble(config) if assembled is None else assembled, config)
    initial = SimState(step_index=0, y=interpolate(P.mesh, config.y0), kappa=config.kappa0)
    t_assembly = _time.perf_counter() - t0

    n_nodes = n_steps + 1
    reference = P.ystar.values if reference is None else reference
    observers: list = [ErrorRecorder(P.mass, P.stiffness, reference, n_nodes, P.tau)]
    if snapshots.steps:
        observers.append(snapshots)
    if record_trajectory:
        observers.append(TrajectoryRecorder(n_nodes))

    out = run(initial, P, config.scheme, observers)
    timings = dict(out.timings)
    timings["assembly_s"] = t_assembly
    return replace(out, timings=timings)
