"""The benchmark's workloads: inputs drawn from a seed, one execution, output checks.

An execution is one complete pass of a workload through thermoloop's public
entry points.  The program only ever receives the generated
``ExperimentConfig`` (as an object, or as a JSON file for the CLI path).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import thermoloop.cli
import thermoloop.experiments as experiments
from thermoloop.config_io import dump_config
from thermoloop.experiments import (Blob, GaussianBlobs, ICOND_VARIANT1, PROBE_DIRECTION,
                                    make_experiment)
from thermoloop.output import read_series_csv
from thermoloop.stability import probe_data_stability

from tracing import patched

WORKLOADS = ("hold64-cli", "probe-ensemble")

PROBE_DELTAS = (1e-1, 1e-2, 1e-3, 0.0)

# Seed-0 result of the shipped fields, pinned to 1e-9 relative.
PINNED_PROBE_SPREAD = 1.0049395535868242


def initial_field(seed: int) -> GaussianBlobs:
    """Seed 0 is the shipped ICOND_VARIANT1; other seeds draw five blobs in its ranges."""
    if seed == 0:
        return ICOND_VARIANT1
    rng = np.random.default_rng(seed)
    blobs = []
    for _ in range(5):
        center = tuple(float(c) for c in rng.uniform(-0.6, 0.6, size=2))
        width = float(rng.uniform(0.20, 0.30))
        amplitude = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.40, 0.80))
        blobs.append(Blob(center, width, amplitude))
    return GaussianBlobs(tuple(blobs))


def make_config(workload: str, seed: int):
    """The ExperimentConfig a workload runs for ``seed``."""
    y0 = initial_field(seed)
    if workload == "hold64-cli":     # campaign 1, 64 devices, T=24, at N=40, M=1200
        base = make_experiment(1, devices=64)
        return replace(base, y0=y0, scheme=replace(base.scheme, n_div=40, n_steps=1200))
    if workload == "probe-ensemble":  # exp2-ic1 at N=60, M=200
        base = make_experiment(2, variant=1)
        return replace(base, y0=y0, scheme=replace(base.scheme, n_div=60, n_steps=200))
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


@dataclass
class Execution:
    """What one execution measured; its RunOutputs are dropped once checked."""

    wall_s: float = 0.0
    setup_s: float = 0.0              # time inside experiments.assemble
    run_s: float = 0.0                # time inside stepper.run
    steps: int = 0                    # implicit-Euler steps, summed over members
    failures: list = field(default_factory=list)
    digest: str = ""                  # hash of every member's final y and kappa
    trajectory_bytes: int = 0
    bytes_written: int = 0


def _digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(out.final_state.y.values.tobytes())
        h.update(out.final_state.kappa.tobytes())
    return h.hexdigest()


class Workload:
    """One workload at one seed; ``workdir`` holds the CLI path's files."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.config = make_config(name, seed)
        self.workdir = workdir

    def execute(self) -> Execution:
        """Run once; time the whole call, the set-up and the stepping; check the outputs."""
        config = self.config
        ex = Execution()
        outputs = []    # RunOutput of every stepper.run call
        assemble, run = experiments.assemble, experiments.run

        def timed_assemble(*args, **kwargs):
            start = perf_counter()
            try:
                return assemble(*args, **kwargs)
            finally:
                ex.setup_s += perf_counter() - start

        def timed_run(*args, **kwargs):
            start = perf_counter()
            try:
                out = run(*args, **kwargs)
            finally:
                ex.run_s += perf_counter() - start
            outputs.append(out)
            ex.steps += out.final_state.step_index
            return out

        with patched([(experiments, "assemble", timed_assemble),
                      (experiments, "run", timed_run)]):
            if self.name == "hold64-cli":
                cfg_path, out_dir = self.workdir / "config.json", self.workdir / "out"
                dump_config(config, cfg_path)
                start = perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    result = thermoloop.cli.main(["run", str(cfg_path), "--out", str(out_dir),
                                                  "--snap-every", "100"])
                ex.wall_s = perf_counter() - start
            else:
                start = perf_counter()
                result = probe_data_stability(config, PROBE_DIRECTION, PROBE_DELTAS)
                ex.wall_s = perf_counter() - start
        ex.failures = self._check(config, result, outputs)
        ex.digest = _digest(outputs)
        ex.trajectory_bytes = sum(out.trajectory_y.nbytes + out.trajectory_kappa.nbytes
                                  for out in outputs if out.trajectory_y is not None)
        if self.name == "hold64-cli":
            cfg_path.unlink()
            if out_dir.exists():
                ex.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir())
                shutil.rmtree(out_dir)
        return ex

    def _check(self, config, result, outputs) -> list[str]:
        failures = []
        bound = max(max((abs(k) for k in config.kappa0), default=0.0), config.H_w)
        for i, out in enumerate(outputs):
            if not (np.isfinite(out.final_state.y.values).all()
                    and np.isfinite(out.final_state.kappa).all()):
                failures.append(f"member {i}: non-finite final state")
            peak = float(np.abs(out.series.kappa_traces).max(initial=0.0))
            if not peak <= bound:
                failures.append(f"member {i}: |kappa| reached {peak} > {bound}")
        if self.name == "hold64-cli":
            out_dir = self.workdir / "out"
            if result != 0:
                failures.append(f"cli exit code {result}")
            else:
                e_y = read_series_csv(out_dir / "series.csv").e_y
                if not e_y[-1] <= 1e-2 * e_y[0]:
                    failures.append(f"series.csv E_y(T) = {e_y[-1]} above 1e-2 * E_y(0) = {e_y[0]}")
                steps = config.scheme.n_steps
                expected = {"series.csv", "config_echo"} | {
                    f"snap_{m}.pgm" for m in range(0, steps + 1, 100)} | {f"snap_{steps}.pgm"}
                written = {p.name for p in out_dir.iterdir()}
                if written != expected:
                    failures.append(f"files written {sorted(written ^ expected)} differ")
        else:
            if len(outputs) != 1 + len(PROBE_DELTAS):
                failures.append(f"{len(outputs)} runs, expected {1 + len(PROBE_DELTAS)}")
            if result.responses[-1] != 0.0:
                failures.append(f"delta=0 response {result.responses[-1]!r} is not 0.0")
            if not result.spread < 3.0:
                failures.append(f"spread {result.spread} not below 3")
            if self.seed == 0 and not _close(result.spread, PINNED_PROBE_SPREAD):
                failures.append(f"seed 0 spread = {result.spread!r}, "
                                f"pinned {PINNED_PROBE_SPREAD!r}")
        return failures


def _close(value: float, pinned: float) -> bool:
    return abs(value - pinned) <= 1e-9 * abs(pinned)
