"""Outside-in tracing of thermoloop: patch public names, record spans, restore.

Every patch replaces a name where the program looks it up (for example
``thermoloop.stepper.cg_solve``, not ``thermoloop.linalg.cg_solve``), so the
package itself is not edited.  Spans are kept in memory as
``[name, start, end, parent]`` and written out once at the end.  The
per-device ``eval_switch`` calls and the ``CsrMatrix.dot`` calls are too many
for one span each; they are aggregated per parent span instead.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


@contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` triples for the body, then restore them all."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        for owner, attr, original in saved:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"patch of {owner.__name__}.{attr} was not restored")


# CG work model, per solve with a warm start: one spmv for the initial
# residual plus one per iteration; each iteration also does two dot products,
# three axpy-type updates and one norm (12 n flops, 14 vector passes).
# CSR bytes per spmv: 8-byte values and 4-byte column indices per nonzero,
# 4-byte row offsets, one read of x and one write of y.
def cg_flops(nnz: int, n: int, iters: int) -> int:
    return (iters + 1) * 2 * nnz + iters * 12 * n


def cg_bytes(nnz: int, n: int, iters: int) -> int:
    spmv = 12 * nnz + 4 * (n + 1) + 16 * n
    return (iters + 1) * spmv + iters * 14 * 8 * n


def wrapper_cost_s(n: int = 20000) -> float:
    """Seconds one span wrapper adds to a call: n wrapped against n bare no-op calls."""
    def noop():
        return None

    wrapped = Tracer().span("calibration", noop)
    start = perf_counter()
    for _ in range(n):
        noop()
    bare = perf_counter() - start
    start = perf_counter()
    for _ in range(n):
        wrapped()
    return max(perf_counter() - start - bare, 0.0) / n


class Tracer:
    """Spans and per-parent aggregates of one traced execution."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.aggregates: dict = {}           # (parent, name) -> [calls, seconds]
        self.cg_solves: list[tuple] = []     # (nnz, n, iters) per solve
        self.step_nnz = 0
        self._stack = [-1]

    @contextmanager
    def region(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1]])
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = (start, end)

    def span(self, name: str, fn, note=None):
        """Wrap ``fn`` so each call records one span; ``note(args, result)`` sees results."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1]])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec = spans[idx]
                rec[1] = start
                rec[2] = end
            if note is not None:
                note(args, result)
            return result
        return wrapper

    def aggregate(self, name: str, fn, timed: bool = True):
        """Wrap ``fn`` so calls are only counted (and timed) per parent span."""
        agg, stack = self.aggregates, self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter() if timed else 0.0
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start if timed else 0.0
                entry = agg.get((stack[-1], name))
                if entry is None:
                    agg[(stack[-1], name)] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt
        return wrapper

    def replacements(self):
        """The ``(owner, attr, wrapper)`` patches for the thermoloop package."""
        from thermoloop import experiments, fem, mesh, metrics, output, stability, stepper
        from thermoloop.linalg import CsrMatrix

        def note_cg(args, result):
            A = args[0]
            self.cg_solves.append((A.nnz, A.n_rows, result.iters))

        def note_assemble(args, result):
            self.step_nnz = result.problem.step_matrix.nnz

        out = [
            (experiments, "assemble",
             self.span("experiments.assemble", experiments.assemble, note_assemble)),
            (experiments, "run", self.span("stepper.run", experiments.run)),
            (stepper, "picard_step", self.span("stepper.picard_step", stepper.picard_step)),
            (stepper, "cg_solve", self.span("linalg.cg_solve", stepper.cg_solve, note_cg)),
            (stepper, "eval_switch", self.aggregate("model.eval_switch", stepper.eval_switch)),
            (stepper, "eval_reaction", self.span("model.eval_reaction", stepper.eval_reaction)),
            (stepper, "thermostat_step",
             self.span("model.thermostat_step", stepper.thermostat_step)),
            (CsrMatrix, "dot", self.aggregate("linalg.spmv", CsrMatrix.dot, timed=False)),
            (stability, "run_experiment",
             self.aggregate("stability.members", stability.run_experiment, timed=False)),
            (stability, "response_norm",
             self.span("stability.response_norm", stability.response_norm)),
            (stability, "trajectory_norms",
             self.span("stability.trajectory_norms", stability.trajectory_norms)),
            (output, "write_series_csv",
             self.span("output.write_series_csv", output.write_series_csv)),
            (output, "write_snapshot_image",
             self.span("output.write_snapshot_image", output.write_snapshot_image)),
        ]
        # set-up pieces are looked up both in experiments and, by the stability
        # probe and the CLI, through their own modules at call time
        for owner in (experiments, mesh):
            out.append((owner, "build_mesh", self.span("mesh.build_mesh", owner.build_mesh)))
        for owner in (experiments, fem):
            out.append((owner, "assemble_mass",
                        self.span("fem.assemble_mass", owner.assemble_mass)))
            out.append((owner, "assemble_stiffness",
                        self.span("fem.assemble_stiffness", owner.assemble_stiffness)))
        for cls in (metrics.ErrorRecorder, metrics.SnapshotRecorder, metrics.TrajectoryRecorder):
            out.append((cls, "__call__", self.span("metrics.observers", cls.__call__)))
        # stepper.run ends by collecting the recorders' arrays into its RunOutput
        for cls, attr in ((metrics.ErrorRecorder, "series"),
                          (metrics.TrajectoryRecorder, "ys"),
                          (metrics.TrajectoryRecorder, "kappas")):
            out.append((cls, attr, self.span("metrics.collect", getattr(cls, attr))))
        return out

    def layer_metrics(self) -> dict:
        """Per-layer totals of this execution, keyed by metric name."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child_s[parent] += end - start
        spmv_calls = 0
        for (parent, name), (n_calls, seconds) in self.aggregates.items():
            total[name] = total.get(name, 0.0) + seconds
            calls[name] = calls.get(name, 0) + n_calls
            if parent >= 0:
                child_s[parent] += seconds
            if name == "linalg.spmv" and (parent < 0 or self.spans[parent][0] != "linalg.cg_solve"):
                spmv_calls += n_calls
        picard_self = sum(end - start - child_s[i]
                          for i, (name, start, end, _) in enumerate(self.spans)
                          if name == "stepper.picard_step")
        iters = [it for _, _, it in self.cg_solves]
        flops = sum(cg_flops(nnz, n, it) for nnz, n, it in self.cg_solves)
        nbytes = sum(cg_bytes(nnz, n, it) for nnz, n, it in self.cg_solves)
        cg_s = total.get("linalg.cg_solve", 0.0)
        return {
            "linalg.cg_solve.calls": calls.get("linalg.cg_solve", 0),
            "linalg.cg_solve.s": cg_s,
            "linalg.cg_solve.iters": sum(iters),
            "linalg.cg_solve.iters_max": max(iters, default=0),
            "linalg.cg_solve.us_per_iter": 1e6 * cg_s / sum(iters) if sum(iters) else 0.0,
            "linalg.cg_solve.flops_computed": flops,
            "linalg.cg_solve.bytes_computed": nbytes,
            "linalg.cg_solve.flops_per_byte_computed": flops / nbytes if nbytes else 0.0,
            "linalg.spmv.calls": spmv_calls,
            "model.eval_switch.calls": calls.get("model.eval_switch", 0),
            "model.eval_switch.s": total.get("model.eval_switch", 0.0),
            "model.eval_reaction.calls": calls.get("model.eval_reaction", 0),
            "model.eval_reaction.s": total.get("model.eval_reaction", 0.0),
            "model.thermostat_step.s": total.get("model.thermostat_step", 0.0),
            "stepper.run.s": total.get("stepper.run", 0.0),
            "stepper.picard_step.calls": calls.get("stepper.picard_step", 0),
            "stepper.picard_step.self_s": picard_self,
            "experiments.assemble.calls": calls.get("experiments.assemble", 0),
            "experiments.assemble.s": total.get("experiments.assemble", 0.0),
            "mesh.build_mesh.calls": calls.get("mesh.build_mesh", 0),
            "mesh.build_mesh.s": total.get("mesh.build_mesh", 0.0),
            "fem.assemble_mass.s": total.get("fem.assemble_mass", 0.0),
            "fem.assemble_stiffness.s": total.get("fem.assemble_stiffness", 0.0),
            "fem.step_matrix.nnz": self.step_nnz,
            "metrics.observers.calls": calls.get("metrics.observers", 0),
            "metrics.observers.s": total.get("metrics.observers", 0.0),
            "stability.members": calls.get("stability.members", 0),
            "stability.response_norm.s": total.get("stability.response_norm", 0.0),
            "stability.trajectory_norms.s": total.get("stability.trajectory_norms", 0.0),
            "output.write_series_csv.s": total.get("output.write_series_csv", 0.0),
            "output.write_snapshot_image.calls": calls.get("output.write_snapshot_image", 0),
            "output.write_snapshot_image.s": total.get("output.write_snapshot_image", 0.0),
        }

    def wrapped_calls(self) -> int:
        return len(self.spans) + sum(n for n, _ in self.aggregates.values())

    def unaccounted_run_s(self) -> tuple[float, float]:
        """(time in stepper.run, part of it outside its child spans)."""
        run_s = accounted = 0.0
        for name, start, end, parent in self.spans:
            if name == "stepper.run":
                run_s += end - start
            elif parent >= 0 and self.spans[parent][0] == "stepper.run":
                accounted += end - start
        return run_s, run_s - accounted

    def write(self, path, meta: dict) -> None:
        """Spans and aggregates as one JSON document, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "meta": meta,
            "spans": [[name, start - t0, end - t0, parent]
                      for name, start, end, parent in self.spans],
            "aggregates": [[parent, name, n, s]
                           for (parent, name), (n, s) in self.aggregates.items()],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
