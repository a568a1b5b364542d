import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from thermoloop.experiments import (Blob, ConstantField, ExperimentConfig,
                                    ExplicitLayout, GaussianBlobs, SchemeSpec,
                                    assemble, grid_layout,
                                    make_experiment, run_experiment)
from thermoloop.fem import (NodalField, assemble_mass, assemble_stiffness, form_norm,
                            interpolate)
from thermoloop.linalg import CgResult, ConvergenceError, cg_solve
from thermoloop.metrics import ErrorRecorder
from thermoloop.mesh import build_mesh
from thermoloop.model import ReactionTerm, eval_reaction, eval_switch, thermostat_step
import thermoloop.stepper as stepper_mod
from thermoloop.stepper import SimState, StepDiagnostics, picard_step, run
from mesh_helpers import as_scipy, disc_indicators

BLOB = GaussianBlobs((Blob((0.3, -0.2), 0.35, 0.8), Blob((-0.4, 0.3), 0.3, -0.6)))


def small_config(**overrides):
    base = dict(
        T=0.5, D=0.02,
        beta=(1.0,) * 4, kappa0=(0.0,) * 4,
        C_g=16.0 / np.pi, C_switch=0.2, L_w=-10.0, H_w=10.0,
        r_sigma=0.5, layout=grid_layout(2, 0.5),
        y0=BLOB, ystar=ConstantField(0.0),
        scheme=SchemeSpec(n_div=12, n_steps=10),
        reaction=ReactionTerm.cubic_bistable())
    base.update(overrides)
    return ExperimentConfig(**base)


def assert_contracting(state):
    """Observer: each step's last Picard sweep moves y less than its first."""
    if state.history:
        corrections = state.history[0]
        assert np.max(np.abs(corrections[-1])) < np.max(np.abs(corrections[0]))


def initial_state(built):
    """The state a run of ``built.config`` starts from, as run_experiment builds it."""
    return SimState(step_index=0, y=interpolate(built.problem.mesh, built.config.y0),
                    kappa=built.config.kappa0)


def run_observed(cfg, *observers):
    """stepper.run of the assembled cfg with run_experiment's ErrorRecorder,
    against y*, and then ``observers``."""
    built = assemble(cfg)
    p = built.problem
    recorder = ErrorRecorder(p.mass, p.stiffness, p.ystar.values, cfg.scheme.n_steps + 1, p.tau)
    return run(initial_state(built), p, cfg.scheme, [recorder, *observers])


# small_config's T = 0.5 in 20 steps: the Picard iteration contracts at every
# step (last/first sweep increment at most 0.008); it does not at 2 or 5 steps
CONTRACTING_STEPS = 20


def devices_off(**overrides):
    cfg = small_config(layout=ExplicitLayout((), 0.5), beta=(), kappa0=(),
                       **overrides)
    return cfg


def dense_device_arrays(cfg, built):
    """Per-device dense (K, n) measurement profiles C_h * h_k and (J, n) loads C_g * M g_k."""
    indicators = disc_indicators(built.problem.mesh, cfg.layout.centers,
                                 cfg.r_sigma).toarray()
    loads = cfg.C_g * np.array([built.problem.mass.dot(row) for row in indicators])
    return cfg.C_h * indicators, loads.reshape(indicators.shape)


def reference_picard_step(state, problem, scheme, profiles, loads):
    """The sweep before vectorization, kept as the reference: one eval_switch
    call per device, dense device matvecs on M (y - y*), s - s**3 and a
    separate mass spmv for M y_m and for M f(y_lag).  Each solve starts cold,
    from the previous iterate, and solves the Jacobi-scaled system
    S A S x = S rhs for y = S x.  Returns y and kappa."""
    tau = problem.tau
    M = problem.mass
    y_m = state.y.values
    b0 = M.dot(y_m)
    switches = (problem.switch,) * len(profiles)
    y_prev, kappa_new = y_m, state.kappa
    for p in range(scheme.n_picard):
        measured = y_m if scheme.explicit_measure else y_prev
        m_vals = profiles @ M.dot(measured - problem.ystar.values)
        w_vals = np.array([eval_switch(w, m) for w, m in zip(switches, m_vals)])
        kappa_new = thermostat_step(problem.beta, state.kappa,
                                    problem.alpha @ w_vals, tau)
        rhs = b0 + tau * M.dot(y_prev - y_prev ** 3) + tau * (loads.T @ kappa_new)
        s = problem.step_scale
        y_prev = s * cg_solve(problem.scaled_step_matrix, s * rhs, rel_tol=scheme.cg_tol,
                              max_iters=scheme.cg_max_iters, x0=y_prev / s).x
    return y_prev, kappa_new


def parent_picard_step(state, problem, scheme):
    """The vectorized sweep as it was before warm starts, every solve
    starting cold, from the previous iterate, on the Jacobi-scaled system:
    the reference a state without history must reproduce bit for bit."""
    tau = problem.tau
    y_m, kappa_m = state.y.values, state.kappa
    controlled = problem.device_mass.n_rows > 0

    def update(y):
        m_vals = problem.C_h * (problem.device_mass.dot(y) - problem.device_mass_ystar)
        demands = problem.alpha @ eval_switch(problem.switch, m_vals)
        return thermostat_step(problem.beta, kappa_m, demands, tau)

    kappa_new = update(y_m) if controlled and scheme.explicit_measure else kappa_m
    y_before = y_prev = y_m
    for _ in range(scheme.n_picard):
        if controlled and not scheme.explicit_measure:
            kappa_new = update(y_prev)
        rhs = problem.mass.dot(y_m + tau * eval_reaction(problem.reaction, y_prev))
        if controlled:
            rhs += tau * problem.C_g * (as_scipy(problem.device_mass).T @ kappa_new)
        s = problem.step_scale
        sol = cg_solve(problem.scaled_step_matrix, rhs * s, rel_tol=scheme.cg_tol,
                       max_iters=scheme.cg_max_iters, x0=y_prev / s)
        y_before, y_prev = y_prev, sol.x * s
    return y_prev, kappa_new, sol, float(np.max(np.abs(y_prev - y_before)))


def campaign1_small(**scheme):
    """exp1-64 at N=20, M=50 and T=1, which keeps the campaign's step size
    tau = 0.02, where the lagged cubic converges (at T = 24 it diverges)."""
    cfg = make_experiment(1, devices=64)
    return replace(cfg, T=1.0, scheme=replace(cfg.scheme, n_div=20, n_steps=50, **scheme))


# The sweep, its solver and the error recorder as they were while every lagged
# reaction, every right-hand side and every thermostat bank was scanned on each
# sweep, kept verbatim (with the names they call) as the reference the sweep
# must reproduce bit for bit; only the solve moved to the Jacobi-scaled system
# S A S x = S rhs, y = S x, which plain CG solves, and every solve starts cold,
# from the previous iterate, as a sweep without warm-start history does.

def scanning_eval_switch(w, s):
    s = np.asarray(s, dtype=np.float64)
    out = w.H_w * np.clip(w.L_w * s, -1.0, 1.0)
    return float(out) if out.ndim == 0 else out


def scanning_thermostat_step(beta, kappa_prev, W, tau):
    if np.any(np.asarray(beta) <= 0) or tau <= 0:
        raise ValueError("beta and tau must be positive")
    return (beta * kappa_prev + tau * W) / (beta + tau)


def scanning_update_thermostats(problem, kappa_m, y, tau):
    m_vals = problem.C_h * (problem.device_mass.dot(y) - problem.device_mass_ystar)
    demands = problem.alpha @ scanning_eval_switch(problem.switch, m_vals)
    return scanning_thermostat_step(problem.beta, kappa_m, demands, tau)


def scanning_max_abs(v):
    return float(np.max(np.abs(v))) if len(v) else 0.0


def scanning_cg_solve(A, b, rel_tol=1e-10, max_iters=None, x0=None):
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.n_rows,):
        raise ValueError(f"rhs length {b.shape} does not match {A.n_rows} rows")
    if not np.isfinite(b).all():
        raise ConvergenceError("right-hand side contains non-finite entries", 0, float("nan"))
    if max_iters is None:
        max_iters = 10 * A.n_rows

    with np.errstate(over="ignore"):
        b_norm = math.sqrt(float(b @ b))   # bitwise equal to np.linalg.norm(b)
    if not math.isfinite(b_norm):
        raise ConvergenceError("the norm of the right-hand side overflows", 0, b_norm)
    if b_norm == 0.0:
        return CgResult(np.zeros_like(b), 0, 0.0, np.zeros_like(b))
    threshold = rel_tol * b_norm

    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.array(x0, dtype=np.float64)
        r = b - A.dot(x)

    scratch = np.empty_like(b)
    rr = float(r @ r)
    p = r.copy()
    rz = rr
    res = math.sqrt(rr)   # bitwise equal to np.linalg.norm(r)

    for k in range(max_iters):
        if res <= threshold:
            return CgResult(x, k, res, r)
        Ap = A.dot(p)
        pAp = float(p @ Ap)
        if not np.isfinite(pAp) or pAp <= 0:
            raise ConvergenceError(
                f"breakdown at iteration {k}: p^T A p = {pAp} (matrix not SPD?)", k, res)
        alpha = rz / pAp
        x += np.multiply(p, alpha, out=scratch)
        Ap *= alpha
        r -= Ap
        rr = float(r @ r)
        z = r
        rz_new = rr
        p *= rz_new / rz
        p += z
        rz = rz_new
        res = math.sqrt(rr)
        if not np.isfinite(res):
            raise ConvergenceError(f"non-finite residual at iteration {k + 1}", k + 1, res)

    if res <= threshold:
        return CgResult(x, max_iters, res, r)
    raise ConvergenceError(
        f"no convergence in {max_iters} iterations "
        f"(residual {res:.3e}, target {threshold:.3e})", max_iters, res)


def scanning_picard_step(state, problem, scheme):
    tau = problem.tau
    M = problem.mass
    y_m = state.y.values
    kappa_m = state.kappa
    if scheme.explicit_measure:
        kappa_new = scanning_update_thermostats(problem, kappa_m, y_m, tau)

    corrections = np.empty((scheme.n_picard, len(y_m)))

    y_prev = y_m
    sol = None
    for p in range(scheme.n_picard):
        if not scheme.explicit_measure:
            kappa_new = scanning_update_thermostats(problem, kappa_m, y_prev, tau)
        with np.errstate(over="ignore"):
            reaction = eval_reaction(problem.reaction, y_prev)
        if not np.isfinite(reaction).all():
            raise stepper_mod._divergence(state, p, corrections,
                                          "the lagged reaction term is non-finite")
        rhs = M.dot(y_m + tau * reaction)
        rhs += tau * problem.C_g * (as_scipy(problem.device_mass).T @ kappa_new)
        s = problem.step_scale
        rhs = rhs * s
        try:
            sol = scanning_cg_solve(problem.scaled_step_matrix, rhs, rel_tol=scheme.cg_tol,
                                    max_iters=scheme.cg_max_iters, x0=y_prev / s)
        except ConvergenceError as err:
            if err.iters == 0 and not np.isfinite(err.residual):
                # cg_solve rejects a right-hand side before its first iteration
                raise stepper_mod._divergence(
                    state, p, corrections,
                    f"the linear solve rejected its right-hand side: {err}") from err
            raise ConvergenceError(
                f"linear solve failed at step {state.step_index + 1}, "
                f"Picard sweep {p + 1}: {err}", err.iters, err.residual) from err
        y_new = sol.x * s
        if not np.isfinite(y_new).all():
            raise RuntimeError(
                f"non-finite iterate at step {state.step_index + 1}, Picard sweep {p + 1}; "
                f"kappa range [{kappa_new.min() if len(kappa_new) else 0}, "
                f"{kappa_new.max() if len(kappa_new) else 0}]")
        np.subtract(y_new, y_prev, out=corrections[p])
        y_prev = y_new

    diags = StepDiagnostics(cg_iters=sol.iters, cg_residual=sol.residual,
                            picard_increment=scanning_max_abs(corrections[-1]))
    return SimState(step_index=state.step_index + 1,
                    y=NodalField(y_prev),
                    kappa=kappa_new,
                    diagnostics=diags)


class ScanningErrorRecorder(ErrorRecorder):
    def __call__(self, state) -> None:
        m = self._count
        ref = self._ystar
        ref = ref[state.step_index] if ref.ndim == 2 else ref
        if m == 0:
            self._kappas = np.empty((self.n_nodes, len(state.kappa)))
        self._times[m] = state.step_index * self._tau
        y = state.y.values
        self._e_y[m] = form_norm(self._mass, y - ref)
        self._e_grad[m] = form_norm(self._stiffness, y - ref)
        self._kappas[m] = np.array(state.kappa)
        self._mass_trace[m] = float(self._weights @ state.y.values)
        self._count = m + 1


class TestStepOperator:
    """The step matrix M + tau*D*K, built as assemble builds it."""
    mesh = build_mesh(4)
    M = assemble_mass(mesh)
    K = assemble_stiffness(mesh)

    def test_zero_tau_gives_mass(self):
        A = self.M.scaled_add(0.0 * 0.02, self.K)
        assert np.max(np.abs(A.toarray() - self.M.toarray())) <= 1e-12

    def test_constants_feel_only_mass(self):
        A = self.M.scaled_add(0.01 * 0.02, self.K)
        ones = np.ones(self.M.n_cols)
        assert np.allclose(A.dot(ones), self.M.dot(ones), atol=1e-14)

    def test_spd_dense_cholesky(self):
        A = self.M.scaled_add(0.01 * 0.02, self.K)
        np.linalg.cholesky(A.toarray())  # raises if not SPD

    def test_mesh_mismatch_rejected(self):
        # operators of another mesh differ in size: equal sizes mean equal n_div
        other = assemble_stiffness(build_mesh(5))
        with pytest.raises(ValueError, match="dimensions do not match"):
            self.M.scaled_add(0.01 * 0.02, other)


class TestEquilibrium:
    def test_zero_state_is_exact_fixed_point(self):
        cfg = small_config(y0=ConstantField(0.0))
        out = run_experiment(cfg)
        assert out.series.e_y.max() == 0.0
        assert np.abs(out.series.kappa_traces).max() == 0.0
        assert np.abs(out.final_state.y.values).max() <= 1e-12


class TestConservation:
    def test_mass_conserved_without_devices_or_reaction(self):
        cfg = devices_off(reaction=ReactionTerm.zero(),
                          scheme=SchemeSpec(n_div=12, n_steps=20, cg_tol=1e-13))
        out = run_experiment(cfg)
        m = out.series.mass_trace
        assert np.max(np.abs(m - m[0])) <= 1e-10 * abs(m[0])

    def test_constant_solution_on_smallest_mesh(self):
        cfg = devices_off(y0=ConstantField(1.0), reaction=ReactionTerm.zero(),
                          scheme=SchemeSpec(n_div=1, n_steps=5))
        out = run_experiment(cfg)
        assert np.max(np.abs(out.final_state.y.values - 1.0)) <= 1e-12

    def test_mass_identity_with_devices_and_no_reaction(self):
        # integrating the discrete system against the constant test function:
        # 1^T M y_new = 1^T M y_old + tau * sum_j kappa_j_new * 1^T G_j
        cfg = small_config(reaction=ReactionTerm.zero(),
                           scheme=SchemeSpec(n_div=12, n_steps=8, cg_tol=1e-13))
        built = assemble(cfg)
        scheme = cfg.scheme
        ones = np.ones(built.problem.mesh.n_vertices)
        wM = built.problem.mass.dot(ones)
        # 1^T G_j per device, G_j = C_g * M I_j
        g_masses = built.problem.C_g * built.problem.device_mass.dot(ones)
        state = initial_state(built)
        for _ in range(scheme.n_steps):
            new = picard_step(state, built.problem, scheme)
            lhs = wM @ new.y.values
            rhs = wM @ state.y.values + cfg.tau * float(new.kappa @ g_masses)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)
            state = new


class TestPicardStep:
    def test_per_step_linear_residual(self):
        # with a single Picard sweep the accepted rhs is reconstructible; the
        # chained steps warm-start from fitted corrections, and every solve
        # must still meet the CG tolerance
        cfg = small_config(scheme=SchemeSpec(n_div=10, n_steps=8, n_picard=1))
        built = assemble(cfg)
        scheme = cfg.scheme
        state = initial_state(built)
        p = built.problem
        _, loads = dense_device_arrays(cfg, built)
        for step in range(scheme.n_steps):
            new = picard_step(state, p, scheme)
            assert len(new.history) == min(step + 1, stepper_mod.WARM_START_DEPTH)
            f_vals = np.asarray(eval_reaction(p.reaction, state.y.values))
            rhs = (p.mass.dot(state.y.values) + cfg.tau * p.mass.dot(f_vals)
                   + cfg.tau * (loads.T @ new.kappa))
            resid = np.linalg.norm(p.step_matrix.dot(new.y.values) - rhs)
            assert resid <= scheme.cg_tol * np.linalg.norm(rhs)
            state = new

    def test_kappa_of_another_length_is_rejected(self):
        # one signal per thermostat: a one-entry kappa is not spread over the 4
        cfg = small_config(scheme=SchemeSpec(n_div=10, n_steps=3))
        built = assemble(cfg)
        for kappa in ([0.0], np.zeros(5), (), np.zeros((4, 1))):
            state = replace(initial_state(built), kappa=kappa)
            message = rf"^kappa of shape {re.escape(str(state.kappa.shape))} for 4 thermostats$"
            with pytest.raises(ValueError, match=message):
                picard_step(state, built.problem, cfg.scheme)
            with pytest.raises(ValueError, match=message):
                run(state, built.problem, cfg.scheme)

    def test_diagnostics_populated(self):
        cfg = small_config(scheme=SchemeSpec(n_div=10, n_steps=CONTRACTING_STEPS))
        built = assemble(cfg)
        state = picard_step(initial_state(built), built.problem, cfg.scheme)
        assert_contracting(state)
        d = state.diagnostics
        assert d.cg_iters >= 0 and np.isfinite(d.cg_residual)
        assert d.picard_increment >= 0.0

    def test_kappa_stays_bounded_by_demand(self):
        cfg = small_config(scheme=SchemeSpec(n_div=16, n_steps=30))
        out = run_experiment(cfg)
        bound = max(abs(k) for k in cfg.kappa0) if cfg.kappa0 else 0.0
        bound = max(bound, cfg.H_w)  # identity weights: sum_k |alpha_jk| H_w = H_w
        assert np.all(np.abs(out.series.kappa_traces) <= bound)

    def test_picard_divergence_is_named(self):
        # at the campaign's T = 24 with only 50 steps (tau = 0.48) the lagged
        # cubic overflows within a few steps; one sweep per step leaves the
        # sweep comparison out, so the overflow is what stops the run
        cfg = make_experiment(1, devices=64)
        cfg = replace(cfg, scheme=replace(cfg.scheme, n_div=20, n_steps=50, n_picard=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # no overflow warning may leak
            with pytest.raises(ConvergenceError) as info:
                run_experiment(cfg)
        message = str(info.value)
        assert "Picard iteration diverged at step 7, Picard sweep 1: " \
               "the lagged reaction term is non-finite" in message
        assert "last finite Picard increment" in message
        assert np.isfinite(info.value.residual) and info.value.residual > 0

    def test_overflowing_rhs_norm_is_picard_divergence(self):
        # at tau = 8 the right-hand side grows past 1e154, where ||b||^2
        # overflows while every entry and the reaction are still finite; one
        # sweep per step leaves the sweep comparison out
        cfg = make_experiment(1, devices=16)
        cfg = replace(cfg, T=48.0, scheme=replace(cfg.scheme, n_div=8, n_steps=6, n_picard=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # no overflow warning may leak
            with pytest.raises(ConvergenceError) as info:
                run_experiment(cfg)
        message = str(info.value)
        assert re.search(r"Picard iteration diverged at step \d+, Picard sweep \d+", message)
        assert "norm of the right-hand side overflows" in message
        assert np.isfinite(info.value.residual) and info.value.residual > 0

    def test_cg_failure_carries_step_context(self):
        cfg = small_config(scheme=SchemeSpec(n_div=10, n_steps=CONTRACTING_STEPS,
                                             cg_tol=1e-15, cg_max_iters=1))
        built = assemble(cfg)
        with pytest.raises(ConvergenceError, match="step 1, Picard sweep"):
            picard_step(initial_state(built), built.problem, cfg.scheme)


    def test_silent_picard_divergence_raises(self):
        # tau = 0.25: unchecked, the last sweep moved y by 2.3e27 at step 2 and
        # the run ended at E_y(T) = 6.0e26; the sweep guard stops it at step 1
        cfg = small_config(scheme=SchemeSpec(n_div=10, n_steps=2))
        with pytest.raises(ConvergenceError):
            run_experiment(cfg)

    @pytest.mark.parametrize("n_steps, first, last", [(2, 2.56, 26.8), (4, 0.715, 1.57)])
    def test_growing_sweeps_raise_at_the_first_step(self, n_steps, first, last):
        # exp2 at T = 0.5, N = 10: every value stays finite, but the third
        # sweep of step 1 moves y further than the first
        cfg = make_experiment(2)
        cfg = replace(cfg, T=0.5, scheme=replace(cfg.scheme, n_div=10, n_steps=n_steps))
        built = assemble(cfg)
        with pytest.raises(ConvergenceError) as info:
            picard_step(initial_state(built), built.problem, cfg.scheme)
        named = re.fullmatch(r"Picard iteration diverged at step 1: the last sweep moved y "
                             r"by (\S+), more than the first sweep's (\S+)", str(info.value))
        assert named, str(info.value)
        assert float(named[1]) == pytest.approx(last, rel=5e-3)
        assert float(named[2]) == pytest.approx(first, rel=5e-3)
        assert info.value.iters == cfg.scheme.n_picard
        assert info.value.residual == pytest.approx(last, rel=5e-3)

    def test_single_sweep_is_not_compared(self):
        # with one sweep per step the first sweep is the last: the same
        # growing exp2 run steps on
        cfg = make_experiment(2)
        cfg = replace(cfg, T=0.5, scheme=replace(cfg.scheme, n_div=10, n_steps=4, n_picard=1))
        out = run_experiment(cfg)
        assert out.final_state.step_index == 4
        assert np.isfinite(out.final_state.y.values).all()

    def test_solver_noise_near_steady_state_does_not_trip(self):
        # exp2 at N = 20 runs to T = 100 in 2000 steps: close to steady state
        # the last sweep's correction is CG noise of order 1e-9 at cg_tol =
        # 1e-10 and often exceeds the first's, but stays some 4000 times
        # below the floor sqrt(cg_tol) * max|y|
        cfg = make_experiment(2)
        cfg = replace(cfg, T=100.0, scheme=replace(cfg.scheme, n_div=20, n_steps=2000))
        grown = []

        def record(state):
            if state.history:
                first, last = np.abs(state.history[0][[0, -1]]).max(axis=1)
                if last > first:
                    grown.append(last / np.abs(state.y.values).max())

        out = run_observed(cfg, record)
        assert out.final_state.step_index == 2000
        assert grown and max(grown) < math.sqrt(cfg.scheme.cg_tol)


class TestVectorizedSweep:
    @pytest.mark.parametrize("explicit", [False, True])
    def test_matches_per_device_reference(self, explicit):
        # each step starts cold, as the reference does: the warm start changes
        # a solve's iterates within cg_tol only, more than this bound
        cfg = campaign1_small(explicit_measure=explicit)
        built = assemble(cfg)
        scheme = cfg.scheme
        profiles, loads = dense_device_arrays(cfg, built)
        state = initial_state(built)
        ref_y, ref_kappa = state.y.values, state.kappa
        for step in range(scheme.n_steps):
            ref_state = SimState(step, NodalField(ref_y), ref_kappa)
            ref_y, ref_kappa = reference_picard_step(
                ref_state, built.problem, scheme, profiles, loads)
            state = picard_step(replace(state, history=()), built.problem, scheme)
            assert np.max(np.abs(state.y.values - ref_y)) <= 1e-12 * np.max(np.abs(ref_y))
            assert np.max(np.abs(state.kappa - ref_kappa)) <= 1e-12 * np.max(np.abs(ref_kappa))

    def test_device_free_problem_steps(self):
        cfg = devices_off(scheme=SchemeSpec(n_div=12, n_steps=5))
        built = assemble(cfg)
        assert built.problem.device_mass.n_rows == 0
        scheme = cfg.scheme
        profiles, loads = dense_device_arrays(cfg, built)
        state = initial_state(built)
        ref_y, _ = reference_picard_step(state, built.problem, scheme, profiles, loads)
        new = picard_step(state, built.problem, scheme)
        assert new.kappa.shape == (0,)
        assert np.max(np.abs(new.y.values - ref_y)) <= 1e-12 * np.max(np.abs(ref_y))


# Two solutions that each meet cg_tol differ by at most twice (max s / min s)
# cond(S A S) sqrt(n) cg_tol max|y|, about 330 cg_tol max|y| at N = 20 (see
# picard_step); a warm and a cold step were measured within 3 cg_tol max|y|.
WITHIN_CG_TOL = 1e3


def assert_within_cg_tol(new, cold, scheme):
    """new's y and kappa lie within the CG tolerance of the cold step's."""
    bound = WITHIN_CG_TOL * scheme.cg_tol
    assert np.max(np.abs(new.y.values - cold.y.values)) <= bound * np.max(np.abs(cold.y.values))
    assert np.max(np.abs(new.kappa - cold.kappa)) <= bound * np.max(np.abs(cold.kappa))


def stepped_state(built, scheme, n_steps):
    """The state after n_steps picard_steps from the initial state, with its history."""
    state = initial_state(built)
    for _ in range(n_steps):
        state = picard_step(state, built.problem, scheme)
    return state


class TestWarmStart:
    @pytest.mark.parametrize("explicit, device_free",
                             [(False, False), (True, False), (False, True), (True, True)],
                             ids=["False", "True", "device-free", "device-free-explicit"])
    def test_fresh_state_steps_bitwise_as_before(self, explicit, device_free):
        # the device-free problem goes through the same sweep as a controlled
        # one; the reference skips its device terms
        cfg = campaign1_small(explicit_measure=explicit)
        if device_free:
            cfg = replace(cfg, layout=ExplicitLayout((), cfg.r_sigma), beta=(), kappa0=())
        built = assemble(cfg)
        scheme = cfg.scheme
        state = stepped_state(built, scheme, 4)
        fresh = replace(state, history=())
        y, kappa, sol, increment = parent_picard_step(fresh, built.problem, scheme)
        new = picard_step(fresh, built.problem, scheme)
        assert new.y.values.tobytes() == y.tobytes()
        assert new.kappa.tobytes() == kappa.tobytes()
        assert new.diagnostics == StepDiagnostics(sol.iters, sol.residual, increment)
        assert len(new.history) == 1
        assert new.history[0].shape == (scheme.n_picard, built.problem.mesh.n_vertices)
        assert not new.history[0].flags.writeable

    def test_scratch_of_another_problem_lands_within_cg_tol(self):
        # a state made by a run with another C_g (the same shapes): its kept
        # corrections do not fit this problem's steps, but every solve still
        # meets cg_tol
        cfg = campaign1_small()
        built = assemble(cfg)
        other = assemble(replace(cfg, C_g=2 * cfg.C_g))
        state = stepped_state(other, cfg.scheme, 8)
        assert len(state.history) == stepper_mod.WARM_START_DEPTH
        cold = picard_step(replace(state, history=()), built.problem, cfg.scheme)
        new = picard_step(state, built.problem, cfg.scheme)
        assert_within_cg_tol(new, cold, cfg.scheme)

    def test_stale_state_stepped_twice_lands_within_cg_tol(self):
        # the first step moves the run's scratch on: the second step from the
        # same state finds it stale and starts cold
        cfg = campaign1_small()
        built = assemble(cfg)
        state = stepped_state(built, cfg.scheme, 8)
        cold = picard_step(replace(state, history=()), built.problem, cfg.scheme)
        first = picard_step(state, built.problem, cfg.scheme)
        second = picard_step(state, built.problem, cfg.scheme)
        for new in (first, second):
            assert_within_cg_tol(new, cold, cfg.scheme)
        assert first.diagnostics.cg_iters < cold.diagnostics.cg_iters
        assert second.y.values.tobytes() == cold.y.values.tobytes()
        assert second.kappa.tobytes() == cold.kappa.tobytes()
        assert len(second.history) == 1
        # the cold step wrote a scratch of its own: the first step's run goes on warm
        assert first.history.steps == first.history.scratch.steps == 9

    def test_history_of_another_shape_starts_cold(self):
        # the scratch of a run with another sweep count, or on another mesh
        cfg = campaign1_small()
        built = assemble(cfg)
        state = stepped_state(built, cfg.scheme, 3)
        cold = picard_step(replace(state, history=()), built.problem, cfg.scheme)
        for other in (replace(cfg.scheme, n_picard=2), replace(cfg.scheme, n_div=19)):
            foreign = stepped_state(assemble(replace(cfg, scheme=other)), other, 3)
            new = picard_step(replace(state, history=foreign.history), built.problem,
                              cfg.scheme)
            assert new.y.values.tobytes() == cold.y.values.tobytes()
            assert new.kappa.tobytes() == cold.kappa.tobytes()
            assert len(new.history) == 1

    def test_non_finite_scratch_falls_back_bitwise(self):
        cfg = campaign1_small()
        built = assemble(cfg)
        scheme = cfg.scheme
        state = stepped_state(built, scheme, 8)
        cold = picard_step(replace(state, history=()), built.problem, scheme)
        for poison in (np.inf, np.nan):
            state = stepped_state(built, scheme, 8)
            slots = state.history.scratch.slots   # every sweep's kept corrections
            assert np.isfinite(slots).all() and np.abs(slots).max() > 0
            slots[:, :, 0] = poison
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                new = picard_step(state, built.problem, scheme)
            assert new.y.values.tobytes() == cold.y.values.tobytes()
            assert new.kappa.tobytes() == cold.kappa.tobytes()
            assert new.diagnostics == cold.diagnostics

    def test_start_residual_is_least_over_the_kept_corrections(self, monkeypatch):
        # at every step the start of each solve leaves the residual that a
        # least-squares fit of exact images (products with S A S) finds least
        # over the kept corrections: measured within 2.5e-9 of it, and at
        # most 0.62 times the cold start's (at step 5, sweep 2)
        cfg = campaign1_small()
        built = assemble(cfg)
        problem, scheme = built.problem, cfg.scheme
        A, s = problem.scaled_step_matrix, problem.step_scale
        solves = []

        def recording_cg(A, b, **kwargs):
            result = cg_solve(A, b, **kwargs)
            solves.append((b, kwargs["x0"], result.x))   # result.x becomes the sweep's y
            return result

        monkeypatch.setattr(stepper_mod, "cg_solve", recording_cg)
        state = initial_state(built)
        for step in range(30):
            kept = [np.array(c) for c in state.history]
            assert len(kept) == min(step, stepper_mod.WARM_START_DEPTH)
            solves.clear()
            new = picard_step(state, problem, scheme)
            y_prev = state.y.values
            for p, (b, x0, y_new) in enumerate(solves):
                cold = b - A.dot(y_prev / s)
                start = np.linalg.norm(b - A.dot(x0))
                if kept:
                    images = np.array([A.dot(c[p] / s) for c in kept]).T
                    g = np.linalg.lstsq(images, cold, rcond=None)[0]
                    least = np.linalg.norm(cold - images @ g)
                    assert start <= (1 + 1e-6) * least, (step, p)
                    assert start < 0.7 * np.linalg.norm(cold), (step, p)
                else:
                    assert x0.tobytes() == (y_prev / s).tobytes()
                y_prev = y_new
            state = new

    def test_run_returns_no_history_while_observers_see_it(self):
        # the history drives every step of the run; only the returned state drops it
        cfg = campaign1_small()
        depth = stepper_mod.WARM_START_DEPTH
        seen = []
        out = run_observed(cfg, lambda state: seen.append(state.history))
        assert out.final_state.history == ()
        assert [len(h) for h in seen] == [min(m, depth)
                                          for m in range(cfg.scheme.n_steps + 1)]
        assert cfg.scheme.n_steps > depth
        assert all(h[0].shape == (cfg.scheme.n_picard, out.problem.mesh.n_vertices)
                   for h in seen[1:])
        # the solution is the observed last state's, bit for bit
        final = stepped_state(assemble(cfg), cfg.scheme, cfg.scheme.n_steps)
        assert out.final_state.y.values.tobytes() == final.y.values.tobytes()
        assert out.final_state.kappa.tobytes() == final.kappa.tobytes()

    def test_warm_start_cuts_cg_iterations(self, monkeypatch):
        # measured 1278 warm against 1908 cold iterations, a ratio of 0.670;
        # 0.70 leaves a margin of 0.03 (57 iterations), and the cubic
        # extrapolation in time the fit replaced read 1630, a ratio of 0.854
        cfg = campaign1_small()
        built = assemble(cfg)
        scheme = cfg.scheme
        iters = []

        def counting_cg(*args, **kwargs):
            result = cg_solve(*args, **kwargs)
            iters.append(result.iters)
            return result

        monkeypatch.setattr(stepper_mod, "cg_solve", counting_cg)
        totals = {}
        for warm in (False, True):
            iters.clear()
            state = initial_state(built)
            for _ in range(scheme.n_steps):
                state = picard_step(state if warm else replace(state, history=()),
                                    built.problem, scheme)
            totals[warm] = sum(iters)
        assert totals[True] <= 0.70 * totals[False], totals


class TestScanFreeSweep:
    @pytest.mark.parametrize("case", ["default", "explicit", "device-free"])
    def test_steps_and_series_bitwise_as_scanning_sweep(self, case):
        # exp1-64 at N=16, tau = 0.02, 40 steps, each started cold as the
        # reference's are, and the series are recorded against y* and against
        # a stored trajectory as the stability probe does
        cfg = make_experiment(1, devices=64)
        cfg = replace(cfg, T=0.8, scheme=replace(cfg.scheme, n_div=16, n_steps=40,
                                                 explicit_measure=case == "explicit"))
        if case == "device-free":
            cfg = replace(cfg, layout=ExplicitLayout((), cfg.r_sigma), beta=(), kappa0=())
        built = assemble(cfg)
        problem, scheme = built.problem, cfg.scheme
        assert problem.device_mass.n_rows == (0 if case == "device-free" else 64)
        trajectory = np.linspace(-0.5, 0.5, (scheme.n_steps + 1) * problem.mesh.n_vertices)
        trajectory = trajectory.reshape(scheme.n_steps + 1, -1)
        recorders = [cls(problem.mass, problem.stiffness, ref, scheme.n_steps + 1, problem.tau)
                     for ref in (problem.ystar.values, trajectory)
                     for cls in (ErrorRecorder, ScanningErrorRecorder)]

        def diagnostics_bytes(state):
            d = state.diagnostics
            return d.cg_iters, d.cg_residual.hex(), d.picard_increment.hex()

        state = reference = initial_state(built)
        for recorder in recorders:
            recorder(state)
        for _ in range(scheme.n_steps):
            state = picard_step(replace(state, history=()), problem, scheme)
            reference = scanning_picard_step(reference, problem, scheme)
            assert state.y.values.tobytes() == reference.y.values.tobytes()
            assert state.kappa.tobytes() == reference.kappa.tobytes()
            assert diagnostics_bytes(state) == diagnostics_bytes(reference)
            for recorder, observed in zip(recorders, (state, reference) * 2):
                recorder(observed)
        for lean, scanning in (recorders[:2], recorders[2:]):
            a, b = lean.series(), scanning.series()
            for name in ("times", "e_y", "e_grad", "kappa_traces", "mass_trace"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


SMALL_RUN = ("cfg = make_experiment(2)\n"
             "cfg = replace(cfg, T=0.06, scheme=replace(cfg.scheme, n_div=16, n_steps=6))\n"
             "out = run_experiment(cfg)\n")


def run_script(script: str, *args: str, **env: str) -> str:
    """The stripped stdout of ``script`` run with ``args`` by a fresh
    interpreter that imports thermoloop from this checkout's src/, with
    ``env`` added to its environment."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


# exp2-ic1 at its full scale N=100 (n = 10201 values, more than the 10000
# above which OpenBLAS splits a ddot over its threads) for 40 of its 400
# steps, at its step size tau = 0.01; writes series.csv to argv[1] and prints
# the digests of the final y and kappa
THREADED_RUN = (
    "import hashlib, sys\n"
    "from dataclasses import replace\n"
    "from thermoloop import preset, run_experiment, write_series_csv\n"
    "cfg = preset('exp2-ic1')\n"
    "cfg = replace(cfg, T=0.4, scheme=replace(cfg.scheme, n_steps=40))\n"
    "out = run_experiment(cfg)\n"
    "write_series_csv(out.series, sys.argv[1])\n"
    "for a in (out.final_state.y.values, out.final_state.kappa):\n"
    "    print(hashlib.sha256(a.tobytes()).hexdigest())\n")


class TestBlasThreads:
    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="needs 2 CPUs for OpenBLAS to run 2 threads")
    def test_full_scale_bits_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        runs = {threads: (run_script(THREADED_RUN, str(tmp_path / f"series{threads}.csv"),
                                     OPENBLAS_NUM_THREADS=threads),
                          (tmp_path / f"series{threads}.csv").read_bytes())
                for threads in ("1", "2")}
        assert runs["1"] == runs["2"]


class TestImports:
    def test_no_dense_or_iterative_scipy_solvers_loaded(self):
        # the run path solves with its own CG; scipy.linalg and
        # scipy.sparse.linalg would load a second BLAS and raise peak memory
        script = (
            "import sys\n"
            "from dataclasses import replace\n"
            "from thermoloop import make_experiment, run_experiment\n"
            "cfg = make_experiment(2)\n"
            "cfg = replace(cfg, T=0.06, scheme=replace(cfg.scheme, n_div=16, n_steps=6))\n"
            "run_experiment(cfg)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('scipy.linalg', 'scipy.sparse.linalg'))))\n")
        assert run_script(script) == "[]"

    def test_a_run_loads_only_the_compiled_sparse_kernels(self, tmp_path):
        # linalg loads scipy's kernel extension from its file; the scipy.sparse
        # package, which would double the resident memory of a small run,
        # stays unloaded, through the API and through the CLI
        script = (
            "import sys\n"
            "from dataclasses import replace\n"
            "from thermoloop import cli, dump_config, make_experiment, run_experiment\n"
            "def loaded():\n"
            "    print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
            f"{SMALL_RUN}"
            "loaded()\n"
            f"dump_config(cfg, {str(tmp_path / 'small.json')!r})\n"
            f"cli.main(['run', {str(tmp_path / 'small.json')!r}, '--out', {str(tmp_path / 'out')!r}])\n"
            "loaded()\n")
        lines = run_script(script).splitlines()
        assert [lines[0], lines[-1]] == ["['scipy.sparse._sparsetools']"] * 2
        assert (tmp_path / "out" / "series.csv").stat().st_size > 0

    def test_scipy_sparse_imported_before_or_after_gives_the_same_bits(self):
        # with scipy.sparse imported first, linalg reuses its kernel module;
        # imported after, scipy.sparse takes linalg's; either way the run's
        # bits are those of a run without scipy.sparse, and scipy's own
        # products still work
        check = ("import numpy as np, scipy.sparse as sp, thermoloop.linalg as la\n"
                 "from scipy.sparse import _sparsetools\n"
                 "assert _sparsetools is la._kernels\n"
                 "assert (sp.csr_matrix(np.eye(3)) @ np.arange(3.0)).tolist() == [0.0, 1.0, 2.0]\n")
        digests = []
        for before, after in (("", ""), ("import scipy.sparse\n", check), ("", check)):
            script = (before + "import hashlib\n"
                      "from dataclasses import replace\n"
                      "from thermoloop import make_experiment, run_experiment\n"
                      + after + SMALL_RUN +
                      "final = out.final_state\n"
                      "print(hashlib.sha256(final.y.values.tobytes()"
                      " + final.kappa.tobytes()).hexdigest())\n" + after)
            digests.append(run_script(script))
        assert digests[0] == digests[1] == digests[2]


class TestSimState:
    def test_step_index_is_a_nonnegative_integer(self):
        cfg = small_config(T=0.5 / CONTRACTING_STEPS, scheme=SchemeSpec(n_div=10, n_steps=1))
        built = assemble(cfg)
        for bad, message in ((2.5, "^step_index must be an integer, got 2.5$"),
                             (True, "^step_index must be an integer, got True$"),
                             (-1, "^step_index must be >= 0, got -1$"),
                             (np.int64(-3), "^step_index must be >= 0, got -3$")):
            with pytest.raises(ValueError, match=message):
                replace(initial_state(built), step_index=bad)
        state = replace(initial_state(built), step_index=np.int64(3))
        assert type(state.step_index) is int and state.step_index == 3
        assert picard_step(state, built.problem, cfg.scheme).step_index == 4

    def test_array_holders_compare_by_identity(self):
        # equal values, distinct objects: unequal, without numpy's ambiguous
        # truth value, and hashable
        cfg = small_config(scheme=SchemeSpec(n_div=6, n_steps=CONTRACTING_STEPS))
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert np.array_equal(a.final_state.y.values, b.final_state.y.values)
        for x, y in ((a, b), (a.final_state, b.final_state), (a.final_state.y, b.final_state.y),
                     (a.problem, b.problem), (a.problem.mesh, b.problem.mesh),
                     (a.series, b.series)):
            assert x == x and x != y
            assert len({x, y, x}) == 2


class TestRun:
    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            SchemeSpec(n_div=1, n_steps=0)

    @pytest.mark.parametrize("bad", [dict(cg_tol=-1.0), dict(cg_tol=0.0),
                                     dict(cg_tol=float("nan")), dict(cg_max_iters=-5),
                                     dict(cg_max_iters=0), dict(cg_tol=float("inf")),
                                     dict(cg_tol=1.0)])
    def test_bad_solver_settings_rejected(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SchemeSpec(n_div=1, n_steps=1, **bad)

    def test_solver_settings_accepted(self):
        scheme = SchemeSpec(n_div=1, n_steps=1, cg_tol=1e-12, cg_max_iters=1)
        assert scheme.cg_max_iters == 1
        assert SchemeSpec(n_div=1, n_steps=1).cg_max_iters is None

    def test_single_step_equals_picard_step(self):
        # one step of small_config's contracting step size
        cfg = small_config(T=0.5 / CONTRACTING_STEPS, scheme=SchemeSpec(n_div=10, n_steps=1))
        built = assemble(cfg)
        scheme = cfg.scheme
        via_run = run(initial_state(built), built.problem, scheme).final_state
        direct = picard_step(initial_state(built), built.problem, scheme)
        assert np.array_equal(via_run.y.values, direct.y.values)
        assert np.array_equal(via_run.kappa, direct.kappa)

    def test_replay_determinism_bitwise(self):
        cfg = small_config(scheme=SchemeSpec(n_div=14, n_steps=12))
        a = run_experiment(cfg, record_trajectory=True)
        b = run_experiment(cfg, record_trajectory=True)
        assert a.trajectory_y.tobytes() == b.trajectory_y.tobytes()
        assert a.trajectory_kappa.tobytes() == b.trajectory_kappa.tobytes()
        assert np.array_equal(a.series.e_y, b.series.e_y)

    def test_observers_see_initial_state(self):
        cfg = small_config(scheme=SchemeSpec(n_div=10, n_steps=CONTRACTING_STEPS))
        out = run_observed(cfg, assert_contracting)
        assert out.series.n_nodes == CONTRACTING_STEPS + 1
        assert out.series.times[0] == 0.0

    def test_time_axis(self):
        cfg = small_config(scheme=SchemeSpec(n_div=10, n_steps=CONTRACTING_STEPS))
        out = run_observed(cfg, assert_contracting)
        assert np.allclose(np.diff(out.series.times), cfg.tau)
        assert abs(out.series.times[-1] - cfg.T) <= 1e-12 * cfg.T

    def test_node_times_are_step_indices_times_tau(self):
        # a run started at step k records its node m at (k + m) * tau, bit for bit
        k = 7
        cfg = small_config(scheme=SchemeSpec(n_div=10, n_steps=CONTRACTING_STEPS))
        built = assemble(cfg)
        p, n_nodes = built.problem, CONTRACTING_STEPS + 1
        recorder = ErrorRecorder(p.mass, p.stiffness, p.ystar.values, n_nodes, p.tau)
        initial = replace(initial_state(built), step_index=k)
        out = run(initial, p, cfg.scheme, [recorder])
        expected = np.array([(k + m) * cfg.tau for m in range(n_nodes)])
        assert out.series.times.tobytes() == expected.tobytes()

    def test_campaign2_node_times(self):
        # make_experiment(2) at N=16, M=200 records node m at m * tau, bit for bit
        cfg = make_experiment(2)
        cfg = replace(cfg, scheme=replace(cfg.scheme, n_div=16, n_steps=200))
        times = run_experiment(cfg).series.times
        assert times.tobytes() == np.array([m * cfg.tau for m in range(201)]).tobytes()


class TestMeasurementVariants:
    def test_explicit_measurement_is_a_distinct_valid_mode(self):
        implicit = small_config(scheme=SchemeSpec(n_div=14, n_steps=20))
        explicit = small_config(scheme=SchemeSpec(n_div=14, n_steps=20,
                                                  explicit_measure=True))
        out_i = run_experiment(implicit)
        out_e = run_experiment(explicit)
        # the measurement time level shifts the trajectory without breaking
        # the demand bound or the time-step consistency
        assert not np.array_equal(out_i.series.kappa_traces, out_e.series.kappa_traces)
        assert out_i.series.e_y[0] == out_e.series.e_y[0]
        assert np.all(np.abs(out_e.series.kappa_traces) <= explicit.H_w)
        assert np.isfinite(out_e.series.e_y).all()

    @pytest.mark.parametrize("explicit", [False, True])
    def test_thermostats_update_once_per_sweep_or_once_per_step(self, monkeypatch, explicit):
        # counted at the module names the benchmark's tracer patches
        cfg = campaign1_small(explicit_measure=explicit)
        built = assemble(cfg)
        calls = dict.fromkeys(("eval_switch", "thermostat_step"), 0)
        for name, fn in (("eval_switch", eval_switch), ("thermostat_step", thermostat_step)):
            def counted(*args, _name=name, _fn=fn):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(stepper_mod, name, counted)
        scheme = replace(cfg.scheme, n_steps=4)
        run(initial_state(built), built.problem, scheme)
        per_step = 1 if explicit else scheme.n_picard
        assert calls == dict.fromkeys(calls, scheme.n_steps * per_step)
