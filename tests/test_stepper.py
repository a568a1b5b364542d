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
                                    assemble, grid_layout, layout_centers,
                                    make_experiment, run_experiment)
from thermoloop.fem import NodalField, assemble_mass, assemble_stiffness, h1_seminorm, l2_norm
from thermoloop.linalg import CgResult, ConvergenceError, cg_solve
from thermoloop.metrics import ErrorRecorder
from thermoloop.mesh import build_mesh
from thermoloop.model import (ReactionTerm, disc_indicators, eval_reaction, eval_switch,
                              thermostat_step)
import thermoloop.stepper as stepper_mod
from thermoloop.stepper import SimState, StepDiagnostics, picard_step, run

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


# small_config's T = 0.5 in 20 steps: the Picard iteration contracts at every
# step (last/first sweep increment at most 0.008); it does not at 2 or 5 steps
CONTRACTING_STEPS = 20


def devices_off(**overrides):
    cfg = small_config(layout=ExplicitLayout((), 0.5), beta=(), kappa0=(),
                       **overrides)
    return cfg


def dense_device_arrays(cfg, built):
    """Per-device dense (K, n) measurement profiles C_h * h_k and (J, n) loads C_g * M g_k."""
    indicators = disc_indicators(built.problem.mesh, layout_centers(cfg.layout),
                                 cfg.r_sigma).toarray()
    loads = cfg.C_g * np.array([built.problem.mass.dot(row) for row in indicators])
    return cfg.C_h * indicators, loads.reshape(indicators.shape)


def reference_picard_step(state, problem, scheme, profiles, loads, history=()):
    """The sweep before vectorization, kept as the reference: one eval_switch
    call per device, dense device matvecs on M (y - y*), s - s**3 and a
    separate mass spmv for M y_m and for M f(y_lag).  Each solve starts from
    the previous iterate plus the cubic (or, with a shorter ``history``,
    lower-order) extrapolation in time of the corrections its sweep made at
    the last steps, ``history`` newest first.  Returns y, kappa and this
    step's (n_picard, n) corrections."""
    tau = problem.tau
    M = problem.mass
    y_m = state.y.values
    b0 = M.dot(y_m)
    switches = (problem.switch,) * len(profiles)
    y_prev, kappa_new = y_m, state.kappa
    corrections = []
    for p in range(scheme.n_picard):
        measured = y_m if scheme.explicit_measure else y_prev
        m_vals = profiles @ M.dot(measured - problem.ystar.values)
        w_vals = np.array([eval_switch(w, m) for w, m in zip(switches, m_vals)])
        kappa_new = thermostat_step(problem.beta, state.kappa,
                                    problem.alpha @ w_vals, tau)
        rhs = b0 + tau * M.dot(y_prev - y_prev ** 3) + tau * (loads.T @ kappa_new)
        c = [h[p] for h in history]
        if len(c) == 3:
            x0 = y_prev + 3 * c[0] - 3 * c[1] + c[2]
        elif len(c) == 2:
            x0 = y_prev + 2 * c[0] - c[1]
        elif len(c) == 1:
            x0 = y_prev + c[0]
        else:
            x0 = y_prev
        y_new = cg_solve(problem.step_matrix, rhs, rel_tol=scheme.cg_tol,
                         max_iters=scheme.cg_max_iters, inv_diag=problem.step_inv_diag,
                         x0=x0).x
        corrections.append(y_new - y_prev)
        y_prev = y_new
    return y_prev, kappa_new, np.array(corrections)


def parent_picard_step(state, problem, scheme):
    """The vectorized sweep as it was before warm starts, every solve
    starting from the previous iterate: the reference a state without
    history must reproduce bit for bit."""
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
            rhs += tau * problem.C_g * problem.device_mass_t.dot(kappa_new)
        sol = cg_solve(problem.step_matrix, rhs, rel_tol=scheme.cg_tol,
                       max_iters=scheme.cg_max_iters, inv_diag=problem.step_inv_diag,
                       x0=y_prev)
        y_before, y_prev = y_prev, sol.x
    return y_prev, kappa_new, sol, float(np.max(np.abs(y_prev - y_before)))


def campaign1_small(**scheme):
    """exp1-64 at N=20, M=50 and T=1, which keeps the campaign's step size
    tau = 0.02, where the lagged cubic converges (at T = 24 it diverges)."""
    cfg = make_experiment(1, devices=64)
    return replace(cfg, T=1.0, scheme=replace(cfg.scheme, n_div=20, n_steps=50, **scheme))


# The sweep, its solver and the error recorder as they were while every lagged
# reaction, every right-hand side and every thermostat bank was scanned on each
# sweep, kept verbatim (with the names they call) as the reference the sweep
# must reproduce bit for bit.

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


def scanning_cg_solve(A, b, rel_tol=1e-10, max_iters=None, inv_diag=None, x0=None):
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.n_rows,):
        raise ValueError(f"rhs length {b.shape} does not match {A.n_rows} rows")
    if inv_diag is not None and inv_diag.shape != b.shape:
        raise ValueError(f"inverse diagonal length {inv_diag.shape} does not match {b.shape}")
    if not np.isfinite(b).all():
        raise ConvergenceError("right-hand side contains non-finite entries", 0, float("nan"))
    if max_iters is None:
        max_iters = 10 * A.n_rows

    with np.errstate(over="ignore"):
        b_norm = math.sqrt(float(b @ b))   # bitwise equal to np.linalg.norm(b)
    if not math.isfinite(b_norm):
        raise ConvergenceError("the norm of the right-hand side overflows", 0, b_norm)
    if b_norm == 0.0:
        return CgResult(np.zeros_like(b), 0, 0.0)
    threshold = rel_tol * b_norm

    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.array(x0, dtype=np.float64)
        r = b - A.dot(x)

    scratch = np.empty_like(b)
    rr = float(r @ r)
    if inv_diag is None:
        p = r.copy()
        rz = rr
    else:
        p = r * inv_diag
        rz = float(r @ p)
    res = math.sqrt(rr)   # bitwise equal to np.linalg.norm(r)

    for k in range(max_iters):
        if res <= threshold:
            return CgResult(x, k, res)
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
        if inv_diag is None:
            z = r
            rz_new = rr
        else:
            z = np.multiply(r, inv_diag, out=scratch)
            rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
        res = math.sqrt(rr)
        if not np.isfinite(res):
            raise ConvergenceError(f"non-finite residual at iteration {k + 1}", k + 1, res)

    if res <= threshold:
        return CgResult(x, max_iters, res)
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
    history = state.history
    if any(np.shape(h) != corrections.shape for h in history):
        history = ()
    history = history[:stepper_mod.WARM_START_ORDER]
    weights = stepper_mod._EXTRAPOLATION_WEIGHTS[len(history)]

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
        rhs += tau * problem.C_g * problem.device_mass_t.dot(kappa_new)
        x0 = y_prev
        if weights:
            guess = y_prev.copy()
            for w, h in zip(weights, history):
                guess += w * h[p]
            if np.isfinite(guess).all():
                x0 = guess
        try:
            sol = scanning_cg_solve(problem.step_matrix, rhs, rel_tol=scheme.cg_tol,
                                    max_iters=scheme.cg_max_iters,
                                    inv_diag=problem.step_inv_diag, x0=x0)
        except ConvergenceError as err:
            if err.iters == 0 and not np.isfinite(err.residual):
                # cg_solve rejects a right-hand side before its first iteration
                raise stepper_mod._divergence(
                    state, p, corrections,
                    f"the linear solve rejected its right-hand side: {err}") from err
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

    corrections.setflags(write=False)
    diags = StepDiagnostics(cg_iters=sol.iters, cg_residual=sol.residual,
                            picard_increment=scanning_max_abs(corrections[-1]))
    # node time from the index, not by accumulation: exact for every step
    return SimState(step_index=state.step_index + 1,
                    time=(state.step_index + 1) * tau,
                    y=NodalField(y_prev, state.y.mesh_key),
                    kappa=kappa_new,
                    diagnostics=diags,
                    history=((corrections,) + history)[:stepper_mod.WARM_START_ORDER])


class ScanningErrorRecorder(ErrorRecorder):
    def __call__(self, state) -> None:
        ref = self._ystar
        if isinstance(ref, np.ndarray):
            ref = NodalField(ref[state.step_index], state.y.mesh_key)
        self._times.append(state.time)
        y, key = state.y.values, state.y.mesh_key
        self._e_y.append(l2_norm(self._mass, NodalField(y - ref.values, key)))
        self._e_grad.append(h1_seminorm(self._stiffness, NodalField(y - ref.values, key)))
        self._kappa.append(np.array(state.kappa))
        self._mass_trace.append(float(self._weights @ state.y.values))


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
        state = built.initial
        for _ in range(scheme.n_steps):
            new = picard_step(state, built.problem, scheme)
            lhs = wM @ new.y.values
            rhs = wM @ state.y.values + cfg.tau * float(new.kappa @ g_masses)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)
            state = new


class TestPicardStep:
    def test_per_step_linear_residual(self):
        # with a single Picard sweep the accepted rhs is reconstructible; the
        # chained steps warm-start from extrapolated corrections, and every
        # solve must still meet the CG tolerance
        cfg = small_config(scheme=SchemeSpec(n_div=10, n_steps=8, n_picard=1))
        built = assemble(cfg)
        scheme = cfg.scheme
        state = built.initial
        p = built.problem
        _, loads = dense_device_arrays(cfg, built)
        for step in range(scheme.n_steps):
            new = picard_step(state, p, scheme)
            assert len(new.history) == min(step + 1, 3)
            f_vals = np.asarray(eval_reaction(p.reaction, state.y.values))
            rhs = (p.mass.dot(state.y.values) + cfg.tau * p.mass.dot(f_vals)
                   + cfg.tau * (loads.T @ new.kappa))
            resid = np.linalg.norm(p.step_matrix.dot(new.y.values) - rhs)
            assert resid <= scheme.cg_tol * np.linalg.norm(rhs)
            state = new

    def test_diagnostics_populated(self):
        cfg = small_config(scheme=SchemeSpec(n_div=10, n_steps=CONTRACTING_STEPS))
        built = assemble(cfg)
        state = picard_step(built.initial, built.problem, cfg.scheme)
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
            picard_step(built.initial, built.problem, cfg.scheme)


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
            picard_step(built.initial, built.problem, cfg.scheme)
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

        out = run_experiment(cfg, extra_observers=[record])
        assert out.final_state.step_index == 2000
        assert grown and max(grown) < math.sqrt(cfg.scheme.cg_tol)


class TestVectorizedSweep:
    @pytest.mark.parametrize("explicit", [False, True])
    def test_matches_per_device_reference(self, explicit):
        cfg = campaign1_small(explicit_measure=explicit)
        built = assemble(cfg)
        scheme = cfg.scheme
        profiles, loads = dense_device_arrays(cfg, built)
        state = built.initial
        ref_y, ref_kappa, ref_history = state.y.values, state.kappa, ()
        for step in range(scheme.n_steps):
            ref_state = SimState(step, step * cfg.tau,
                                 NodalField(ref_y, state.y.mesh_key), ref_kappa)
            ref_y, ref_kappa, ref_c = reference_picard_step(
                ref_state, built.problem, scheme, profiles, loads, ref_history)
            ref_history = ((ref_c,) + ref_history)[:3]
            state = picard_step(state, built.problem, scheme)
            assert np.max(np.abs(state.y.values - ref_y)) <= 1e-12 * np.max(np.abs(ref_y))
            assert np.max(np.abs(state.kappa - ref_kappa)) <= 1e-12 * np.max(np.abs(ref_kappa))
        assert len(state.history) == 3

    def test_device_free_problem_steps(self):
        cfg = devices_off(scheme=SchemeSpec(n_div=12, n_steps=5))
        built = assemble(cfg)
        assert built.problem.device_mass.n_rows == 0
        scheme = cfg.scheme
        profiles, loads = dense_device_arrays(cfg, built)
        ref_y, _, _ = reference_picard_step(built.initial, built.problem, scheme, profiles, loads)
        new = picard_step(built.initial, built.problem, scheme)
        assert new.kappa.shape == (0,)
        assert np.max(np.abs(new.y.values - ref_y)) <= 1e-12 * np.max(np.abs(ref_y))


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
        state = run(built.initial, built.problem, replace(scheme, n_steps=4)).final_state
        fresh = replace(state, history=())
        y, kappa, sol, increment = parent_picard_step(fresh, built.problem, scheme)
        new = picard_step(fresh, built.problem, scheme)
        assert new.y.values.tobytes() == y.tobytes()
        assert new.kappa.tobytes() == kappa.tobytes()
        assert new.diagnostics == StepDiagnostics(sol.iters, sol.residual, increment)
        assert len(new.history) == 1
        assert new.history[0].shape == (scheme.n_picard, built.problem.mesh.n_vertices)
        assert not new.history[0].flags.writeable

    def test_history_of_wrong_shape_is_ignored(self):
        cfg = campaign1_small()
        built = assemble(cfg)
        scheme = cfg.scheme
        state = run(built.initial, built.problem, replace(scheme, n_steps=3)).final_state
        fresh = picard_step(replace(state, history=()), built.problem, scheme)
        n = built.problem.mesh.n_vertices
        for shape in [(scheme.n_picard + 1, n), (scheme.n_picard, n - 1), (n,)]:
            stale = replace(state, history=(np.ones(shape),) + state.history[1:])
            new = picard_step(stale, built.problem, scheme)
            assert new.y.values.tobytes() == fresh.y.values.tobytes()
            assert new.kappa.tobytes() == fresh.kappa.tobytes()
            assert len(new.history) == 1

    def test_non_finite_guess_falls_back(self):
        cfg = campaign1_small()
        built = assemble(cfg)
        scheme = cfg.scheme
        state = run(built.initial, built.problem, replace(scheme, n_steps=2)).final_state
        fresh = picard_step(replace(state, history=()), built.problem, scheme)
        poisoned = np.array(state.history[0])
        poisoned[:, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = picard_step(replace(state, history=(poisoned,)), built.problem, scheme)
        assert new.y.values.tobytes() == fresh.y.values.tobytes()

    def test_extrapolation_cuts_cg_iterations(self, monkeypatch):
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
            state = built.initial
            for _ in range(scheme.n_steps):
                state = picard_step(state if warm else replace(state, history=()),
                                    built.problem, scheme)
            totals[warm] = sum(iters)
        assert totals[True] < 0.9 * totals[False], totals


class TestScanFreeSweep:
    @pytest.mark.parametrize("case", ["default", "explicit", "device-free"])
    def test_steps_and_series_bitwise_as_scanning_sweep(self, case):
        # exp1-64 at N=16, tau = 0.02, 40 steps: the warm start reaches its
        # cubic order, and the series are recorded against y* and against a
        # stored trajectory as the stability probe does
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
        recorders = [cls(problem.mass, problem.stiffness, ref)
                     for ref in (problem.ystar, trajectory)
                     for cls in (ErrorRecorder, ScanningErrorRecorder)]

        def diagnostics_bytes(state):
            d = state.diagnostics
            return d.cg_iters, d.cg_residual.hex(), d.picard_increment.hex()

        state = reference = built.initial
        for recorder in recorders:
            recorder(state)
        for _ in range(scheme.n_steps):
            state = picard_step(state, problem, scheme)
            reference = scanning_picard_step(reference, problem, scheme)
            assert state.y.values.tobytes() == reference.y.values.tobytes()
            assert state.kappa.tobytes() == reference.kappa.tobytes()
            assert diagnostics_bytes(state) == diagnostics_bytes(reference)
            for recorder, observed in zip(recorders, (state, reference) * 2):
                recorder(observed)
        assert len(state.history) == 3
        for lean, scanning in (recorders[:2], recorders[2:]):
            a, b = lean.series(), scanning.series()
            for name in ("times", "e_y", "e_grad", "kappa_traces", "mass_trace"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


class TestImports:
    def test_no_dense_or_iterative_scipy_solvers_loaded(self):
        # the run path solves with its own CG; scipy.linalg and
        # scipy.sparse.linalg would load a second BLAS and raise peak memory
        script = (
            "import sys\n"
            "from dataclasses import replace\n"
            "from thermoloop import make_experiment, run_experiment\n"
            "cfg = make_experiment(2)\n"
            "cfg = replace(cfg, T=0.06, scheme=replace(cfg.scheme, n_div=6, n_steps=6))\n"
            "run_experiment(cfg)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('scipy.linalg', 'scipy.sparse.linalg'))))\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "[]"


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
        via_run = run(built.initial, built.problem, scheme).final_state
        direct = picard_step(built.initial, built.problem, scheme)
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
        out = run_experiment(cfg, extra_observers=[assert_contracting])
        assert out.series.n_nodes == CONTRACTING_STEPS + 1
        assert out.series.times[0] == 0.0

    def test_time_axis(self):
        cfg = small_config(scheme=SchemeSpec(n_div=10, n_steps=CONTRACTING_STEPS))
        out = run_experiment(cfg, extra_observers=[assert_contracting])
        assert np.allclose(np.diff(out.series.times), cfg.tau)
        assert abs(out.final_state.time - cfg.T) <= 1e-12 * cfg.T


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
