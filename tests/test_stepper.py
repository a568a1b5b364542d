import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from thermoloop.experiments import (Blob, ConstantField, ExperimentConfig,
                                    ExplicitLayout, GaussianBlobs, SchemeSpec,
                                    assemble, grid_layout, layout_centers,
                                    make_experiment, run_experiment, scheme_params)
from thermoloop.fem import NodalField, assemble_mass, assemble_stiffness
from thermoloop.linalg import ConvergenceError, cg_solve
from thermoloop.mesh import build_mesh
from thermoloop.model import (Device, ReactionTerm, device_field, eval_reaction,
                              eval_switch, thermostat_step)
from thermoloop.stepper import (SchemeParams, SimState, build_step_operator,
                                picard_step, run)

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


def devices_off(**overrides):
    cfg = small_config(layout=ExplicitLayout((), 0.5), beta=(), kappa0=(),
                       **overrides)
    return cfg


def dense_device_arrays(cfg, built):
    """Per-device dense (K, n) measurement profiles C_h * h_k and (J, n) loads C_g * M g_k."""
    centers = layout_centers(cfg.layout)
    indicators = np.array([device_field(built.mesh, Device(tuple(c), cfg.r_sigma, 1.0)).values
                           for c in centers]).reshape(len(centers), built.mesh.n_vertices)
    loads = cfg.C_g * np.array([built.problem.mass.dot(row) for row in indicators])
    return cfg.C_h * indicators, loads.reshape(indicators.shape)


def reference_picard_step(state, problem, params, profiles, loads):
    """The sweep before vectorization, kept as the reference: one eval_switch
    call per device, dense device matvecs on M (y - y*), s - s**3 and a
    separate mass spmv for M y_m and for M f(y_lag)."""
    tau = problem.tau
    M = problem.mass
    y_m = state.y.values
    b0 = M.dot(y_m)
    switches = (problem.switch,) * len(profiles)
    y_prev, kappa_new = y_m, state.kappa
    for _ in range(params.n_picard):
        measured = y_m if params.explicit_measure else y_prev
        m_vals = profiles @ M.dot(measured - problem.ystar.values)
        w_vals = np.array([eval_switch(w, m) for w, m in zip(switches, m_vals)])
        kappa_new = thermostat_step(problem.thermostats.beta, state.kappa,
                                    problem.alpha @ w_vals, tau)
        rhs = b0 + tau * M.dot(y_prev - y_prev ** 3) + tau * (loads.T @ kappa_new)
        y_prev = cg_solve(problem.step_matrix, rhs, rel_tol=params.cg_tol,
                          max_iters=params.cg_max_iters, inv_diag=problem.step_inv_diag,
                          x0=y_prev).x
    return y_prev, kappa_new


class TestStepOperator:
    mesh = build_mesh(4)
    M = assemble_mass(mesh)
    K = assemble_stiffness(mesh)

    def test_zero_tau_gives_mass(self):
        A = build_step_operator(self.M, self.K, D=0.02, tau=0.0)
        assert np.max(np.abs(A.toarray() - self.M.toarray())) <= 1e-12

    def test_constants_feel_only_mass(self):
        A = build_step_operator(self.M, self.K, D=0.02, tau=0.01)
        ones = np.ones(self.M.n_cols)
        assert np.allclose(A.dot(ones), self.M.dot(ones), atol=1e-14)

    def test_spd_dense_cholesky(self):
        A = build_step_operator(self.M, self.K, D=0.02, tau=0.01)
        np.linalg.cholesky(A.toarray())  # raises if not SPD

    def test_mesh_mismatch_rejected(self):
        other = assemble_stiffness(build_mesh(5))
        with pytest.raises(ValueError):
            build_step_operator(self.M, other, D=0.02, tau=0.01)


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
        params = scheme_params(cfg)
        ones = np.ones(built.mesh.n_vertices)
        wM = built.problem.mass.dot(ones)
        # 1^T G_j per device, G_j = C_g * M I_j
        g_masses = built.problem.C_g * built.problem.device_mass.dot(ones)
        state = built.initial
        for _ in range(params.n_steps):
            new = picard_step(state, built.problem, params)
            lhs = wM @ new.y.values
            rhs = wM @ state.y.values + params.tau * float(new.kappa @ g_masses)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)
            state = new


class TestPicardStep:
    def test_per_step_linear_residual(self):
        # with a single Picard sweep the accepted rhs is reconstructible
        cfg = small_config(scheme=SchemeSpec(n_div=10, n_steps=4, n_picard=1))
        built = assemble(cfg)
        params = scheme_params(cfg)
        state = built.initial
        p = built.problem
        _, loads = dense_device_arrays(cfg, built)
        for _ in range(params.n_steps):
            new = picard_step(state, p, params)
            f_vals = np.asarray(eval_reaction(p.reaction, state.y.values))
            rhs = (p.mass.dot(state.y.values) + params.tau * p.mass.dot(f_vals)
                   + params.tau * (loads.T @ new.kappa))
            resid = np.linalg.norm(p.step_matrix.dot(new.y.values) - rhs)
            assert resid <= params.cg_tol * np.linalg.norm(rhs)
            state = new

    def test_diagnostics_populated(self):
        cfg = small_config(scheme=SchemeSpec(n_div=10, n_steps=2))
        built = assemble(cfg)
        state = picard_step(built.initial, built.problem, scheme_params(cfg))
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
        # cubic overflows within a few steps
        cfg = make_experiment(1, devices=64)
        cfg = replace(cfg, scheme=replace(cfg.scheme, n_div=20, n_steps=50))
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # no overflow warning may leak
            with pytest.raises(ConvergenceError) as info:
                run_experiment(cfg)
        message = str(info.value)
        assert re.search(r"Picard iteration diverged at step \d+, Picard sweep \d+", message)
        assert "last finite Picard increment" in message
        assert np.isfinite(info.value.residual) and info.value.residual > 0

    def test_cg_failure_carries_step_context(self):
        cfg = small_config(scheme=SchemeSpec(n_div=10, n_steps=2, cg_tol=1e-15,
                                             cg_max_iters=1))
        built = assemble(cfg)
        with pytest.raises(ConvergenceError, match="step 1, Picard sweep"):
            picard_step(built.initial, built.problem, scheme_params(cfg))


class TestVectorizedSweep:
    @pytest.mark.parametrize("explicit", [False, True])
    def test_matches_per_device_reference(self, explicit):
        cfg = make_experiment(1, devices=64)
        # T = 1 keeps the campaign's step size tau = 0.02, where the lagged
        # cubic converges; at T = 24 and 50 steps it diverges
        cfg = replace(cfg, T=1.0, scheme=replace(cfg.scheme, n_div=20, n_steps=50,
                                                 explicit_measure=explicit))
        built = assemble(cfg)
        params = scheme_params(cfg)
        profiles, loads = dense_device_arrays(cfg, built)
        state = built.initial
        ref_y, ref_kappa = state.y.values, state.kappa
        for step in range(params.n_steps):
            ref_state = SimState(step, step * params.tau,
                                 NodalField(ref_y, state.y.mesh_key), ref_kappa)
            ref_y, ref_kappa = reference_picard_step(ref_state, built.problem, params,
                                                     profiles, loads)
            state = picard_step(state, built.problem, params)
            assert np.max(np.abs(state.y.values - ref_y)) <= 1e-12 * np.max(np.abs(ref_y))
            assert np.max(np.abs(state.kappa - ref_kappa)) <= 1e-12 * np.max(np.abs(ref_kappa))

    def test_device_free_problem_steps(self):
        cfg = devices_off(scheme=SchemeSpec(n_div=12, n_steps=5))
        built = assemble(cfg)
        assert built.problem.n_controls == 0
        params = scheme_params(cfg)
        profiles, loads = dense_device_arrays(cfg, built)
        ref_y, _ = reference_picard_step(built.initial, built.problem, params, profiles, loads)
        new = picard_step(built.initial, built.problem, params)
        assert new.kappa.shape == (0,)
        assert np.max(np.abs(new.y.values - ref_y)) <= 1e-12 * np.max(np.abs(ref_y))


class TestRun:
    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            SchemeParams(n_steps=0, tau=0.1)

    def test_single_step_equals_picard_step(self):
        cfg = small_config(scheme=SchemeSpec(n_div=10, n_steps=1))
        built = assemble(cfg)
        params = scheme_params(cfg)
        via_run = run(built.initial, built.problem, params).final_state
        direct = picard_step(built.initial, built.problem, params)
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
        cfg = small_config(scheme=SchemeSpec(n_div=10, n_steps=5))
        out = run_experiment(cfg)
        assert out.series.n_nodes == 6
        assert out.series.times[0] == 0.0

    def test_time_axis(self):
        cfg = small_config(scheme=SchemeSpec(n_div=10, n_steps=5))
        out = run_experiment(cfg)
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
