import numpy as np
import pytest

from mesh_helpers import swap_axes_permutation
from thermoloop.experiments import (Blob, ConstantField, ExperimentConfig,
                                    ExplicitLayout, GaussianBlobs, SchemeSpec,
                                    grid_layout, run_experiment)
from thermoloop.fem import assemble_mass, assemble_stiffness
from thermoloop.mesh import build_mesh
from thermoloop.model import ReactionTerm
from thermoloop.stability import (StabilityReport, probe_control_stability,
                                  probe_data_stability, trajectory_norms)

DIRECTION = GaussianBlobs((Blob((0.25, -0.15), 0.3, 1.0),))


def tiny_config(**overrides):
    kw = dict(T=0.4, D=0.05,
              beta=(1.0,) * 4, kappa0=(0.0,) * 4,
              C_g=2.0, C_switch=0.2, L_w=-10.0, H_w=10.0,
              r_sigma=0.5, layout=grid_layout(2, 0.5),
              y0=GaussianBlobs((Blob((-0.3, 0.2), 0.35, 0.6),)),
              ystar=ConstantField(0.0),
              scheme=SchemeSpec(n_div=10, n_steps=8, cg_tol=1e-14),
              reaction=ReactionTerm.cubic_bistable())
    kw.update(overrides)
    return ExperimentConfig(**kw)


class TestTrajectoryNorms:
    def test_zero_trajectory(self):
        cfg = tiny_config(y0=ConstantField(0.0))
        out = run_experiment(cfg, record_trajectory=True)
        mesh = build_mesh(cfg.scheme.n_div)
        norms = trajectory_norms(out, assemble_mass(mesh), assemble_stiffness(mesh),
                                 cfg.tau)
        assert (norms.sup_l2_y, norms.l2_grad_y, norms.sup_kappa, norms.l2_dkappa) \
            == (0.0, 0.0, 0.0, 0.0)

    def test_constant_field_norms(self):
        # y stays 1 when reaction and devices are off; kappa absent
        cfg = tiny_config(y0=ConstantField(1.0), reaction=ReactionTerm.zero(),
                          layout=ExplicitLayout((), 0.5), beta=(), kappa0=())
        out = run_experiment(cfg, record_trajectory=True)
        mesh = build_mesh(cfg.scheme.n_div)
        norms = trajectory_norms(out, assemble_mass(mesh), assemble_stiffness(mesh),
                                 cfg.tau)
        assert norms.sup_l2_y == pytest.approx(2.0)
        assert norms.l2_grad_y <= 1e-9
        assert norms.sup_kappa == 0.0

    def test_requires_trajectory(self):
        cfg = tiny_config()
        out = run_experiment(cfg)
        mesh = build_mesh(cfg.scheme.n_div)
        with pytest.raises(ValueError):
            trajectory_norms(out, assemble_mass(mesh), assemble_stiffness(mesh), cfg.tau)

    def test_closed_loop_norms_finite(self):
        cfg = tiny_config()
        out = run_experiment(cfg, record_trajectory=True)
        mesh = build_mesh(cfg.scheme.n_div)
        norms = trajectory_norms(out, assemble_mass(mesh), assemble_stiffness(mesh),
                                 cfg.tau)
        for v in (norms.sup_l2_y, norms.l2_grad_y, norms.sup_kappa, norms.l2_dkappa):
            assert np.isfinite(v) and v >= 0


class TestDataStability:
    def test_zero_delta_reproduces_base_exactly(self):
        report = probe_data_stability(tiny_config(), DIRECTION,
                                      [1e-1, 1e-2, 1e-3, 0.0])
        assert report.responses[-1] == 0.0
        assert np.isnan(report.ratios[-1])

    def test_linear_regime_ratio_exactly_constant(self):
        # linear reaction, devices off: the step map is linear, so the
        # response scales exactly with delta (up to solver noise)
        cfg = tiny_config(reaction=ReactionTerm.linear(1.0),
                          layout=ExplicitLayout((), 0.5), beta=(), kappa0=())
        report = probe_data_stability(cfg, DIRECTION, [1.0, 1e-1, 1e-2])
        ratios = np.array(report.ratios)
        assert np.max(np.abs(ratios / ratios[0] - 1.0)) <= 1e-10

    def test_cubic_ratios_stay_close(self):
        report = probe_data_stability(tiny_config(), DIRECTION, [1e-1, 1e-2, 1e-3])
        assert report.spread < 3.0

    def test_delta_validation(self):
        cfg = tiny_config()
        with pytest.raises(ValueError):
            probe_data_stability(cfg, DIRECTION, [1e-1, 1e-2])  # too few
        with pytest.raises(ValueError):
            probe_data_stability(cfg, DIRECTION, [1e-1, 1e-2, 5e-2])  # not decreasing
        with pytest.raises(ValueError):
            probe_data_stability(cfg, DIRECTION, [1e-1, 5e-2, 2e-2])  # < 2 decades


class TestControlStability:
    def test_zero_control_base_gives_zero_response(self):
        # scaling a zero control height changes nothing at any delta
        cfg = tiny_config(C_g=0.0)
        report = probe_control_stability(cfg, [1e-1, 1e-2, 1e-3])
        assert all(r == 0.0 for r in report.responses)
        assert report.spread == 1.0

    def test_frozen_signal_response_linear_in_delta(self):
        # H_w = 0 silences the feedback, so kappa follows a fixed decay from
        # kappa0 in every run and the field responds linearly to C_g changes
        cfg = tiny_config(H_w=1e-12, kappa0=(1.0,) * 4,
                          reaction=ReactionTerm.linear(1.0))
        report = probe_control_stability(cfg, [1.0, 1e-1, 1e-2])
        ratios = np.array(report.ratios)
        assert np.max(np.abs(ratios / ratios[0] - 1.0)) <= 1e-9

    def test_closed_loop_spread_reported(self):
        report = probe_control_stability(tiny_config(), [1e-1, 1e-2, 1e-3])
        assert report.kind == "control_height"
        assert np.isfinite(report.spread)


class TestReport:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            StabilityReport(kind="initial_data", deltas=(1.0, 0.1),
                            responses=(1.0,), ratios=(1.0, 1.0), spread=1.0)

    def test_decreasing_enforced(self):
        with pytest.raises(ValueError):
            StabilityReport(kind="initial_data", deltas=(0.1, 1.0),
                            responses=(0.0, 0.0), ratios=(0.0, 0.0), spread=1.0)


class TestSymmetry:
    def test_diagonal_symmetric_setup_evolves_symmetrically(self):
        # layout, y0 and y* all invariant under swapping the axes; the
        # trajectory must commute with the induced vertex permutation
        cfg = tiny_config(
            y0=GaussianBlobs((Blob((0.4, 0.4), 0.3, 0.7),
                              Blob((-0.35, -0.35), 0.3, -0.6))),
            scheme=SchemeSpec(n_div=16, n_steps=20, cg_tol=1e-12))
        out = run_experiment(cfg, record_trajectory=True)
        perm = swap_axes_permutation(build_mesh(cfg.scheme.n_div))
        Y = out.trajectory_y
        assert np.max(np.abs(Y[:, perm] - Y)) <= 1e-9
