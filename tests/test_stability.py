from dataclasses import replace

import numpy as np
import pytest

from mesh_helpers import swap_axes_permutation
import thermoloop.experiments as experiments_mod
from thermoloop.experiments import (Blob, ConstantField, ExperimentConfig,
                                    ExplicitLayout, FieldSum, GaussianBlobs, SchemeSpec,
                                    grid_layout, make_experiment, run_experiment)
from thermoloop.fem import assemble_mass, assemble_stiffness
from thermoloop.mesh import build_mesh
from thermoloop.metrics import ErrorRecorder
from thermoloop.model import ReactionTerm
import thermoloop.stability as stability_mod
from thermoloop.stability import (StabilityReport, TrajectoryNorms, probe_control_stability,
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
        norms = trajectory_norms(out)
        assert (norms.sup_l2_y, norms.l2_grad_y, norms.sup_kappa, norms.l2_dkappa) \
            == (0.0, 0.0, 0.0, 0.0)

    def test_constant_field_norms(self):
        # y stays 1 when reaction and devices are off; kappa absent
        cfg = tiny_config(y0=ConstantField(1.0), reaction=ReactionTerm.zero(),
                          layout=ExplicitLayout((), 0.5), beta=(), kappa0=())
        out = run_experiment(cfg, record_trajectory=True)
        norms = trajectory_norms(out)
        assert norms.sup_l2_y == pytest.approx(2.0)
        assert norms.l2_grad_y <= 1e-9
        assert norms.sup_kappa == 0.0

    def test_requires_trajectory(self):
        cfg = tiny_config()
        out = run_experiment(cfg)
        with pytest.raises(ValueError):
            trajectory_norms(out)

    def test_closed_loop_norms_finite(self):
        cfg = tiny_config()
        out = run_experiment(cfg, record_trajectory=True)
        norms = trajectory_norms(out)
        for v in (norms.sup_l2_y, norms.l2_grad_y, norms.sup_kappa, norms.l2_dkappa):
            assert np.isfinite(v) and v >= 0


def reference_probe(base, perturb, deltas):
    """The probe before it streamed its members, kept as the reference: every
    run records its full trajectory, and the response and the difference
    norms are formed afterwards from the trajectories' differences."""
    mesh = build_mesh(base.scheme.n_div)
    M, K = assemble_mass(mesh).toarray(), assemble_stiffness(mesh).toarray()
    base_out = run_experiment(base, record_trajectory=True)
    responses, norms = [], []
    for d in deltas:
        out = run_experiment(base if d == 0.0 else perturb(d), record_trajectory=True)
        dY = out.trajectory_y - base_out.trajectory_y
        dk = out.trajectory_kappa - base_out.trajectory_kappa
        quad_mass = np.einsum("mn,nm->m", dY, M @ dY.T)
        quad_stiff = np.einsum("mn,nm->m", dY, K @ dY.T)
        resp = float(np.sqrt(np.max(np.maximum(quad_mass, 0.0))))
        if dk.size:
            resp += float(np.sum(np.max(np.abs(dk), axis=0)))
            sup_kappa = float(np.max(np.abs(dk)))
            l2_dkappa = float(np.sqrt(base.tau * np.sum((np.diff(dk, axis=0) / base.tau) ** 2)))
        else:
            sup_kappa = l2_dkappa = 0.0
        responses.append(resp)
        norms.append(TrajectoryNorms(
            sup_l2_y=float(np.sqrt(np.max(np.maximum(quad_mass, 0.0)))),
            l2_grad_y=float(np.sqrt(base.tau * np.sum(np.maximum(quad_stiff[1:], 0.0)))),
            sup_kappa=sup_kappa, l2_dkappa=l2_dkappa))
    return responses, norms


class TestProbeEquivalence:
    DELTAS = (1e-1, 1e-2, 1e-3, 0.0)

    def check(self, report, base, perturb):
        responses, norms = reference_probe(base, perturb, self.DELTAS)
        assert report.responses[-1] == 0.0
        assert report.responses == pytest.approx(responses, rel=1e-12, abs=0.0)
        for got, want in zip(report.difference_norms, norms):
            assert (got.sup_l2_y, got.l2_grad_y, got.sup_kappa, got.l2_dkappa) == pytest.approx(
                (want.sup_l2_y, want.l2_grad_y, want.sup_kappa, want.l2_dkappa),
                rel=1e-12, abs=0.0)

    def test_data_probe_matches_post_hoc_norms(self):
        base = tiny_config()
        report = probe_data_stability(base, DIRECTION, self.DELTAS)
        self.check(report, base, lambda d: replace(
            base, y0=FieldSum((base.y0, DIRECTION.scaled(d)))))

    def test_device_free_data_probe_matches_post_hoc_norms(self):
        base = tiny_config(layout=ExplicitLayout((), 0.5), beta=(), kappa0=())
        report = probe_data_stability(base, DIRECTION, self.DELTAS)
        self.check(report, base, lambda d: replace(
            base, y0=FieldSum((base.y0, DIRECTION.scaled(d)))))

    def test_control_probe_matches_post_hoc_norms(self):
        base = tiny_config()
        report = probe_control_stability(base, self.DELTAS)
        self.check(report, base, lambda d: replace(base, C_g=base.C_g * (1.0 + d)))

    def test_one_trajectory_recorded_per_probe(self, monkeypatch):
        recorded = []

        def counting_run(cfg, **kwargs):
            recorded.append(kwargs.get("record_trajectory", False))
            return run_experiment(cfg, **kwargs)

        monkeypatch.setattr(stability_mod, "run_experiment", counting_run)
        probe_data_stability(tiny_config(), DIRECTION, self.DELTAS)
        probe_control_stability(tiny_config(), self.DELTAS)
        assert recorded.count(True) == 2
        assert len(recorded) == 2 * (1 + len(self.DELTAS))


class TestSharedAssembly:
    DELTAS = (1e-1, 1e-2, 1e-3, 0.0)

    def probes(self):
        yield lambda base: probe_data_stability(base, DIRECTION, self.DELTAS)
        yield lambda base: probe_control_stability(base, self.DELTAS)

    def test_each_probe_builds_one_mesh(self, monkeypatch):
        meshes = []

        def counting_build_mesh(*args, **kwargs):
            meshes.append(args)
            return build_mesh(*args, **kwargs)

        monkeypatch.setattr(experiments_mod, "build_mesh", counting_build_mesh)
        for probe in self.probes():
            meshes.clear()
            probe(tiny_config())
            assert len(meshes) == 1

    def test_each_member_records_its_series_once(self, monkeypatch):
        # one for the base and one for each member, which measures against the base trajectory
        made = []
        init = ErrorRecorder.__init__

        def counting_init(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ErrorRecorder, "__init__", counting_init)
        for probe in self.probes():
            made.clear()
            probe(tiny_config())
            assert len(made) == 1 + len(self.DELTAS)

    def test_members_bitwise_equal_fresh_runs(self, monkeypatch):
        members = []

        def recording_run(cfg, **kwargs):
            out = run_experiment(cfg, **kwargs)
            members.append((cfg, kwargs, out))
            return out

        monkeypatch.setattr(stability_mod, "run_experiment", recording_run)
        for probe in self.probes():
            members.clear()
            probe(tiny_config())
            assert len(members) == 1 + len(self.DELTAS)
            base_trajectory = members[0][2].trajectory_y
            assert all(kwargs["reference"] is base_trajectory for _, kwargs, _ in members[1:])
            for cfg, kwargs, out in members:
                # a fresh assembly, the same recorders and reference
                del kwargs["assembled"]
                fresh = run_experiment(cfg, **kwargs)
                assert out.final_state.y.values.tobytes() == fresh.final_state.y.values.tobytes()
                assert out.final_state.kappa.tobytes() == fresh.final_state.kappa.tobytes()
                for name in ("times", "e_y", "e_grad", "kappa_traces", "mass_trace"):
                    assert (getattr(out.series, name).tobytes()
                            == getattr(fresh.series, name).tobytes()), name


class TestDataStability:
    def test_zero_delta_reproduces_base_exactly(self):
        report = probe_data_stability(tiny_config(), DIRECTION,
                                      [1e-1, 1e-2, 1e-3, 0.0])
        assert report.responses[-1] == 0.0
        assert np.isnan(report.ratios[-1])

    def test_linear_regime_ratio_exactly_constant(self):
        # no reaction, devices off: the step map is linear, so the
        # response scales exactly with delta (up to solver noise)
        cfg = tiny_config(reaction=ReactionTerm.zero(),
                          layout=ExplicitLayout((), 0.5), beta=(), kappa0=())
        report = probe_data_stability(cfg, DIRECTION, [1.0, 1e-1, 1e-2])
        ratios = np.array(report.ratios)
        assert np.max(np.abs(ratios / ratios[0] - 1.0)) <= 1e-10

    def test_direction_that_perturbs_nothing_is_inconclusive(self):
        # every member reruns the base: the responses vanish, and vanishing
        # responses show no Lipschitz response
        base = make_experiment(2, variant=1)
        base = replace(base, T=0.2, scheme=replace(base.scheme, n_div=16, n_steps=20))
        report = probe_data_stability(base, ConstantField(0.0), [1e-1, 1e-2, 1e-3])
        assert report.responses == (0.0, 0.0, 0.0)
        assert report.spread == np.inf

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

    @pytest.mark.parametrize("deltas", [(0.1, 0.01, 0.001, float("nan")),
                                        (float("inf"), 0.1, 0.01, 0.001),
                                        (0.1, float("nan"), 0.01, 0.001),
                                        (0.1, 0.01, 0.001, float("-inf"))])
    def test_non_finite_deltas_rejected_before_any_run(self, monkeypatch, deltas):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the deltas were checked")

        monkeypatch.setattr(stability_mod, "run_experiment", no_run)
        monkeypatch.setattr(experiments_mod, "assemble", no_run)
        with pytest.raises(ValueError, match="finite"):
            probe_data_stability(tiny_config(), DIRECTION, deltas)
        with pytest.raises(ValueError, match="finite"):
            probe_control_stability(tiny_config(), deltas)


class TestControlStability:
    def test_base_without_control_rejected(self, monkeypatch):
        # scaling a zero control height, or that of no device, changes nothing
        # at any delta: the probe would report a perfect spread on no response
        def no_run(*args, **kwargs):
            raise AssertionError("a run started for a base without control")

        monkeypatch.setattr(stability_mod, "run_experiment", no_run)
        for cfg in (tiny_config(C_g=0.0),
                    tiny_config(layout=ExplicitLayout((), 0.5), beta=(), kappa0=())):
            with pytest.raises(ValueError, match=r"^C_g = .* perturbs nothing$"):
                probe_control_stability(cfg, [1e-1, 1e-2, 1e-3])

    def test_frozen_signal_response_linear_in_delta(self):
        # H_w = 0 silences the feedback, so kappa follows a fixed decay from
        # kappa0 in every run and the field responds linearly to C_g changes
        cfg = tiny_config(H_w=1e-12, kappa0=(1.0,) * 4,
                          reaction=ReactionTerm.zero())
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
            StabilityReport(kind="initial_data", deltas=(1.0, 0.1), responses=(1.0,))

    @pytest.mark.parametrize("deltas", [(0.1, 1.0), (1.0, 1.0), (1.0, np.nan, 0.5)])
    def test_decreasing_enforced(self, deltas):
        with pytest.raises(ValueError, match="deltas must be strictly decreasing"):
            StabilityReport(kind="initial_data", deltas=deltas, responses=(0.0,) * len(deltas))

    def test_non_numeric_response_rejected(self):
        with pytest.raises(ValueError):
            StabilityReport(kind="initial_data", deltas=(1.0, 0.1), responses=(1.0, "0.1x"))

    def test_ratios_follow_from_the_responses(self):
        report = StabilityReport(kind="initial_data", deltas=(1.0, 0.1, 0.01, 0.0),
                                 responses=(3.0, 0.25, 0.04, 0.0))
        assert report.ratios[:3] == (3.0, 2.5, 4.0) and np.isnan(report.ratios[3])
        assert report.spread == 4.0 / 2.5

    @pytest.mark.parametrize("deltas, responses", [
        ((1.0, 0.1, 0.01), (0.0, 0.0, 0.0)),             # no response at all
        ((1.0, 0.1, 0.01), (1.0, 0.1, 0.0)),             # one member without response
        ((1.0, 0.1, 0.01), (1.0, -0.1, 0.01)),
        ((1.0, 0.1, 0.01), (1.0, np.nan, 0.01)),
        ((1.0, 0.1, 0.01), (1.0, np.inf, 0.01)),
        ((1.0, 0.1, 0.01), (np.inf, np.inf, np.inf)),
        ((1.0, 1e-300, 0.0), (1.0, 1e10, 0.0)),          # a ratio that overflows
        ((np.inf, 1.0, 0.1), (1.0, 1.0, 0.1)),           # a ratio of 0
        ((0.0,), (0.0,)),                                # no positive delta
        ((0.0, -1.0), (1.0, 1.0)),
        ((), ()),
    ])
    def test_spread_is_inf_unless_every_ratio_is_positive_and_finite(self, deltas, responses):
        report = StabilityReport(kind="initial_data", deltas=deltas, responses=responses)
        assert report.spread == np.inf


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
