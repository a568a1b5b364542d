import json
import math
import re

import numpy as np
import pytest
from dataclasses import replace

from thermoloop.config_io import config_from_dict, config_to_json
from thermoloop.experiments import (Blob, ConstantField, ExperimentConfig,
                                    ExplicitLayout, FieldSum, GaussianBlobs,
                                    GridSubsetLayout, SUBSET20_INDICES,
                                    GridLayout, ICOND_VARIANT1, ICOND_VARIANT2,
                                    PROBE_DIRECTION, REFERENCE_STATE, SchemeSpec, assemble,
                                    grid_layout,
                                    list_presets, make_experiment, preset, run_experiment)
from thermoloop.fem import assemble_mass, form_norm, interpolate
from thermoloop.mesh import build_mesh
from thermoloop.metrics import ErrorRecorder, SnapshotRecorder, TrajectoryRecorder


class TestGridLayout:
    def test_eight_by_eight_centers(self):
        layout = grid_layout(8, 1.0 / 8.0)
        centers = layout.centers
        assert centers.shape == (64, 2)
        # centers sit at odd multiples of 1/8
        scaled = centers * 8
        assert np.allclose(scaled, np.round(scaled))
        assert np.all(np.round(scaled).astype(int) % 2 != 0)
        assert np.all(np.abs(centers) < 1.0)

    def test_sixteen_devices(self):
        assert len(grid_layout(4, 0.25).centers) == 16

    def test_single_inscribed_device(self):
        layout = grid_layout(1, 1.0)
        centers = layout.centers
        assert np.allclose(centers, [[0.0, 0.0]])

    def test_tangency_spacing(self):
        centers = grid_layout(4, 0.25).centers
        d = np.hypot(centers[:, None, 0] - centers[None, :, 0],
                     centers[:, None, 1] - centers[None, :, 1])
        np.fill_diagonal(d, np.inf)
        assert d.min() == pytest.approx(0.5)  # = 2 * radius: neighbors tangent

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            grid_layout(4, 0.3)


class TestSubset20:
    def test_count_and_uniqueness(self):
        assert len(SUBSET20_INDICES) == 20
        assert len(set(SUBSET20_INDICES)) == 20

    def test_rotation_invariance(self):
        # the kept-center set maps to itself under a 90-degree rotation
        centers = GridSubsetLayout(8, 0.125, SUBSET20_INDICES).centers
        rotated = np.column_stack([-centers[:, 1], centers[:, 0]])
        as_set = {tuple(np.round(c, 12)) for c in centers}
        assert {tuple(np.round(c, 12)) for c in rotated} == as_set

    def test_subset_validation(self):
        with pytest.raises(ValueError):
            GridSubsetLayout(8, 0.125, (0, 0, 1))
        with pytest.raises(ValueError):
            GridSubsetLayout(8, 0.125, (64,))


class TestFieldSpecs:
    def test_constant(self):
        mesh = build_mesh(4)
        fld = interpolate(mesh, ConstantField(0.0))
        assert np.all(fld.values == 0.0)

    def test_blob_peaks_at_center_vertex(self):
        mesh = build_mesh(20)
        fld = interpolate(mesh, GaussianBlobs((Blob((0.0, 0.0), 0.3, 1.0),)))
        assert fld.values.argmax() == (mesh.n_vertices - 1) // 2
        assert fld.values.max() == pytest.approx(1.0)

    def test_sum_is_pointwise(self):
        mesh = build_mesh(6)
        a = GaussianBlobs((Blob((0.2, 0.1), 0.4, 0.7),))
        b = GaussianBlobs((Blob((-0.5, 0.3), 0.2, -0.5),))
        total = interpolate(mesh, FieldSum((a, b)))
        assert np.allclose(total.values,
                           interpolate(mesh, a).values + interpolate(mesh, b).values)

    def test_scale_field(self):
        mesh = build_mesh(5)
        spec = FieldSum((GaussianBlobs((Blob((0.0, 0.0), 0.3, 0.8),)),
                         ConstantField(0.2), GaussianBlobs((Blob((0.4, -0.3), 0.2, -0.4),))))
        doubled = spec.scaled(2.0)
        assert np.allclose(interpolate(mesh, doubled).values,
                           2.0 * interpolate(mesh, spec).values)

    NESTED = FieldSum((ConstantField(0.2), FieldSum((REFERENCE_STATE, ConstantField(-0.1))),
                       PROBE_DIRECTION))

    @staticmethod
    def formula(spec, x, y):
        """The field formula of each spec kind, written out independently of the specs."""
        if isinstance(spec, ConstantField):
            return np.full(np.broadcast(x, y).shape, float(spec.value))
        out = np.zeros(np.broadcast(x, y).shape)
        if isinstance(spec, GaussianBlobs):
            for b in spec.blobs:
                r2 = (x - b.center[0]) ** 2 + (y - b.center[1]) ** 2
                out += b.amplitude * np.exp(-r2 / (2.0 * b.width ** 2))
            return out
        for term in spec.terms:
            out = out + TestFieldSpecs.formula(term, x, y)
        return out

    @pytest.mark.parametrize("spec", [ICOND_VARIANT1, ICOND_VARIANT2, REFERENCE_STATE,
                                      PROBE_DIRECTION, NESTED])
    def test_interpolate_is_the_formula_at_the_vertices_bitwise(self, spec):
        mesh = build_mesh(12)
        want = self.formula(spec, mesh.vertices[:, 0], mesh.vertices[:, 1])
        assert interpolate(mesh, spec).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", [ConstantField(0.3), ICOND_VARIANT1, NESTED])
    def test_scaled_is_twice_the_spec_bitwise(self, spec):
        # doubling is exact, so every value of the scaled spec is exactly 2x
        x, y = np.meshgrid(np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 7))
        doubled = spec.scaled(2.0)
        assert type(doubled) is type(spec)
        assert doubled(x, y).tobytes() == (2.0 * spec(x, y)).tobytes()


class TestPresets:
    def test_names(self):
        assert set(list_presets()) == {"exp1-16", "exp1-36", "exp1-64",
                                       "exp2-ic1", "exp2-ic2", "exp3-64",
                                       "exp3-20"}
        assert len(list_presets()) == 7

    def test_campaign1_scheme(self):
        cfg = make_experiment(1, devices=64)
        assert (cfg.scheme.n_div, cfg.scheme.n_steps, cfg.scheme.n_picard) == (100, 2400, 3)
        assert cfg.T == 24.0 and cfg.D == 0.01
        assert cfg.C_g == pytest.approx(16.0 / math.pi)
        assert cfg.n_devices == 64 and cfg.r_sigma == pytest.approx(1.0 / 8.0)

    def test_campaign1_layout_family(self):
        for dev, r in ((16, 0.25), (36, 1.0 / 6.0), (64, 0.125)):
            cfg = make_experiment(1, devices=dev)
            assert cfg.n_devices == dev
            assert cfg.r_sigma == pytest.approx(r)
            # calibrated measurement height (pi |L_w| C_switch r^2)^(-1)
            assert cfg.C_h == pytest.approx(1.0 / (math.pi * 10.0 * 0.2 * r * r))

    def test_campaign2_time_step(self):
        cfg = make_experiment(2, variant=1)
        assert cfg.T == 4.0
        assert cfg.tau == pytest.approx(0.01)
        assert (cfg.scheme.n_div, cfg.scheme.n_steps) == (100, 400)

    def test_campaign2_variants_differ_only_in_y0(self):
        a, b = make_experiment(2, variant=1), make_experiment(2, variant=2)
        assert a.y0 != b.y0
        assert replace(a, y0=b.y0) == b

    def test_campaign3_device_counts(self):
        assert make_experiment(3, devices=20).n_devices == 20
        assert make_experiment(3, devices=64).n_devices == 64

    def test_campaign3_64_matches_campaign2_variant1(self):
        assert make_experiment(3, devices=64) == make_experiment(2, variant=1)

    def test_unknown_ids(self):
        with pytest.raises(ValueError):
            make_experiment(4)
        with pytest.raises(ValueError):
            make_experiment(1, devices=25)
        for exp_id, name, value in ((1, "devices", 16.0), (1, "devices", True),
                                    (3, "devices", 20.0), (2, "variant", True),
                                    (2, "variant", 1.0), (2, "variant", 2.0)):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}"):
                make_experiment(exp_id, **{name: value})
        assert make_experiment(1, devices=np.int64(16)) == make_experiment(1, devices=16)
        assert make_experiment(2, variant=np.int64(2)) == make_experiment(2, variant=2)
        with pytest.raises(ValueError):
            preset("exp9")

    @pytest.mark.parametrize("exp_id, name, value", [
        (1, "variant", 2), (2, "devices", 16), (2, "devices", 64), (3, "variant", 2)])
    def test_argument_the_campaign_ignores_rejected(self, exp_id, name, value):
        with pytest.raises(ValueError, match=f"^campaign {exp_id} takes no {name} argument"):
            make_experiment(exp_id, **{name: value})

    def test_presets_validate_and_have_unit_beta(self):
        for name in list_presets():
            cfg = preset(name)
            assert all(b == 1.0 for b in cfg.beta)
            assert all(k == 0.0 for k in cfg.kappa0)
            assert cfg.L_w == -10.0 and cfg.H_w == 10.0


class TestConfigValidation:
    def base(self, **overrides):
        kw = dict(T=1.0, D=0.1, beta=(1.0,), kappa0=(0.0,),
                  C_g=1.0, C_switch=0.2, L_w=-10.0, H_w=10.0,
                  r_sigma=1.0, layout=grid_layout(1, 1.0),
                  y0=ConstantField(0.0), ystar=ConstantField(0.0),
                  scheme=SchemeSpec(n_div=4, n_steps=2))
        kw.update(overrides)
        return ExperimentConfig(**kw)

    def test_valid(self):
        self.base()

    @pytest.mark.parametrize("centers, bad", [
        (((0.1, 0.2, 0.3, 0.4),), (0.1, 0.2, 0.3, 0.4)),   # 1 device, but 2 discs
        ((0.5, 0.5), 0.5),                                 # a pair not wrapped in a tuple
        (((0.0, 0.0), (0.1,)), (0.1,)),
    ])
    def test_explicit_center_must_be_an_xy_pair(self, centers, bad):
        with pytest.raises(ValueError,
                           match=re.escape(f"device center {bad!r} is not an (x, y) pair")):
            ExplicitLayout(centers, 0.5)

    @pytest.mark.parametrize("bad", [dict(cg_tol=-1.0), dict(cg_tol=0.0),
                                     dict(cg_max_iters=0), dict(cg_max_iters=-3),
                                     dict(cg_tol=math.inf), dict(cg_tol=1.0)])
    def test_bad_solver_settings_rejected(self, bad):
        with pytest.raises(ValueError, match=f"scheme.{next(iter(bad))}"):
            SchemeSpec(n_div=4, n_steps=2, **bad)

    @pytest.mark.parametrize("name", ["n_div", "n_steps", "n_picard", "cg_max_iters"])
    @pytest.mark.parametrize("value", [2.0, 2.5, True, "2"])
    def test_non_integer_scheme_count_rejected(self, name, value):
        kw = dict(n_div=4, n_steps=2)
        kw[name] = value
        with pytest.raises(ValueError, match=f"scheme.{name} must be an integer"):
            SchemeSpec(**kw)

    @pytest.mark.parametrize("make, named", [
        (lambda: GridLayout(2.0, 0.5), "n_per_side"),
        (lambda: GridLayout(True, 1.0), "n_per_side"),
        (lambda: GridSubsetLayout(8.0, 0.125, (0, 1)), "n_per_side"),
        (lambda: GridSubsetLayout(8, 0.125, (0.0, 1.0, 2.0)), "kept_indices"),
        (lambda: GridSubsetLayout(8, 0.125, (0, False)), "kept_indices"),
    ])
    def test_non_integer_layout_count_rejected(self, make, named):
        with pytest.raises(ValueError, match=f"{named} must be an integer"):
            make()

    def test_numpy_integer_counts_stored_as_int(self):
        spec = SchemeSpec(n_div=np.int64(4), n_steps=np.int32(2), cg_max_iters=np.int64(5))
        layout = GridSubsetLayout(np.int64(8), 0.125, tuple(np.arange(3)))
        mesh = build_mesh(np.int64(4))
        M = assemble_mass(mesh)
        recorders = (ErrorRecorder(M, M, np.zeros(M.n_cols), np.int64(3), 0.5),
                     TrajectoryRecorder(np.int32(3)))
        for value in (spec.n_div, spec.n_steps, spec.cg_max_iters, layout.n_per_side,
                      *layout.kept_indices, mesh.n_div, *(r.n_nodes for r in recorders),
                      *SnapshotRecorder(np.arange(3)).steps):
            assert type(value) is int
        assert spec == SchemeSpec(n_div=4, n_steps=2, cg_max_iters=5)

    @pytest.mark.parametrize("value", ["no", 1, 0.0, None])
    def test_explicit_measure_must_be_a_bool(self, value):
        # a truthy "no" would select the explicit variant, and no such value
        # dumps to a config that re-parses
        with pytest.raises(ValueError, match=re.escape(
                f"scheme.explicit_measure must be true or false, got {value!r}")):
            replace(SchemeSpec(n_div=4, n_steps=2), explicit_measure=value)

    def test_numpy_bool_explicit_measure_stored_as_bool(self):
        spec = SchemeSpec(n_div=4, n_steps=2, explicit_measure=np.bool_(True))
        assert spec.explicit_measure is True

    @pytest.mark.parametrize("make", [np.array, list], ids=["ndarray", "list"])
    def test_beta_and_kappa0_stored_as_float_tuples(self, make):
        a, b = (self.base(T=0.1, beta=make([1.0]), kappa0=make([np.float32(0.5)]))
                for _ in range(2))
        assert a.beta == (1.0,) and a.kappa0 == (0.5,)
        assert all(type(v) is float for v in a.beta + a.kappa0)
        # an ndarray would make == between equal configs raise, so a run could not
        # reuse an assembly, and would not dump; a list would not equal its re-parse
        assert a == b
        run_experiment(b, assembled=assemble(a))
        assert config_from_dict(json.loads(config_to_json(a))) == a

    def test_solver_settings_accepted(self):
        spec = SchemeSpec(n_div=4, n_steps=2, cg_tol=1e-12, cg_max_iters=1)
        assert spec.cg_max_iters == 1

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            self.base(beta=(0.0,))

    def test_beta_length_mismatch(self):
        with pytest.raises(ValueError, match="beta"):
            self.base(beta=(1.0, 1.0))

    # one ulp either side of the layout's radius is as much a mismatch as 0.5
    @pytest.mark.parametrize("r_sigma", [0.5, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)])
    def test_radius_mismatch(self, r_sigma):
        with pytest.raises(ValueError, match=re.escape(
                f"r_sigma {r_sigma!r} must equal the layout's device radius 1.0")):
            self.base(r_sigma=r_sigma)

    def test_nonpositive_T(self):
        with pytest.raises(ValueError, match="T"):
            self.base(T=0.0)

    # SwitchingFunction checks H_w, calibrate_ch checks L_w and C_switch
    @pytest.mark.parametrize("name, value", [("L_w", 0.0), ("H_w", 0.0), ("H_w", -10.0),
                                             ("C_switch", 0.0), ("C_switch", -0.2)])
    def test_switch_parameter_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            self.base(**{name: value})

    @pytest.mark.parametrize("name", ["T", "D", "C_g", "C_switch", "L_w", "H_w", "r_sigma",
                                      "beta", "kappa0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, name, value):
        bad = (value,) if name in ("beta", "kappa0") else value
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            self.base(**{name: bad})

    @pytest.mark.parametrize("name", ["T", "D", "C_g", "C_switch", "L_w", "H_w", "r_sigma",
                                      "beta", "kappa0", "width"])
    def test_bool_parameter_rejected(self, name):
        # np.isfinite takes True as 1.0, but config_to_json would write it as true,
        # which config_from_dict rejects
        with pytest.raises(ValueError, match=f"^{name} must be real, not a bool, got "):
            if name == "width":
                self.base(y0=GaussianBlobs((Blob((0.0, 0.0), True, 1.0),)))
            else:
                self.base(**{name: (True,) if name in ("beta", "kappa0") else True})

    def test_device_set_construction(self):
        # the paired devices become one row of the device operator P = I M,
        # measuring with the calibrated height C_h and loading with C_g
        problem = assemble(self.base()).problem
        assert problem.device_mass.n_rows == 1
        assert np.array_equal(problem.alpha, np.eye(1))
        assert problem.C_h == pytest.approx(1.0 / (math.pi * 10.0 * 0.2))
        assert problem.C_g == 1.0
        switched_off = assemble(self.base(C_g=0.0)).problem
        assert switched_off.device_mass.n_rows == 1 and switched_off.C_g == 0.0

    def test_devices_off_config(self):
        cfg = self.base(layout=ExplicitLayout((), 1.0), beta=(), kappa0=())
        assert cfg.n_devices == 0

    def test_device_covering_no_vertex_rejected(self):
        # exp2-ic1 at N=8: every disc of radius 1/8 falls between the vertices
        # (h = 1/4), so the control would silently be off
        cfg = preset("exp2-ic1")
        coarse = replace(cfg, T=0.1, scheme=replace(cfg.scheme, n_div=8, n_steps=4))
        with pytest.raises(ValueError, match=re.escape(
                f"devices {list(range(64))} cover no vertex of the n_div=8 mesh")):
            assemble(coarse)
        # at N=16 each disc holds its centre vertex
        fine = replace(coarse, scheme=replace(coarse.scheme, n_div=16))
        assert np.all(assemble(fine).problem.device_mass.dot(np.ones(17 ** 2)) > 0)


class TestAssemblyReuse:
    """run_experiment(config, assembled=...) reuses the mesh and operators."""

    def base(self):
        return replace(make_experiment(2, variant=1),
                       T=0.1, scheme=SchemeSpec(n_div=12, n_steps=4))

    def test_assembly_records_its_config(self):
        cfg = self.base()
        assert assemble(cfg).config is cfg

    def test_assembly_does_not_evaluate_y0(self):
        # an assembly holds only what runs share: each run builds its own start
        def y0(x, y):
            raise RuntimeError("y0 was evaluated")

        cfg = replace(self.base(), y0=y0)
        built = assemble(cfg)
        for assembled in (built, None):
            with pytest.raises(RuntimeError, match="^y0 was evaluated$"):
                run_experiment(cfg, assembled=assembled)

    @pytest.mark.parametrize("change", [
        dict(y0=FieldSum((ConstantField(0.1), GaussianBlobs((Blob((0.2, 0.1), 0.3, 0.5),))))),
        dict(kappa0=tuple(0.01 * j for j in range(64))),
        dict(C_g=3.0),
        dict(C_g=0.0),
        dict(y0=ConstantField(-0.2), kappa0=(0.5,) * 64, C_g=7.5),
        dict(),
    ])
    def test_reuse_gives_the_bits_of_a_fresh_run(self, change):
        base = self.base()
        built = assemble(base)
        cfg = replace(base, **change)
        reused = run_experiment(cfg, assembled=built, record_trajectory=True)
        fresh = run_experiment(cfg, record_trajectory=True)
        assert reused.problem.mesh is built.problem.mesh
        assert reused.problem.step_matrix is built.problem.step_matrix
        assert reused.problem.C_g == cfg.C_g
        assert reused.trajectory_y.tobytes() == fresh.trajectory_y.tobytes()
        assert reused.trajectory_kappa.tobytes() == fresh.trajectory_kappa.tobytes()
        for name in ("times", "e_y", "e_grad", "kappa_traces", "mass_trace"):
            assert getattr(reused.series, name).tobytes() == getattr(fresh.series, name).tobytes()
        assert "assembly_s" in reused.timings

    @pytest.mark.parametrize("change, named", [
        (dict(D=0.03), "D"),
        (dict(scheme=SchemeSpec(n_div=10, n_steps=4)), "scheme.n_div"),
        (dict(scheme=SchemeSpec(n_div=12, n_steps=8)), "scheme.n_steps"),
        (dict(layout=ExplicitLayout(tuple((x + 0.01, y) for x, y in
                                          grid_layout(8, 0.125).centers), 0.125)),
         "layout"),
        # the first field that differs is named: beta precedes the layout
        (dict(layout=GridSubsetLayout(8, 0.125, SUBSET20_INDICES),
              beta=(1.0,) * 20, kappa0=(0.0,) * 20), "beta"),
        (dict(ystar=ConstantField(0.0)), "ystar"),
        (dict(y0=ConstantField(0.3), ystar=ConstantField(0.0)), "ystar"),
    ])
    def test_reuse_rejects_other_differences(self, change, named):
        built = assemble(self.base())
        with pytest.raises(ValueError, match=rf"differs in {re.escape(named)} "):
            run_experiment(replace(self.base(), **change), assembled=built)


class TestReference:
    """run_experiment(config, reference=...) measures the series against another run."""

    def base(self):
        return replace(make_experiment(2, variant=1),
                       T=0.1, scheme=SchemeSpec(n_div=12, n_steps=4))

    def test_distances_to_another_run(self):
        base = self.base()
        other = run_experiment(replace(base, C_g=3.0), record_trajectory=True)
        out = run_experiment(base, reference=other.trajectory_y, record_trajectory=True)
        M, K = out.problem.mass, out.problem.stiffness
        for m, (y, ref) in enumerate(zip(out.trajectory_y, other.trajectory_y)):
            assert out.series.e_y[m] == form_norm(M, y - ref)
            assert out.series.e_grad[m] == form_norm(K, y - ref)
        assert out.series.e_y[-1] > 0   # the runs part after the shared initial state
        # the rest of the series does not depend on the reference
        default = run_experiment(base)
        for name in ("times", "kappa_traces", "mass_trace"):
            assert getattr(out.series, name).tobytes() == getattr(default.series, name).tobytes()
        replay = run_experiment(base, reference=out.trajectory_y).series
        assert not replay.e_y.any() and not replay.e_grad.any()

    @pytest.mark.parametrize("rows", [0, 4])
    def test_reference_shorter_than_the_run_rejected(self, rows):
        n = build_mesh(12).n_vertices
        with pytest.raises(ValueError, match=f"^reference trajectory has {rows} rows for 5 nodes$"):
            run_experiment(self.base(), reference=np.zeros((rows, n)))


class TestSnapshotSteps:
    """run_experiment(config, snap_steps=...) keeps the field at steps 0..n_steps."""

    def base(self):
        return replace(make_experiment(2, variant=1),
                       T=0.25, scheme=SchemeSpec(n_div=12, n_steps=10))

    def test_step_outside_the_run_rejected(self):
        out = run_experiment(self.base(), snap_steps=[10, 0, 5])   # both ends are in the run
        assert sorted(step for step, _ in out.snapshots) == [0, 5, 10]
        for steps, named in (([-1, 5, 11, 10**6], -1), ([5, 11], 11), ([10**6], 10**6)):
            with pytest.raises(ValueError,
                               match=f"^snapshot step {named} lies outside the run's steps 0..10$"):
                run_experiment(self.base(), snap_steps=steps)
