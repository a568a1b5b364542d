import math

import numpy as np
import pytest
from dataclasses import replace

from thermoloop.experiments import (Blob, ConstantField, ExperimentConfig,
                                    ExplicitLayout, FieldSum, GaussianBlobs,
                                    GridSubsetLayout, SUBSET20_INDICES,
                                    GridLayout, SchemeSpec, assemble, device_count,
                                    grid_layout, layout_centers,
                                    list_presets, make_experiment, preset,
                                    realize_field, scale_field)
from thermoloop.mesh import build_mesh


class TestGridLayout:
    def test_eight_by_eight_centers(self):
        layout = grid_layout(8, 1.0 / 8.0)
        centers = layout_centers(layout)
        assert centers.shape == (64, 2)
        # centers sit at odd multiples of 1/8
        scaled = centers * 8
        assert np.allclose(scaled, np.round(scaled))
        assert np.all(np.round(scaled).astype(int) % 2 != 0)
        assert np.all(np.abs(centers) < 1.0)

    def test_sixteen_devices(self):
        assert device_count(grid_layout(4, 0.25)) == 16

    def test_single_inscribed_device(self):
        layout = grid_layout(1, 1.0)
        centers = layout_centers(layout)
        assert np.allclose(centers, [[0.0, 0.0]])

    def test_tangency_spacing(self):
        centers = layout_centers(grid_layout(4, 0.25))
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
        centers = layout_centers(GridSubsetLayout(8, 0.125, SUBSET20_INDICES))
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
        fld = realize_field(ConstantField(0.0), mesh)
        assert np.all(fld.values == 0.0)

    def test_blob_peaks_at_center_vertex(self):
        mesh = build_mesh(20)
        fld = realize_field(GaussianBlobs((Blob((0.0, 0.0), 0.3, 1.0),)), mesh)
        assert fld.values.argmax() == (mesh.n_vertices - 1) // 2
        assert fld.values.max() == pytest.approx(1.0)

    def test_sum_is_pointwise(self):
        mesh = build_mesh(6)
        a = GaussianBlobs((Blob((0.2, 0.1), 0.4, 0.7),))
        b = GaussianBlobs((Blob((-0.5, 0.3), 0.2, -0.5),))
        total = realize_field(FieldSum((a, b)), mesh)
        assert np.allclose(total.values,
                           realize_field(a, mesh).values + realize_field(b, mesh).values)

    def test_scale_field(self):
        mesh = build_mesh(5)
        spec = FieldSum((GaussianBlobs((Blob((0.0, 0.0), 0.3, 0.8),)),
                         ConstantField(0.2), GaussianBlobs((Blob((0.4, -0.3), 0.2, -0.4),))))
        doubled = scale_field(spec, 2.0)
        assert np.allclose(realize_field(doubled, mesh).values,
                           2.0 * realize_field(spec, mesh).values)


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
        with pytest.raises(ValueError):
            preset("exp9")

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

    @pytest.mark.parametrize("bad", [dict(cg_tol=-1.0), dict(cg_tol=0.0),
                                     dict(cg_max_iters=0), dict(cg_max_iters=-3)])
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
        for value in (spec.n_div, spec.n_steps, spec.cg_max_iters, layout.n_per_side,
                      *layout.kept_indices):
            assert type(value) is int
        assert spec == SchemeSpec(n_div=4, n_steps=2, cg_max_iters=5)

    def test_solver_settings_accepted(self):
        spec = SchemeSpec(n_div=4, n_steps=2, cg_tol=1e-12, cg_max_iters=1)
        assert spec.cg_max_iters == 1

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            self.base(beta=(0.0,))

    def test_beta_length_mismatch(self):
        with pytest.raises(ValueError, match="beta"):
            self.base(beta=(1.0, 1.0))

    def test_radius_mismatch(self):
        with pytest.raises(ValueError, match="r_sigma"):
            self.base(r_sigma=0.5)

    def test_nonpositive_T(self):
        with pytest.raises(ValueError, match="T"):
            self.base(T=0.0)

    def test_zero_switch_slope(self):
        with pytest.raises(ValueError, match="L_w"):
            self.base(L_w=0.0)

    @pytest.mark.parametrize("name", ["T", "D", "C_g", "C_switch", "L_w", "H_w", "r_sigma",
                                      "beta", "kappa0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, name, value):
        bad = (value,) if name in ("beta", "kappa0") else value
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            self.base(**{name: bad})

    def test_device_set_construction(self):
        # the paired devices become one row of the device operator P = I M,
        # measuring with the calibrated height C_h and loading with C_g
        problem = assemble(self.base()).problem
        assert problem.n_controls == 1
        assert np.array_equal(problem.alpha, np.eye(1))
        assert problem.C_h == pytest.approx(1.0 / (math.pi * 10.0 * 0.2))
        assert problem.C_g == 1.0
        switched_off = assemble(self.base(C_g=0.0)).problem
        assert switched_off.n_controls == 1 and switched_off.C_g == 0.0

    def test_devices_off_config(self):
        cfg = self.base(layout=ExplicitLayout((), 1.0), beta=(), kappa0=())
        assert cfg.n_devices == 0
