import math

import numpy as np
import pytest

from thermoloop.fem import assemble_mass, interpolate
from thermoloop.mesh import build_mesh
from thermoloop.model import (Device, DeviceSet, ReactionTerm, SwitchingFunction,
                              ThermostatBank, calibrate_ch, device_field, disc_indicators,
                              eval_reaction, eval_switch, feedback, measurement,
                              thermostat_step)


class TestReaction:
    def test_cubic_equilibria(self):
        f = ReactionTerm.cubic_bistable()
        assert eval_reaction(f, 0.0) == 0.0
        assert eval_reaction(f, 1.0) == 0.0
        assert eval_reaction(f, -1.0) == 0.0

    def test_cubic_value(self):
        assert eval_reaction(ReactionTerm.cubic_bistable(), 2.0) == -6.0

    def test_kinds(self):
        assert eval_reaction(ReactionTerm.zero(), 3.0) == 0.0
        assert eval_reaction(ReactionTerm.linear(2.0), 3.0) == 6.0
        poly = ReactionTerm.polynomial([1.0, 0.0, -1.0])  # 1 - s^2
        assert eval_reaction(poly, 2.0) == -3.0

    def test_polynomial_matches_cubic(self):
        poly = ReactionTerm.polynomial([0.0, 1.0, 0.0, -1.0])
        s = np.linspace(-2, 2, 17)
        assert np.allclose(eval_reaction(poly, s),
                           eval_reaction(ReactionTerm.cubic_bistable(), s))

    def test_vectorized(self):
        out = eval_reaction(ReactionTerm.cubic_bistable(), np.array([0.0, 2.0]))
        assert np.allclose(out, [0.0, -6.0])

    def test_cubic_by_multiplication_matches_power_on_negative_values(self):
        s = -np.linspace(0.0, 3.0, 1001)
        out = eval_reaction(ReactionTerm.cubic_bistable(), s)
        ref = s - s ** 3
        assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ReactionTerm(kind="tanh")


class TestSwitch:
    w = SwitchingFunction(L_w=-10.0, H_w=10.0)

    def test_zero(self):
        assert eval_switch(self.w, 0.0) == 0.0

    def test_linear_regime(self):
        assert eval_switch(self.w, 0.05) == pytest.approx(-5.0)

    def test_clamped(self):
        assert eval_switch(self.w, 1.0) == -10.0
        assert eval_switch(self.w, -50.0) == 10.0

    def test_bound_property(self):
        s = np.linspace(-100, 100, 2001)
        out = eval_switch(self.w, s)
        assert np.all(np.abs(out) <= self.w.H_w)

    def test_array_call_equals_scalar_calls_bitwise(self):
        # linear region, both saturated sides, the kinks at |L_w s| = 1, and +-0.0
        s = np.array([-50.0, -0.1, -0.1000001, -0.05, -1e-300, -0.0, 0.0, 1e-300,
                      0.03, 0.0999999, 0.1, 0.2, 50.0])
        scalar = np.array([eval_switch(self.w, v) for v in s])
        assert eval_switch(self.w, s).tobytes() == scalar.tobytes()

    def test_positive_amplitude_required(self):
        with pytest.raises(ValueError):
            SwitchingFunction(L_w=1.0, H_w=0.0)


class TestCalibration:
    def test_paper_style_values(self):
        assert calibrate_ch(-10.0, 0.2, 0.125) == pytest.approx(32.0 / math.pi)
        assert calibrate_ch(-1.0, 1.0 / math.pi, 1.0) == pytest.approx(1.0)

    def test_radius_scaling(self):
        assert calibrate_ch(-10.0, 0.2, 0.25) == pytest.approx(
            calibrate_ch(-10.0, 0.2, 0.125) / 4.0)

    def test_inverse_relation(self):
        for L_w, C_switch, r in [(-10.0, 0.2, 0.125), (3.0, 0.7, 0.4), (-0.5, 2.0, 1.0)]:
            C_h = calibrate_ch(L_w, C_switch, r)
            assert C_h * math.pi * abs(L_w) * C_switch * r ** 2 == pytest.approx(1.0, rel=1e-14)

    def test_zero_slope_rejected(self):
        with pytest.raises(ValueError):
            calibrate_ch(0.0, 0.2, 0.125)


class TestMeasurement:
    mesh = build_mesh(4)
    M = assemble_mass(mesh)

    def const(self, c):
        return interpolate(self.mesh, lambda x, y: np.full_like(x, c))

    def test_zero_when_matching(self):
        y = interpolate(self.mesh, lambda x, y_: x * y_)
        assert measurement(self.M, self.const(1.0), y, y) == 0.0

    def test_zero_weight(self):
        y = self.const(2.0)
        assert measurement(self.M, self.const(0.0), y, self.const(0.0)) == 0.0

    def test_constant_deviation(self):
        # h = 1 against y - y* = c integrates to 4c
        assert measurement(self.M, self.const(1.0), self.const(2.5),
                           self.const(0.5)) == pytest.approx(8.0)

    def test_mesh_mismatch(self):
        other = build_mesh(3)
        y = interpolate(other, lambda x, y_: x)
        with pytest.raises(ValueError):
            measurement(self.M, self.const(1.0), y, self.const(0.0))


class TestFeedback:
    switches = (SwitchingFunction(-10.0, 10.0), SwitchingFunction(-10.0, 10.0))

    def test_zero_measurements(self):
        assert feedback(np.array([1.0, 1.0]), self.switches, np.zeros(2)) == 0.0

    def test_identity_row_selects_one(self):
        out = feedback(np.array([0.0, 1.0]), self.switches, np.array([5.0, 0.05]))
        assert out == pytest.approx(-5.0)

    def test_summed_row(self):
        out = feedback(np.array([1.0, 1.0]), self.switches, np.array([0.05, 0.2]))
        assert out == pytest.approx(-15.0)  # -5 + (-10 clamped)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            feedback(np.array([1.0]), self.switches, np.zeros(2))

    def test_bound_property(self):
        rng = np.random.default_rng(1)
        alpha = rng.standard_normal(2)
        bound = np.abs(alpha).sum() * 10.0
        for _ in range(50):
            m = rng.standard_normal(2) * 10
            assert abs(feedback(alpha, self.switches, m)) <= bound + 1e-12


class TestThermostat:
    def test_rest(self):
        assert thermostat_step(1.0, 0.0, 0.0, 0.1) == 0.0

    def test_half_step(self):
        assert thermostat_step(1.0, 0.0, 2.0, 1.0) == pytest.approx(1.0)

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(2)
        kappa = 0.3
        for _ in range(200):
            W = rng.uniform(-7, 7)
            kappa_new = thermostat_step(0.5, kappa, W, 0.05)
            assert abs(kappa_new) <= max(abs(kappa), abs(W)) + 1e-15
            kappa = kappa_new

    def test_iterated_bound_with_bounded_demand(self):
        rng = np.random.default_rng(3)
        B, kappa = 5.0, -2.0
        for _ in range(500):
            kappa = thermostat_step(2.0, kappa, rng.uniform(-B, B), 0.01)
            assert abs(kappa) <= max(2.0, B)

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            thermostat_step(0.0, 0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            thermostat_step(1.0, 0.0, 1.0, 0.0)


class TestDevices:
    def test_device_validation(self):
        with pytest.raises(ValueError):
            Device((0.0, 0.0), radius=0.0, height=1.0)
        with pytest.raises(ValueError):
            Device((0.0, 0.0), radius=0.1, height=-1.0)

    def test_device_field_closed_ball(self):
        mesh = build_mesh(8)  # h = 0.25; vertices at multiples of 0.25
        fld = device_field(mesh, Device((0.0, 0.0), radius=0.25, height=3.0))
        dist = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        # vertices exactly on the circle (distance 0.25) are included
        assert np.all((fld.values == 3.0) == (dist <= 0.25 + 1e-15))

    def test_disc_indicators_one_row_per_closed_disc(self):
        mesh = build_mesh(8)
        centers = [(0.0, 0.0), (-0.5, 0.75), (1.0, -1.0)]
        indicators = disc_indicators(mesh, centers, 0.25).toarray()
        assert indicators.shape == (3, mesh.n_vertices)
        for row, (cx, cy) in zip(indicators, centers):
            dist = np.hypot(mesh.vertices[:, 0] - cx, mesh.vertices[:, 1] - cy)
            assert np.array_equal(row, (dist <= 0.25 + 1e-15).astype(float))
        assert disc_indicators(mesh, np.zeros((0, 2)), 0.25).toarray().shape == (0, mesh.n_vertices)

    def test_device_set_shapes(self):
        ds = DeviceSet.paired([(0.0, 0.0), (0.5, 0.5)], 0.1, 2.0, 3.0)
        assert ds.n_controls == ds.n_measurements == 2
        assert np.array_equal(ds.alpha, np.eye(2))
        assert ds.controls[0].height == 2.0
        assert ds.measurements[0].height == 3.0
        assert ds.controls[1].center == ds.measurements[1].center

    def test_device_set_requires_devices(self):
        with pytest.raises(ValueError):
            DeviceSet(controls=(), measurements=(), alpha=np.zeros((0, 0)))

    def test_device_set_alpha_shape(self):
        d = Device((0.0, 0.0), 0.1, 1.0)
        with pytest.raises(ValueError):
            DeviceSet(controls=(d,), measurements=(d,), alpha=np.ones((2, 1)))

    def test_thermostat_bank_validation(self):
        ThermostatBank(beta=np.array([1.0, 2.0]), kappa0=np.zeros(2))
        with pytest.raises(ValueError):
            ThermostatBank(beta=np.array([1.0, 0.0]), kappa0=np.zeros(2))
        with pytest.raises(ValueError):
            ThermostatBank(beta=np.ones(2), kappa0=np.zeros(3))
