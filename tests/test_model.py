import math
import re
from dataclasses import replace

import numpy as np
import pytest

from thermoloop.experiments import (SUBSET20_INDICES, Blob, ConstantField, ExperimentConfig,
                                    ExplicitLayout, GaussianBlobs, GridSubsetLayout, SchemeSpec,
                                    assemble, grid_layout, list_presets, preset)
from thermoloop.fem import (NodalField, assemble_mass, assemble_stiffness, disc_rows,
                            interpolate)
from thermoloop.linalg import CsrMatrix
from thermoloop.mesh import build_mesh
from thermoloop.model import (ReactionTerm, SwitchingFunction, calibrate_ch, eval_reaction,
                              eval_switch, thermostat_step)
from thermoloop.stepper import SimState, WarmStart, picard_step
from mesh_helpers import as_scipy, csr, disc_indicators


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, make", [
    ("L_w", lambda v: SwitchingFunction(L_w=v, H_w=10.0)),
    ("H_w", lambda v: SwitchingFunction(L_w=-10.0, H_w=v)),
    ("L_w", lambda v: calibrate_ch(v, 0.2, 0.125)),
    ("C_switch", lambda v: calibrate_ch(-10.0, v, 0.125)),
    ("r_sigma", lambda v: calibrate_ch(-10.0, 0.2, v)),
], ids=["switch-L_w", "switch-H_w", "calibrate-L_w", "calibrate-C_switch",
        "calibrate-r_sigma"])
def test_non_finite_switch_parameter_rejected(name, make, value):
    # a nan would reach every switch output, and calibrate_ch(-10, inf, r) = 0
    # would switch every measurement off
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        make(value)


def device_config(centers, radius, ystar=ConstantField(0.0), n_div=4):
    """Paired disc devices at ``centers`` with beta = 1 and tau = 1."""
    return ExperimentConfig(
        T=1.0, D=0.1, beta=(1.0,) * len(centers), kappa0=(0.0,) * len(centers),
        C_g=1.0, C_switch=0.2, L_w=-10.0, H_w=10.0, r_sigma=radius,
        layout=ExplicitLayout(tuple(centers), radius), y0=ConstantField(0.0),
        ystar=ystar, scheme=SchemeSpec(n_div=n_div, n_steps=1))


def device_problem(*args, **kwargs):
    return assemble(device_config(*args, **kwargs)).problem


def measure(problem, y):
    """The run path's measurement of all devices at once: m = C_h * (P y - P y*), P = I M."""
    return problem.C_h * (problem.device_mass.dot(y) - problem.device_mass_ystar)


class TestMeasurement:
    def test_zero_when_matching(self):
        p = device_problem([(0.0, 0.0), (0.5, -0.5)], 0.5,
                         ystar=GaussianBlobs((Blob((0.1, -0.2), 0.3, 0.8),)))
        assert np.all(measure(p, p.ystar.values) == 0.0)

    def test_zero_weight(self):
        # a disc between the vertices of the n=4 mesh, or off the square,
        # covers no vertex: it would measure 0 and load nothing, so assembly
        # names it
        for centers, empty in (([(0.25, 0.25)], [0]),
                               ([(0.0, 0.0), (0.25, 0.25), (5.0, 0.0)], [1, 2])):
            with pytest.raises(ValueError, match=re.escape(
                    f"devices {empty} cover no vertex of the n_div=4 mesh")):
                device_problem(centers, 0.1)
        assert device_problem([(0.0, 0.0)], 0.1).device_mass.nnz > 0

    def test_constant_deviation(self):
        # one disc covering the whole square integrates y - y* = 2 to 4 * 2
        p = device_problem([(0.0, 0.0)], 1.5, ystar=ConstantField(0.5))
        m = measure(p, np.full(p.mesh.n_vertices, 2.5))
        assert m == pytest.approx([p.C_h * 8.0], rel=1e-14)

    def test_mesh_mismatch(self):
        p = device_problem([(0.0, 0.0)], 0.5)
        other = build_mesh(3)
        y = interpolate(other, lambda x, y_: x)
        with pytest.raises(ValueError):    # the device product checks the field length
            measure(p, y.values)
        with pytest.raises(ValueError):    # P y* is formed when the problem is built
            replace(p, ystar=y)


class TestFeedback:
    """A sweep routes the switched measurements to the thermostats: W = alpha @ w(m)."""

    # two discs, one vertex each; device 0 sees y = 5 (saturated), device 1 y = 0.05 (linear)
    base = device_problem([(-0.5, 0.0), (0.5, 0.0)], 0.1, n_div=8)
    y = np.where(base.mesh.vertices[:, 0] < 0, 5.0, 0.05)

    def demands(self, alpha, y):
        """W from one explicit-measure step from kappa = 0: with beta = tau = 1, kappa = W / 2."""
        problem = replace(self.base, alpha=np.asarray(alpha, dtype=np.float64))
        state = SimState(0, NodalField(y), np.zeros(2))
        scheme = SchemeSpec(n_div=8, n_steps=1, n_picard=1, explicit_measure=True)
        return 2.0 * picard_step(state, problem, scheme, WarmStart(1, len(y))).kappa

    def switched(self, y):
        return eval_switch(self.base.switch, measure(self.base, y))

    def test_zero_measurements(self):
        assert np.all(self.demands(np.ones((2, 2)), np.zeros(len(self.y))) == 0.0)

    def test_identity_row_selects_one(self):
        w = self.switched(self.y)
        assert w[0] == -10.0 and -10.0 < w[1] < 0.0
        assert np.array_equal(self.demands([[0.0, 1.0], [1.0, 0.0]], self.y), w[::-1])

    def test_summed_row(self):
        w = self.switched(self.y)
        assert np.array_equal(self.demands(np.ones((2, 2)), self.y), [w[0] + w[1]] * 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="alpha"):
            self.demands(np.ones((1, 2)), self.y)

    def test_bound_property(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            alpha = rng.standard_normal((2, 2))
            W = self.demands(alpha, rng.standard_normal(len(self.y)) * 10)
            assert np.all(np.abs(W) <= np.abs(alpha).sum(axis=1) * 10.0 + 1e-12)


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
        # a bank is rejected for any beta_j <= 0 or NaN
        for beta in ([1.0, 0.0], [np.nan, -1.0], [-1.0, np.nan], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="beta and tau must be positive"):
                thermostat_step(np.array(beta), np.zeros(2), np.ones(2), 0.1)
        with pytest.raises(ValueError, match="beta and tau must be positive"):
            thermostat_step(1.0, 0.0, 1.0, np.nan)


class TestDevices:
    centers = [(-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5)]
    problem = device_problem(centers, 0.5)

    def test_device_validation(self):
        # disc radii are checked by the layouts, device heights by the config
        with pytest.raises(ValueError, match="radius"):
            ExplicitLayout(((0.0, 0.0),), radius=0.0)
        with pytest.raises(ValueError, match="radius"):
            grid_layout(2, -0.5)
        with pytest.raises(ValueError, match="C_g"):
            replace(device_config([(0.0, 0.0)], 0.5), C_g=-1.0)

    def test_device_set_shapes(self):
        # control j and measurement j share disc j: both act through row j of P = I M
        p = self.problem
        assert p.device_mass.n_rows == 4
        assert np.array_equal(p.alpha, np.eye(4))
        assert (p.C_g, p.C_h) == (1.0, calibrate_ch(-10.0, 0.2, 0.5))
        want = as_scipy(disc_indicators(p.mesh, self.centers, 0.5)) @ as_scipy(p.mass)
        dense = p.device_mass.toarray()
        assert np.array_equal(dense, want.toarray())
        # the load of device j alone is row j of P, read through P^T
        for j, unit in enumerate(np.eye(4)):
            assert np.array_equal(p.device_mass.tdot(unit), dense[j])

    def test_device_set_alpha_shape(self):
        # the routing weights must be (J, J) for the problem's J devices
        assert self.problem.alpha.shape == (4, 4) and not self.problem.alpha.flags.writeable
        assert not self.problem.device_mass_ystar.flags.writeable
        for alpha in (np.eye(3), np.ones((4, 3)), np.ones(4)):
            with pytest.raises(ValueError, match="alpha"):
                replace(self.problem, alpha=alpha)

    def test_step_size_validation(self):
        # tau is checked where the problem is built, not at its first sweep
        for tau in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="^tau must be finite and > 0"):
                replace(self.problem, tau=tau)

    def test_thermostat_bank_validation(self):
        # beta holds J finite time constants beta_j > 0, read-only
        assert self.problem.beta.shape == (4,) and not self.problem.beta.flags.writeable
        for beta in (np.ones(3), np.ones((4, 1)), [1.0, 0.0, 1.0, 1.0], [1.0, -1.0, 1.0, 1.0],
                     [1.0, np.nan, 1.0, 1.0], [1.0, np.inf, 1.0, 1.0]):
            with pytest.raises(ValueError, match="beta"):
                replace(self.problem, beta=beta)

    def test_disc_indicators_one_row_per_closed_disc(self):
        mesh = build_mesh(8)
        centers = [(0.0, 0.0), (-0.5, 0.75), (1.0, -1.0)]
        indicators = disc_indicators(mesh, centers, 0.25).toarray()
        assert indicators.shape == (3, mesh.n_vertices)
        for row, (cx, cy) in zip(indicators, centers):
            dist = np.hypot(mesh.vertices[:, 0] - cx, mesh.vertices[:, 1] - cy)
            assert np.array_equal(row, (dist <= 0.25 + 1e-15).astype(float))
        assert disc_indicators(mesh, np.zeros((0, 2)), 0.25).toarray().shape == (0, mesh.n_vertices)


def dense_disc_indicators(mesh, centers, radius):
    """The (J, n) distance test over every vertex, kept as the reference."""
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    dx = mesh.vertices[:, 0] - centers[:, :1]
    dy = mesh.vertices[:, 1] - centers[:, 1:]
    rows, cols = np.nonzero(dx * dx + dy * dy <= radius ** 2)
    return csr((np.ones(len(rows)), (rows, cols)), shape=(len(centers), mesh.n_vertices))


@pytest.mark.parametrize("n_div", [1, 7, 40, 60, 100])
@pytest.mark.parametrize("centers, radius", [
    (grid_layout(8, 0.125).centers, 0.125),                # the campaigns' 64 discs
    (grid_layout(3, 1.0 / 3.0).centers, 1.0 / 3.0),
    ([(1.3, -0.2), (-2.5, 2.5), (0.0, 1.05)], 0.4),        # centers off the domain
    ([(-1.0, -1.0), (1.0, 0.3), (0.25, 1.0), (0.0, 0.0)], 0.5),   # on the boundary
    ([(0.01, 0.013)], 1e-4),                               # covers no vertex at these N
    (np.zeros((0, 2)), 0.25),                              # no centers
    ([(0.1, 0.2)], 5.0),                                   # covers every vertex
])
def test_disc_indicators_match_dense_distance_test(n_div, centers, radius):
    mesh = build_mesh(n_div)
    got = disc_indicators(mesh, centers, radius)
    want = dense_disc_indicators(mesh, centers, radius)
    assert (got.n_rows, got.n_cols) == (want.n_rows, want.n_cols)
    assert got.nnz == want.nnz
    for a, b in ((got.toarray(), want.toarray()), (got.data, want.data)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_div", [7, 40, 100])
def test_disc_indicators_store_scipys_canonical_csr_of_their_triplets(n_div):
    # disc_rows hands its arrays to the matrix as they come out, so they
    # must already be canonical: int32, each row's columns sorted, no
    # duplicates.  Rows 2 and 4 are empty (a disc off the square), and the
    # overlapping discs 0 and 1 share vertices.
    mesh = build_mesh(n_div)
    centers = [(0.1, 0.2), (0.3, 0.2), (5.0, 5.0), (-1.0, 0.7), (-3.0, 0.0)]
    got = disc_indicators(mesh, centers, 0.3)
    assert list(np.diff(got.indptr)[[2, 4]]) == [0, 0] and got.nnz > 0
    rows = np.repeat(np.arange(got.n_rows), np.diff(got.indptr))
    want = csr((got.data, (rows, got.indices)), shape=(got.n_rows, got.n_cols))
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices), (got.data, want.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.indptr.dtype == got.indices.dtype == np.int32


def looped_disc_indicators(mesh, centers, radius):
    """One disc at a time: its tick block on each axis, then the distance test
    inside the block.  The reference for the all-discs-at-once block test."""
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    n = mesh.n_div + 1
    xs, ys = mesh.vertices[:n, 0], mesh.vertices[::n, 1]
    r2 = radius ** 2
    rows, cols = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for j, (cx, cy) in enumerate(centers):
        dx, dy = xs - cx, ys - cy
        dx2, dy2 = dx * dx, dy * dy
        i = np.flatnonzero(dx2 <= r2)
        k = np.flatnonzero(dy2 <= r2)
        bk, bi = np.nonzero(dx2[i] + dy2[k, None] <= r2)
        cols.append(k[bk] * n + i[bi])
        rows.append(np.full(len(bk), j))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return csr((np.ones(len(rows)), (rows, cols)), shape=(len(centers), mesh.n_vertices))


@pytest.mark.parametrize("n_div, layout", [
    (40, grid_layout(8, 0.125)),                     # the campaigns' 64 discs
    (60, grid_layout(8, 0.125)),
    (100, grid_layout(8, 0.125)),
    (40, GridSubsetLayout(8, 0.125, SUBSET20_INDICES)),
    (60, GridSubsetLayout(8, 0.125, SUBSET20_INDICES)),
    (40, ExplicitLayout(((-1.0, 0.0), (1.0, 1.0), (0.3, -1.0)), 0.2)),   # on the boundary
    (40, ExplicitLayout(((1.5, 0.0), (0.0, -1.25), (3.0, 3.0), (0.0, 0.0)), 0.2)),   # outside
    (40, ExplicitLayout(((-0.25, 0.0), (0.25, 0.0), (0.25, 0.5)), 0.25)),   # tangent pairs
    (60, ExplicitLayout(((-0.1, 0.05), (0.1, 0.05)), 0.1)),   # tangent off the grid ticks
    (40, ExplicitLayout((), 0.125)),                 # J = 0
])
def test_disc_indicators_equal_the_per_disc_loop_bytewise(n_div, layout):
    mesh = build_mesh(n_div)
    centers, radius = layout.centers, layout.radius
    got = disc_indicators(mesh, centers, radius)
    want = looped_disc_indicators(mesh, centers, radius)
    assert (got.n_rows, got.n_cols) == (want.n_rows, want.n_cols)
    for a, b in ((got.data, want.data), (got.indices, want.indices), (got.indptr, want.indptr)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# the layouts of every preset, then discs centred on corners, on edges and off
# the square, one disc that covers every vertex, and no disc
DISC_LAYOUTS = [(preset(name).layout.centers, preset(name).r_sigma) for name in list_presets()] + [
    (((-1.0, -1.0), (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)), 0.3),
    (((-1.0, 0.3), (1.0, -0.55), (0.2, 1.0), (0.0, -1.0)), 0.3),
    (((1.3, -0.2), (-2.5, 2.5), (0.0, 1.05), (-1.1, -1.1)), 0.4),
    (((0.1, 0.2),), 2.9),
    (np.zeros((0, 2)), 0.25),
]


@pytest.mark.parametrize("n_div", [1, 2, 8, 16, 24, 40, 60, 100])
def test_disc_rows_are_scipys_product_bitwise(n_div):
    # P = I M is scipy's sparse product of the indicators and the mass matrix,
    # down to the bytes of its canonical CSR arrays; so is I K, whose sums
    # cancel to dropped zeros, and I (M + c K)
    mesh = build_mesh(n_div)
    mass, stiffness = assemble_mass(mesh), assemble_stiffness(mesh)
    for centers, radius in DISC_LAYOUTS:
        indicators = as_scipy(dense_disc_indicators(mesh, centers, radius))
        for operator in (mass, stiffness, mass.scaled_add(0.37, stiffness)):
            got = disc_rows(mesh, centers, radius, operator)
            want = indicators @ as_scipy(operator).tocsr()
            want.sort_indices()
            assert (got.n_rows, got.n_cols) == want.shape
            assert got.indptr.dtype == got.indices.dtype == np.int32
            for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                         (got.data, want.data)):
                assert a.tobytes() == b.astype(a.dtype).tobytes()
            assert got.nnz == len(got.data)   # no stored zeros


def test_disc_rows_reject_operators_off_the_p1_stencil():
    mesh = build_mesh(4)   # 5 ticks a side: the stencil offsets are -6, -5, -1, 0, 1, 5, 6
    n = mesh.n_vertices
    mass = assemble_mass(mesh)
    for operator in (csr(mass), assemble_mass(build_mesh(5))):
        with pytest.raises(ValueError, match="^disc_rows needs a banded 25 x 25 operator$"):
            disc_rows(mesh, [(0.0, 0.0)], 0.5, operator)
    # the other diagonal (4), two ticks (2, -10) and beyond the grid (25)
    for offset in (4, -4, 2, -10, 25):
        band = CsrMatrix.banded(np.ones((1, n)), [offset])
        with pytest.raises(ValueError, match=f"^band offset {offset} is not in the P1 stencil"):
            disc_rows(mesh, [(0.0, 0.0)], 0.5, band)
    # an entry from the end of one grid row to the start of the next: column 5
    # at (x, y) = (0, 1) against row 4 at (4, 0), and the like
    for offset, column in ((1, 5), (6, 10), (-1, 4), (-6, 4)):
        bands = np.zeros((1, n))
        bands[0, column] = 1.0
        with pytest.raises(ValueError, match=f"^band offset {offset} couples the ends"):
            disc_rows(mesh, [(0.0, 0.0)], 0.5, CsrMatrix.banded(bands, [offset]))
    assert disc_rows(mesh, [(0.0, 0.0)], 0.5, mass).n_rows == 1
