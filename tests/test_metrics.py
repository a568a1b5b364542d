import math
import re

import numpy as np
import pytest

from thermoloop.fem import (NodalField, assemble_mass, assemble_stiffness, field_from_values,
                            form_norm, interpolate)
from thermoloop.mesh import build_mesh
from thermoloop.metrics import ErrorRecorder, ErrorSeries, SnapshotRecorder, TrajectoryRecorder
from thermoloop.stepper import SimState


@pytest.fixture(scope="module")
def ops():
    mesh = build_mesh(6)
    return mesh, assemble_mass(mesh), assemble_stiffness(mesh)


def distance(Q, y, ystar):
    """form_norm(Q, y - y*): the distance ErrorRecorder measures."""
    return form_norm(Q, y.values - ystar.values)


def test_error_l2_examples(ops):
    mesh, M, _ = ops
    y = interpolate(mesh, lambda x, yy: x * yy)
    assert distance(M, y, y) == 0.0
    one = interpolate(mesh, lambda x, yy: np.ones_like(x))
    zero = interpolate(mesh, lambda x, yy: np.zeros_like(x))
    assert distance(M, one, zero) == pytest.approx(2.0)


def test_error_h1_examples(ops):
    mesh, _, K = ops
    y = interpolate(mesh, lambda x, yy: x)
    zero = interpolate(mesh, lambda x, yy: np.zeros_like(x))
    assert distance(K, y, y) == 0.0
    assert distance(K, y, zero) == pytest.approx(2.0, rel=1e-12)


def test_error_mesh_mismatch(ops):
    # a field of another length meets scipy's check in the operator product
    mesh, M, K = ops
    n = mesh.n_vertices
    fits = field_from_values(mesh, np.ones(n))
    for y in (interpolate(build_mesh(3), lambda x, yy: x), NodalField(np.ones(n - 1)),
              NodalField(np.ones(n + 1))):
        for Q in (M, K):
            with pytest.raises(ValueError, match="dimension mismatch"):
                distance(Q, y, y)
        for a, b in ((y, fits), (fits, y)):
            with pytest.raises(ValueError):
                a.values @ M.dot(b.values)


def test_recorder_rejects_a_reference_from_another_mesh(ops):
    # another mesh means another length: 16 or 64 values against 49 columns
    mesh, M, K = ops
    n = mesh.n_vertices
    for ystar in (interpolate(build_mesh(3), lambda x, yy: x).values,
                  interpolate(build_mesh(7), lambda x, yy: x).values,
                  np.zeros(n - 1), np.zeros(n + 1)):
        with pytest.raises(ValueError,
                           match=f"^reference ystar has {len(ystar)} values, not {n}$"):
            ErrorRecorder(M, K, ystar, 1, 0.5)
    ErrorRecorder(M, K, interpolate(mesh, lambda x, yy: x).values, 1, 0.5)


def test_recorder_rejects_a_trajectory_of_the_wrong_width(ops):
    mesh, M, K = ops
    n = mesh.n_vertices
    for shape in ((3, n - 1), (3, n + 1), (2, 3, n), ()):
        with pytest.raises(ValueError, match=f"^reference trajectory of shape .* is not {n} "):
            ErrorRecorder(M, K, np.zeros(shape), 3, 0.5)
    ErrorRecorder(M, K, np.zeros((3, n)), 3, 0.5)


def test_recorder_rejects_a_trajectory_without_a_row_for_each_node(ops):
    mesh, M, K = ops
    n = mesh.n_vertices
    for rows in (0, 2):
        with pytest.raises(ValueError, match=f"^reference trajectory has {rows} rows for 3 nodes$"):
            ErrorRecorder(M, K, np.zeros((rows, n)), 3, 0.5)
    # a run continued from step 2 has a row for its first node, not for its second
    rec = ErrorRecorder(M, K, np.zeros((3, n)), 3, 0.5)
    y = field_from_values(mesh, np.ones(n))
    rec(SimState(step_index=2, y=y, kappa=()))
    with pytest.raises(ValueError, match="^step 3 is beyond the reference trajectory of 3 rows$"):
        rec(SimState(step_index=3, y=y, kappa=()))
    assert rec.series().n_nodes == 1


def test_recorder_takes_a_field_or_a_trajectory_as_an_array(ops):
    # n values are one reference field, a (k, n) array a reference trajectory
    mesh, M, K = ops
    n = mesh.n_vertices
    y = field_from_values(mesh, np.ones(n))
    for ystar in (np.zeros(n), np.zeros((1, n))):
        rec = ErrorRecorder(M, K, ystar, 1, 0.5)
        rec(SimState(step_index=0, y=y, kappa=()))
        assert rec.series().e_y[0] == pytest.approx(2.0)
    with pytest.raises(TypeError, match="^reference ystar must be an array, not NodalField$"):
        ErrorRecorder(M, K, field_from_values(mesh, np.zeros(n)), 1, 0.5)


def test_recorder_rejects_a_field_from_another_mesh(ops):
    # the reference is checked once; an observed field of another length fails
    # the subtraction or a product, and the node is not recorded
    mesh, M, K = ops
    n = mesh.n_vertices
    for ystar in (np.zeros((2, n)), np.zeros(n)):
        rec = ErrorRecorder(M, K, ystar, 1, 0.5)
        for length in (build_mesh(3).n_vertices, 1, n - 1, n + 1):
            y = NodalField(np.zeros(length))
            with pytest.raises(ValueError):
                rec(SimState(step_index=0, y=y, kappa=()))
        rec(SimState(step_index=0, y=field_from_values(mesh, np.ones(n)), kappa=()))
        assert rec.series().n_nodes == 1


def test_norm_properties_on_random_fields(ops):
    mesh, M, K = ops
    rng = np.random.default_rng(11)
    zero = field_from_values(mesh, np.zeros(mesh.n_vertices))
    for _ in range(25):
        a = field_from_values(mesh, rng.standard_normal(mesh.n_vertices))
        b = field_from_values(mesh, rng.standard_normal(mesh.n_vertices))
        ab = field_from_values(mesh, a.values + b.values)
        c = rng.uniform(-3, 3)
        ca = field_from_values(mesh, c * a.values)
        for Q in (M, K):
            # triangle inequality and absolute homogeneity
            assert distance(Q, ab, zero) <= (distance(Q, a, zero)
                                             + distance(Q, b, zero) + 1e-12)
            assert distance(Q, ca, zero) == pytest.approx(
                abs(c) * distance(Q, a, zero), abs=1e-12)


def test_gradient_error_shift_invariant(ops):
    mesh, _, K = ops
    rng = np.random.default_rng(4)
    y = field_from_values(mesh, rng.standard_normal(mesh.n_vertices))
    ystar = field_from_values(mesh, rng.standard_normal(mesh.n_vertices))
    shifted_y = field_from_values(mesh, y.values + 5.0)
    shifted_s = field_from_values(mesh, ystar.values + 5.0)
    assert distance(K, shifted_y, shifted_s) == pytest.approx(
        distance(K, y, ystar), rel=1e-9)


def test_recorder_series_shape_and_times(ops):
    mesh, M, K = ops
    tau = 0.25
    rec = ErrorRecorder(M, K, np.zeros(mesh.n_vertices), 5, tau)
    for m in range(5):
        y = field_from_values(mesh, np.full(mesh.n_vertices, float(m)))
        rec(SimState(step_index=m, y=y, kappa=np.array([0.5, -0.5])))
    series = rec.series()
    assert series.n_nodes == 5
    assert np.all(np.diff(series.times) > 0)
    assert np.allclose(np.diff(series.times), tau)
    assert series.kappa_traces.shape == (2, 5)
    # mass of the constant field m over area 4 is 4m
    assert np.allclose(series.mass_trace, 4.0 * np.arange(5))


def test_recorder_against_a_trajectory(ops):
    # row m of an (M+1, n) reference is the reference at step m
    mesh, M, K = ops
    rng = np.random.default_rng(7)
    ys = rng.standard_normal((4, mesh.n_vertices))
    refs = rng.standard_normal((4, mesh.n_vertices))
    rec = ErrorRecorder(M, K, refs, 4, 0.5)
    for m, y in enumerate(ys):
        rec(SimState(step_index=m, y=field_from_values(mesh, y), kappa=()))
    series = rec.series()
    for m in range(4):
        y, ref = field_from_values(mesh, ys[m]), field_from_values(mesh, refs[m])
        assert series.e_y[m] == distance(M, y, ref)
        assert series.e_grad[m] == distance(K, y, ref)
    assert series.kappa_traces.shape == (0, 4)


def test_recorder_rows_and_capacity(ops):
    # the series a list of per-node copies gives, byte for byte; kappa_traces
    # is the (J, nodes) transpose of the rows, as np.array(list).T
    mesh, M, K = ops
    rng = np.random.default_rng(5)
    ys, kappas = rng.standard_normal((4, mesh.n_vertices)), rng.standard_normal((4, 3))
    ystar = np.zeros(mesh.n_vertices)
    rec = ErrorRecorder(M, K, ystar, 4, 0.5)
    for m in range(4):
        rec(SimState(step_index=m, y=field_from_values(mesh, ys[m]),
                     kappa=kappas[m]))
    series = rec.series()
    ones = M.dot(np.ones(mesh.n_vertices))
    for name, expected in (("times", [0.5 * m for m in range(4)]),
                           ("e_y", [form_norm(M, y - ystar) for y in ys]),
                           ("e_grad", [form_norm(K, y - ystar) for y in ys]),
                           ("mass_trace", [float(ones @ y) for y in ys]),
                           ("kappa_traces", np.array(list(kappas)).T)):
        got = getattr(series, name)
        assert got.tobytes() == np.array(expected).tobytes() and got.shape == np.shape(expected)
    assert series.kappa_traces.base is not None   # a view of the rows, not a copy
    with pytest.raises(ValueError, match=r"^error recorder sized for 4 time nodes was given "
                                         r"another \(step 4\)$"):
        rec(SimState(step_index=4, y=field_from_values(mesh, ys[0]), kappa=kappas[0]))
    assert rec.series().n_nodes == 4
    for n_nodes in (0, -1):
        with pytest.raises(ValueError, match="at least one node"):
            ErrorRecorder(M, K, ystar, n_nodes, 0.5)


@pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -0.5])
def test_recorder_rejects_a_step_that_is_not_finite_and_positive(ops, tau):
    # unchecked, a nan step records every node and fails only in series()
    mesh, M, K = ops
    message = f"tau must be finite and > 0, got {tau}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ErrorRecorder(M, K, np.zeros(mesh.n_vertices), 3, tau)


@pytest.mark.parametrize("make, named", [
    (lambda ops, count: ErrorRecorder(ops[1], ops[2], np.zeros(ops[1].n_cols), count, 0.5),
     "n_nodes"),
    (lambda ops, count: TrajectoryRecorder(count), "n_nodes"),
    (lambda ops, count: SnapshotRecorder([1, count]), "snapshot step"),
], ids=["error", "trajectory", "snapshot"])
@pytest.mark.parametrize("count", [2.5, 10.9, True, "2"])
def test_recorder_counts_must_be_integers(ops, make, named, count):
    # unchecked, snapshot steps 2.5, True and 10.9 would keep steps 2, 1 and 10
    message = f"{named} must be an integer, got {count!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(ops, count)


def test_trajectory_recorder_rows_and_capacity(ops):
    mesh, _, _ = ops
    rng = np.random.default_rng(3)
    ys, kappas = rng.standard_normal((4, mesh.n_vertices)), rng.standard_normal((4, 2))
    rec = TrajectoryRecorder(4)
    for m in range(4):
        rec(SimState(step_index=m, y=field_from_values(mesh, ys[m]),
                     kappa=kappas[m]))
    # the rows a list of copies would give, byte for byte
    assert rec.ys().tobytes() == np.array(list(ys)).tobytes() and rec.ys().shape == ys.shape
    assert rec.kappas().tobytes() == kappas.tobytes() and rec.kappas().shape == (4, 2)
    with pytest.raises(ValueError, match="4 time nodes"):
        rec(SimState(step_index=4, y=field_from_values(mesh, ys[0]), kappa=kappas[0]))
    with pytest.raises(ValueError):
        TrajectoryRecorder(0)


def test_series_validation():
    good = dict(times=np.array([0.0, 1.0]), e_y=np.zeros(2), e_grad=np.zeros(2),
                kappa_traces=np.zeros((1, 2)), mass_trace=np.zeros(2))
    ErrorSeries(**good)
    with pytest.raises(ValueError):
        ErrorSeries(**{**good, "e_y": np.zeros(3)})
    with pytest.raises(ValueError):
        ErrorSeries(**{**good, "e_y": np.array([0.0, -1.0])})
    with pytest.raises(ValueError):
        ErrorSeries(**{**good, "e_grad": np.array([0.0, np.nan])})
