import numpy as np
import pytest

from thermoloop.fem import (NodalField, assemble_mass, assemble_stiffness, field_from_values,
                            h1_seminorm, interpolate, l2_norm)
from thermoloop.mesh import build_mesh
from thermoloop.metrics import ErrorRecorder, ErrorSeries, TrajectoryRecorder
from thermoloop.stepper import SimState


@pytest.fixture(scope="module")
def ops():
    mesh = build_mesh(6)
    return mesh, assemble_mass(mesh), assemble_stiffness(mesh)


def distance(norm, Q, y, ystar):
    """norm(Q, y - y*): the distance ErrorRecorder measures."""
    return norm(Q, NodalField(y.values - ystar.values, y.mesh_key))


def test_error_l2_examples(ops):
    mesh, M, _ = ops
    y = interpolate(mesh, lambda x, yy: x * yy)
    assert distance(l2_norm, M, y, y) == 0.0
    one = interpolate(mesh, lambda x, yy: np.ones_like(x))
    zero = interpolate(mesh, lambda x, yy: np.zeros_like(x))
    assert distance(l2_norm, M, one, zero) == pytest.approx(2.0)


def test_error_h1_examples(ops):
    mesh, _, K = ops
    y = interpolate(mesh, lambda x, yy: x)
    zero = interpolate(mesh, lambda x, yy: np.zeros_like(x))
    assert distance(h1_seminorm, K, y, y) == 0.0
    assert distance(h1_seminorm, K, y, zero) == pytest.approx(2.0, rel=1e-12)


def test_error_mesh_mismatch(ops):
    _, M, _ = ops
    other = build_mesh(3)
    y = interpolate(other, lambda x, yy: x)
    with pytest.raises(ValueError):
        distance(l2_norm, M, y, y)


def test_recorder_rejects_a_reference_from_another_mesh(ops):
    mesh, M, K = ops
    for n_div in (3, 7):
        ystar = interpolate(build_mesh(n_div), lambda x, yy: x)
        with pytest.raises(ValueError, match="^reference ystar lives on mesh"):
            ErrorRecorder(M, K, ystar)
    ErrorRecorder(M, K, interpolate(mesh, lambda x, yy: x))


def test_recorder_rejects_a_trajectory_of_the_wrong_width(ops):
    mesh, M, K = ops
    n = mesh.n_vertices
    for shape in ((3, n - 1), (3, n + 1), (n,), (2, 3, n)):
        with pytest.raises(ValueError, match=f"^reference trajectory of shape .* is not {n} "):
            ErrorRecorder(M, K, np.zeros(shape))
    ErrorRecorder(M, K, np.zeros((3, n)))


def test_recorder_rejects_a_field_from_another_mesh(ops):
    # the reference is checked once; each observed field meets l2_norm's check
    mesh, M, K = ops
    rec = ErrorRecorder(M, K, np.zeros((2, mesh.n_vertices)))
    y = NodalField(np.zeros(mesh.n_vertices), build_mesh(3).key)
    with pytest.raises(ValueError, match="does not match operator mesh"):
        rec(SimState(step_index=0, time=0.0, y=y, kappa=()))


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
        for norm, Q in ((l2_norm, M), (h1_seminorm, K)):
            # triangle inequality and absolute homogeneity
            assert distance(norm, Q, ab, zero) <= (distance(norm, Q, a, zero)
                                                   + distance(norm, Q, b, zero) + 1e-12)
            assert distance(norm, Q, ca, zero) == pytest.approx(
                abs(c) * distance(norm, Q, a, zero), abs=1e-12)


def test_gradient_error_shift_invariant(ops):
    mesh, _, K = ops
    rng = np.random.default_rng(4)
    y = field_from_values(mesh, rng.standard_normal(mesh.n_vertices))
    ystar = field_from_values(mesh, rng.standard_normal(mesh.n_vertices))
    shifted_y = field_from_values(mesh, y.values + 5.0)
    shifted_s = field_from_values(mesh, ystar.values + 5.0)
    assert distance(h1_seminorm, K, shifted_y, shifted_s) == pytest.approx(
        distance(h1_seminorm, K, y, ystar), rel=1e-9)


def test_recorder_series_shape_and_times(ops):
    mesh, M, K = ops
    ystar = field_from_values(mesh, np.zeros(mesh.n_vertices))
    rec = ErrorRecorder(M, K, ystar)
    tau = 0.25
    for m in range(5):
        y = field_from_values(mesh, np.full(mesh.n_vertices, float(m)))
        rec(SimState(step_index=m, time=m * tau, y=y, kappa=np.array([0.5, -0.5])))
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
    rec = ErrorRecorder(M, K, refs)
    for m, y in enumerate(ys):
        rec(SimState(step_index=m, time=0.5 * m, y=field_from_values(mesh, y), kappa=()))
    series = rec.series()
    for m in range(4):
        y, ref = field_from_values(mesh, ys[m]), field_from_values(mesh, refs[m])
        assert series.e_y[m] == distance(l2_norm, M, y, ref)
        assert series.e_grad[m] == distance(h1_seminorm, K, y, ref)
    assert series.kappa_traces.shape == (0, 4)


def test_trajectory_recorder_rows_and_capacity(ops):
    mesh, _, _ = ops
    rng = np.random.default_rng(3)
    ys, kappas = rng.standard_normal((4, mesh.n_vertices)), rng.standard_normal((4, 2))
    rec = TrajectoryRecorder(4)
    for m in range(4):
        rec(SimState(step_index=m, time=0.5 * m, y=field_from_values(mesh, ys[m]),
                     kappa=kappas[m]))
    # the rows a list of copies would give, byte for byte
    assert rec.ys().tobytes() == np.array(list(ys)).tobytes() and rec.ys().shape == ys.shape
    assert rec.kappas().tobytes() == kappas.tobytes() and rec.kappas().shape == (4, 2)
    with pytest.raises(ValueError, match="4 time nodes"):
        rec(SimState(step_index=4, time=2.0, y=field_from_values(mesh, ys[0]), kappa=kappas[0]))
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
