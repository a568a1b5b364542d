import numpy as np
import pytest

from thermoloop.fem import (assemble_mass, assemble_stiffness,
                            field_from_values, h1_seminorm, integral_product,
                            interpolate, l2_norm)
from thermoloop.mesh import build_mesh


@pytest.fixture(scope="module")
def mesh2():
    return build_mesh(2)


@pytest.fixture(scope="module")
def ops2(mesh2):
    return assemble_mass(mesh2), assemble_stiffness(mesh2)


def test_mass_entry_sum_is_domain_area():
    for n in (1, 2, 7, 20):
        M = assemble_mass(build_mesh(n))
        assert abs(M.values.sum() - 4.0) <= 1e-12 * 4.0


def assert_symmetric_sorted_csr(A):
    """Symmetric to 1e-12 relative, with its values stored row by row in
    increasing column order: read in order, the stored nonzeros are the
    dense matrix's nonzeros in row-major order."""
    dense = A.toarray()
    assert np.max(np.abs(dense - dense.T)) <= 1e-12 * np.max(np.abs(dense))
    stored = A.values
    assert len(stored) == A.nnz >= np.count_nonzero(dense)
    assert np.array_equal(stored[stored != 0], dense[dense != 0])


def test_mass_symmetric(ops2):
    M, _ = ops2
    assert_symmetric_sorted_csr(M)
    assert_symmetric_sorted_csr(assemble_mass(build_mesh(5)))


def test_mass_local_block_values():
    # every triangle of area A contributes A/6 on the diagonal and A/12 off
    # it; on the 2-triangle mesh each entry isolates a known combination
    mesh = build_mesh(1)
    M = assemble_mass(mesh).toarray()
    A = mesh.h ** 2 / 2  # = 2.0
    # vertices: 0=(-1,-1) 1=(1,-1) 2=(-1,1) 3=(1,1)
    # lower triangle (0,1,3), upper (0,3,2)
    assert M[1, 1] == pytest.approx(A / 6)        # only in lower
    assert M[2, 2] == pytest.approx(A / 6)        # only in upper
    assert M[0, 1] == pytest.approx(A / 12)       # shared edge of lower only
    assert M[1, 2] == pytest.approx(0.0)          # opposite corners, no shared triangle
    assert M[0, 3] == pytest.approx(2 * A / 12)   # diagonal edge shared by both
    assert M[0, 0] == pytest.approx(2 * A / 6)


def test_stiffness_kernel_contains_constants():
    for n in (1, 2, 10):
        K = assemble_stiffness(build_mesh(n))
        assert np.max(np.abs(K.dot(np.ones(K.n_cols)))) <= 1e-12


def test_stiffness_psd_small_mesh():
    for n in (1, 5):
        K = assemble_stiffness(build_mesh(n))
        assert_symmetric_sorted_csr(K)
        assert np.linalg.eigvalsh(K.toarray()).min() >= -1e-12


def test_stiffness_quadratic_form_linear_field(mesh2, ops2):
    _, K = ops2
    y = interpolate(mesh2, lambda x1, x2: x1)
    assert y.values @ K.dot(y.values) == pytest.approx(4.0, abs=1e-12)


def test_interpolate_zero_and_constant(mesh2):
    zero = interpolate(mesh2, lambda x, y: np.zeros_like(x))
    assert np.all(zero.values == 0.0)
    const = interpolate(mesh2, lambda x, y: np.full_like(x, 2.5))
    assert np.all(const.values == 2.5)


def test_interpolate_disc_indicator_hits_exact_vertices():
    mesh = build_mesh(100)
    c_h = 32.0 / np.pi
    r = 0.125
    fld = interpolate(mesh, lambda x, y: np.where(x * x + y * y <= r * r, c_h, 0.0))
    dist2 = mesh.vertices[:, 0] ** 2 + mesh.vertices[:, 1] ** 2
    inside = dist2 <= r * r
    assert np.all((fld.values > 0) == inside)
    assert np.all(fld.values[inside] == c_h)


def test_interpolate_rejects_nonfinite(mesh2):
    with pytest.raises(ValueError):
        interpolate(mesh2, lambda x, y: np.where(x == 0, np.inf, 1.0))


def test_integral_product_constants(mesh2, ops2):
    M, _ = ops2
    one = interpolate(mesh2, lambda x, y: np.ones_like(x))
    zero = interpolate(mesh2, lambda x, y: np.zeros_like(x))
    assert integral_product(M, one, one) == pytest.approx(4.0)
    assert integral_product(M, one, zero) == 0.0


def test_integral_product_linear_field_exact(mesh2, ops2):
    # x1 lies in the P1 space, so the consistent mass matrix integrates
    # its square exactly: integral of x1^2 over (-1,1)^2 = 4/3
    M, _ = ops2
    a = interpolate(mesh2, lambda x, y: x)
    assert integral_product(M, a, a) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_integral_product_mesh_mismatch(mesh2, ops2):
    M, _ = ops2
    other = build_mesh(3)
    a = interpolate(other, lambda x, y: x)
    b = interpolate(mesh2, lambda x, y: x)
    with pytest.raises(ValueError):
        integral_product(M, a, b)


def test_l2_norm_examples(mesh2, ops2):
    M, _ = ops2
    zero = interpolate(mesh2, lambda x, y: np.zeros_like(x))
    one = interpolate(mesh2, lambda x, y: np.ones_like(x))
    x1 = interpolate(mesh2, lambda x, y: x)
    assert l2_norm(M, zero) == 0.0
    assert l2_norm(M, one) == pytest.approx(2.0)
    assert l2_norm(M, x1) == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-12)


def test_h1_seminorm_examples(mesh2, ops2):
    _, K = ops2
    const = interpolate(mesh2, lambda x, y: np.full_like(x, 3.7))
    x1 = interpolate(mesh2, lambda x, y: x)
    diag = interpolate(mesh2, lambda x, y: x + y)
    assert h1_seminorm(K, const) <= 1e-12
    assert h1_seminorm(K, x1) == pytest.approx(2.0, rel=1e-12)
    assert h1_seminorm(K, diag) == pytest.approx(np.sqrt(8.0), rel=1e-12)


def test_field_length_checked(mesh2):
    with pytest.raises(ValueError):
        field_from_values(mesh2, np.ones(5))
