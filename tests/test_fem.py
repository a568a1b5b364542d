import numpy as np
import pytest

from thermoloop.fem import (assemble_mass, assemble_stiffness, field_from_values,
                            form_norm, interpolate)
from thermoloop.mesh import build_mesh
from mesh_helpers import as_scipy, element_mass, element_stiffness


@pytest.fixture(scope="module")
def mesh2():
    return build_mesh(2)


@pytest.fixture(scope="module")
def ops2(mesh2):
    return assemble_mass(mesh2), assemble_stiffness(mesh2)


def test_mass_entry_sum_is_domain_area():
    for n in (1, 2, 7, 20):
        M = assemble_mass(build_mesh(n))
        assert abs(M.toarray().sum() - 4.0) <= 1e-12 * 4.0


def assert_symmetric(A):
    """Symmetric to 1e-12 relative, with nnz counting the dense matrix's nonzeros."""
    dense = A.toarray()
    assert np.max(np.abs(dense - dense.T)) <= 1e-12 * np.max(np.abs(dense))
    assert A.nnz == np.count_nonzero(dense)


def test_mass_symmetric(ops2):
    M, _ = ops2
    assert_symmetric(M)
    assert_symmetric(assemble_mass(build_mesh(5)))


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


@pytest.mark.parametrize("n_div", [1, 2, 5, 40, 100])
def test_banded_operators_match_the_element_assembly(n_div):
    # the element loop rounds each triangle's area and gradients on its own;
    # the banded assembly uses the two exact reference blocks
    mesh = build_mesh(n_div)
    M, K = assemble_mass(mesh), assemble_stiffness(mesh)
    for banded, reference in ((M, element_mass(mesh)), (K, element_stiffness(mesh))):
        assert banded.bands is not None and reference.bands is None
        difference = (as_scipy(banded) - as_scipy(reference)).tocsr().data
        assert np.max(np.abs(difference), initial=0.0) <= 1e-14 * np.max(np.abs(reference.data))
        with pytest.raises(ValueError, match="two banded matrices"):
            banded.scaled_add(-1.0, reference)
    for A in (M, K, M.scaled_add(0.02 * 0.01, K)):
        # exactly symmetric: the CSR arrays equal those of the transpose
        stored = as_scipy(A).tocsr()
        flipped = stored.T.tocsr()
        flipped.sort_indices()
        for a, b in ((stored.data, flipped.data), (stored.indices, flipped.indices),
                     (stored.indptr, flipped.indptr)):
            assert a.tobytes() == b.tobytes()
    assert np.all(K.dot(np.ones(K.n_cols)) == 0.0)
    assert np.all(as_scipy(K).tocsr() @ np.ones(K.n_cols) == 0.0)


def test_stiffness_kernel_contains_constants():
    for n in (1, 2, 10):
        K = assemble_stiffness(build_mesh(n))
        assert np.max(np.abs(K.dot(np.ones(K.n_cols)))) <= 1e-12


def test_stiffness_psd_small_mesh():
    for n in (1, 5):
        K = assemble_stiffness(build_mesh(n))
        assert_symmetric(K)
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
    assert one.values @ M.dot(one.values) == pytest.approx(4.0)
    assert one.values @ M.dot(zero.values) == 0.0


def test_integral_product_linear_field_exact(mesh2, ops2):
    # x1 lies in the P1 space, so the consistent mass matrix integrates
    # its square exactly: integral of x1^2 over (-1,1)^2 = 4/3
    M, _ = ops2
    a = interpolate(mesh2, lambda x, y: x)
    assert a.values @ M.dot(a.values) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_integral_product_mesh_mismatch(mesh2, ops2):
    M, _ = ops2
    other = build_mesh(3)
    a = interpolate(other, lambda x, y: x)
    b = interpolate(mesh2, lambda x, y: x)
    with pytest.raises(ValueError):
        a.values @ M.dot(b.values)


def test_l2_norm_examples(mesh2, ops2):
    M, _ = ops2
    zero = interpolate(mesh2, lambda x, y: np.zeros_like(x))
    one = interpolate(mesh2, lambda x, y: np.ones_like(x))
    x1 = interpolate(mesh2, lambda x, y: x)
    assert form_norm(M, zero.values) == 0.0
    assert form_norm(M, one.values) == pytest.approx(2.0)
    assert form_norm(M, x1.values) == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-12)


def test_h1_seminorm_examples(mesh2, ops2):
    _, K = ops2
    const = interpolate(mesh2, lambda x, y: np.full_like(x, 3.7))
    x1 = interpolate(mesh2, lambda x, y: x)
    diag = interpolate(mesh2, lambda x, y: x + y)
    assert form_norm(K, const.values) <= 1e-12
    assert form_norm(K, x1.values) == pytest.approx(2.0, rel=1e-12)
    assert form_norm(K, diag.values) == pytest.approx(np.sqrt(8.0), rel=1e-12)


def test_field_length_checked(mesh2):
    with pytest.raises(ValueError):
        field_from_values(mesh2, np.ones(5))


@pytest.mark.parametrize("shape", [(8,), (10,), (), (1, 9), (9, 1), (3, 3)])
def test_field_from_values_rejects_wrong_shapes(mesh2, shape):
    with pytest.raises(ValueError, match=rf"^expected 9 values, got \({', '.join(map(str, shape))},?\)$"):
        field_from_values(mesh2, np.ones(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_field_from_values_rejects_non_finite_values(mesh2, bad):
    values = np.zeros(mesh2.n_vertices)
    values[4] = bad
    with pytest.raises(ValueError, match="^nodal field contains non-finite values$"):
        field_from_values(mesh2, values)
    fld = field_from_values(mesh2, np.arange(9))   # integers become read-only float64
    assert fld.values.dtype == np.float64 and not fld.values.flags.writeable
    assert np.array_equal(fld.values, np.arange(9.0))


def test_field_from_values_copies_the_callers_buffer(mesh2):
    buffer = np.zeros(mesh2.n_vertices)
    fld = field_from_values(mesh2, buffer)
    buffer[0] = 1.0                      # still writable: the field holds a copy
    assert buffer.flags.writeable
    assert np.array_equal(fld.values, np.zeros(mesh2.n_vertices))
    assert not fld.values.flags.writeable
