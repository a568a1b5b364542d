import numpy as np
import pytest

from thermoloop.fem import assemble_mass, assemble_stiffness
from thermoloop.linalg import (CsrMatrix, ConvergenceError, cg_solve, spmv)
from thermoloop.mesh import build_mesh
from thermoloop.stepper import build_step_operator


def dense_2x2(a, b, c, d):
    return CsrMatrix.from_coo([0, 0, 1, 1], [0, 1, 0, 1],
                              [float(a), float(b), float(c), float(d)],
                              shape=(2, 2), symmetric=(b == c))


def test_spmv_identity():
    I3 = CsrMatrix.identity(3)
    assert np.allclose(spmv(I3, np.array([1.0, 2.0, 3.0])), [1, 2, 3])


def test_spmv_zero_matrix():
    Z = CsrMatrix.from_coo([], [], [], shape=(3, 3))
    assert np.allclose(spmv(Z, np.array([4.0, 5.0, 6.0])), 0.0)


def test_spmv_hand_example():
    A = dense_2x2(2, 1, 1, 2)
    assert np.allclose(spmv(A, np.array([1.0, 1.0])), [3.0, 3.0])


def test_spmv_dimension_mismatch():
    A = dense_2x2(2, 1, 1, 2)
    with pytest.raises(ValueError):
        spmv(A, np.ones(3))


def test_validate_catches_asymmetry():
    A = CsrMatrix.from_coo([0, 0, 1], [0, 1, 1], [1.0, 2.0, 1.0], shape=(2, 2),
                           symmetric=True)
    with pytest.raises(ValueError):
        A.validate()


def test_assembled_matrices_validate():
    mesh = build_mesh(5)
    assemble_mass(mesh).validate()
    assemble_stiffness(mesh).validate()


def test_matmul_and_transpose_match_dense():
    A = CsrMatrix.from_coo([0, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0], shape=(2, 3))
    B = assemble_mass(build_mesh(1))  # 4 x 4
    with pytest.raises(ValueError):
        A.matmul(B)
    C = CsrMatrix.from_coo([0, 1, 2, 2], [0, 1, 2, 3], [1.0, -1.0, 2.0, 4.0], shape=(3, 4))
    assert np.array_equal(A.matmul(C).toarray(), A.toarray() @ C.toarray())
    assert np.array_equal(A.transpose().toarray(), A.toarray().T)
    assert (A.transpose().n_rows, A.transpose().n_cols) == (3, 2)


def test_cg_identity_single_iteration():
    I5 = CsrMatrix.identity(5)
    b = np.array([3.0, -1.0, 0.5, 2.0, 7.0])
    x, iters, res = cg_solve(I5, b)
    assert iters <= 1
    assert np.allclose(x, b, atol=1e-14)


def test_cg_2x2_hand_solution():
    A = dense_2x2(4, 1, 1, 3)
    x, _, _ = cg_solve(A, np.array([1.0, 2.0]))
    assert np.allclose(x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-12)


def test_cg_zero_rhs_returns_zero():
    A = dense_2x2(4, 1, 1, 3)
    x, iters, res = cg_solve(A, np.zeros(2))
    assert iters == 0 and res == 0.0
    assert np.all(x == 0.0)


def test_cg_step_system_matches_dense_oracle():
    # (M + tau*D*K) on the n_div=4 mesh against Gaussian elimination
    mesh = build_mesh(4)
    A = build_step_operator(assemble_mass(mesh), assemble_stiffness(mesh),
                            D=0.02, tau=0.01)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(mesh.n_vertices)
    x, iters, _ = cg_solve(A, b, rel_tol=1e-12)
    oracle = np.linalg.solve(A.toarray(), b)
    assert np.max(np.abs(x - oracle)) <= 1e-8
    assert iters <= 10 * mesh.n_vertices


@pytest.mark.parametrize("n_div", [1, 2, 3, 4, 5, 6])
def test_cg_agrees_with_dense_oracle_on_every_small_mesh(n_div):
    # right-hand sides of the per-step form b = M y, as produced by stepping
    mesh = build_mesh(n_div)
    M = assemble_mass(mesh)
    A = build_step_operator(M, assemble_stiffness(mesh), D=0.01, tau=0.01)
    rng = np.random.default_rng(n_div)
    b = M.dot(rng.standard_normal(mesh.n_vertices))
    x, iters, res = cg_solve(A, b, rel_tol=1e-10, max_iters=10 * mesh.n_vertices)
    assert np.max(np.abs(x - np.linalg.solve(A.toarray(), b))) <= 1e-8
    assert res <= 1e-10 * np.linalg.norm(b)


def test_cg_jacobi_preconditioning():
    mesh = build_mesh(6)
    A = build_step_operator(assemble_mass(mesh), assemble_stiffness(mesh),
                            D=0.5, tau=0.1)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(mesh.n_vertices)
    plain = cg_solve(A, b, rel_tol=1e-11)
    pre = cg_solve(A, b, rel_tol=1e-11, precondition=True)
    assert np.allclose(plain.x, pre.x, atol=1e-9)


def test_cg_warm_start_converges_immediately_at_solution():
    A = dense_2x2(4, 1, 1, 3)
    exact = np.array([1.0 / 11.0, 7.0 / 11.0])
    x, iters, _ = cg_solve(A, np.array([1.0, 2.0]), x0=exact)
    assert iters == 0
    assert np.allclose(x, exact)


def test_cg_reports_nonconvergence_with_residual():
    A = dense_2x2(4, 1, 1, 3)
    with pytest.raises(ConvergenceError) as info:
        cg_solve(A, np.array([1.0, 2.0]), rel_tol=1e-15, max_iters=1)
    assert info.value.iters == 1
    assert np.isfinite(info.value.residual)


def test_cg_rejects_nonfinite_rhs():
    A = dense_2x2(4, 1, 1, 3)
    with pytest.raises(ConvergenceError):
        cg_solve(A, np.array([np.nan, 1.0]))


def test_cg_rhs_length_mismatch():
    A = dense_2x2(4, 1, 1, 3)
    with pytest.raises(ValueError):
        cg_solve(A, np.ones(3))
