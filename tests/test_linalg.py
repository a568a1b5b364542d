import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from thermoloop.experiments import assemble, make_experiment
from thermoloop.fem import assemble_mass, assemble_stiffness
from thermoloop.linalg import CgResult, CsrMatrix, ConvergenceError, cg_solve
from thermoloop.mesh import build_mesh
from thermoloop.stepper import build_step_operator


def dense_2x2(a, b, c, d):
    return CsrMatrix.from_coo([0, 0, 1, 1], [0, 1, 0, 1],
                              [float(a), float(b), float(c), float(d)],
                              shape=(2, 2))


def identity(n):
    return CsrMatrix(sp.identity(n, format="csr"))


def test_spmv_identity():
    I3 = identity(3)
    assert np.allclose(I3.dot(np.array([1.0, 2.0, 3.0])), [1, 2, 3])


def test_spmv_zero_matrix():
    Z = CsrMatrix.from_coo([], [], [], shape=(3, 3))
    assert np.allclose(Z.dot(np.array([4.0, 5.0, 6.0])), 0.0)


def test_spmv_hand_example():
    A = dense_2x2(2, 1, 1, 2)
    assert np.allclose(A.dot(np.array([1.0, 1.0])), [3.0, 3.0])


def test_spmv_dimension_mismatch():
    # a rectangular matrix multiplies through CSR, the mesh's mass matrix through DIA
    rect = CsrMatrix.from_coo([0, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0], shape=(2, 3))
    for A, layout in ((rect, "csr"), (assemble_mass(build_mesh(4)), "dia")):
        for x in (np.ones(A.n_cols + 1), np.ones(A.n_cols - 1)):
            with pytest.raises(ValueError):
                A.dot(x)
        assert A._vector_handle.format == layout


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
    I5 = identity(5)
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
    pre = cg_solve(A, b, rel_tol=1e-11, inv_diag=1.0 / A.diagonal())
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
    # the non-finite norm of b sends cg_solve to its scan of b, which names the entries
    A = dense_2x2(4, 1, 1, 3)
    for b in ([np.nan, 1.0], [1.0, np.inf], [-np.inf, 1.0], [np.inf, -np.inf]):
        with pytest.raises(ConvergenceError,
                           match="^right-hand side contains non-finite entries$") as info:
            cg_solve(A, np.array(b))
        assert info.value.iters == 0
        assert np.isnan(info.value.residual)


def test_cg_rhs_length_mismatch():
    A = dense_2x2(4, 1, 1, 3)
    with pytest.raises(ValueError):
        cg_solve(A, np.ones(3))


def test_cg_inv_diag_length_mismatch():
    A = dense_2x2(4, 1, 1, 3)
    with pytest.raises(ValueError):
        cg_solve(A, np.ones(2), inv_diag=np.ones(3))


def reference_cg(A, b, rel_tol=1e-10, max_iters=None, x0=None):
    """The unpreconditioned CG kernel before the in-place rewrite, kept as the
    reference: fresh vectors each iteration, np.linalg.norm for the residual."""
    b = np.asarray(b, dtype=np.float64)
    if max_iters is None:
        max_iters = 10 * A.n_rows
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return CgResult(np.zeros_like(b), 0, 0.0)
    threshold = rel_tol * b_norm
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.array(x0, dtype=np.float64)
        r = b - A.dot(x)
    z = r
    p = z.copy()
    rz = float(r @ z)
    res = float(np.linalg.norm(r))
    for k in range(max_iters):
        if res <= threshold:
            return CgResult(x, k, res)
        Ap = A.dot(p)
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        res = float(np.linalg.norm(r))
    raise AssertionError("reference CG did not converge")


def campaign_step_matrix(n_div):
    """The exp1-64 step matrix M + tau*D*K at n_div cells per side, with its mass matrix."""
    cfg = make_experiment(1, devices=64)
    problem = assemble(replace(cfg, scheme=replace(cfg.scheme, n_div=n_div))).problem
    return problem.step_matrix, problem.mass


@pytest.mark.parametrize("n_div", [20, 40])
def test_cg_unpreconditioned_matches_reference_bitwise(n_div):
    A, M = campaign_step_matrix(n_div)
    rng = np.random.default_rng(n_div)
    n = A.n_rows
    for trial in range(4):
        # right-hand sides of the stepping form M y, and plain random ones
        b = M.dot(rng.standard_normal(n)) if trial % 2 else rng.standard_normal(n)
        cold = cg_solve(A, b)
        ref = reference_cg(A, b)
        assert cold.x.tobytes() == ref.x.tobytes()
        assert (cold.iters, cold.residual) == (ref.iters, ref.residual)
        # warm start near the solution, as the Picard sweeps use it
        x0 = ref.x + 1e-3 * rng.standard_normal(n)
        warm = cg_solve(A, b, x0=x0)
        ref = reference_cg(A, b, x0=x0)
        assert warm.x.tobytes() == ref.x.tobytes()
        assert (warm.iters, warm.residual) == (ref.iters, ref.residual)


@pytest.mark.parametrize("n_div", [20, 40])
def test_cg_jacobi_meets_tolerance_in_fewer_iterations(n_div):
    A, M = campaign_step_matrix(n_div)
    inv_diag = 1.0 / A.diagonal()
    rng = np.random.default_rng(100 + n_div)
    n = A.n_rows
    for b, x0 in ((rng.standard_normal(n), None),
                  (M.dot(rng.standard_normal(n)), rng.standard_normal(n))):
        rel_tol = 1e-10
        plain = cg_solve(A, b, rel_tol=rel_tol, x0=x0)
        pre = cg_solve(A, b, rel_tol=rel_tol, inv_diag=inv_diag, x0=x0)
        assert np.linalg.norm(b - A.dot(pre.x)) <= rel_tol * np.linalg.norm(b)
        if n_div == 40:
            assert pre.iters < plain.iters


def test_problem_rejects_step_matrix_without_positive_diagonal():
    cfg = make_experiment(1, devices=64)
    problem = assemble(replace(cfg, scheme=replace(cfg.scheme, n_div=8))).problem
    A = problem.step_matrix
    assert np.array_equal(problem.step_inv_diag, 1.0 / A.diagonal())
    for factor in (1.0, 2.0):   # one zero, then one negative diagonal entry
        shift = np.zeros(A.n_rows)
        shift[5] = factor * A.diagonal()[5]
        bad = A.scaled_add(-1.0, CsrMatrix(sp.diags(shift)))
        with pytest.raises(ValueError, match="positive diagonal"):
            replace(problem, step_matrix=bad)


@pytest.mark.parametrize("n_div", [1, 4, 40])
def test_banded_matvec_equals_csr_bitwise(n_div):
    mesh = build_mesh(n_div)
    M, K = assemble_mass(mesh), assemble_stiffness(mesh)
    A = build_step_operator(M, K, D=0.02, tau=0.02)
    rng = np.random.default_rng(n_div)
    for matrix in (M, K, A):
        csr = sp.csr_matrix((matrix.values, matrix.col_indices, matrix.row_offsets),
                            shape=(matrix.n_rows, matrix.n_cols))
        for x in (rng.standard_normal(matrix.n_cols), np.ones(matrix.n_cols)):
            assert np.array_equal(matrix.dot(x), csr @ x)
        assert matrix._vector_handle.format == "dia"
        assert len(matrix._vector_handle.offsets) == 7


def test_device_operators_and_2d_operands_stay_on_csr():
    cfg = make_experiment(1, devices=64)
    problem = assemble(replace(cfg, scheme=replace(cfg.scheme, n_div=8))).problem
    P, Pt = problem.device_mass, problem.device_mass_t
    P.dot(np.ones(P.n_cols))
    Pt.dot(np.ones(Pt.n_cols))
    assert P._vector_handle.format == "csr" and Pt._vector_handle.format == "csr"
    M = problem.mass
    X = np.random.default_rng(0).standard_normal((M.n_cols, 3))
    assert np.array_equal(M.dot(X), M._handle @ X)
    assert M._vector_handle is None   # no 1-D product yet: the layout is not built


def test_wide_band_stays_on_csr():
    # a square matrix whose band would store far more than 2 * nnz values
    n = 50
    A = CsrMatrix.from_coo([0, n - 1] + list(range(n)), [n - 1, 0] + list(range(n)),
                           [1.0, 1.0] + [4.0] * n, shape=(n, n))
    x = np.arange(n, dtype=float)
    assert np.array_equal(A.dot(x), A._handle @ x)
    assert A._vector_handle.format == "csr"


def test_cg_rejects_overflowing_rhs_norm():
    # every entry finite, but ||b||^2 overflows a double
    A = dense_2x2(4, 1, 1, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="norm of the right-hand side overflows") as info:
            cg_solve(A, np.array([1e160, 1e160]), x0=np.zeros(2))
    assert info.value.iters == 0 and info.value.residual == np.inf
