import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from thermoloop import linalg
from thermoloop.experiments import ExplicitLayout, assemble, make_experiment, run_experiment
from thermoloop.fem import assemble_mass, assemble_stiffness
from thermoloop.linalg import CsrMatrix, ConvergenceError, cg_solve
from thermoloop.mesh import build_mesh
from mesh_helpers import as_scipy, csr, disc_indicators


def dense_2x2(a, b, c, d):
    return csr(np.array([[a, b], [c, d]], dtype=float))


def identity(n):
    return csr(np.eye(n))


# a 2 x 3 CSR matrix
RECT = np.array([[1.0, 0.0, 2.0],
                 [0.0, 3.0, 0.0]])


def start(A, x0=None):
    """cg_solve's start vector keyword: x0, zero by default."""
    return dict(x0=np.zeros(A.n_rows) if x0 is None else x0)


def step_matrix(mesh, D, tau):
    """M + tau*D*K on the mesh, as assemble builds it."""
    return assemble_mass(mesh).scaled_add(tau * D, assemble_stiffness(mesh))


def test_spmv_identity():
    I3 = identity(3)
    assert np.allclose(I3.dot(np.array([1.0, 2.0, 3.0])), [1, 2, 3])


def test_spmv_zero_matrix():
    Z = csr(np.zeros((3, 3)))
    assert np.allclose(Z.dot(np.array([4.0, 5.0, 6.0])), 0.0)


def test_spmv_hand_example():
    A = dense_2x2(2, 1, 1, 2)
    assert np.allclose(A.dot(np.array([1.0, 1.0])), [3.0, 3.0])


def test_spmv_dimension_mismatch():
    # a rectangular matrix multiplies through CSR, the mesh's mass matrix through
    # DIA; both take vectors only, a 2-D operand of n_cols rows too is rejected
    for A in (csr(RECT), assemble_mass(build_mesh(4))):
        for x in (np.ones(A.n_cols + 1), np.ones(A.n_cols - 1), np.ones((A.n_cols + 1, 2)),
                  np.ones((A.n_cols, 1)), np.ones((A.n_cols, 3))):
            with pytest.raises(ValueError, match=rf"^dimension mismatch: .*\({len(x)},.*"
                                                 rf" of {A.n_cols} columns$"):
                A.dot(x)
        with pytest.raises(ValueError, match="dimension mismatch"):
            A.dot(np.ones((A.n_cols, 1, 1)))


def test_cg_identity_single_iteration():
    I5 = identity(5)
    b = np.array([3.0, -1.0, 0.5, 2.0, 7.0])
    x, iters, res, _ = cg_solve(I5, b, **start(I5))
    assert iters <= 1
    assert np.allclose(x, b, atol=1e-14)


def test_cg_2x2_hand_solution():
    A = dense_2x2(4, 1, 1, 3)
    x = cg_solve(A, np.array([1.0, 2.0]), **start(A)).x
    assert np.allclose(x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-12)


def test_cg_zero_rhs_returns_zero():
    A = dense_2x2(4, 1, 1, 3)
    x, iters, res, r = cg_solve(A, np.zeros(2), **start(A))
    assert iters == 0 and res == 0.0
    assert np.all(x == 0.0) and np.all(r == 0.0)


def test_cg_step_system_matches_dense_oracle():
    # (M + tau*D*K) on the n_div=4 mesh against Gaussian elimination
    mesh = build_mesh(4)
    A = step_matrix(mesh, D=0.02, tau=0.01)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(mesh.n_vertices)
    x, iters, _, _ = cg_solve(A, b, rel_tol=1e-12, **start(A))
    oracle = np.linalg.solve(A.toarray(), b)
    assert np.max(np.abs(x - oracle)) <= 1e-8
    assert iters <= 10 * mesh.n_vertices


@pytest.mark.parametrize("n_div", [1, 2, 3, 4, 5, 6])
def test_cg_agrees_with_dense_oracle_on_every_small_mesh(n_div):
    # right-hand sides of the per-step form b = M y, as produced by stepping
    mesh = build_mesh(n_div)
    M = assemble_mass(mesh)
    A = step_matrix(mesh, D=0.01, tau=0.01)
    rng = np.random.default_rng(n_div)
    b = M.dot(rng.standard_normal(mesh.n_vertices))
    x, iters, res, _ = cg_solve(A, b, rel_tol=1e-10, max_iters=10 * mesh.n_vertices,
                                **start(A))
    assert np.max(np.abs(x - np.linalg.solve(A.toarray(), b))) <= 1e-8
    assert res <= 1e-10 * np.linalg.norm(b)


def test_cg_jacobi_preconditioning():
    # CG on the Jacobi-scaled system S A S x = S b gives y = S x, the solution
    # of A y = b, in fewer iterations than CG on A
    mesh = build_mesh(6)
    A = step_matrix(mesh, D=0.5, tau=0.1)
    s, SAS = A.jacobi_scaled()
    rng = np.random.default_rng(3)
    b = rng.standard_normal(mesh.n_vertices)
    plain = cg_solve(A, b, rel_tol=1e-11, **start(A))
    scaled = cg_solve(SAS, s * b, rel_tol=1e-11, **start(A))
    assert np.allclose(plain.x, s * scaled.x, atol=1e-9)
    assert scaled.iters < plain.iters


def test_cg_warm_start_converges_immediately_at_solution():
    A = dense_2x2(4, 1, 1, 3)
    exact = np.array([1.0 / 11.0, 7.0 / 11.0])
    b = np.array([1.0, 2.0])
    x, iters, _, r = cg_solve(A, b, **start(A, exact))
    assert iters == 0
    assert np.allclose(x, exact)
    assert r.tobytes() == (b - A.dot(exact)).tobytes()   # the start residual, computed


@pytest.mark.parametrize("x0", ["zero", "random"])
def test_cg_returns_its_final_residual_vector(x0):
    # r is the residual the iteration updated: its norm is the reported one,
    # bit for bit, and it stays within rounding of the recomputed b - A x
    mesh = build_mesh(6)
    s, A = step_matrix(mesh, D=0.02, tau=0.01).jacobi_scaled()
    rng = np.random.default_rng(11)
    b, start_x = rng.standard_normal((2, mesh.n_vertices))
    x, iters, res, r = cg_solve(A, b, rel_tol=1e-10,
                                **start(A, None if x0 == "zero" else start_x))
    assert iters > 0 and res <= 1e-10 * np.linalg.norm(b)
    assert res.hex() == math.sqrt(linalg.dot(r, r)).hex()
    assert np.linalg.norm(r - (b - A.dot(x))) <= 1e-14 * np.linalg.norm(b)


def test_cg_reports_nonconvergence_with_residual():
    A = dense_2x2(4, 1, 1, 3)
    with pytest.raises(ConvergenceError) as info:
        cg_solve(A, np.array([1.0, 2.0]), rel_tol=1e-15, max_iters=1, **start(A))
    assert info.value.iters == 1
    assert np.isfinite(info.value.residual)


def test_cg_rejects_nonfinite_rhs():
    # the non-finite norm of b sends cg_solve to its scan of b, which names the entries
    A = dense_2x2(4, 1, 1, 3)
    for b in ([np.nan, 1.0], [1.0, np.inf], [-np.inf, 1.0], [np.inf, -np.inf]):
        with pytest.raises(ConvergenceError,
                           match="^right-hand side contains non-finite entries$") as info:
            cg_solve(A, np.array(b), **start(A))
        assert info.value.iters == 0
        assert np.isnan(info.value.residual)


def test_cg_rhs_length_mismatch():
    A = dense_2x2(4, 1, 1, 3)
    with pytest.raises(ValueError):
        cg_solve(A, np.ones(3), **start(A))


def campaign_step_matrix(n_div):
    """The exp1-64 step matrix M + tau*D*K at n_div cells per side, with its mass matrix."""
    cfg = make_experiment(1, devices=64)
    problem = assemble(replace(cfg, scheme=replace(cfg.scheme, n_div=n_div))).problem
    return problem.step_matrix, problem.mass


@pytest.mark.parametrize("n_div", [20, 40])
def test_cg_jacobi_meets_tolerance_in_fewer_iterations(n_div):
    # plain CG on S A S meets its tolerance on the scaled residual in fewer
    # iterations than plain CG on A
    A, M = campaign_step_matrix(n_div)
    s, SAS = A.jacobi_scaled()
    rng = np.random.default_rng(100 + n_div)
    n = A.n_rows
    for b, x0 in ((rng.standard_normal(n), np.zeros(n)),
                  (M.dot(rng.standard_normal(n)), rng.standard_normal(n))):
        rel_tol = 1e-10
        plain = cg_solve(A, b, rel_tol=rel_tol, x0=x0)
        scaled = cg_solve(SAS, s * b, rel_tol=rel_tol, x0=x0 / s)
        y = s * scaled.x
        assert np.linalg.norm(s * (b - A.dot(y))) <= rel_tol * np.linalg.norm(s * b)
        if n_div == 40:
            assert scaled.iters < plain.iters


def test_problem_rejects_step_matrix_without_positive_diagonal():
    # at n_div=16 each of the 64 discs holds its centre vertex
    cfg = make_experiment(1, devices=64)
    problem = assemble(replace(cfg, scheme=replace(cfg.scheme, n_div=16))).problem
    A = problem.step_matrix
    assert np.array_equal(problem.step_scale, 1.0 / np.sqrt(np.diag(A.toarray())))
    with pytest.raises(ValueError, match="read-only"):
        problem.step_scale[0] = 1.0
    for factor in (1.0, 2.0):   # one zero, then one negative diagonal entry
        shift = np.zeros(A.n_rows)
        shift[5] = factor * A.toarray()[5, 5]
        bands = np.array(A.bands)
        bands[list(A.offsets).index(0)] -= shift
        bad = CsrMatrix.banded(bands, A.offsets)
        assert np.array_equal(bad.toarray(), A.toarray() - np.diag(shift))
        with pytest.raises(ValueError, match="^the matrix needs a positive diagonal"):
            replace(problem, step_matrix=bad)
    # a diagonal matrix is banded on other diagonals than A: no sum of bands
    with pytest.raises(ValueError, match="two banded matrices on the same diagonals"):
        A.scaled_add(-1.0, CsrMatrix.banded(shift[None, :], [0]))


@pytest.mark.parametrize("n_div", [2, 3, 4, 5, 6])
def test_problem_solves_on_the_jacobi_scaled_step_matrix(n_div):
    # device-free: on these coarse meshes the 64 discs fall between vertices
    cfg = make_experiment(1, devices=64)
    cfg = replace(cfg, layout=ExplicitLayout((), cfg.r_sigma), beta=(), kappa0=(),
                  scheme=replace(cfg.scheme, n_div=n_div))
    problem = assemble(cfg).problem
    A, s, SAS = problem.step_matrix, problem.step_scale, problem.scaled_step_matrix
    dense = np.outer(s, s) * A.toarray()   # each entry times s_i * s_j
    assert np.array_equal(SAS.toarray(), dense)
    assert np.array_equal(dense, dense.T)
    # banded as A, with the slots outside the matrix zero and read-only arrays
    assert SAS.bands is not None and np.array_equal(SAS.offsets, A.offsets)
    assert SAS.nnz == A.nnz
    cols = np.arange(SAS.bands.shape[1])
    rows = cols - SAS.offsets[:, None]
    assert np.all(SAS.bands[(rows < 0) | (rows >= A.n_rows)] == 0.0)
    for a in (SAS.bands, SAS.offsets):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    # only a banded matrix scales
    with pytest.raises(ValueError, match="^jacobi_scaled needs a banded matrix$"):
        csr(A).jacobi_scaled()
    # y = s * x of a scaled solve meets the unscaled system up to the spread of s
    d = np.diag(A.toarray())
    rng = np.random.default_rng(n_div)
    for tol in (1e-6, 1e-10):
        b = problem.mass.dot(rng.standard_normal(A.n_rows))
        x = cg_solve(SAS, s * b, rel_tol=tol, **start(A)).x
        assert np.linalg.norm(b - A.dot(s * x)) <= np.sqrt(d.max() / d.min()) * tol * np.linalg.norm(b)


@pytest.mark.parametrize("n_div", [1, 2, 5, 40])
def test_jacobi_scaled_is_scipys_scaling(n_div):
    # s = 1 / sqrt(diag(A)) and S A S on M, K and the step matrix.  Each entry
    # is a_ij * (s_i * s_j), scipy's entrywise product with the outer product
    # of s, bit for bit, and so bitwise symmetric; scipy's diags(s) @ A @
    # diags(s) rounds (s_i * a_ij) * s_j instead, within two ulps of it
    mesh = build_mesh(n_div)
    M, K = assemble_mass(mesh), assemble_stiffness(mesh)
    for A in (M, K, M.scaled_add(0.02 * 0.02, K)):
        ref = as_scipy(A)
        s, SAS = A.jacobi_scaled()
        assert_same_bits(s, 1.0 / np.sqrt(ref.diagonal()))
        with pytest.raises(ValueError, match="read-only"):
            s[0] = 1.0
        assert np.array_equal(SAS.offsets, A.offsets) and SAS.nnz == A.nnz
        dense = SAS.toarray()
        assert_same_bits(dense, ref.multiply(np.outer(s, s)).toarray())
        assert_same_bits(dense, dense.T)
        product = (sp.diags(s) @ ref @ sp.diags(s)).toarray()
        assert np.all(np.abs(dense - product) <= 2 * np.spacing(np.abs(product)))


def test_jacobi_scaled_needs_a_banded_matrix_with_a_positive_diagonal():
    M = assemble_mass(build_mesh(3))
    with pytest.raises(ValueError, match="^jacobi_scaled needs a banded matrix$"):
        csr(M).jacobi_scaled()
    main = list(M.offsets).index(0)
    bad = [CsrMatrix.banded(np.delete(M.bands, main, axis=0), np.delete(M.offsets, main))]
    for value in (0.0, -1.0, np.nan):   # one zero, negative or NaN diagonal entry
        bands = np.array(M.bands)
        bands[main, 7] = value
        bad.append(CsrMatrix.banded(bands, M.offsets))
    for A in bad:
        with pytest.raises(ValueError,
                           match=r"^the matrix needs a positive diagonal \(it must be SPD\)$"):
            A.jacobi_scaled()


@pytest.mark.parametrize("n_div", [1, 4, 40])
def test_banded_matvec_equals_csr_bitwise(n_div):
    mesh = build_mesh(n_div)
    M, K = assemble_mass(mesh), assemble_stiffness(mesh)
    A = M.scaled_add(0.02 * 0.02, K)
    rng = np.random.default_rng(n_div)
    for matrix in (M, K, A):
        # the CSR form of the dense matrix sums each row in column order, as
        # the banded product does; a stored zero adds only a zero term
        reference = sp.csr_matrix(matrix.toarray())
        assert reference.nnz == matrix.nnz
        for x in (rng.standard_normal(matrix.n_cols), np.ones(matrix.n_cols)):
            assert np.array_equal(matrix.dot(x), reference @ x)
        assert matrix.bands is not None and matrix.indptr is None
        assert len(matrix.offsets) == 7


def test_assembly_stores_each_operator_once_read_only():
    # the mesh operators keep their 7 bands, the device operators are CSR;
    # each holds the arrays of its one form, all read-only, and no scipy matrix
    cfg = make_experiment(1, devices=64)
    cfg = replace(cfg, scheme=replace(cfg.scheme, n_div=16))
    problem = assemble(cfg).problem
    indicators = disc_indicators(problem.mesh, cfg.layout.centers, cfg.r_sigma)
    for A, banded in ((problem.mass, True), (problem.stiffness, True),
                      (problem.step_matrix, True), (indicators, False),
                      (problem.device_mass, False)):
        assert not any(sp.issparse(v) for v in vars(A).values())
        if banded:
            arrays, unused = (A.bands, A.offsets), (A.indptr, A.indices, A.data)
        else:
            arrays, unused = (A.data, A.indices, A.indptr), (A.bands, A.offsets)
            assert A.indptr.dtype == A.indices.dtype == np.int32
            assert as_scipy(A).has_canonical_format   # sorted, no duplicates
        assert all(a is None for a in unused)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        assert A.nnz == np.count_nonzero(A.toarray())


@pytest.mark.parametrize("n_div, nnz", [(40, 11441), (60, 25561)])
def test_nnz_counts_the_nonzero_entries_of_the_step_matrix(n_div, nnz):
    # scipy's DIA nnz also counts the in-bounds stored zeros: 11599 and 25799
    A = step_matrix(build_mesh(n_div), D=0.02, tau=0.02)
    assert A.nnz == nnz == as_scipy(A).count_nonzero()
    assert as_scipy(A).nnz == {40: 11599, 60: 25799}[n_div]


def test_dia_input_gives_banded_vector_products():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((3, 6))
    data[1, 2] = 0.0   # a stored zero: the CSR form drops it
    A = CsrMatrix.banded(data, [-2, 0, 3])
    assert (A.n_rows, A.n_cols) == (6, 6) and A.bands is not None
    assert A.nnz == np.count_nonzero(A.toarray()) == 4 + 6 + 3 - 1
    assert np.array_equal(A.toarray(), sp.dia_matrix((data, [-2, 0, 3]), shape=(6, 6)).toarray())
    csr = sp.csr_matrix(A.toarray())
    x = rng.standard_normal(6)
    assert np.array_equal(A.dot(x), csr @ x)
    # decreasing offsets would add a row's terms out of column order, and the
    # matrix is square with one band per offset: any other input is rejected
    for offsets in ([3, 0, -2], [0, 0, 3], [[-2, 0, 3]]):
        with pytest.raises(ValueError, match="offsets must increase strictly"):
            CsrMatrix.banded(data, offsets)
    for bands in (data[:2], data[0], data[None]):
        with pytest.raises(ValueError, match=r"bands of shape \(.*\) do not fit 3 offsets$"):
            CsrMatrix.banded(bands, [-2, 0, 3])


def test_banded_dot_is_bitwise_the_scipy_product():
    # dot calls scipy's DIA kernel itself, on any operand numpy converts to
    # float64 (read-only, strided, float32, a list): the bits of `@`
    rng = np.random.default_rng(11)
    mats = []
    for n_div in (1, 4, 40):
        mesh = build_mesh(n_div)
        A = assemble_mass(mesh).scaled_add(0.02 * 0.02, assemble_stiffness(mesh))
        mats += [A, A.jacobi_scaled()[1]]
    given = []   # scipy matrices of the bands as given, slots outside the matrix too
    for offsets in ([-2, 0, 3], [-9, 0, 8]):
        data = rng.standard_normal((3, 6))
        mats.append(CsrMatrix.banded(data, offsets))
        given.append(sp.dia_matrix((data, offsets), shape=(6, 6)))
    for A, reference in zip(mats, [as_scipy(A) for A in mats[:6]] + given):
        assert A.bands is not None
        x = rng.standard_normal(A.n_cols)
        frozen = x.copy()
        frozen.setflags(write=False)
        strided = rng.standard_normal(2 * A.n_cols)[::2]
        for v in (x, frozen, strided, x.astype(np.float32), np.ones(A.n_cols)):
            assert np.array_equal(A.dot(v), reference @ v)
        assert np.array_equal(A.dot(x.tolist()), reference @ x)


def test_csr_input_gives_csr_vector_products():
    n = 50
    wide = csr(([1.0, 1.0] + [4.0] * n, ([0, n - 1] + list(range(n)), [n - 1, 0] + list(range(n)))),
               shape=(n, n))
    mass = assemble_mass(build_mesh(6))
    for A in (wide, csr(mass), identity(5)):
        assert A.bands is None
        x = np.arange(A.n_cols, dtype=float)
        assert np.array_equal(A.dot(x), sp.csr_matrix(A.toarray()) @ x)


@pytest.mark.parametrize("n_div", [1, 4, 40])
def test_scaled_add_of_banded_operators_is_banded_and_the_csr_sum(n_div):
    mesh = build_mesh(n_div)
    M, K = assemble_mass(mesh), assemble_stiffness(mesh)
    for factor in (0.02 * 0.02, 1.0, -3.0):
        want = as_scipy(M).tocsr() + factor * as_scipy(K).tocsr()
        A = M.scaled_add(factor, K)
        assert A.bands is not None
        got = as_scipy(A).tocsr()
        for a, b in ((got.data, want.data), (got.indices, want.indices),
                     (got.indptr, want.indptr)):
            assert a.tobytes() == b.tobytes()
    # a CSR operand, or a banded one of another size, has no bands to add
    for other in (csr(K), assemble_stiffness(build_mesh(n_div + 1))):
        with pytest.raises(ValueError, match="banded|dimensions"):
            M.scaled_add(1.0, other)


def test_cg_rejects_overflowing_rhs_norm():
    # every entry finite, but ||b||^2 overflows a double
    A = dense_2x2(4, 1, 1, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="norm of the right-hand side overflows") as info:
            cg_solve(A, np.array([1e160, 1e160]), **start(A))
    assert info.value.iters == 0 and info.value.residual == np.inf


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_toarray_is_scipys_dense_copy_bitwise():
    # from the bands or the CSR arrays themselves; a stored -0.0 reads +0.0
    rng = np.random.default_rng(13)
    mesh = build_mesh(6)
    mats = [assemble_mass(mesh), assemble_stiffness(mesh), step_matrix(mesh, D=0.02, tau=0.01)]
    data = rng.standard_normal((3, 6))
    data[1, 2] = -0.0
    mats.append(CsrMatrix.banded(data, [-2, 0, 3]))
    mats += [csr(RECT), disc_indicators(mesh, [(0.0, 0.0), (1.0, -1.0)], 0.5),
             CsrMatrix((2, 3), indptr=np.array([0, 2, 3], dtype=np.int32),
                       indices=np.array([0, 2, 1], dtype=np.int32), data=np.array([-0.0, 2.0, 3.0]))]
    for A in mats:
        assert_same_bits(A.toarray(), as_scipy(A).toarray())
    assert not np.signbit(mats[-1].toarray()).any()


@pytest.mark.parametrize("n_div", [1, 2, 5, 40])
def test_operations_equal_scipy_bitwise(n_div):
    # every operator of a run against scipy's matrix of the same arrays: the
    # banded ones as DIA, the device operators as CSR, P also against scipy's
    # own product
    cfg = make_experiment(2)
    layout = ExplicitLayout(((-1.0, -1.0), (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)), 0.3)
    cfg = replace(cfg, layout=layout, r_sigma=0.3, beta=(1.0,) * 4, kappa0=(0.0,) * 4,
                  scheme=replace(cfg.scheme, n_div=n_div))
    problem = assemble(cfg).problem
    indicators = disc_indicators(problem.mesh, layout.centers, layout.radius)
    P = problem.device_mass
    want_P = as_scipy(indicators) @ as_scipy(problem.mass)   # csr @ dia
    want_P.sort_indices()
    assert want_P.has_canonical_format
    for a, b in ((P.indptr, want_P.indptr), (P.indices, want_P.indices), (P.data, want_P.data)):
        assert_same_bits(a, b)
    rng = np.random.default_rng(n_div)
    for A in (problem.mass, problem.stiffness, problem.step_matrix,
              problem.scaled_step_matrix, indicators, P):
        ref = as_scipy(A)
        assert ref.format == ("dia" if A.bands is not None else "csr")
        x = rng.standard_normal(A.n_cols)
        assert_same_bits(A.dot(x), ref @ x)
        assert_same_bits(A.toarray(), ref.toarray())
        assert A.nnz == ref.count_nonzero()
        # jacobi_scaled reads bands only, tdot CSR arrays only
        if A.bands is not None:
            assert_same_bits(A.jacobi_scaled()[0], 1.0 / np.sqrt(ref.diagonal()))
            with pytest.raises(ValueError, match="tdot needs a CSR matrix"):
                A.tdot(np.ones(A.n_rows))
        else:
            y = rng.standard_normal(A.n_rows)
            assert_same_bits(A.tdot(y), ref.T @ y)
            with pytest.raises(ValueError, match="jacobi_scaled needs a banded matrix"):
                A.jacobi_scaled()


def tdot_operators():
    """(name, CSR matrix) pairs: the indicators and P of the 64-device
    campaign at N=40, P of its device-free variant (J = 0) and a 2 x 3
    rectangle."""
    cfg = make_experiment(1, devices=64)
    cfg = replace(cfg, scheme=replace(cfg.scheme, n_div=40))
    problem = assemble(cfg).problem
    bare = replace(cfg, layout=ExplicitLayout((), cfg.r_sigma), beta=(), kappa0=())
    return [("indicators", disc_indicators(problem.mesh, cfg.layout.centers, cfg.r_sigma)),
            ("P", problem.device_mass), ("P, J=0", assemble(bare).problem.device_mass),
            ("rectangle", csr(RECT))]


def test_tdot_is_bitwise_the_scipy_transpose_product():
    # tdot runs scipy's CSC kernel on the stored arrays: the kernel of csr.T @ y
    rng = np.random.default_rng(21)
    for name, A in tdot_operators():
        ref = as_scipy(A).T
        for y in (rng.standard_normal(A.n_rows), np.ones(A.n_rows), np.zeros(A.n_rows)):
            got = A.tdot(y)
            assert got.shape == (A.n_cols,), name
            assert_same_bits(got, ref @ y)
        for y in (np.ones(A.n_rows + 1), np.ones((A.n_rows, 1)), np.ones(A.n_cols + 1)):
            with pytest.raises(ValueError, match=rf"^dimension mismatch: .* of {A.n_rows} columns$"):
                A.tdot(y)


def test_cg_checks_its_operands_once():
    A = dense_2x2(4, 1, 1, 3)
    for x0 in (np.zeros(3), np.zeros(1), np.zeros((2, 1))):
        with pytest.raises(ValueError, match=rf"^dimension mismatch: an operand of shape "
                                             rf"{re.escape(str(x0.shape))} for a matrix of 2 columns$"):
            cg_solve(A, np.ones(2), x0=x0)
    with pytest.raises(ValueError, match="needs a square matrix, got 2 x 3"):
        cg_solve(csr(RECT), np.ones(2), x0=np.zeros(3))


def test_dot_is_ndarray_dot_up_to_10000_values_and_blocked_above():
    rng = np.random.default_rng(8)
    for n in (0, 1, 9999, 10000):
        x, y = rng.standard_normal((2, n))
        assert linalg.dot(x, y).hex() == float(x.dot(y)).hex()
    for n in (10201, 20001):   # N=100 meshes have 10201 vertices
        x, y = rng.standard_normal((2, n))
        blocks = [float(x[i:i + 10000].dot(y[i:i + 10000])) for i in range(0, n, 10000)]
        total = blocks[0]
        for block in blocks[1:]:
            total += block
        assert linalg.dot(x, y).hex() == total.hex()
        assert linalg.dot(x, y) == pytest.approx(math.fsum(x * y), rel=1e-12)
    for m, n in ((3, 4), (20000, 25000), (25000, 20000)):
        with pytest.raises(ValueError):
            linalg.dot(np.ones(m), np.ones(n))


def test_row_dots_is_one_gemv_up_to_10000_columns_and_blocked_above():
    # the rows are strided, as picard_step's kept images are
    rng = np.random.default_rng(9)
    for k in (1, 2, 6):
        for n in (1, 9999, 10000):
            X = rng.standard_normal((k, 2 * n))[:, n:]
            y = rng.standard_normal(n)
            assert linalg.row_dots(X, y).tobytes() == (X @ y).tobytes()
        for n in (10201, 20001):   # N=100 meshes have 10201 vertices
            X = rng.standard_normal((k, 2 * n))[:, n:]
            y = rng.standard_normal(n)
            total = X[:, :10000] @ y[:10000]
            for i in range(10000, n, 10000):
                total += X[:, i:i + 10000] @ y[i:i + 10000]
            assert linalg.row_dots(X, y).tobytes() == total.tobytes()
            assert linalg.row_dots(X, y) == pytest.approx([math.fsum(row * y) for row in X],
                                                          rel=1e-12)
    for n, m in ((3, 4), (20000, 25000), (25000, 20000)):
        with pytest.raises(ValueError):
            linalg.row_dots(np.ones((2, n)), np.ones(m))


class RecordingKernels:
    """Stands in for linalg's kernel module and records the names looked up on it."""

    def __init__(self, kernels):
        self.kernels, self.names = kernels, set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self.kernels, name)


# the compiled kernels linalg calls; the CI floor job's comment lists them too
KERNELS = {"dia_matvec", "csr_matvec", "csc_matvec"}


def test_assembly_and_run_call_exactly_the_three_kernels(monkeypatch):
    recorder = RecordingKernels(linalg._kernels)
    monkeypatch.setattr(linalg, "_kernels", recorder)
    cfg = make_experiment(1, devices=64)
    cfg = replace(cfg, T=0.1, scheme=replace(cfg.scheme, n_div=16, n_steps=5))
    out = run_experiment(cfg)
    assert out.final_state.step_index == 5 and np.isfinite(out.final_state.y.values).all()
    assert recorder.names == KERNELS
    # the comment on the dependency-floor CI job names the same kernels
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    comment = re.search(r"_sparsetools \(([^)]*)\)", workflow.read_text())
    assert set(re.split(r"[,\s#]+", comment.group(1))) - {""} == KERNELS
