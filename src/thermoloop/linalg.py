"""Sparse symmetric-positive-definite linear algebra: CSR storage and
Jacobi-preconditioned conjugate gradients."""

from __future__ import annotations

import math
from typing import Hashable, NamedTuple

import numpy as np
import scipy.sparse as sp


class ConvergenceError(RuntimeError):
    """Conjugate gradient failed to reach the requested tolerance."""

    def __init__(self, message: str, iters: int, residual: float):
        super().__init__(message)
        self.iters = iters
        self.residual = residual


class CsrMatrix:
    """Compressed-sparse-row matrix, immutable once built.

    Stores the standard (row_offsets, col_indices, values) triple with
    column indices sorted within each row.  An optional ``symmetric`` flag
    records that the matrix is meant to be symmetric; ``tag`` carries
    provenance (e.g. the owning mesh key) for cheap compatibility checks.
    """

    def __init__(self, n_rows: int, n_cols: int, row_offsets: np.ndarray,
                 col_indices: np.ndarray, values: np.ndarray,
                 symmetric: bool = False, tag: Hashable = None):
        handle = sp.csr_matrix((np.asarray(values, dtype=np.float64),
                                np.asarray(col_indices),
                                np.asarray(row_offsets)), shape=(n_rows, n_cols))
        handle.sort_indices()
        handle.data.setflags(write=False)
        handle.indices.setflags(write=False)
        handle.indptr.setflags(write=False)
        self._handle = handle
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.symmetric = bool(symmetric)
        self.tag = tag

    @property
    def row_offsets(self) -> np.ndarray:
        return self._handle.indptr

    @property
    def col_indices(self) -> np.ndarray:
        return self._handle.indices

    @property
    def values(self) -> np.ndarray:
        return self._handle.data

    @property
    def nnz(self) -> int:
        return self._handle.nnz

    @classmethod
    def from_scipy(cls, matrix, symmetric: bool = False, tag: Hashable = None) -> "CsrMatrix":
        m = matrix.tocsr()
        return cls(m.shape[0], m.shape[1], m.indptr, m.indices, m.data,
                   symmetric=symmetric, tag=tag)

    @classmethod
    def from_coo(cls, rows, cols, vals, shape, symmetric: bool = False,
                 tag: Hashable = None) -> "CsrMatrix":
        """Build from coordinate triplets; duplicate entries are summed."""
        m = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
        m.sum_duplicates()
        return cls.from_scipy(m, symmetric=symmetric, tag=tag)

    @classmethod
    def identity(cls, n: int, tag: Hashable = None) -> "CsrMatrix":
        return cls.from_scipy(sp.identity(n, format="csr"), symmetric=True, tag=tag)

    def dot(self, x: np.ndarray) -> np.ndarray:
        return self._handle @ x

    def matmul(self, other: "CsrMatrix") -> "CsrMatrix":
        """Sparse product self @ other, as a new matrix."""
        if self.n_cols != other.n_rows:
            raise ValueError("inner matrix dimensions do not match")
        return CsrMatrix.from_scipy(self._handle @ other._handle, tag=self.tag)

    def transpose(self) -> "CsrMatrix":
        return CsrMatrix.from_scipy(self._handle.T, symmetric=self.symmetric, tag=self.tag)

    def diagonal(self) -> np.ndarray:
        return self._handle.diagonal()

    def toarray(self) -> np.ndarray:
        return self._handle.toarray()

    def scaled_add(self, factor: float, other: "CsrMatrix",
                   symmetric: bool | None = None, tag: Hashable = None) -> "CsrMatrix":
        """self + factor * other, as a new matrix."""
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ValueError("matrix dimensions do not match")
        if symmetric is None:
            symmetric = self.symmetric and other.symmetric
        return CsrMatrix.from_scipy(self._handle + factor * other._handle,
                                    symmetric=symmetric,
                                    tag=self.tag if tag is None else tag)

    def validate(self, rel_tol: float = 1e-12) -> None:
        """Check the CSR structural invariants; raises ValueError on failure."""
        off = self.row_offsets
        if len(off) != self.n_rows + 1 or off[0] != 0 or off[-1] != len(self.values):
            raise ValueError("row_offsets inconsistent with value count")
        if np.any(np.diff(off) < 0):
            raise ValueError("row_offsets not monotone nondecreasing")
        cols = self.col_indices
        if len(cols) and (cols.min() < 0 or cols.max() >= self.n_cols):
            raise ValueError("column index out of range")
        for i in range(self.n_rows):
            row_cols = cols[off[i]:off[i + 1]]
            if np.any(np.diff(row_cols) <= 0):
                raise ValueError(f"column indices in row {i} not strictly increasing")
        if self.symmetric:
            diff = (self._handle - self._handle.T).tocoo()
            scale = max(np.abs(self.values).max(), 1.0) if self.nnz else 1.0
            if diff.nnz and np.abs(diff.data).max() > rel_tol * scale:
                raise ValueError("matrix flagged symmetric is not symmetric")


def spmv(A: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product A @ x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.n_cols,):
        raise ValueError(f"vector length {x.shape} does not match {A.n_cols} columns")
    return A.dot(x)


class CgResult(NamedTuple):
    x: np.ndarray
    iters: int
    residual: float


def cg_solve(A: CsrMatrix, b: np.ndarray, rel_tol: float = 1e-10,
             max_iters: int | None = None, inv_diag: np.ndarray | None = None,
             x0: np.ndarray | None = None) -> CgResult:
    """Conjugate gradients for symmetric positive definite A, optionally
    Jacobi-preconditioned.

    Stops when ||b - A x||_2 <= rel_tol * ||b||_2.  A zero right-hand side
    returns x = 0 immediately.  ``inv_diag`` is the Jacobi (diagonal)
    preconditioner given as 1 / diag(A); None runs plain CG.  ``x0`` is an
    optional warm-start guess.

    The iteration works in place with one scratch vector and computes
    r^T r once per iteration; its square root is the residual norm.

    Raises ConvergenceError after ``max_iters`` (default 10 * n) iterations
    and on non-finite values in the right-hand side or the iterates.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.n_rows,):
        raise ValueError(f"rhs length {b.shape} does not match {A.n_rows} rows")
    if inv_diag is not None and inv_diag.shape != b.shape:
        raise ValueError(f"inverse diagonal length {inv_diag.shape} does not match {b.shape}")
    if not np.isfinite(b).all():
        raise ConvergenceError("right-hand side contains non-finite entries", 0, float("nan"))
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

    scratch = np.empty_like(b)
    rr = float(r @ r)
    if inv_diag is None:
        p = r.copy()
        rz = rr
    else:
        p = r * inv_diag
        rz = float(r @ p)
    res = math.sqrt(rr)   # bitwise equal to np.linalg.norm(r)

    for k in range(max_iters):
        if res <= threshold:
            return CgResult(x, k, res)
        Ap = A.dot(p)
        pAp = float(p @ Ap)
        if not np.isfinite(pAp) or pAp <= 0:
            raise ConvergenceError(
                f"breakdown at iteration {k}: p^T A p = {pAp} (matrix not SPD?)", k, res)
        alpha = rz / pAp
        x += np.multiply(p, alpha, out=scratch)
        Ap *= alpha
        r -= Ap
        rr = float(r @ r)
        if inv_diag is None:
            z = r
            rz_new = rr
        else:
            z = np.multiply(r, inv_diag, out=scratch)
            rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
        res = math.sqrt(rr)
        if not np.isfinite(res):
            raise ConvergenceError(f"non-finite residual at iteration {k + 1}", k + 1, res)

    if res <= threshold:
        return CgResult(x, max_iters, res)
    raise ConvergenceError(
        f"no convergence in {max_iters} iterations "
        f"(residual {res:.3e}, target {threshold:.3e})", max_iters, res)
