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

    Wraps a scipy sparse matrix (any format, copied to CSR with column
    indices sorted within each row); ``tag`` carries provenance (e.g. the
    owning mesh key) for cheap compatibility checks.

    A square matrix whose nonzeros lie on a few diagonals (the mesh
    operators: 7 diagonals) is multiplied by vectors in a banded DIA copy,
    built on its first 1-D product.  DIA adds the diagonals in increasing
    offset order, which is each row's column order, so for a finite vector
    the product equals the CSR one up to the sign of zero (the band's
    padding adds zeros).  2-D operands and every other matrix use CSR.
    """

    def __init__(self, matrix, tag: Hashable = None):
        m = matrix.tocsr()
        handle = sp.csr_matrix((np.asarray(m.data, dtype=np.float64), m.indices, m.indptr),
                               shape=m.shape)
        handle.sort_indices()
        handle.data.setflags(write=False)
        handle.indices.setflags(write=False)
        handle.indptr.setflags(write=False)
        self._handle = handle
        self.n_rows, self.n_cols = handle.shape
        self.tag = tag
        self._vector_handle = None   # the handle of 1-D products, built lazily

    @property
    def values(self) -> np.ndarray:
        return self._handle.data

    @property
    def nnz(self) -> int:
        return self._handle.nnz

    @classmethod
    def from_coo(cls, rows, cols, vals, shape, tag: Hashable = None) -> "CsrMatrix":
        """Build from coordinate triplets; duplicate entries are summed."""
        m = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
        m.sum_duplicates()
        return cls(m, tag=tag)

    def dot(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 1:
            return self._handle @ x
        handle = self._vector_handle
        if handle is None:
            handle = self._vector_handle = self._banded_or_csr()
        return handle @ x

    def _banded_or_csr(self):
        """A DIA copy when the matrix is square, its diagonal offsets come
        out strictly increasing and the band stores at most 2 * nnz values;
        the CSR handle otherwise."""
        csr = self._handle
        if self.n_rows != self.n_cols or not self.nnz:
            return csr
        rows = np.repeat(np.arange(self.n_rows), np.diff(csr.indptr))
        n_diagonals = len(np.unique(csr.indices - rows))
        if n_diagonals * self.n_cols > 2 * self.nnz:   # checked before todia allocates
            return csr
        dia = csr.todia()
        if not np.all(np.diff(dia.offsets) > 0):
            return csr
        dia.data.setflags(write=False)
        return dia

    def matmul(self, other: "CsrMatrix") -> "CsrMatrix":
        """Sparse product self @ other, as a new matrix."""
        if self.n_cols != other.n_rows:
            raise ValueError("inner matrix dimensions do not match")
        return CsrMatrix(self._handle @ other._handle, tag=self.tag)

    def transpose(self) -> "CsrMatrix":
        return CsrMatrix(self._handle.T, tag=self.tag)

    def diagonal(self) -> np.ndarray:
        return self._handle.diagonal()

    def toarray(self) -> np.ndarray:
        return self._handle.toarray()

    def scaled_add(self, factor: float, other: "CsrMatrix") -> "CsrMatrix":
        """self + factor * other, as a new matrix."""
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ValueError("matrix dimensions do not match")
        return CsrMatrix(self._handle + factor * other._handle, tag=self.tag)


class CgResult(NamedTuple):
    x: np.ndarray
    iters: int
    residual: float


def cg_solve(A: CsrMatrix, b: np.ndarray, *, inv_diag: np.ndarray, x0: np.ndarray,
             rel_tol: float = 1e-10, max_iters: int | None = None) -> CgResult:
    """Conjugate gradients for symmetric positive definite A, started from
    ``x0`` and preconditioned by ``inv_diag`` = 1 / diag(A) (Jacobi).

    Stops when ||b - A x||_2 <= rel_tol * ||b||_2.  A zero right-hand side
    returns x = 0 immediately.

    The iteration works in place with one scratch vector and computes
    r^T r once per iteration; its square root is the residual norm.

    Raises ConvergenceError after ``max_iters`` (default 10 * n) iterations,
    and where a non-finite value shows (input is not scanned up front):
    - a NaN or inf in ``b``: "right-hand side contains non-finite entries",
      ``iters`` 0, ``residual`` NaN;
    - a finite ``b`` with an overflowing norm: "the norm of the right-hand
      side overflows", ``iters`` 0, ``residual`` inf;
    - a non-finite ``x0`` or ``inv_diag``, or a value arising later:
      "breakdown at iteration k" or "non-finite residual at iteration k".
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.n_rows,):
        raise ValueError(f"rhs length {b.shape} does not match {A.n_rows} rows")
    if inv_diag.shape != b.shape:
        raise ValueError(f"inverse diagonal length {inv_diag.shape} does not match {b.shape}")
    if max_iters is None:
        max_iters = 10 * A.n_rows

    with np.errstate(over="ignore"):
        b_norm = math.sqrt(float(b @ b))   # bitwise equal to np.linalg.norm(b)
    if not math.isfinite(b_norm):   # b @ b is non-finite for any non-finite entry
        if not np.isfinite(b).all():
            raise ConvergenceError("right-hand side contains non-finite entries", 0, float("nan"))
        raise ConvergenceError("the norm of the right-hand side overflows", 0, b_norm)
    if b_norm == 0.0:
        return CgResult(np.zeros_like(b), 0, 0.0)
    threshold = rel_tol * b_norm

    x = np.array(x0, dtype=np.float64)
    r = b - A.dot(x)
    scratch = np.empty_like(b)
    rr = float(r @ r)
    p = r * inv_diag
    rz = float(r @ p)
    res = math.sqrt(rr)   # bitwise equal to np.linalg.norm(r)

    for k in range(max_iters):
        if res <= threshold:
            return CgResult(x, k, res)
        Ap = A.dot(p)
        pAp = float(p @ Ap)
        if not math.isfinite(pAp) or pAp <= 0:
            raise ConvergenceError(
                f"breakdown at iteration {k}: p^T A p = {pAp} (matrix not SPD?)", k, res)
        alpha = rz / pAp
        x += np.multiply(p, alpha, out=scratch)
        Ap *= alpha
        r -= Ap
        rr = float(r @ r)
        z = np.multiply(r, inv_diag, out=scratch)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
        res = math.sqrt(rr)
        if not math.isfinite(res):
            raise ConvergenceError(f"non-finite residual at iteration {k + 1}", k + 1, res)

    if res <= threshold:
        return CgResult(x, max_iters, res)
    raise ConvergenceError(
        f"no convergence in {max_iters} iterations "
        f"(residual {res:.3e}, target {threshold:.3e})", max_iters, res)
