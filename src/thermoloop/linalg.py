"""Sparse symmetric-positive-definite linear algebra: banded or CSR storage
and Jacobi-preconditioned conjugate gradients."""

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
    """Sparse matrix stored in one scipy format, immutable once built.

    A DIA (banded) input with strictly increasing diagonal offsets, such as
    the mesh operators' 7 diagonals, stays banded.  DIA adds the diagonals
    in increasing offset order, which is each row's column order, so for
    finite operands its products equal the CSR ones up to the sign of zero
    (an in-bounds stored zero adds only a zero term).  Every other input is
    stored as CSR, duplicates summed and column indices sorted within each
    row.  ``nnz`` counts the nonzero entries, not DIA's stored zeros.
    ``tag`` carries provenance (e.g. the owning mesh key) for cheap
    compatibility checks.
    """

    def __init__(self, matrix, tag: Hashable = None):
        if matrix.format == "dia" and np.all(np.diff(matrix.offsets) > 0):
            stored = sp.dia_matrix((np.asarray(matrix.data, dtype=np.float64), matrix.offsets),
                                   shape=matrix.shape)
            arrays = (stored.data, stored.offsets)
        else:
            stored = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
            stored.sum_duplicates()   # also sorts each row's column indices
            arrays = (stored.data, stored.indices, stored.indptr)
        for a in arrays:
            a.setflags(write=False)
        self._matrix = stored
        self.n_rows, self.n_cols = stored.shape
        self.nnz = int(stored.count_nonzero())
        self.tag = tag

    @property
    def values(self) -> np.ndarray:
        """The nonzero entries row by row, in column order within each row."""
        return self._matrix.tocsr().data

    @classmethod
    def from_coo(cls, rows, cols, vals, shape, tag: Hashable = None) -> "CsrMatrix":
        """Build from coordinate triplets; duplicate entries are summed."""
        return cls(sp.coo_matrix((vals, (rows, cols)), shape=shape), tag=tag)

    def dot(self, x: np.ndarray) -> np.ndarray:
        return self._matrix @ x

    def matmul(self, other: "CsrMatrix") -> "CsrMatrix":
        """Sparse product self @ other, as a new matrix."""
        if self.n_cols != other.n_rows:
            raise ValueError("inner matrix dimensions do not match")
        return CsrMatrix(self._matrix @ other._matrix, tag=self.tag)

    def transpose(self) -> "CsrMatrix":
        return CsrMatrix(self._matrix.T, tag=self.tag)

    def diagonal(self) -> np.ndarray:
        return self._matrix.diagonal()

    def toarray(self) -> np.ndarray:
        return self._matrix.toarray()

    def scaled_add(self, factor: float, other: "CsrMatrix") -> "CsrMatrix":
        """self + factor * other, as a new matrix.  Two banded matrices on the
        same diagonals add their bands, bitwise the CSR sum."""
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ValueError("matrix dimensions do not match")
        a, b = self._matrix, other._matrix
        if (a.format == b.format == "dia" and np.array_equal(a.offsets, b.offsets)
                and a.data.shape == b.data.shape):
            return CsrMatrix(sp.dia_matrix((a.data + factor * b.data, a.offsets), shape=a.shape),
                             tag=self.tag)
        return CsrMatrix(a + factor * b, tag=self.tag)


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
