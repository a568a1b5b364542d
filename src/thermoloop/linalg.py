"""Sparse symmetric-positive-definite linear algebra: banded or CSR storage,
symmetric diagonal scaling and conjugate gradients."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import dia_matvec   # private: the kernel `@` ends in


class ConvergenceError(RuntimeError):
    """Conjugate gradient failed to reach the requested tolerance."""

    def __init__(self, message: str, iters: int, residual: float):
        super().__init__(message)
        self.iters = iters
        self.residual = residual


def _bands(dia) -> list[tuple[int, int, int, int]]:
    """(k, offset, lo, hi) per diagonal k of a DIA matrix: its column j holds
    entry (j - offset, j), inside the matrix for lo <= j < hi."""
    n_rows, n_cols = dia.shape
    return [(k, offset, max(offset, 0),
             max(offset, 0, min(n_cols, n_rows + offset, dia.data.shape[1])))
            for k, offset in enumerate(dia.offsets.tolist())]


class CsrMatrix:
    """Sparse matrix stored in one scipy format, immutable once built.

    A DIA (banded) input with strictly increasing diagonal offsets, such as
    the mesh operators' 7 diagonals, stays banded.  DIA adds the diagonals
    in increasing offset order, which is each row's column order, so for
    finite operands its products equal the CSR ones up to the sign of zero
    (an in-bounds stored zero adds only a zero term).  Every other input is
    stored as CSR, duplicates summed and column indices sorted within each
    row.  ``nnz`` counts the nonzero entries, not DIA's stored zeros.  A
    vector fits when its length is ``n_cols``; ``dot`` raises scipy's
    ValueError on any other.
    """

    def __init__(self, matrix):
        if matrix.format == "dia" and np.all(np.diff(matrix.offsets) > 0):
            stored = sp.dia_matrix((np.asarray(matrix.data, dtype=np.float64), matrix.offsets),
                                   shape=matrix.shape)
            arrays = (stored.data, stored.offsets)
            # per band, not scipy's count_nonzero, which masks every slot (90 us at n=3721)
            nnz = sum(np.count_nonzero(stored.data[k, lo:hi]) for k, _, lo, hi in _bands(stored))
        else:
            stored = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
            stored.sum_duplicates()   # also sorts each row's column indices
            arrays = (stored.data, stored.indices, stored.indptr)
            nnz = stored.count_nonzero()
        for a in arrays:
            a.setflags(write=False)
        self._matrix = stored
        self.n_rows, self.n_cols = stored.shape
        self.nnz = int(nnz)

    @property
    def values(self) -> np.ndarray:
        """The nonzero entries row by row, in column order within each row."""
        return self._matrix.tocsr().data

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "CsrMatrix":
        """Build from coordinate triplets; duplicate entries are summed."""
        return cls(sp.coo_matrix((vals, (rows, cols)), shape=shape))

    def dot(self, x: np.ndarray) -> np.ndarray:
        """self @ x.  A banded matrix times a contiguous float64 vector calls
        scipy's DIA kernel directly, into a zeroed vector as ``@`` does: the
        same bits, without the 5-7 us of dispatch ``@`` spends on each product
        (a CG iteration at n=3721 takes about 40 us)."""
        m, x = self._matrix, np.asarray(x)
        if (m.format == "dia" and x.shape == (self.n_cols,) and x.dtype == np.float64
                and x.flags.c_contiguous):
            y = np.zeros(self.n_rows)
            dia_matvec(self.n_rows, self.n_cols, len(m.offsets), m.data.shape[1],
                       m.offsets, m.data, x, y)
            return y
        return m @ x

    def matmul(self, other: "CsrMatrix") -> "CsrMatrix":
        """Sparse product self @ other, as a new matrix."""
        if self.n_cols != other.n_rows:
            raise ValueError("inner matrix dimensions do not match")
        return CsrMatrix(self._matrix @ other._matrix)

    def transpose(self) -> "CsrMatrix":
        return CsrMatrix(self._matrix.T)

    def diagonal(self) -> np.ndarray:
        return self._matrix.diagonal()

    def toarray(self) -> np.ndarray:
        return self._matrix.toarray()

    def scaled_add(self, factor: float, other: "CsrMatrix") -> "CsrMatrix":
        """self + factor * other, as a new matrix, of two banded matrices on
        the same diagonals: their bands add, bitwise the CSR sum.  Any other
        operand raises ValueError."""
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ValueError("matrix dimensions do not match")
        a, b = self._matrix, other._matrix
        if not (a.format == b.format == "dia" and np.array_equal(a.offsets, b.offsets)
                and a.data.shape == b.data.shape):
            raise ValueError("scaled_add needs two banded matrices on the same diagonals")
        return CsrMatrix(sp.dia_matrix((a.data + factor * b.data, a.offsets), shape=a.shape))

    def scaled_symmetric(self, s: np.ndarray) -> "CsrMatrix":
        """diag(s) @ self @ diag(s) of a square banded matrix, on the same
        diagonals; any other matrix raises ValueError.

        Entry (i, j) is multiplied by the product s_i * s_j, taken first, so
        a bitwise symmetric matrix stays bitwise symmetric.  DIA stores entry
        (j - offset, j) in column j; the slots outside the matrix stay zero.
        """
        s = np.asarray(s, dtype=np.float64)
        if self.n_rows != self.n_cols or s.shape != (self.n_rows,):
            raise ValueError(f"scale of shape {s.shape} does not fit a "
                             f"{self.n_rows} x {self.n_cols} matrix")
        m = self._matrix
        if m.format != "dia":
            raise ValueError("scaled_symmetric needs a banded matrix")
        data = np.zeros_like(m.data)
        for k, offset, lo, hi in _bands(m):
            data[k, lo:hi] = m.data[k, lo:hi] * (s[lo - offset:hi - offset] * s[lo:hi])
        return CsrMatrix(sp.dia_matrix((data, m.offsets), shape=m.shape))


class CgResult(NamedTuple):
    x: np.ndarray
    iters: int
    residual: float


def cg_solve(A: CsrMatrix, b: np.ndarray, *, x0: np.ndarray,
             rel_tol: float = 1e-10, max_iters: int | None = None) -> CgResult:
    """Conjugate gradients for symmetric positive definite A, started from ``x0``.

    The solver has no preconditioner: a caller that wants one scales the
    system instead (``CsrMatrix.scaled_symmetric``), which gives the same
    iterates as preconditioned CG with one dot product and one vector pass
    less per iteration.

    Stops when ||b - A x||_2 <= rel_tol * ||b||_2.  A zero right-hand side
    returns x = 0 immediately.

    The iteration works in place with one scratch vector and computes
    r^T r once per iteration; its square root is the residual norm.  Dot
    products go through ``ndarray.dot``: the same BLAS ddot as ``@``, with
    about 1 us less dispatch per call.

    Raises ConvergenceError after ``max_iters`` (default 10 * n) iterations,
    and where a non-finite value shows (input is not scanned up front):
    - a NaN or inf in ``b``: "right-hand side contains non-finite entries",
      ``iters`` 0, ``residual`` NaN;
    - a finite ``b`` with an overflowing norm: "the norm of the right-hand
      side overflows", ``iters`` 0, ``residual`` inf;
    - a non-finite ``x0``, or a value arising later: "breakdown at
      iteration k" or "non-finite residual at iteration k".
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.n_rows,):
        raise ValueError(f"rhs length {b.shape} does not match {A.n_rows} rows")
    if max_iters is None:
        max_iters = 10 * A.n_rows

    with np.errstate(over="ignore"):
        b_norm = math.sqrt(float(b.dot(b)))   # bitwise equal to np.linalg.norm(b)
    if not math.isfinite(b_norm):   # b.b is non-finite for any non-finite entry
        if not np.isfinite(b).all():
            raise ConvergenceError("right-hand side contains non-finite entries", 0, float("nan"))
        raise ConvergenceError("the norm of the right-hand side overflows", 0, b_norm)
    if b_norm == 0.0:
        return CgResult(np.zeros_like(b), 0, 0.0)
    threshold = rel_tol * b_norm

    x = np.array(x0, dtype=np.float64)
    r = b - A.dot(x)
    scratch = np.empty_like(b)
    p = r.copy()
    rr = float(r.dot(r))
    res = math.sqrt(rr)   # bitwise equal to np.linalg.norm(r)

    for k in range(max_iters):
        if res <= threshold:
            return CgResult(x, k, res)
        Ap = A.dot(p)
        pAp = float(p.dot(Ap))
        if not math.isfinite(pAp) or pAp <= 0:
            raise ConvergenceError(
                f"breakdown at iteration {k}: p^T A p = {pAp} (matrix not SPD?)", k, res)
        alpha = rr / pAp
        x += np.multiply(p, alpha, out=scratch)
        Ap *= alpha
        r -= Ap
        rr_new = float(r.dot(r))
        p *= rr_new / rr
        p += r
        rr = rr_new
        res = math.sqrt(rr)
        if not math.isfinite(res):
            raise ConvergenceError(f"non-finite residual at iteration {k + 1}", k + 1, res)

    if res <= threshold:
        return CgResult(x, max_iters, res)
    raise ConvergenceError(
        f"no convergence in {max_iters} iterations "
        f"(residual {res:.3e}, target {threshold:.3e})", max_iters, res)
