"""Sparse symmetric-positive-definite linear algebra: square banded or CSR
storage, Jacobi scaling and conjugate gradients.

The sparse operations run in scipy's compiled kernels, the private extension
``scipy.sparse._sparsetools``, loaded from its file alone: importing it
through ``scipy.sparse`` would load the whole package, about 20 MB of
resident memory, for three routines: the DIA, CSR and CSC matrix-vector
products."""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np


def _load_sparse_kernels():
    """The module ``scipy.sparse._sparsetools``, loaded without importing
    scipy or scipy.sparse and registered under its name, so that a later
    ``import scipy.sparse`` uses it too; one already loaded is reused."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")   # a top-level name: imports nothing
    if scipy is None or scipy.origin is None:
        raise ImportError("scipy is not installed: thermoloop needs its sparse kernels")
    base = Path(scipy.origin).parent / "sparse" / "_sparsetools"
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    for suffix in suffixes:
        path = base.with_name(base.name + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
            return module
    raise ImportError(f"scipy's sparse kernels not found: searched {base} "
                      f"with the suffixes {', '.join(suffixes)}")


_kernels = _load_sparse_kernels()


class ConvergenceError(RuntimeError):
    """Conjugate gradient failed to reach the requested tolerance."""

    def __init__(self, message: str, iters: int, residual: float):
        super().__init__(message)
        self.iters = iters
        self.residual = residual


def _band_slices(offsets: np.ndarray, n: int):
    """(k, offset, lo, hi) per band k of an n x n matrix: its column j holds
    entry (j - offset, j), inside the matrix for lo <= j < hi."""
    for k, offset in enumerate(offsets.tolist()):
        lo = max(offset, 0)
        yield k, offset, lo, max(lo, min(n, n + offset))


def _mismatch(shape, n_cols: int) -> ValueError:
    """The error for an operand of this shape to a matrix of n_cols columns."""
    return ValueError(f"dimension mismatch: an operand of shape {shape} "
                      f"for a matrix of {n_cols} columns")


class CsrMatrix:
    """Sparse float64 matrix, immutable once built, stored in one of two forms.

    A banded matrix (``banded``) is square: a mesh operator with its 7
    diagonals, or its Jacobi scaling (``jacobi_scaled``).  It keeps
    ``offsets`` (strictly increasing) and ``bands``: column j of ``bands[k]``
    holds entry (j - offsets[k], j), zero where that lies outside the
    matrix.  Its products add the diagonals in increasing offset order,
    which is each row's column order, so for finite operands they equal the
    CSR ones up to the sign of zero.  Every other matrix is
    canonical CSR: int32 ``indptr`` and ``indices``, float64 ``data``, column
    indices sorted within each row and no duplicates.  The constructor takes
    such arrays as they are; ``fem.disc_rows`` builds them from the bands
    of a mesh operator.  The arrays of the other form are None, and every
    stored array is read-only.  ``nnz`` counts the nonzero entries.  ``dot``
    takes a vector of ``n_cols`` values, ``tdot`` one of ``n_rows``; any
    other operand raises ValueError ("dimension mismatch").
    """

    def __init__(self, shape, *, offsets=None, bands=None, indptr=None, indices=None,
                 data=None):
        """Keep the given arrays, made read-only; ``banded`` checks and builds
        banded ones, CSR arrays must already be canonical."""
        self.n_rows, self.n_cols = shape
        self.offsets, self.bands = offsets, bands
        self.indptr, self.indices, self.data = indptr, indices, data
        for a in (offsets, bands, indptr, indices, data):
            if a is not None:
                a.setflags(write=False)
        self.nnz = int(np.count_nonzero(data if bands is None else bands))

    @classmethod
    def banded(cls, bands, offsets) -> "CsrMatrix":
        """The n x n matrix whose entry (j - offsets[k], j) is ``bands[k, j]``,
        for strictly increasing offsets and bands of shape (len(offsets), n).
        The bands are copied; their slots outside the matrix are set to zero."""
        offsets = np.array(offsets, dtype=np.int32)
        bands = np.array(bands, dtype=np.float64)
        if offsets.ndim != 1 or np.any(np.diff(offsets) <= 0):
            raise ValueError("band offsets must increase strictly")
        if bands.ndim != 2 or len(bands) != len(offsets):
            raise ValueError(f"bands of shape {bands.shape} do not fit {len(offsets)} offsets")
        n = bands.shape[1]
        for k, _, lo, hi in _band_slices(offsets, n):
            bands[k, :lo] = bands[k, hi:] = 0.0
        return cls((n, n), offsets=offsets, bands=bands)

    def dot(self, x: np.ndarray) -> np.ndarray:
        """self @ x, into a zeroed vector, for a vector x of n_cols values (a
        2-D x raises "dimension mismatch").  One call of scipy's DIA or CSR
        kernel: the bits of ``@``, without the 5-7 us of dispatch it spends on
        each product (a CG iteration at n=3721 takes about 40 us)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise _mismatch(x.shape, self.n_cols)
        return self._matvec(x)

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        """self @ x of a float64 vector of n_cols values."""
        y = np.zeros(self.n_rows)
        if self.bands is None:
            _kernels.csr_matvec(self.n_rows, self.n_cols, self.indptr, self.indices,
                                self.data, x, y)
        else:
            _kernels.dia_matvec(self.n_rows, self.n_cols, len(self.offsets), self.n_cols,
                                self.offsets, self.bands, x, y)
        return y

    def tdot(self, x: np.ndarray) -> np.ndarray:
        """self^T @ x of a CSR matrix, into a zeroed vector, for x of n_rows
        values; a banded matrix raises ValueError.  The stored arrays are the
        CSC arrays of self^T, so this is scipy's CSC kernel on them, the
        kernel of scipy's ``csr.T @ x``."""
        if self.bands is not None:
            raise ValueError("tdot needs a CSR matrix")
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_rows,):
            raise _mismatch(x.shape, self.n_rows)
        y = np.zeros(self.n_cols)
        _kernels.csc_matvec(self.n_cols, self.n_rows, self.indptr, self.indices, self.data,
                            x, y)
        return y

    def toarray(self) -> np.ndarray:
        """The dense matrix, as a new array: scipy's ``toarray`` bit for bit."""
        dense = np.zeros((self.n_rows, self.n_cols))
        if self.bands is None:
            dense[np.repeat(np.arange(self.n_rows), np.diff(self.indptr)), self.indices] = self.data
        else:
            for k, offset, lo, hi in _band_slices(self.offsets, self.n_rows):
                dense[np.arange(lo - offset, hi - offset), np.arange(lo, hi)] = self.bands[k, lo:hi]
        dense += 0.0   # a stored -0.0 reads +0.0, as in scipy's dense copy
        return dense

    def scaled_add(self, factor: float, other: "CsrMatrix") -> "CsrMatrix":
        """self + factor * other, as a new matrix, of two banded matrices on
        the same diagonals: their bands add, bitwise the CSR sum.  Any other
        operand raises ValueError."""
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ValueError("matrix dimensions do not match")
        if (self.bands is None or other.bands is None
                or not np.array_equal(self.offsets, other.offsets)):
            raise ValueError("scaled_add needs two banded matrices on the same diagonals")
        return CsrMatrix.banded(self.bands + factor * other.bands, self.offsets)

    def jacobi_scaled(self) -> tuple[np.ndarray, "CsrMatrix"]:
        """The Jacobi scaling (s, S A S) of a banded matrix A: the read-only
        scale s = 1 / sqrt(diag(A)) and, on A's diagonals, S A S for
        S = diag(s).  A CSR matrix raises ValueError, and so does a main
        diagonal that is missing or not positive (A is not SPD).

        Entry (i, j) is multiplied by the product s_i * s_j, taken first, so
        a bitwise symmetric matrix stays bitwise symmetric.
        """
        if self.bands is None:
            raise ValueError("jacobi_scaled needs a banded matrix")
        main = np.flatnonzero(self.offsets == 0)
        if not len(main) or not np.all(self.bands[main[0]] > 0):
            raise ValueError("the matrix needs a positive diagonal (it must be SPD)")
        s = 1.0 / np.sqrt(self.bands[main[0]])
        s.setflags(write=False)
        bands = np.zeros_like(self.bands)
        for k, offset, lo, hi in _band_slices(self.offsets, self.n_rows):
            bands[k, lo:hi] = self.bands[k, lo:hi] * (s[lo - offset:hi - offset] * s[lo:hi])
        return s, CsrMatrix((self.n_rows, self.n_rows), offsets=self.offsets, bands=bands)


# OpenBLAS splits a ddot of more than this many values over its threads, and
# each thread count adds the partial sums in another order
_DOT_BLOCK = 10000


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y of two float64 vectors, with bits that do not depend on the
    number of BLAS threads.  Up to 10000 values it is ``x.dot(y)``, one
    single-threaded ddot.  A longer product adds, left to right, the ddots
    of consecutive blocks of 10000 values (the last one shorter).  Vectors
    of different lengths raise ValueError."""
    n = len(x)
    if n <= _DOT_BLOCK:
        return float(x.dot(y))
    if len(y) != n:   # the blocks alone would drop the tail of a longer y
        raise ValueError(f"dot of vectors of {n} and {len(y)} values")
    total = float(x[:_DOT_BLOCK].dot(y[:_DOT_BLOCK]))
    for i in range(_DOT_BLOCK, n, _DOT_BLOCK):
        total += float(x[i:i + _DOT_BLOCK].dot(y[i:i + _DOT_BLOCK]))
    return total


def row_dots(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """X @ y of a (k, n) float64 matrix X, whose rows may be strided, and a
    vector y of n values, with bits that do not depend on the number of BLAS
    threads: ``dot``'s rule for k products at once.  Up to 10000 columns it
    is ``X @ y``, one gemv (with OpenBLAS 0.3.31 its bits are the same at 1
    and 2 threads; a single row is a ddot).  A wider product adds, left to
    right, the products of consecutive blocks of 10000 columns.  A y of
    another length raises ValueError."""
    n = X.shape[1]
    if len(y) != n:
        raise ValueError(f"product of a matrix of {n} columns and a vector of {len(y)} values")
    if n <= _DOT_BLOCK:
        return X @ y
    total = X[:, :_DOT_BLOCK] @ y[:_DOT_BLOCK]
    for i in range(_DOT_BLOCK, n, _DOT_BLOCK):
        total += X[:, i:i + _DOT_BLOCK] @ y[i:i + _DOT_BLOCK]
    return total


class CgResult(NamedTuple):
    """The solution ``x`` after ``iters`` iterations, the norm ``residual``
    of the residual and the residual vector ``r`` = b - A x itself, as the
    iteration updated it (it differs from the recomputed b - A x by rounding)."""

    x: np.ndarray
    iters: int
    residual: float
    r: np.ndarray


def cg_solve(A: CsrMatrix, b: np.ndarray, *, x0: np.ndarray,
             rel_tol: float = 1e-10, max_iters: int | None = None) -> CgResult:
    """Conjugate gradients for symmetric positive definite A, started from ``x0``.

    The solver has no preconditioner: a caller that wants one scales the
    system instead (``CsrMatrix.jacobi_scaled``), which gives the same
    iterates as preconditioned CG with one dot product and one vector pass
    less per iteration.

    Stops when ||b - A x||_2 <= rel_tol * ||b||_2.  A zero right-hand side
    returns x = 0 immediately.

    The iteration works in place with one scratch vector and computes
    r^T r once per iteration; its square root is the residual norm.  Dot
    products go through ``dot``, so the iterates do not depend on the
    number of BLAS threads.  A square A and an ``x0`` of n values
    are checked once (a wrong length raises "dimension mismatch"),
    and every product then calls the kernel directly.

    Raises ConvergenceError after ``max_iters`` (default 10 * n) iterations,
    and where a non-finite value shows (input is not scanned up front):
    - a NaN or inf in ``b``: "right-hand side contains non-finite entries",
      ``iters`` 0, ``residual`` NaN;
    - a finite ``b`` with an overflowing norm: "the norm of the right-hand
      side overflows", ``iters`` 0, ``residual`` inf;
    - a non-finite ``x0``, or a value arising later: "breakdown at
      iteration k" or "non-finite residual at iteration k".
    """
    n = A.n_rows
    if A.n_cols != n:
        raise ValueError(f"cg_solve needs a square matrix, got {n} x {A.n_cols}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"rhs length {b.shape} does not match {n} rows")
    if max_iters is None:
        max_iters = 10 * n

    with np.errstate(over="ignore"):
        b_norm = math.sqrt(dot(b, b))
    if not math.isfinite(b_norm):   # b.b is non-finite for any non-finite entry
        if not np.isfinite(b).all():
            raise ConvergenceError("right-hand side contains non-finite entries", 0, float("nan"))
        raise ConvergenceError("the norm of the right-hand side overflows", 0, b_norm)
    if b_norm == 0.0:
        return CgResult(np.zeros_like(b), 0, 0.0, np.zeros_like(b))
    threshold = rel_tol * b_norm

    x = np.array(x0, dtype=np.float64)
    if x.shape != (n,):
        raise _mismatch(x.shape, n)
    r = b - A._matvec(x)
    scratch = np.empty_like(b)
    p = r.copy()
    rr = dot(r, r)
    res = math.sqrt(rr)

    for k in range(max_iters):
        if res <= threshold:
            return CgResult(x, k, res, r)
        Ap = A._matvec(p)
        pAp = dot(p, Ap)
        if not math.isfinite(pAp) or pAp <= 0:
            raise ConvergenceError(
                f"breakdown at iteration {k}: p^T A p = {pAp} (matrix not SPD?)", k, res)
        alpha = rr / pAp
        x += np.multiply(p, alpha, out=scratch)
        Ap *= alpha
        r -= Ap
        rr_new = dot(r, r)
        p *= rr_new / rr
        p += r
        rr = rr_new
        res = math.sqrt(rr)
        if not math.isfinite(res):
            raise ConvergenceError(f"non-finite residual at iteration {k + 1}", k + 1, res)

    if res <= threshold:
        return CgResult(x, max_iters, res, r)
    raise ConvergenceError(
        f"no convergence in {max_iters} iterations "
        f"(residual {res:.3e}, target {threshold:.3e})", max_iters, res)
