"""1D blocks as the sorted triplets of their exact nonzeros.

A ``BandedMatrix`` is its shape and the (row, column, value) triplets of its
nonzero entries, sorted row-major with the columns ascending within a row.
B-spline blocks have local support, so a block holds O(n) triplets whatever
its slant: a trial-to-test block of two spaces of different dimension keeps
only its nonzeros.  The only band storage in the program is LAPACK's, which
``kron.BandLayout`` lays out from a pattern.

``from_entries`` sums element contributions into triplets; ``interior``
filters them; ``+``, ``-`` and scalar ``*`` combine triplets into new
matrices, dropping exact zeros.  A matrix is immutable after construction, so
its CSR is built once, on the first ``to_csr()``, and every later product
reuses it.  ``common_entries`` reads several matrices on the union of their
nonzero positions, to combine them value by value.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["BandedMatrix", "common_entries", "csr"]

_COLUMNS = 32  # output columns per dense block of ``apply_rows``


class BandedMatrix:
    """A sparse 1D block, immutable after construction, so its CSR is built once.

    ``rows``, ``cols`` and ``vals`` are its triplets, sorted row-major with
    no repeated position; exact zeros among ``vals`` are dropped here.
    """

    def __init__(self, rows, cols, vals, shape: tuple[int, int]):
        keep = np.asarray(vals) != 0.0
        self.rows, self.cols = np.asarray(rows)[keep], np.asarray(cols)[keep]
        self.vals = np.asarray(vals, dtype=float)[keep]
        self.n_rows, self.n_cols = shape
        self._csr = self._row_blocks = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    nnz = property(lambda self: self.vals.size)

    @classmethod
    def from_entries(cls, rows, cols, vals, shape: tuple[int, int]) -> "BandedMatrix":
        """Sum (row, column, value) triplets; they broadcast together.

        Duplicates add up in index order, from 0.0, as ``np.add.at`` adds
        them: a stable sort keeps that order within each position.
        """
        rows, cols, vals = (a.ravel() for a in np.broadcast_arrays(rows, cols, vals))
        keys = rows * shape[1] + cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = _run_starts(keys)
        sums = np.bincount(np.cumsum(first) - 1, weights=vals[order])
        return cls(*divmod(keys[first], shape[1]), sums, shape)

    def to_csr(self) -> sp.csr_matrix:
        """CSR of the triplets, built once; the matrix is immutable after construction."""
        if self._csr is None:
            self._csr = csr(self.rows, self.cols, self.vals, self.shape)
        return self._csr

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a vector or a stack of columns, as one CSR product.

        Each row sums its nonzero entries in ascending column order.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n_cols:
            raise ValueError(f"dimension mismatch: {self.shape} @ {x.shape}")
        return self.to_csr() @ x

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)

    def apply_rows(self, x: np.ndarray) -> np.ndarray:
        """x @ A^T, A applied to each row of a C-ordered stack of rows.

        One dense GEMM per block of ``_COLUMNS`` output columns reads x's
        columns that block depends on in place, so x is never transposed.
        The blocks of A^T are made once.  The result is C-ordered and differs
        from a CSR product's by rounding only.
        """
        if self._row_blocks is None:
            self._row_blocks = []
            for lo in range(0, self.n_rows, _COLUMNS):
                first, last = np.searchsorted(self.rows, [lo, lo + _COLUMNS])
                rows, cols = self.rows[first:last] - lo, self.cols[first:last]
                start = cols.min() if cols.size else 0
                block = np.zeros((cols.max() + 1 - start if cols.size else 0,
                                  min(_COLUMNS, self.n_rows - lo)))
                block[cols - start, rows] = self.vals[first:last]
                self._row_blocks.append((lo, start, block))
        x = np.ascontiguousarray(x, dtype=float)
        out = np.empty((x.shape[0], self.n_rows))
        for lo, start, block in self._row_blocks:
            np.matmul(x[:, start:start + block.shape[0]], block,
                      out=out[:, lo:lo + block.shape[1]])
        return out

    def interior(self) -> "BandedMatrix":
        """Drop the first and last row and column (Dirichlet elimination)."""
        n_rows, n_cols = self.n_rows - 2, self.n_cols - 2
        rows, cols = self.rows - 1, self.cols - 1
        keep = (rows >= 0) & (rows < n_rows) & (cols >= 0) & (cols < n_cols)
        return BandedMatrix(rows[keep], cols[keep], self.vals[keep], (n_rows, n_cols))

    def __add__(self, other: "BandedMatrix") -> "BandedMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in banded addition")
        rows, cols, (a, b) = common_entries(self, other)
        return BandedMatrix(rows, cols, a + b, self.shape)

    def __sub__(self, other: "BandedMatrix") -> "BandedMatrix":
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> "BandedMatrix":
        return BandedMatrix(self.rows, self.cols, float(scalar) * self.vals, self.shape)


def common_entries(*matrices: BandedMatrix):
    """(rows, cols, values): the positions, row-major, where any matrix is
    nonzero, and each matrix's values there (zero where it has none)."""
    n_cols = matrices[0].n_cols
    keys = [m.rows * n_cols + m.cols for m in matrices]
    union = np.sort(np.concatenate(keys))
    union = union[_run_starts(union)]
    values = []
    for m, k in zip(matrices, keys):
        v = np.zeros(union.size)
        v[np.searchsorted(union, k)] = m.vals
        values.append(v)
    return *divmod(union, n_cols), values


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first of each run of equal sorted keys."""
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return first


def csr(rows, cols, vals, shape: tuple[int, int]) -> sp.csr_matrix:
    """CSR of row-major triplets, in their order: writing ``data`` keeps the pattern."""
    indptr = np.searchsorted(rows, np.arange(shape[0] + 1))
    return sp.csr_matrix((vals, cols, indptr), shape=shape)
