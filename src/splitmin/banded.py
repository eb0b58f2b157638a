"""Banded matrix storage.

Row-major band layout: entry (i, j) of an n_rows x n_cols matrix with lower
bandwidth lb and upper bandwidth ub lives at data[i, j - i + lb] for
max(0, i-lb) <= j <= min(n_cols-1, i+ub).  Everything outside the band is
identically zero.  This module is the only one that knows the layout: other
code reads a matrix as (row, column, value) triplets of its nonzero slots
(``entries``) or builds one from triplets (``from_entries``).  A matrix is
immutable after construction, so its triplets and their CSR matrix are each
built once: the first ``entries()`` masks the band, the first ``to_csr()``
converts the triplets, and every later read and product reuses both.
Products thus skip the empty slots of a slanted rectangular band;
band-preserving linear combinations stay on the storage and return new
matrices, which find their own nonzeros.  ``common_entries`` reads several
matrices on the union of their nonzero slots, to combine them value by value.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["BandedMatrix", "common_entries", "csr"]


class BandedMatrix:
    """A banded matrix, immutable after construction, so its nonzeros are found once."""

    def __init__(self, data: np.ndarray, lower_bandwidth: int, upper_bandwidth: int,
                 n_cols: int):
        data = np.asarray(data, dtype=float)
        if data.shape[1] != lower_bandwidth + upper_bandwidth + 1:
            raise ValueError("band storage width does not match bandwidths")
        self.data = data
        self.lower_bandwidth = lower_bandwidth
        self.upper_bandwidth = upper_bandwidth
        self.n_rows = data.shape[0]
        self.n_cols = n_cols
        self._entries = self._csr = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @classmethod
    def from_entries(cls, rows, cols, vals, shape: tuple[int, int]) -> "BandedMatrix":
        """Sum (row, column, value) triplets into band storage.

        ``rows``, ``cols`` and ``vals`` broadcast together; duplicates add up
        in index order.  The bandwidths are the extreme offsets among the
        given triplets, zero-valued ones included.
        """
        rows, cols = np.asarray(rows), np.asarray(cols)
        offsets = cols - rows
        lb, ub = -int(offsets.min(initial=0)), int(offsets.max(initial=0))
        data = np.zeros((shape[0], lb + ub + 1))
        np.add.at(data, (rows, offsets + lb), vals)
        return cls(data, lb, ub, shape[1])

    def _slot_columns(self) -> np.ndarray:
        """Column index of every stored slot, in range or not."""
        return (np.arange(self.n_rows)[:, None] + np.arange(self.data.shape[1])
                - self.lower_bandwidth)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the nonzero in-range slots, row-major.

        Within a row the columns ascend.  Slots that point outside the
        matrix are skipped whatever they hold.  Found once, on the first
        call, and cached with the matrix: read the arrays, do not write them.
        """
        if self._entries is None:
            cols = self._slot_columns()
            rows, t = np.nonzero((self.data != 0.0) & (cols >= 0) & (cols < self.n_cols))
            self._entries = rows, cols[rows, t], self.data[rows, t]
        return self._entries

    def to_csr(self) -> sp.csr_matrix:
        """CSR of ``entries()``, built once; the matrix is immutable after construction."""
        if self._csr is None:
            self._csr = csr(*self.entries(), self.shape)
        return self._csr

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        rows, cols, vals = self.entries()
        out[rows, cols] = vals
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

    def interior(self) -> "BandedMatrix":
        """Drop the first and last row and column (Dirichlet elimination).

        Rows and columns shift together, so diagonal offsets and bandwidths
        are unchanged; stored slots that referred to the removed columns are
        zeroed.
        """
        out = BandedMatrix(self.data[1:-1].copy(), self.lower_bandwidth,
                           self.upper_bandwidth, self.n_cols - 2)
        cols = out._slot_columns()
        out.data[(cols < 0) | (cols >= out.n_cols)] = 0.0
        return out

    def _aligned(self, lb: int, ub: int) -> np.ndarray:
        """The storage widened to bandwidths (lb, ub): a copy unless they are the matrix's own."""
        if (lb, ub) == (self.lower_bandwidth, self.upper_bandwidth):
            return self.data
        out = np.zeros((self.n_rows, lb + ub + 1))
        src0 = lb - self.lower_bandwidth
        out[:, src0:src0 + self.data.shape[1]] = self.data
        return out

    def __add__(self, other: "BandedMatrix") -> "BandedMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in banded addition")
        lb = max(self.lower_bandwidth, other.lower_bandwidth)
        ub = max(self.upper_bandwidth, other.upper_bandwidth)
        return BandedMatrix(self._aligned(lb, ub) + other._aligned(lb, ub), lb, ub, self.n_cols)

    def __sub__(self, other: "BandedMatrix") -> "BandedMatrix":
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> "BandedMatrix":
        return BandedMatrix(float(scalar) * self.data, self.lower_bandwidth,
                            self.upper_bandwidth, self.n_cols)

    def __repr__(self) -> str:
        return (f"BandedMatrix({self.n_rows}x{self.n_cols}, "
                f"lb={self.lower_bandwidth}, ub={self.upper_bandwidth})")


def common_entries(*matrices: BandedMatrix):
    """(rows, cols, values, (lb, ub)): the slots, ordered as in ``entries``, where any
    matrix is nonzero, each matrix's values there and the widest bandwidths."""
    first = matrices[0]
    lb = max(m.lower_bandwidth for m in matrices)
    ub = max(m.upper_bandwidth for m in matrices)
    data = [m._aligned(lb, ub) for m in matrices]
    cols = np.arange(first.n_rows)[:, None] + np.arange(lb + ub + 1) - lb
    nonzero = np.logical_or.reduce([d != 0.0 for d in data])
    rows, t = np.nonzero(nonzero & (cols >= 0) & (cols < first.n_cols))
    return rows, cols[rows, t], [d[rows, t] for d in data], (lb, ub)


def csr(rows, cols, vals, shape: tuple[int, int]) -> sp.csr_matrix:
    """CSR of row-major triplets, in their order: writing ``data`` keeps the pattern."""
    indptr = np.searchsorted(rows, np.arange(shape[0] + 1))
    return sp.csr_matrix((vals, cols, indptr), shape=shape)
