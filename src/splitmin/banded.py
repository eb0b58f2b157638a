"""Banded matrix storage.

Row-major band layout: entry (i, j) of an n_rows x n_cols matrix with lower
bandwidth lb and upper bandwidth ub lives at data[i, j - i + lb] for
max(0, i-lb) <= j <= min(n_cols-1, i+ub).  Everything outside the band is
identically zero.  The type is a plain container plus the handful of
operations the solver needs: matrix-vector products over the diagonals,
band-preserving linear combinations, and dense round-trips for oracles.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BandedMatrix"]


class BandedMatrix:
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

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BandedMatrix":
        """Wrap a dense matrix, detecting bandwidths from its exact nonzeros."""
        dense = np.asarray(dense, dtype=float)
        m, n = dense.shape
        rows, cols = np.nonzero(dense)
        if rows.size:
            lb = max(int(np.max(rows - cols)), 0)
            ub = max(int(np.max(cols - rows)), 0)
        else:
            lb = ub = 0
        data = np.zeros((m, lb + ub + 1))
        for t in range(lb + ub + 1):
            d = t - lb
            i0, i1 = max(0, -d), min(m, n - d)
            if i1 > i0:
                data[i0:i1, t] = dense[np.arange(i0, i1), np.arange(i0, i1) + d]
        return cls(data, lb, ub, n)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        for t in range(self.data.shape[1]):
            d = t - self.lower_bandwidth
            i0, i1 = max(0, -d), min(self.n_rows, self.n_cols - d)
            if i1 > i0:
                out[np.arange(i0, i1), np.arange(i0, i1) + d] = self.data[i0:i1, t]
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a vector or a stack of columns, swept diagonal by diagonal.

        Each stored diagonal is swept only over the rows where it holds
        nonzeros: a rectangular block's band is slanted, so most of its
        stored slots are zero.
        """
        x = np.ascontiguousarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[:, None]
        if x.shape[0] != self.n_cols:
            raise ValueError(f"dimension mismatch: {self.shape} @ {x.shape}")
        out = np.zeros((self.n_rows, x.shape[1]))
        nonzero = self.data != 0.0
        rows = np.arange(self.n_rows)[:, None]
        first = np.min(np.where(nonzero, rows, self.n_rows), axis=0,
                       initial=self.n_rows)
        last = np.max(np.where(nonzero, rows + 1, 0), axis=0, initial=0)
        for t in range(self.data.shape[1]):
            d = t - self.lower_bandwidth
            i0, i1 = max(first[t], -d), min(last[t], self.n_cols - d)
            if i1 > i0:
                out[i0:i1] += self.data[i0:i1, t:t + 1] * x[i0 + d:i1 + d]
        return out[:, 0] if single else out

    def interior(self) -> "BandedMatrix":
        """Drop the first and last row and column (Dirichlet elimination).

        Rows and columns shift together, so diagonal offsets are unchanged;
        stored slots that referred to the removed columns are zeroed.
        """
        out = BandedMatrix(self.data[1:-1].copy(), self.lower_bandwidth,
                           self.upper_bandwidth, self.n_cols - 2)
        out._trim_oob()
        return out

    def _trim_oob(self) -> None:
        # zero any stored slots that now point outside the matrix
        for t in range(self.data.shape[1]):
            d = t - self.lower_bandwidth
            i0, i1 = max(0, -d), min(self.n_rows, self.n_cols - d)
            if i0 > 0:
                self.data[:i0, t] = 0.0
            if i1 < self.n_rows:
                self.data[max(i1, 0):, t] = 0.0

    def _aligned(self, lb: int, ub: int) -> np.ndarray:
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
