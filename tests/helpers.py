"""Test-only constructors shared by the test modules."""

import numpy as np

from splitmin.banded import BandedMatrix
from splitmin.kron import SaddleFactor


def from_dense(dense) -> BandedMatrix:
    """Wrap a dense matrix, detecting bandwidths from its exact nonzeros."""
    dense = np.asarray(dense, dtype=float)
    rows, cols = np.nonzero(dense)
    return BandedMatrix.from_entries(rows, cols, dense[rows, cols], dense.shape)


def saddle_factor(a: BandedMatrix, b: BandedMatrix, counter=None, elements=None) -> SaddleFactor:
    """The saddle of the Gram a and the block b, laid out on b's pattern and factored."""
    sf = SaddleFactor(a, (b.rows, b.cols, b.n_cols), counter, elements)
    sf.refactor(b.vals)
    return sf
