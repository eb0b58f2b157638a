"""Test-only constructors shared by the test modules."""

import numpy as np

from splitmin.banded import BandedMatrix


def from_dense(dense) -> BandedMatrix:
    """Wrap a dense matrix, detecting bandwidths from its exact nonzeros."""
    dense = np.asarray(dense, dtype=float)
    rows, cols = np.nonzero(dense)
    return BandedMatrix.from_entries(rows, cols, dense[rows, cols], dense.shape)
