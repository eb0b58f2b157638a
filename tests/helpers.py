"""Test-only constructors shared by the test modules."""

import numpy as np
import scipy.sparse as sp

from splitmin.assembly import advection, block, mass, stiffness
from splitmin.banded import BandedMatrix
from splitmin.kron import SaddleFactor


def from_dense(dense) -> BandedMatrix:
    """Wrap a dense matrix, detecting bandwidths from its exact nonzeros."""
    dense = np.asarray(dense, dtype=float)
    rows, cols = np.nonzero(dense)
    return BandedMatrix.from_entries(rows, cols, dense[rows, cols], dense.shape)


def saddle_factor(a: BandedMatrix, b: BandedMatrix, counter=None, elements=None) -> SaddleFactor:
    """The saddle of the Gram a and the fixed block b (the line with b1 = 0),
    laid out on b's pattern and factored."""
    sf = SaddleFactor(a, (b.rows, b.cols, b.n_cols), (b.vals, np.zeros(b.nnz)), counter,
                      elements)
    sf.refactor(0.0)
    return sf


def saddle_solve(sf: SaddleFactor, F):
    """(r, u) of sf's saddle for the right-hand side F."""
    gather_r, u = sf.solve_deferred(F)
    return gather_r(), u


def _kron(ax: BandedMatrix, ay: BandedMatrix) -> sp.csr_matrix:
    return sp.kron(ax.to_csr(), ay.to_csr(), format="csr")


def kron_operators(trial, test, diffusion, wind, t: float, magnitude=False):
    """(gram, m_rect, w_rect) of the general path, each a sum of
    ``scipy.sparse.kron`` products of the 1D blocks: the assembly oracle.

    gram   test x test, (psi, phi) + (grad psi, grad phi)
    m_rect test x trial mass
    w_rect test x trial, (eps grad u, grad psi) + (beta . grad u, psi)

    With ``magnitude``, every 1D block and wind scale enters by its absolute
    values, so each entry is the sum of its terms' magnitudes.
    """
    def blk(*args):
        b = block(*args)
        return BandedMatrix(b.rows, b.cols, np.abs(b.vals), b.shape) if magnitude else b

    (ax, bx), (ay, by) = wind.factors
    sx, sy = (abs(s) if magnitude else s for s in wind.scales(t))
    mx, my = blk(mass, test.x, test.x), blk(mass, test.y, test.y)
    gram = (_kron(mx, my) + _kron(blk(stiffness, test.x, test.x), my)
            + _kron(mx, blk(stiffness, test.y, test.y)))
    mx, my = blk(mass, trial.x, test.x), blk(mass, trial.y, test.y)
    m_rect = _kron(mx, my)
    w_rect = (_kron(blk(stiffness, trial.x, test.x, diffusion[0]), my)
              + _kron(mx, blk(stiffness, trial.y, test.y, diffusion[1]))
              + _kron(sx * blk(advection, trial.x, test.x, ax),
                      blk(mass, trial.y, test.y, bx))
              + _kron(blk(mass, trial.x, test.x, ay),
                      sy * blk(advection, trial.y, test.y, by)))
    return gram.tocsr(), m_rect, w_rect.tocsr()


def kron_saddle(trial, test, diffusion, wind, t: float, dt_eff: float, magnitude=False):
    """(saddle, b_rhs) of the oracle: sp.bmat of [[A, B], [B^T, 0]] with
    B = M + dt_eff W, and M - dt_eff W.  With ``magnitude``, both are formed
    from the terms' magnitudes (B and M - dt_eff W alike as |M| + |dt_eff| |W|):
    the scale of each entry's rounding."""
    gram, m_rect, w_rect = kron_operators(trial, test, diffusion, wind, t, magnitude)
    b = (m_rect + (abs(dt_eff) if magnitude else dt_eff) * w_rect).tocsr()
    b_rhs = b if magnitude else (m_rect - dt_eff * w_rect).tocsr()
    return sp.bmat([[gram, b], [b.T, None]], format="csc"), b_rhs
