"""1D matrix assembly by per-element Gauss-Legendre quadrature.

Entry conventions (k = test row, i = trial column):

    mass:       M[k,i] = int w(x)  trial_i(x)  test_k(x)  dx
    stiffness:  K[k,i] = int d(x)  trial_i'(x) test_k'(x) dx
    advection:  G[k,i] = int v(x)  trial_i'(x) test_k(x)  dx

Coefficients are constants or callables of x (None means 1).  Trial and test
spaces share one mesh.  The quadrature rule uses ceil((p_trial + p_test)/2) + 1
points per element, exact for every constant-coefficient term.  Each element's
local block enters as (row, column, value) triplets, which
``BandedMatrix.from_entries`` sums into the block's nonzeros; a block thus
holds O(n) entries whatever its slant.  Homogeneous Dirichlet conditions are
imposed by eliminating the first and last basis function of each space;
``block`` assembles and eliminates in one call, the one way every solver and
norm builds its 1D blocks (a test Gram is block(mass, ...) + block(stiffness, ...)).
"""

from __future__ import annotations

import numpy as np

from .banded import BandedMatrix
from .exceptions import ParameterError
from .splines import SplineSpace, element_table

__all__ = ["mass", "stiffness", "advection", "block", "norm_blocks"]


def _nq(p_trial: int, p_test: int) -> int:
    return (p_trial + p_test + 1) // 2 + 1  # ceil((p+q)/2) + 1


def _table(space: SplineSpace, nq: int, tables):
    """element_table(space, nq), kept in the dict ``tables`` when one is given."""
    if tables is None:
        return element_table(space, nq)
    key = (space.degree, space.continuity, space.n_elements, space.interval, nq)
    if key not in tables:
        tables[key] = element_table(space, nq)
    return tables[key]


def _assemble(trial: SplineSpace, test: SplineSpace, coefficient,
              trial_deriv: bool, test_deriv: bool, tables=None) -> BandedMatrix:
    if trial.interval != test.interval or trial.n_elements != test.n_elements:
        raise ParameterError(
            f"trial and test spaces must share one mesh: {trial.n_elements} "
            f"elements on {trial.interval} vs {test.n_elements} on {test.interval}")
    nq = _nq(trial.degree, test.degree)
    t, s = _table(trial, nq, tables), _table(test, nq, tables)
    if coefficient is None:
        coefficient = 1.0
    c = coefficient(t.points) if callable(coefficient) else coefficient
    w = t.weights * np.asarray(c, dtype=float)
    phi = t.derivatives if trial_deriv else t.values
    psi = s.derivatives if test_deriv else s.values
    local = np.einsum("eq,eqk,eqi->eki", w, psi, phi)
    rows = s.firsts[:, None] + np.arange(test.degree + 1)
    cols = t.firsts[:, None] + np.arange(trial.degree + 1)
    return BandedMatrix.from_entries(rows[:, :, None], cols[:, None, :], local,
                                     (test.dim, trial.dim))

def mass(trial: SplineSpace, test: SplineSpace, weight=None, tables=None) -> BandedMatrix:
    return _assemble(trial, test, weight, False, False, tables)


def stiffness(trial: SplineSpace, test: SplineSpace, diffusion=None,
              tables=None) -> BandedMatrix:
    return _assemble(trial, test, diffusion, True, True, tables)


def advection(trial: SplineSpace, test: SplineSpace, velocity=None,
              tables=None) -> BandedMatrix:
    return _assemble(trial, test, velocity, True, False, tables)


def block(kind, trial: SplineSpace, test: SplineSpace, coefficient=None,
          tables=None) -> BandedMatrix:
    """kind(trial, test, coefficient) with the Dirichlet functions eliminated:
    the test x trial interior block.  Blocks built with one dict ``tables``
    share the element tables of equal spaces."""
    return kind(trial, test, coefficient, tables).interior()


def norm_blocks(space_x: SplineSpace, space_y: SplineSpace):
    """(mx, my, gx, gy): the interior masses and H1 Grams (mass plus stiffness)
    of two spaces, the blocks of kron_norms' L2 and H1 forms."""
    mx, my = block(mass, space_x, space_x), block(mass, space_y, space_y)
    return mx, my, mx + block(stiffness, space_x, space_x), my + block(stiffness, space_y, space_y)
