"""Per-direction residual-minimization substeps.

Each implicit substep treats one direction with the weak operator

    b(u, v) = (u, v) + dt_eff * ( (beta_d du/dx_d, v) + (eps_d du/dx_d, dv/dx_d) )

and stabilizes it by minimizing the residual in a test space enriched only in
the split direction.  The test-space inner product carries the derivative
term only in that direction, so the saddle system

    [[A, B], [B^T, 0]] (r, u) = (F, 0)

keeps the Kronecker structure  [[A_s, B_s],[B_s^T, 0]] (x) M_other.  The
step divides M_other out of its right-hand side on the smallest grid it can
(the explicit part on the trial grid, a load's 1D factor once), so a substep
solves the split direction's saddle alone, one banded sweep with the
element-local test functions condensed out.  With test = trial the same
substep reduces to the plain Galerkin ADI update (and r = 0); the
unstabilized path solves the square system directly.

A directional operator works on grids laid out (split, other) in C order:
indexed (x, y) for x, (y, x) for y (``layout`` turns an (x, y) grid into
its own and back).  Its split-direction CSR products then read rows, and
the product along the other direction (other_minus) comes out transposed
and C-ordered, the layout the other direction's mass solve reads in place.
Its loads, substeps and residual representatives come in that layout.

A DirectionalOperator is built once per direction, advection blocks
included: each wind component is s(t) times a time-free factor, so the blocks
are assembled once from the factors.  The split block is then a line
m + dt_eff k + s (dt_eff g) in its direction's scale s, and every entry of
its factored matrix a polynomial in s whose coefficients set-up forms once:
set_wind evaluates them for the scalars s_x(t), s_y(t), forms the explicit
block's values on its fixed pattern, and refactors.  The split stepper takes
the wind at each step's midpoint.  A forcing in product form loads as a sum
of outer products of 1D loads made once; any other forcing is evaluated on
the Gauss grid, and with a declared support box only at the Gauss points
inside it, its load made again only when those samples change: a steady
source is assembled once per operator.  A directional operator's loads come
divided by its other direction's mass, in its layout.  A substep gathers its
residual representative r from the saddle solution only when r is read,
which a step does for its last substep alone.
The first factorization of each operator is checked by one solve for
matrix @ ones; set_wind's refactors are not.  The factors an operator keeps
carry their block form (``kron.BlockForm``), checked once when built:
other_lu always, and the split factor when the operator is built ``steady``,
for a wind that never changes, so that set_wind never refactors it.
"""

from __future__ import annotations

import numpy as np

from .assembly import advection, block, mass, stiffness
from .exceptions import ParameterError
from .banded import common_entries, csr
from .kron import (BandedLU, BandLayout, OpCounter, SaddleFactor, kron_matvec, kron_norms,
                   solve_along, x_first_cheaper)
from .problems import ProductSum, factor_values
from .splines import SplineSpace, element_local, eval_matrix, gauss_rule

__all__ = ["SolutionState", "DirectionalOperator", "LoadAssembler",
           "build_directional", "substep", "divide_other", "residual_norms"]


class SolutionState:
    """Interior trial coefficients u, residual representative r or None, time.

    r may be given as a function of no arguments, called on the first read
    of r: a substep's r that nothing reads is never gathered.
    """

    def __init__(self, u: np.ndarray, r=None, time: float = 0.0):
        self.u, self._r, self.time = u, r, time

    @property
    def r(self) -> np.ndarray | None:
        if callable(self._r):
            self._r = self._r()
        return self._r


class LoadAssembler:
    """Caches quadrature data for load grids  L[k,l] = (f(.,.,t), phi_k psi_l).

    A ProductSum forcing sum_k s_k(t) a_k(x) b_k(y) loads as
    sum_k s_k(t) (Wx a_k)(Wy b_k)^T, with W the weighted basis at the Gauss
    points: the 1D loads Wx a_k and Wy b_k are made on its first load and
    kept.  Any other callable is evaluated on the Gauss grid, in the
    orientation the cheaper contraction order reads; given the box outside
    which f is zero, it reads only the Gauss points inside it, bit for bit
    the full-grid load.  px and py stay the full x and y grids.  The load
    depends on f's samples alone, so each support cut keeps its last samples
    and the load made from them, read-only, and returns that load while f
    returns the same samples, shape and bits; a full-grid load keeps none.

    Given divide = (axis, lu), every load comes out divided by lu along that
    axis: a product's 1D loads on that axis are divided once, when made, and
    a support-cut grid only on its lines that meet the box.  With
    ``transposed``, loads come indexed (y, x), each the exact transpose of
    the (x, y) load: a y operator's (split, other) layout.
    """

    def __init__(self, space_x: SplineSpace, space_y: SplineSpace, divide=None,
                 transposed: bool = False):
        self.px, wx = _weighted_basis(space_x)
        self.py, wy = _weighted_basis(space_y)
        wx_t, wy_t = wx.T.tocsr(), wy.T  # basis x points; a transposed CSR is a CSC
        self._x_first = x_first_cheaper(wx_t, wy_t)
        self._divide = divide
        self._transposed = transposed
        self._cuts = {None: (self.px, wx_t, self.py, wy_t, slice(None))}
        self._products = {}
        self._last = {}  # support box: (f's samples as (shape, bytes), their read-only load)

    def load(self, f, t: float, support=None) -> np.ndarray:
        if isinstance(f, ProductSum):
            if support is not None:
                raise ParameterError("a product forcing is loaded whole; it takes no "
                                     f"support box, got {support!r}")
            if f not in self._products:
                px, wx_t, py, wy_t, _ = self._cuts[None]
                loads = [np.array([(w @ factor_values(getattr(p, name), points))[1:-1]
                                   for p in f]) for name, points, w in
                         (("a", px, wx_t), ("b", py, wy_t))]
                if self._divide is not None:
                    axis, lu = self._divide
                    loads[axis] = lu.solve(loads[axis].T).T
                self._products[f] = loads
            ax, by = self._products[f]
            scaled = ax.T * f.scales(t)
            return by.T @ scaled.T if self._transposed else scaled @ by
        if support not in self._cuts:
            ix, iy = (slice(np.searchsorted(p, lo), np.searchsorted(p, hi, side="right"))
                      for p, (lo, hi) in zip((self.px, self.py), support))
            px, wx_t, py, wy_t, _ = self._cuts[None]
            cut = (wx_t[:, ix], wy_t[:, iy])
            # interior functions with a Gauss point in the box, across the divided axis
            lines = (None if self._divide is None else
                     np.flatnonzero(cut[1 - self._divide[0]].getnnz(axis=1)[1:-1]))
            self._cuts[support] = (px[ix], cut[0], py[iy], cut[1], lines)
        px, wx_t, py, wy_t, lines = self._cuts[support]
        x, y = (px[:, None], py[None, :]) if self._x_first else (px[None, :], py[:, None])
        vals = np.asarray(f(x, y, t), dtype=float)
        samples = None if support is None else (vals.shape, vals.tobytes())
        last = self._last.get(support)
        if last is not None and last[0] == samples:
            return last[1]
        vals = np.broadcast_to(vals, np.broadcast(x, y).shape)
        grid = kron_matvec(wx_t, wy_t, vals if self._x_first else vals.T,
                           self._x_first)[1:-1, 1:-1]
        if self._transposed:
            grid = grid.T
        if self._divide is not None:
            axis, lu = self._divide
            axis ^= self._transposed  # the divided axis, in the grid's own order
            across = (lines, slice(None)) if axis == 1 else (slice(None), lines)
            grid[across] = solve_along(lu, grid[across], axis)
        if samples is not None:
            grid.flags.writeable = False
            self._last[support] = (samples, grid)
        return grid


def _weighted_basis(space: SplineSpace):
    """Gauss points, degree+1 per element, and the weighted basis values (CSR)."""
    points, weights = gauss_rule(space, space.degree + 1)
    values = eval_matrix(space, points)[0]
    values.data *= np.repeat(weights, space.degree + 1)  # degree+1 entries per row
    return points, values


class DirectionalOperator:
    """Assembled blocks and factors for one split direction.

    Block naming (all Dirichlet-eliminated):
      m_rect/k_rect  trial->test blocks in the split direction,
      b_split = m_rect + dt_eff*(k_rect + s*g_rect), with g_rect the advection
        block of the wind's time-free factor and s its scale,
      a_split = test Gram (m_test + k_test) in the split direction,
      m_other/k_other  square trial blocks in the orthogonal direction,
      other_minus = m_other - dt_eff*(k_other + s*g_other), the explicit
        block of the Peaceman-Rachford right-hand side (a CSR matrix).
    split_factor factors b_split (with a_split, its element-local test
    functions condensed out, when stabilized) along the split direction;
    other_lu factors m_other, kept with its block form, and the loads come
    divided by it, laid out (split, other) as every grid the operator reads;
    a ``steady`` operator keeps split_factor's block form too.

    The constructor builds all that does not change in time: the blocks,
    each space's element tables made once, advection of the wind's
    time-free (x, y) factors included, other_lu, the loads, and one fixed
    pattern per wind-dependent matrix (b_split, other_minus), the union of
    its blocks' nonzeros, with other_minus's CSR and split_factor's band
    layout on it.  On that pattern b_split is the line b0 + s b1 with
    b0 = m + dt_eff*k and b1 = dt_eff*g, which split_factor takes once: a
    SaddleFactor as the coefficients of its quadratic entries, the Galerkin
    factor as two band arrays.  set_wind(s_x, s_y) evaluates them at the
    split direction's scale and refactors, and forms other_minus's values;
    b_split is derived on read.
    """

    def __init__(self, direction, dt_eff, stabilized, trial_split, test_split,
                 trial_other, diffusion, velocity, counter, steady=False):
        self.direction = direction
        self.axis = 0 if direction == "x" else 1
        self.dt_eff = dt_eff
        self.stabilized = stabilized
        self.trial_split = trial_split
        self.test_split = test_split
        self.trial_other = trial_other
        self.counter = counter
        self.steady = steady
        self._scales = None  # set_wind's; None until the first factorization
        tables = {}  # each space's element tables, made once for all its blocks
        self.m_rect = block(mass, trial_split, test_split, None, tables)
        self.k_rect = block(stiffness, trial_split, test_split, diffusion[self.axis], tables)
        self.m_test = block(mass, test_split, test_split, None, tables)
        self.k_test = block(stiffness, test_split, test_split, None, tables)
        self.a_split = self.m_test + self.k_test
        self.m_other = block(mass, trial_other, trial_other, None, tables)
        self.k_other = block(stiffness, trial_other, trial_other, diffusion[1 - self.axis],
                             tables)
        self.other_lu = BandedLU(self.m_other, counter, kept=True)
        self._g_rect_free = block(advection, trial_split, test_split, velocity[self.axis],
                                  tables)
        g_other = block(advection, trial_other, trial_other, velocity[1 - self.axis], tables)
        # (mass, stiffness, advection) values on each pattern
        rows, cols, (m, k, g) = common_entries(self.m_rect, self.k_rect, self._g_rect_free)
        line = (m + dt_eff * k, dt_eff * g)  # b_split = b0 + s b1
        *other, self._other = common_entries(self.m_other, self.k_other, g_other)
        self.other_minus = csr(*other, 0.0 * other[0], self.m_other.shape)
        for read in (self.m_rect, self.m_test, self.a_split, self.m_other):
            read.to_csr()  # the blocks steps read, built here once
        if stabilized:
            self.split_factor = SaddleFactor(self.a_split, (rows, cols, self.m_rect.n_cols),
                                             line, counter, element_local(test_split))
        else:
            self._layout = BandLayout(rows, cols, self.m_rect.n_rows)
            self._band = [self._layout.fill(b) for b in line]
        divide = (1 - self.axis, self.other_lu)
        if direction == "x":
            self.loads = LoadAssembler(test_split, trial_other, divide)
        else:
            self.loads = LoadAssembler(trial_other, test_split, divide, transposed=True)

    def set_wind(self, scales) -> None:
        """Refactor split_factor at the split direction's scale of the wind's
        (s_x, s_y) and form other_minus's values; the first factorization is
        checked (``BandedLU``'s ``check``)."""
        first = self._scales is None
        self._scales = scales
        s = scales[self.axis]
        mo, ko, go = self._other
        self.other_minus.data[:] = mo - self.dt_eff * (ko + scales[1 - self.axis] * go)
        if self.stabilized:
            self.split_factor.refactor(s, kept=self.steady)
        else:
            b0, b1 = self._band
            self.split_factor = BandedLU((self._layout, b0 + s * b1), self.counter, check=first,
                                         kept=self.steady)

    def layout(self, grid: np.ndarray) -> np.ndarray:
        """A grid indexed (x, y) in this operator's (split, other) layout, or
        such a grid back in (x, y): itself for x, its transpose (a view) for y."""
        return grid if self.axis == 0 else grid.T

    b_split = property(lambda self: self.m_rect + self.dt_eff * (
        self.k_rect + self._scales[self.axis] * self._g_rect_free))


def build_directional(direction: str, trial_x: SplineSpace, trial_y: SplineSpace,
                      test_split: SplineSpace, diffusion, velocity, dt_eff: float,
                      stabilized: bool = True, counter: OpCounter | None = None,
                      scales=(1.0, 1.0), steady: bool = False) -> DirectionalOperator:
    """Assemble one direction's operator and set its wind to scales.

    diffusion and velocity are (x, y) pairs of 1D coefficients (constants,
    callables of the direction's own variable, or None for 1); velocity holds
    the wind's time-free factors, which set_wind multiplies by scales.
    ``steady`` (the wind never changes, so set_wind is not called again)
    keeps the split factor's block form.
    """
    if direction not in ("x", "y"):
        raise ParameterError(f"direction must be 'x' or 'y', got {direction!r}")
    trial_split, trial_other = (trial_x, trial_y) if direction == "x" else (trial_y, trial_x)
    if not stabilized:
        test_split = trial_split
    op = DirectionalOperator(direction, dt_eff, stabilized, trial_split,
                             test_split, trial_other, diffusion, velocity, counter, steady)
    op.set_wind(scales)
    return op


def substep(op: DirectionalOperator, rhs_grid: np.ndarray) -> SolutionState:
    """Solve one substep in the split direction alone, for a tested load grid
    in the operator's (split, other) layout (m test rows in the split
    direction) already divided by the other direction's mass; returns (u, r)
    in that layout, with r gathered from the saddle solution only when read.

    As (S^-1 (x) M^-1) rhs = (S^-1 (x) I)(I (x) M^-1) rhs, this is the whole
    Kronecker solve once the other direction's mass is divided out.
    """
    if not op.stabilized:
        return SolutionState(u=op.split_factor.solve(rhs_grid))
    gather_r, u = op.split_factor.solve_deferred(rhs_grid)
    return SolutionState(u=u, r=gather_r)


def divide_other(op: DirectionalOperator, grid: np.ndarray) -> np.ndarray:
    """A (split, other) grid divided by the other direction's mass along its
    second axis: other_lu solves the grid's transpose, read in place by its
    block form when that is C-ordered (as along(other_minus, u, 1) makes it)."""
    return solve_along(op.other_lu, grid, 1)


def residual_norms(op: DirectionalOperator, r: np.ndarray) -> tuple[float, float]:
    """L2 and split-H1 norms of the residual representative r, indexed (x, y)
    (test-space V-norm): the test Gram a_split stands in the split direction
    only.  They are read in the operator's layout, where r was gathered."""
    return kron_norms(op.layout(r), op.m_test, op.m_other, gx=op.a_split)
