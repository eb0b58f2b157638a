"""1D B-spline spaces on uniform meshes.

A space is described by its polynomial degree p, the inter-element continuity
C^c (with -1 <= c <= p-1; c = -1 means fully discontinuous), the number of
uniform elements and the interval.  The knot vector is open/clamped: the end
knots are repeated p+1 times and every interior breakpoint is repeated p-c
times, which gives

    dim = n_elements * (p - c) + c + 1

basis functions.  Evaluation returns the p+1 functions that can be nonzero at
a point together with their first derivatives.

A space is a value: it compares and hashes by (degree, continuity,
n_elements, interval), the knots being derived from them.  So equal spaces
share one cached element table per Gauss rule (``element_table``), the one
basis/quadrature table layer every assembly reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .exceptions import DomainError, ParameterError

__all__ = ["SplineSpace", "ElementTable", "make_space", "element_local", "active_basis",
           "eval_matrix", "gauss_rule", "element_table"]


@dataclass(frozen=True)
class SplineSpace:
    degree: int
    continuity: int
    n_elements: int
    interval: tuple[float, float]
    knots: np.ndarray = field(repr=False, compare=False)  # derived from the fields above

    @property
    def dim(self) -> int:
        p, c = self.degree, self.continuity
        return self.n_elements * (p - c) + c + 1

    @property
    def breakpoints(self) -> np.ndarray:
        a, b = self.interval
        return np.linspace(a, b, self.n_elements + 1)


def make_space(degree: int, continuity: int, n_elements: int,
               interval: tuple[float, float]) -> SplineSpace:
    """Build a clamped uniform spline space of the given degree and continuity."""
    if degree < 0:
        raise ParameterError(f"degree must be >= 0, got {degree}")
    if not (-1 <= continuity <= degree - 1):
        raise ParameterError(
            f"continuity must satisfy -1 <= c <= degree-1, got c={continuity} for degree {degree}")
    if n_elements < 1:
        raise ParameterError(f"n_elements must be >= 1, got {n_elements}")
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ParameterError(f"interval must satisfy a < b, got ({a}, {b})")

    p, c = degree, continuity
    interior = np.linspace(a, b, n_elements + 1)[1:-1]
    knots = np.concatenate([
        np.full(p + 1, a),
        np.repeat(interior, p - c),
        np.full(p + 1, b),
    ])
    return SplineSpace(p, c, n_elements, (a, b), knots)


def element_local(space: SplineSpace) -> np.ndarray:
    """For each interior function (the Dirichlet ones eliminated), the element
    it is supported in alone, or -1: p-1 per element for C^0, all for C^-1,
    none for c >= 1.

    Function i spans knots[i] .. knots[i+p+1], one element when those knots
    take two distinct values.
    """
    k, p = space.knots, space.degree
    breakpoint_index = np.concatenate([[0], np.cumsum(k[1:] != k[:-1])])
    i = np.arange(1, space.dim - 1)
    lo, hi = breakpoint_index[i], breakpoint_index[i + p + 1]
    return np.where(hi - lo == 1, lo, -1)


def _find_spans(space: SplineSpace, xs: np.ndarray) -> np.ndarray:
    """Last knot index i with knots[i] <= x, restricted to nonempty spans.

    The element convention is half-open, closed on the right end of the
    domain, so x = b maps into the last element.
    """
    a, b = space.interval
    outside = (xs < a) | (xs > b)
    if np.any(outside):
        raise DomainError(f"x={xs[outside][0]} outside [{a}, {b}]")
    spans = np.searchsorted(space.knots, xs, side="right") - 1
    return np.minimum(np.maximum(spans, space.degree), space.dim - 1)


def active_basis(space: SplineSpace, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First active index, values and first derivatives of the p+1 active functions.

    Returns arrays shaped (n,), (n, p+1) and (n, p+1) for n points.  Values
    come from the Cox-de Boor recursion over each point's knot span, run for
    all points at once (Piegl & Tiller, A2.2); derivatives combine the degree
    p-1 values with the degree-reduction formula (A2.3).  Every knot
    difference below spans the nonempty interval containing x, so none is 0.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    spans = _find_spans(space, xs)
    p, x = space.degree, xs[:, None]
    knots = space.knots[spans[:, None] + np.arange(1 - p, p + 1)]  # spans-p+1 .. spans+p
    values = np.ones((xs.size, 1))
    for j in range(1, p + 1):
        right, left = knots[:, p:p + j], knots[:, p - j:p]  # knots[spans+1..+j], [..-j]
        temp = values / (right - left)
        values = np.zeros((xs.size, j + 1))
        values[:, :j] += (right - x) * temp
        values[:, 1:] += (x - left) * temp
    derivatives = np.zeros((xs.size, p + 1))
    if p > 0:
        # the last temp holds the degree p-1 values over the knot differences of A2.3
        derivatives[:, 1:] += temp
        derivatives[:, :-1] -= temp
        derivatives *= p
    return spans - p, values, derivatives


def eval_matrix(space: SplineSpace, xs) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Sparse (len(xs), dim) CSR matrices of basis values and first derivatives.

    Row i holds the p+1 active functions at xs[i] in columns first + 0..p, so
    a contraction through them costs O((p+1) len(xs)) rather than O(len(xs) dim).
    """
    first, values, derivatives = active_basis(space, xs)
    width = space.degree + 1
    # int32 indices, as scipy would convert them, shared by both matrices
    indices = (first[:, None] + np.arange(width)).ravel().astype(np.int32)
    indptr = np.arange(0, indices.size + 1, width, dtype=np.int32)
    shape = (first.size, space.dim)
    return (sp.csr_matrix((values.ravel(), indices, indptr), shape=shape),
            sp.csr_matrix((derivatives.ravel(), indices, indptr), shape=shape))


@lru_cache(maxsize=32)
def _reference_gauss(nq: int) -> tuple[np.ndarray, np.ndarray]:
    """nq-point Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(nq)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_rule(space: SplineSpace, nq: int) -> tuple[np.ndarray, np.ndarray]:
    """nq-point Gauss-Legendre nodes and weights on each element, element by element."""
    ref_x, ref_w = _reference_gauss(nq)
    breaks = space.breakpoints
    lo, h = breaks[:-1, None], np.diff(breaks)[:, None]
    return (lo + 0.5 * h * (ref_x + 1.0)).ravel(), (0.5 * h * ref_w).ravel()


class ElementTable(NamedTuple):
    """A Gauss rule on every element with the local basis values there."""

    points: np.ndarray       # (n_elements, nq)
    weights: np.ndarray      # (n_elements, nq)
    values: np.ndarray       # (n_elements, nq, degree+1)
    derivatives: np.ndarray  # (n_elements, nq, degree+1)
    firsts: np.ndarray       # (n_elements,) first active basis index


@lru_cache(maxsize=64)
def element_table(space: SplineSpace, nq: int) -> ElementTable:
    """The nq-point Gauss rule of every element and the active basis there,
    made once per space and nq, read-only."""
    points, weights = gauss_rule(space, nq)
    first, values, derivatives = active_basis(space, points)
    shape = (space.n_elements, nq, space.degree + 1)
    table = ElementTable(points.reshape(shape[:2]), weights.reshape(shape[:2]),
                         values.reshape(shape), derivatives.reshape(shape), first[::nq])
    for array in table:
        array.flags.writeable = False
    return table
