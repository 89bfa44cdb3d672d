"""The classical distance, and the pair-category rule of every order-based distance.

A cell of a preference score matrix, a direct mass grid or an indirect score
matrix is a lookup on its pair's relation code (see
:meth:`WeakOrder.relation_codes`), so each distance counts the cells per pair
of codes and weighs them by a cost table, without building any matrix.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from .errors import NotTotalError
from .model import WeakOrder, _relation_codes, common_size


class PsmConvention(Enum):
    """Numeric encoding of a pairwise comparison in the score matrix."""

    SIGNED = "signed"  # +1 preferred / -1 dispreferred / 0 tied; anti-symmetric
    UNIT = "unit"  # 1 preferred / 0 dispreferred / 0.5 tied; M + M^T = ones


def pair_cost(values: NDArray[np.float64]) -> NDArray[np.float64]:
    """Squared distance of every two codes' values, summed over any trailing axis."""
    return np.atleast_3d(np.square(values[:, None] - values)).sum(axis=-1)


def _category_counts(order1: WeakOrder, order2: WeakOrder) -> NDArray[np.intp]:
    """4 x 4 table whose cell (a, b) counts the cells that ``order1`` codes a and
    ``order2`` codes b."""
    codes = _relation_codes(order1.rank_tuple, order2.rank_tuple)
    return np.bincount((4 * codes[0] + codes[1]).ravel(), minlength=16).reshape(4, 4)


def category_distance(order1: WeakOrder, order2: WeakOrder, cost: NDArray[np.float64]) -> float:
    """Root of the summed ``cost`` of the cells, counted by pair of relation codes;
    ``cost`` must cover every code that the two orders give."""
    k = len(cost)
    counts = _category_counts(order1, order2)[:k, :k]
    counts = counts + counts.T  # swapped operands give the same bits
    return math.sqrt(float((counts * cost).sum()) / 2)


def max_distance(n: int, cost: NDArray[np.float64]) -> float:
    """Distance between the strict chain over n objects and its reversal under
    ``cost``: their n(n-1) off-diagonal cells meet as SUCC (code 0) against PREC (code 2)."""
    return math.sqrt(n * (n - 1) * float(cost[0, 2]))


#: Per convention, the score of the codes SUCC, EQUIV and PREC; a total order has no UNKNOWN.
_CODE_SCORE = {
    PsmConvention.SIGNED: np.array([1.0, 0.0, -1.0]),
    PsmConvention.UNIT: np.array([1.0, 0.5, 0.0]),
}
_COST = {convention: pair_cost(score) for convention, score in _CODE_SCORE.items()}


def max_psm_distance(n: int, convention: PsmConvention = PsmConvention.SIGNED) -> float:
    """Distance between the score matrices of the strict chain over n objects
    and of its reversal: the normalization constant, 2*sqrt(n(n-1)) signed or
    sqrt(n(n-1)) unit.  Raises DegenerateUniverseError below two objects."""
    return max_distance(common_size(n, n), _COST[convention])


def normalized_distance(tpo1: WeakOrder, tpo2: WeakOrder) -> float:
    """Frobenius distance between the score matrices of two total orders, scaled into [0, 1].

    Both conventions give the same bits, so it takes none: the unit costs are
    the signed costs / 4, and the root of a sum scaled by 4 is exactly twice
    the root of the sum.  Raises NotTotalError when either order leaves an
    object unmentioned.
    """
    n = common_size(tpo1.universe_size, tpo2.universe_size)
    if not (tpo1.is_total and tpo2.is_total):
        raise NotTotalError("ordering does not mention every object in the universe")
    cost = _COST[PsmConvention.SIGNED]
    return category_distance(tpo1, tpo2, cost) / max_distance(n, cost)
