"""Preference-score matrices, and the pair-category rule of every order-based distance.

A cell of a score matrix, a direct mass grid or an indirect score matrix is a
lookup on its pair's relation code (see :meth:`WeakOrder.relation_codes`), so
each distance counts the cells per pair of codes and weighs them by a cost table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from .errors import ConventionMismatchError, DimensionMismatchError, NotTotalError
from .model import WeakOrder, _relation_codes, common_size


class PsmConvention(Enum):
    """Numeric encoding of a pairwise comparison in the score matrix."""

    SIGNED = "signed"  # +1 preferred / -1 dispreferred / 0 tied; anti-symmetric
    UNIT = "unit"  # 1 preferred / 0 dispreferred / 0.5 tied; M + M^T = ones


@dataclass(frozen=True, eq=False)
class PreferenceScoreMatrix:
    """N x N pairwise score matrix; entry (i, j) scores object i against object j."""

    entries: NDArray[np.float64]
    convention: PsmConvention


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


def _check_total(*orders: WeakOrder) -> None:
    if not all(order.is_total for order in orders):
        raise NotTotalError("ordering does not mention every object in the universe")


def build_psm(
    tpo: WeakOrder, convention: PsmConvention = PsmConvention.SIGNED
) -> PreferenceScoreMatrix:
    """Score matrix of a total order.

    Raises NotTotalError when the order leaves any object unmentioned: a
    partial order has no well-defined score for the missing pairs.
    """
    _check_total(tpo)
    return PreferenceScoreMatrix(_CODE_SCORE[convention][tpo.relation_codes()], convention)


def frobenius_distance(
    m1: PreferenceScoreMatrix, m2: PreferenceScoreMatrix
) -> float:
    """Square root of the summed squared entrywise differences."""
    if m1.entries.shape != m2.entries.shape:
        raise DimensionMismatchError(
            f"matrix shapes differ: {m1.entries.shape} vs {m2.entries.shape}"
        )
    if m1.convention is not m2.convention:
        raise ConventionMismatchError(
            f"cannot mix conventions {m1.convention.value} and {m2.convention.value}"
        )
    return float(np.linalg.norm(m1.entries - m2.entries))


def max_psm_distance(n: int, convention: PsmConvention = PsmConvention.SIGNED) -> float:
    """Distance between the score matrices of the strict chain over n objects
    and of its reversal: the normalization constant, 2*sqrt(n(n-1)) signed or
    sqrt(n(n-1)) unit.  Raises DegenerateUniverseError below two objects."""
    return max_distance(common_size(n, n), _COST[convention])


def normalized_distance(
    tpo1: WeakOrder,
    tpo2: WeakOrder,
    convention: PsmConvention = PsmConvention.SIGNED,
) -> float:
    """Frobenius distance between the score matrices of two total orders, scaled into [0, 1].

    The value is the same under both conventions: unit-convention matrices
    are an affine rescaling of signed ones, and the normalization cancels it.
    """
    n = common_size(tpo1.universe_size, tpo2.universe_size)
    _check_total(tpo1, tpo2)
    cost = _COST[convention]
    return category_distance(tpo1, tpo2, cost) / max_distance(n, cost)
