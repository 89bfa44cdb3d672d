"""The pair-category rule of every order-based distance, and the distances built on it.

A cell of a preference score matrix, a direct mass grid or an indirect score
matrix is a lookup on its pair's relation code (see
:meth:`WeakOrder.relation_codes`), so each distance counts the cells per pair
of codes and weighs them by a cost table, without building any matrix.  This
module holds the classical distance between total orders and the belief
distances ``direct`` and ``indirect-*`` between partial ones; it needs no
numpy, whose import would cost a ``prefdist dist`` call more than its answer.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, repeat
from operator import and_, mul, or_

from .errors import NotTotalError
from .model import WeakOrder, common_size


class PsmConvention(Enum):
    """Numeric encoding of a pairwise comparison in the score matrix."""

    SIGNED = "signed"  # +1 preferred / -1 dispreferred / 0 tied; anti-symmetric
    UNIT = "unit"  # 1 preferred / 0 dispreferred / 0.5 tied; M + M^T = ones


class BbaMetric(Enum):
    """Distance between two mass functions used by the indirect method."""

    JOUSSELME = "jousselme"
    BELIEF_INTERVAL = "belief-interval"


#: The ``dist`` method name of each metric.
_METRIC_METHOD_NAME = {
    BbaMetric.JOUSSELME: "indirect-j",
    BbaMetric.BELIEF_INTERVAL: "indirect-bi",
}

# Squared distance between two cells, by their relation codes SUCC, EQUIV,
# PREC and UNKNOWN.  Tests derive each table from its definition, bit for bit.
_Cost = tuple[tuple[float, ...], ...]
#: Of the cells' mass functions, each certain on its code's subset.
_DIRECT_COST = (
    (0.0, 2.0, 2.0, 2.0),
    (2.0, 0.0, 2.0, 2.0),
    (2.0, 2.0, 0.0, 2.0),
    (2.0, 2.0, 2.0, 0.0),
)
#: Of the cells' indirect scores: their metric distance to certain preference.
_INDIRECT_COST = {
    BbaMetric.JOUSSELME: (
        (0.0, 1.0, 1.0, 0.6666666666666666),
        (1.0, 0.0, 0.0, 0.0336735048112146),
        (1.0, 0.0, 0.0, 0.0336735048112146),
        (0.6666666666666666, 0.0336735048112146, 0.0336735048112146, 0.0),
    ),
    BbaMetric.BELIEF_INTERVAL: (
        (0.0, 1.0, 1.0, 0.4999999999999999),
        (1.0, 0.0, 0.0, 0.085786437626905),
        (1.0, 0.0, 0.0, 0.085786437626905),
        (0.4999999999999999, 0.085786437626905, 0.085786437626905, 0.0),
    ),
}
#: Of the cells' scores, per convention; a total order has no UNKNOWN.
_COST = {
    PsmConvention.SIGNED: (
        (0.0, 1.0, 4.0, 0.0),
        (1.0, 0.0, 1.0, 0.0),
        (4.0, 1.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 0.0),
    ),
    PsmConvention.UNIT: (
        (0.0, 0.25, 1.0, 0.0),
        (0.25, 0.0, 0.25, 0.0),
        (1.0, 0.25, 0.0, 0.0),
        (0.0, 0.0, 0.0, 0.0),
    ),
}


def _tied_pairs(masks: Iterable[int]) -> int:
    """Unordered pairs of objects that share a class, the classes as bit masks."""
    sizes = list(map(int.bit_count, masks))
    return (sum(map(mul, sizes, sizes)) - sum(sizes)) // 2


def _category_counts(r1: tuple[int, ...], r2: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """4 x 4 table whose cell (a, b) counts the cells (i, j) of the N x N grid,
    diagonal included, that rank vector ``r1`` codes a and ``r2`` codes b.

    Let B be the objects both orders mention.  The cell (j, i) has the mirrored
    codes of (i, j), so the table follows from counts of unordered pairs: the
    pairs tied in either order, within B or within its own mentioned set; the
    pairs tied in both; and the discordant pairs, strict in both orders and in
    opposite directions.  Each class is a bit mask over the objects, so the
    last two counts take one AND and one popcount per object.  Up to a machine
    word of objects that is linear in N; past it, time and memory grow as N
    bits per class.
    """
    n = len(r1)
    # bit i of cls[g] is set when object i has rank g; cls[-1], which rank -1
    # reads, holds the unmentioned objects until it is cleared
    cls1 = [0] * (max(r1, default=-1) + 2)
    cls2 = [0] * (max(r2, default=-1) + 2)
    bit = 1
    for a, b in zip(r1, r2):
        cls1[a] |= bit
        cls2[b] |= bit
        bit <<= 1
    full = bit - 1
    mentioned1, mentioned2 = full ^ cls1[-1], full ^ cls2[-1]
    cls1[-1] = cls2[-1] = 0  # an unmentioned object pairs with nothing below
    both = mentioned1 & mentioned2
    # Objects j at or above object i's class in order 1 and at or below it in
    # order 2: i itself, the pairs tied in either order and the discordant pairs.
    at_or_above1 = list(accumulate(cls1, or_))
    at_or_above1[-1] = 0  # it held every class; at_or_below2[-1] is cls2[-1], 0
    at_or_below2 = list(accumulate(reversed(cls2), or_))[::-1]
    dominated = sum(map(int.bit_count, map(
        and_, map(at_or_above1.__getitem__, r1), map(at_or_below2.__getitem__, r2))))
    same_cells = sum(map(int.bit_count, map(
        and_, map(cls1.__getitem__, r1), map(cls2.__getitem__, r2))))
    m1, m2, m = mentioned1.bit_count(), mentioned2.bit_count(), both.bit_count()
    tied1, tied2 = _tied_pairs(cls1), _tied_pairs(cls2)  # within each mentioned set
    tied1_b = _tied_pairs(map(and_, cls1, repeat(both)))
    tied2_b = _tied_pairs(map(and_, cls2, repeat(both)))
    tied_both = (same_cells - m) // 2
    discordant = dominated - m - tied1_b - tied2_b
    pairs_b = m * (m - 1) // 2
    concordant = pairs_b - tied1_b - tied2_b + tied_both - discordant
    tie_strict, strict_tie = tied1_b - tied_both, tied2_b - tied_both
    strict_unknown = m1 * (m1 - 1) // 2 - tied1 - (pairs_b - tied1_b)
    unknown_strict = m2 * (m2 - 1) // 2 - tied2 - (pairs_b - tied2_b)
    unknown = n * (n - 1) - m1 * (m1 - 1) - m2 * (m2 - 1) + 2 * pairs_b
    return (
        (concordant, strict_tie, discordant, strict_unknown),
        (tie_strict, n + 2 * tied_both, tie_strict, 2 * (tied1 - tied1_b)),
        (discordant, strict_tie, concordant, strict_unknown),
        (unknown_strict, 2 * (tied2 - tied2_b), unknown_strict, unknown),
    )


def category_distance(order1: WeakOrder, order2: WeakOrder, cost: _Cost) -> float:
    """Root of the summed ``cost`` of the cells, counted by pair of relation codes.

    The 16 terms S * cost, S = K + K^T, are summed in the order numpy's pairwise
    sum takes for 16 contiguous float64 values, so the bits are those of
    ``(S * cost).sum()``; swapped operands give the same bits.
    """
    k = _category_counts(order1.rank_tuple, order2.rank_tuple)
    p = [(k[a][b] + k[b][a]) * cost[a][b] for a in range(4) for b in range(4)]
    r = [p[j] + p[j + 8] for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return math.sqrt(total / 2)


def max_distance(n: int, cost: _Cost) -> float:
    """Distance between the strict chain over n objects and its reversal under
    ``cost``: their n(n-1) off-diagonal cells meet as SUCC (code 0) against PREC (code 2)."""
    return math.sqrt(n * (n - 1) * cost[0][2])


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


@dataclass(frozen=True)
class DistanceReport:
    """Raw distance, the full-contradiction maximum, and their ratio."""

    method: str
    raw: float
    max: float
    normalized: float


def _report(method: str, raw: float, n: int, cost: _Cost) -> DistanceReport:
    maximum = max_distance(n, cost)
    return DistanceReport(method, raw, maximum, raw / maximum)


def direct_distance(ppo1: WeakOrder, ppo2: WeakOrder) -> DistanceReport:
    """Distance between two (partial) orders through their full mass grids.

    No enumeration is involved and no grid is built (see
    :func:`category_distance`).  Normalization divides by the
    chain-vs-reversed-chain distance.
    """
    n = common_size(ppo1.universe_size, ppo2.universe_size)
    return _report("direct", category_distance(ppo1, ppo2, _DIRECT_COST), n, _DIRECT_COST)


def indirect_distance(
    ppo1: WeakOrder, ppo2: WeakOrder, metric: BbaMetric
) -> DistanceReport:
    """Frobenius distance between the two score-alike matrices, normalized.

    A lossy compression of the pairwise evidence compared to the direct
    method: the N x N matrix keeps only each cell's distance to the
    reference, not the cell itself.
    """
    n = common_size(ppo1.universe_size, ppo2.universe_size)
    cost = _INDIRECT_COST[metric]
    return _report(_METRIC_METHOD_NAME[metric], category_distance(ppo1, ppo2, cost), n, cost)
