"""The pair-category rule of every order-based distance, and the distances built on it.

A cell of a preference score matrix, a direct mass grid or an indirect score
matrix is a lookup on its pair's relation code, the position in
:class:`PairRelation` of how the row object compares with the column object
(SUCC 0, EQUIV 1 and the diagonal, PREC 2, UNKNOWN 3 when either is
unmentioned).  So each distance counts the cells per pair of codes and
weighs them by a cost table, without building any matrix.  Each
method is stated once, as its value per relation code, and its cost table is
derived from those values.  This module holds the classical distance between
total orders and the belief distances ``direct`` and ``indirect-*`` between
partial ones; it needs no numpy, whose import would cost a ``prefdist dist``
call more than its answer.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from collections.abc import Iterable
from enum import Enum
from typing import NamedTuple

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

#: The value of each relation code SUCC, EQUIV, PREC and UNKNOWN, from which
#: each method's cost table follows.  For ``direct`` it is the cell's mass
#: vector over the four subsets an order's cells hold.  An indirect score is
#: the cell's metric distance to certain strict preference; tests derive these
#: literals bit for bit.  A classical score is the score-matrix entry; the
#: classical distance takes total orders only, so UNKNOWN's score, the tie's,
#: is never read.
_DIRECT_MASS = tuple(tuple(float(a == b) for b in range(4)) for a in range(4))
_INDIRECT_SCORE = {
    BbaMetric.JOUSSELME: (0.0, 1.0, 1.0, 0.816496580927726),
    BbaMetric.BELIEF_INTERVAL: (0.0, 1.0, 1.0, 0.7071067811865475),
}
_SCORE = {
    PsmConvention.SIGNED: (1.0, 0.0, -1.0, 0.0),
    PsmConvention.UNIT: (1.0, 0.5, 0.0, 0.5),
}

_Cost = tuple[tuple[float, ...], ...]


def _cost(values: Iterable[float | tuple[float, ...]]) -> _Cost:
    """Squared distance between the cells of every two codes, given each code's value."""
    vectors = [v if isinstance(v, tuple) else (v,) for v in values]
    return tuple(tuple(sum((x - y) ** 2 for x, y in zip(u, v)) for v in vectors) for u in vectors)


_DIRECT_COST = _cost(_DIRECT_MASS)
_INDIRECT_COST = {metric: _cost(score) for metric, score in _INDIRECT_SCORE.items()}
_COST = {convention: _cost(score) for convention, score in _SCORE.items()}


def _tied_pairs(ordered: list[int]) -> int:
    """Pairs of equal items in the sorted list ``ordered``: a run of c equal
    items holds c(c - 1)/2, and each item pairs with those before it in its run."""
    pairs = run = 0
    for x, y in zip(ordered, ordered[1:]):
        if x == y:
            run += 1
            pairs += run
        else:
            run = 0
    return pairs


def _category_counts(r1: tuple[int, ...], r2: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """4 x 4 table whose cell (a, b) counts the cells (i, j) of the N x N grid,
    diagonal included, that rank vector ``r1`` codes a and ``r2`` codes b.

    Let B be the objects both orders mention.  The cell (j, i) has the mirrored
    codes of (i, j), so the table follows from counts of unordered pairs: the
    pairs tied in either order, within B or within its own mentioned set; the
    pairs tied in both; and the discordant pairs, strict in both orders and in
    opposite directions.  Knight's sort-and-count gives the last: B sorted by
    order-1 rank, then order-2 rank, and each object's order-2 rank checked
    against the sorted ranks of the objects before it.  The sorts take
    O(N log N) time and memory is O(N), but each insertion shifts up to N
    pointers, so the worst case (a chain against its reversal) is quadratic
    time.  The tie counts are run lengths: the loop reads the pairs of
    B tied in order 1, and those tied in both, from the runs of the sorted
    keys; :func:`_tied_pairs` reads the pairs of B tied in order 2 from the
    runs of the ranks the loop has sorted, and each order's ties from its
    sorted mentioned ranks.
    """
    n = len(r1)
    ranks1 = sorted(r1)[r1.count(-1) :]
    ranks2 = sorted(r2)[r2.count(-1) :]
    keys = sorted(a * (n + 1) + b for a, b in zip(r1, r2) if a >= 0 and b >= 0)
    seen: list[int] = []  # the order-2 ranks of the objects before, sorted
    discordant = tied1_b = tied_both = 0
    # where the current runs of equal keys and of equal order-1 ranks start, and
    # the value each run holds (for the second, key - b: the rank times N + 1)
    key_start = row_start = 0
    key_before = row_before = -1
    for i, key in enumerate(keys):
        b = key % (n + 1)
        if key != key_before:
            key_start, key_before = i, key
            if key - b != row_before:
                row_start, row_before = i, key - b
        tied_both += i - key_start
        tied1_b += i - row_start
        discordant += i - bisect_right(seen, b)
        insort(seen, b)
    tied1, tied2, tied2_b = _tied_pairs(ranks1), _tied_pairs(ranks2), _tied_pairs(seen)
    m1, m2, m = len(ranks1), len(ranks2), len(keys)
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


class DistanceReport(NamedTuple):
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
