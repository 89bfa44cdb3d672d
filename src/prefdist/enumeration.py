"""Exhaustive generation of weak orders and of the completions of a partial one.

The number of weak orders of n objects is the n-th ordered Bell (Fubini)
number: 1, 3, 13, 75, 541, 4683, ...  The completions of a partial order come
from one rank array, built by inserting each unmentioned object into every
row; the weak orders of n objects are the completions of the order that
mentions none of them.  The blowup is guarded by a hard cap; exceeding it
raises instead of truncating silently.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import CapExceededError
from .model import WeakOrder

#: Largest universe enumerated by default (545,835 weak orders at n=8).
DEFAULT_ENUMERATION_CAP = 8


def _completions(fixed: Sequence[int]) -> NDArray[np.signedinteger]:
    """Every canonical rank vector agreeing with ``fixed``, one per row, sorted.

    ``fixed`` is a partial order's rank vector (-1 = unmentioned).  Each
    unmentioned object in turn is inserted into every row: a row with k
    classes has 2k + 1 children, where choice 2g + 1 joins class g and choice
    2g opens a new class at gap g, shifting the ranks >= g up by one.  A
    completion's restriction to the objects placed so far fixes each earlier
    choice, so every completion is made exactly once.
    """
    # the smallest type holding -1..n-1: int8, an eighth of int64's memory, up to n = 128
    ranks = np.array([fixed], dtype=np.min_scalar_type(-len(fixed)))
    for obj in np.flatnonzero(ranks[0] < 0):
        children = 2 * ranks.max(axis=1).astype(np.intp) + 3
        ranks = np.repeat(ranks, children, axis=0)
        choice = np.arange(len(ranks)) - np.repeat(np.cumsum(children) - children, children)
        gap = choice // 2
        ranks += (choice % 2 == 0)[:, None] & (ranks >= gap[:, None])
        ranks[:, obj] = gap
    return ranks[np.lexsort(ranks.T[::-1])]


def _check_size(n: int, cap: int | None) -> None:
    if n < 1:
        raise ValueError(f"need at least one object, got {n}")
    limit = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if limit < 1:
        raise ValueError(f"cap must be at least 1, got {limit}")
    if n > limit:
        raise CapExceededError(f"n={n} exceeds the enumeration cap {limit}")


def _completion_count(ppo: WeakOrder, *, cap: int | None = None) -> int:
    """How many completions ``compatible_tpos`` would make, counted without
    making them: by the insertion rule, a row with k classes has k children
    with k classes and k + 1 children with k + 1 classes."""
    n = ppo.universe_size
    _check_size(n, cap)
    counts = [0] * (n + 1)  # counts[k]: rows with k classes
    counts[max(ppo.rank_tuple, default=-1) + 1] = 1
    for _ in range(ppo.rank_tuple.count(-1)):
        counts = [0] + [k * (counts[k] + counts[k - 1]) for k in range(1, n + 1)]
    return sum(counts)


def compatible_tpos(ppo: WeakOrder, *, cap: int | None = None) -> NDArray[np.signedinteger]:
    """Every total order whose restriction to the mentioned objects equals ``ppo``.

    The result is a read-only array with one completion's rank vector per row,
    in lexicographic order, in the smallest signed type holding -1..n-1; its
    length is the number of completions.  The enumeration generates them
    directly and builds no incompatible order.  An order mentioning nothing is
    compatible with every total order; a total order only with itself.
    """
    _check_size(ppo.universe_size, cap)
    ranks = _completions(ppo.rank_tuple)
    ranks.flags.writeable = False
    return ranks
