"""Exhaustive generation of weak orders and of the completions of a partial one.

The number of weak orders of n objects is the n-th ordered Bell (Fubini)
number: 1, 3, 13, 75, 541, 4683, ...  The completions of a partial order are
read from one rank array per order shape (m classes, u unmentioned objects),
which one generator builds once per process by inserting each unmentioned
object into every row; the weak orders of n objects are the completions of the
order that mentions none of them.  The blowup is guarded by a hard cap;
exceeding it raises instead of truncating silently.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
from numpy.typing import NDArray

from .errors import CapExceededError
from .model import WeakOrder

#: Largest universe enumerated by default (545,835 weak orders at n=8).
DEFAULT_ENUMERATION_CAP = 8


@functools.cache
def _shape_table(m: int, u: int) -> NDArray[np.signedinteger]:
    """The read-only completions of the shape (m, u): the chain of m singleton
    classes, columns 0..m-1, followed by u unmentioned objects, one per row,
    in the order the insertions make them (not sorted).

    Objects tied in a partial order stay tied in every completion, so each of
    its m classes completes like one object: up to a relabelling of columns,
    the completions of every order with m classes and u unmentioned objects
    are this table's rows.  Each unmentioned object in turn is inserted into
    every row: a row with k classes has 2k + 1 children, where choice 2g + 1
    joins class g and choice 2g opens a new class at gap g, shifting the ranks
    >= g up by one.  A completion's restriction to the objects placed so far
    fixes each earlier choice, so every completion is made exactly once.

    Orders of one shape recur, so the table is built once per process.
    ``compatible_tpos`` keeps the tables of width m + u <=
    DEFAULT_ENUMERATION_CAP, 44 shapes in at most 12,337,512 bytes, and
    builds a wider one, reached only with a raised cap, on each call.
    """
    # the smallest type holding -1..m+u-1: int8, an eighth of int64's memory, up to m + u = 128
    ranks = np.array([(*range(m), *(-1,) * u)], dtype=np.min_scalar_type(-(m + u)))
    for obj in range(m, m + u):
        children = 2 * ranks.max(axis=1).astype(np.intp) + 3
        ranks = np.repeat(ranks, children, axis=0)
        choice = np.arange(len(ranks)) - np.repeat(np.cumsum(children) - children, children)
        gap = choice // 2
        ranks += (choice % 2 == 0)[:, None] & (ranks >= gap[:, None])
        ranks[:, obj] = gap
    ranks.flags.writeable = False
    return ranks


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
    length is the number of completions.  The rows are gathered from the
    table of the order's shape (:func:`_shape_table`): each object reads its
    class's column, or its own column if unmentioned, and one lexicographic
    sort orders them.  The enumeration builds no incompatible order.  An order
    mentioning nothing is compatible with every total order; a total order
    only with itself.
    """
    n = ppo.universe_size
    _check_size(n, cap)
    fixed = ppo.rank_tuple
    m, u = max(fixed, default=-1) + 1, fixed.count(-1)
    table = (_shape_table if m + u <= DEFAULT_ENUMERATION_CAP else _shape_table.__wrapped__)(m, u)
    free = itertools.count(m)
    ranks = table.take([rank if rank >= 0 else next(free) for rank in fixed], axis=1)
    ranks = ranks.astype(np.min_scalar_type(-n), copy=False)
    ranks = ranks[np.lexsort(ranks.T[::-1])]
    ranks.flags.writeable = False
    return ranks
