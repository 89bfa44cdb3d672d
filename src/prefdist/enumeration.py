"""Exhaustive generation of weak orders and of the completions of a partial one.

The number of weak orders of n objects is the n-th ordered Bell (Fubini)
number: 1, 3, 13, 75, 541, 4683, ...  The blowup is guarded by a hard cap;
exceeding it raises instead of truncating silently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import CapExceededError
from .model import WeakOrder

#: Largest universe enumerated by default (545,835 weak orders at n=8).
DEFAULT_ENUMERATION_CAP = 8


def _rank_vectors(fixed: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Canonical rank vectors agreeing with ``fixed``, in lexicographic order.

    vec[i] is the class position of object i (0 = most preferred).  A vector
    is canonical when the set of used values is {0, ..., max}; each such
    vector corresponds to exactly one weak order.  ``fixed`` is a partial
    order's rank vector (-1 = unmentioned); a mentioned object only takes the
    values [lo, hi) that keep its relation to the mentioned objects before it.
    """
    n = len(fixed)
    vec: list[int] = []
    counts = [0] * n

    def extend(used_max: int, holes: int) -> Iterator[tuple[int, ...]]:
        pos = len(vec)
        if pos == n:
            if holes == 0:
                yield tuple(vec)
            return
        remaining = n - pos
        lo, hi, rank = 0, n, fixed[pos]
        if rank >= 0:
            for other, value in zip(fixed, vec):
                if 0 <= other <= rank:
                    lo = max(lo, value + (other < rank))
                if other >= rank:
                    hi = min(hi, value + (other == rank))
        for value in range(lo, hi):
            if counts[value] == 0:
                if value <= used_max:
                    new_max, new_holes = used_max, holes - 1
                else:
                    new_max, new_holes = value, holes + (value - used_max - 1)
            else:
                new_max, new_holes = used_max, holes
            if new_holes > remaining - 1:
                continue  # not enough slots left to fill every gap
            counts[value] += 1
            vec.append(value)
            yield from extend(new_max, new_holes)
            vec.pop()
            counts[value] -= 1

    yield from extend(-1, 0)


def _check_size(n: int, cap: int | None) -> None:
    if n < 1:
        raise ValueError(f"need at least one object, got {n}")
    limit = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if n > limit:
        raise CapExceededError(f"n={n} exceeds the enumeration cap {limit}")


def _order_from_ranks(ranks: Sequence[int]) -> WeakOrder:
    buckets: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
    for idx, rank in enumerate(ranks):
        buckets[rank].append(idx)
    return WeakOrder(tuple(tuple(bucket) for bucket in buckets), len(ranks))


def enumerate_weak_orders(n: int, *, cap: int | None = None) -> Iterator[WeakOrder]:
    """Lazily yield every total weak order of n objects, exactly once.

    The sequence is deterministic and repeatable: orders appear in
    lexicographic order of their rank vectors.
    """
    _check_size(n, cap)
    return map(_order_from_ranks, _rank_vectors((-1,) * n))


@dataclass(frozen=True)
class CompatibleSet:
    """A partial order together with every total order that completes it.

    ``ranks`` holds one completion per row, as a read-only rank vector; the
    ``WeakOrder`` values are built from it only when ``ctpos`` is read.  The
    completions are a function of ``ppo``, so sets compare and hash by it.
    """

    ppo: WeakOrder
    ranks: NDArray[np.int64] = field(compare=False)

    @cached_property
    def ctpos(self) -> tuple[WeakOrder, ...]:
        return tuple(map(_order_from_ranks, self.ranks.tolist()))

    @property
    def count(self) -> int:
        return len(self.ranks)


def compatible_tpos(ppo: WeakOrder, *, cap: int | None = None) -> CompatibleSet:
    """Every total order whose restriction to the mentioned objects equals ``ppo``.

    The enumeration generates them directly and builds no incompatible order.
    An order mentioning nothing is compatible with every total order; a total
    order only with itself.  Completions follow the enumeration order.
    """
    n = ppo.universe_size
    _check_size(n, cap)
    vectors = _rank_vectors(ppo.rank_vector.tolist())
    flat = np.fromiter(itertools.chain.from_iterable(vectors), dtype=np.int64)
    ranks = flat.reshape(-1, n)
    ranks.flags.writeable = False
    return CompatibleSet(ppo, ranks)
