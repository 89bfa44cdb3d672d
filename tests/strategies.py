"""Order generators, and the order and mass helpers, shared by the tests.

The helpers read a ``WeakOrder`` only through ``rank_tuple`` and a
``MassFunction`` only through ``masses``; the order helpers go through
:class:`ReferenceWeakOrder`, the tie-class tuples that ``WeakOrder`` replaced.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from prefdist import (
    DuplicateObjectError,
    IndexOutOfRangeError,
    MassFunction,
    PairRelation,
    PsmConvention,
    WeakOrder,
    compatible_tpos,
)


@dataclass(frozen=True)
class ReferenceWeakOrder:
    """Ordered disjoint tie-classes of object indices; earlier class wins.

    ``classes`` is canonical: within each class indices are sorted ascending.
    The class sequence itself is semantic and never reordered.
    """

    classes: tuple[tuple[int, ...], ...]
    universe_size: int

    def __post_init__(self) -> None:
        if self.universe_size < 0:
            raise ValueError("universe_size must be non-negative")
        canonical = tuple(tuple(sorted(group)) for group in self.classes)
        object.__setattr__(self, "classes", canonical)
        seen: set[int] = set()
        for group in canonical:
            if not group:
                raise ValueError("tie-classes must be non-empty")
            for idx in group:
                if not 0 <= idx < self.universe_size:
                    raise IndexOutOfRangeError(
                        f"object index {idx} outside [0, {self.universe_size})"
                    )
                if idx in seen:
                    raise DuplicateObjectError(f"object index {idx} appears twice")
                seen.add(idx)

    @property
    def mentioned(self) -> frozenset[int]:
        return frozenset(idx for group in self.classes for idx in group)

    @property
    def is_total(self) -> bool:
        return len(self.mentioned) == self.universe_size

    @functools.cached_property
    def rank_vector(self):
        ranks = [-1] * self.universe_size
        for pos, group in enumerate(self.classes):
            for idx in group:
                ranks[idx] = pos
        vector = np.array(ranks, dtype=np.int64)
        vector.flags.writeable = False
        return vector

    def relation(self, i: int, j: int) -> PairRelation:
        for idx in (i, j):
            if not 0 <= idx < self.universe_size:
                raise IndexOutOfRangeError(
                    f"object index {idx} outside [0, {self.universe_size})"
                )
        if i == j:
            return PairRelation.EQUIV
        ri, rj = self.rank_vector[i], self.rank_vector[j]
        if ri < 0 or rj < 0:
            return PairRelation.UNKNOWN
        if ri == rj:
            return PairRelation.EQUIV
        return PairRelation.SUCC if ri < rj else PairRelation.PREC

    def reverse(self) -> "ReferenceWeakOrder":
        return ReferenceWeakOrder(tuple(reversed(self.classes)), self.universe_size)

    def restrict(self, subset) -> "ReferenceWeakOrder":
        keep = frozenset(subset)
        extra = keep - self.mentioned
        if extra:
            raise ValueError(f"indices not mentioned by the ordering: {sorted(extra)}")
        groups = []
        for group in self.classes:
            kept = tuple(idx for idx in group if idx in keep)
            if kept:
                groups.append(kept)
        return ReferenceWeakOrder(tuple(groups), self.universe_size)


def reference_order_of_ranks(ranks) -> ReferenceWeakOrder:
    buckets: list[list[int]] = [[] for _ in range(max(ranks, default=-1) + 1)]
    for idx, rank in enumerate(ranks):
        if rank >= 0:
            buckets[rank].append(idx)
    return ReferenceWeakOrder(tuple(map(tuple, buckets)), len(ranks))


def _reference(order):
    return reference_order_of_ranks(order.rank_tuple)


def reference_relation_codes(order):
    """N x N int8 codes of ``order``: entry (i, j) is the position in PairRelation
    of how object i compares with object j (SUCC 0, EQUIV 1 and the diagonal,
    PREC 2, UNKNOWN 3 when either is unmentioned)."""
    r = np.array(order.rank_tuple, dtype=np.int64)
    codes = (np.sign(r[:, None] - r[None, :]) + 1).astype(np.int8)
    codes[(r[:, None] < 0) | (r[None, :] < 0)] = 3
    np.fill_diagonal(codes, 1)
    return codes


def classes(order):
    """The tie-classes of ``order`` in preference order, each in ascending object order."""
    return _reference(order).classes


def mentioned(order):
    return _reference(order).mentioned


def reverse(order):
    """The same tie-classes in the opposite sequence."""
    return WeakOrder(_reference(order).reverse().classes, order.universe_size)


def restrict(order, subset):
    """``order`` without the objects outside ``subset``, which it must mention."""
    return WeakOrder(_reference(order).restrict(subset).classes, order.universe_size)


def chain_order(n):
    """The strict chain: object 0 over object 1 over ... over object n-1."""
    return WeakOrder.from_ranks(range(n))


#: Orientation swap (i, j) -> (j, i): preferred and dispreferred atoms trade
#: places, so mask k takes the mass of mask _SWAPPED_MASK[k] (an involution).
_SWAPPED_MASK = (0, 4, 2, 6, 1, 5, 3, 7)


def swapped(m):
    """The same evidence read in the reversed pair orientation (j, i)."""
    return MassFunction(tuple(m.masses[k] for k in _SWAPPED_MASK))


#: Per convention, the score of the relation codes SUCC, EQUIV and PREC; a
#: total order has no UNKNOWN.
CODE_SCORE = {
    PsmConvention.SIGNED: np.array([1.0, 0.0, -1.0]),
    PsmConvention.UNIT: np.array([1.0, 0.5, 0.0]),
}


def pair_cost(values):
    """Squared distance of every two codes' values, summed over any trailing axis."""
    return np.atleast_3d(np.square(values[:, None] - values)).sum(axis=-1)


def ctpos(order):
    """The completions of ``order`` as ``WeakOrder`` values, one per row of
    ``compatible_tpos(order)``; the rows are dense, so they skip the check."""
    return tuple(WeakOrder._dense(tuple(row)) for row in compatible_tpos(order).tolist())


def all_weak_orders(n):
    """Every weak order of n objects, in lexicographic order of their rank
    vectors: the completions of the order that mentions none of them."""
    return ctpos(WeakOrder((), n))


def all_partial_orders(n):
    """Every weak order over every subset of n objects, the empty order first."""
    orders = [WeakOrder((), n)]
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            for order in all_weak_orders(k):
                groups = tuple(tuple(subset[i] for i in group) for group in classes(order))
                orders.append(WeakOrder(groups, n))
    return orders


@st.composite
def weak_orders(draw, min_n=1, max_n=5, total=False):
    n = draw(st.integers(min_n, max_n))
    ranks = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    if total:
        kept = list(range(n))
    else:
        flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        kept = [i for i, flag in enumerate(flags) if flag]
    levels = sorted({ranks[i] for i in kept})
    classes = tuple(
        tuple(i for i in kept if ranks[i] == level) for level in levels
    )
    return WeakOrder(classes, n)


#: Characters a mutation inserts or substitutes into preference text; the
#: whitespace runs from ASCII to the file separator, NEL, NBSP and the
#: ideographic space, which ``str.split`` and ``str.strip`` also treat as space.
MUTATION_ALPHABET = "ABCDEFGx_1Z9()=>#é \t\n\x1c\x85\xa0\u3000"


@st.composite
def preference_texts(draw, labels, unique=False):
    """Preference text built from the grammar over one to eight of ``labels``
    (a label may repeat unless ``unique``), with random whitespace around every
    token; most texts then get one to three character insertions, deletions
    or replacements from MUTATION_ALPHABET."""
    space = st.sampled_from(["", "", " ", "  ", "\t"])
    names = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=8, unique=unique))
    groups = []
    while names:
        size = min(draw(st.sampled_from([1, 1, 2, 3])), len(names))
        tie, names = names[:size], names[size:]
        padded = [draw(space) + name + draw(space) for name in tie]
        group = padded[0] if size == 1 else "(" + "=".join(padded) + ")"
        groups.append(draw(space) + group + draw(space))
    text = ">".join(groups)
    if draw(st.integers(0, 9)) < 7:
        for _ in range(draw(st.integers(1, 3))):
            pos = draw(st.integers(0, len(text)))
            kind = draw(st.sampled_from(["insert", "delete", "replace"]))
            char = draw(st.sampled_from(MUTATION_ALPHABET))
            if kind == "insert":
                text = text[:pos] + char + text[pos:]
            elif pos < len(text):
                text = text[:pos] + ("" if kind == "delete" else char) + text[pos + 1:]
    return text
