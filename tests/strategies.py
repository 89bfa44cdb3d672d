"""Order generators shared by the property and differential tests."""

import itertools

from hypothesis import strategies as st

from prefdist import WeakOrder, enumerate_weak_orders


def all_partial_orders(n):
    """Every weak order over every subset of n objects, the empty order first."""
    orders = [WeakOrder((), n)]
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            for order in enumerate_weak_orders(k):
                classes = tuple(tuple(subset[i] for i in group) for group in order.classes)
                orders.append(WeakOrder(classes, n))
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
