"""Hypothesis strategies shared by the property and differential tests."""

from hypothesis import strategies as st

from prefdist import WeakOrder


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
