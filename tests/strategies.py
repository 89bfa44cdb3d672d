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
