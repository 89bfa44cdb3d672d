"""Differential tests: the fast paths against the slow reference implementations.

The reference functions below are the original implementations: one relation
per object pair read from the tie-class tuples, one mass function per grid cell,
one metric call per cell, and maxima measured between the strict chain and
its reversal; for mass-grid files, one mass vector parsed and checked per
cell into a tuple grid; for the brute-force method, completions found by
filtering every weak order that a per-object recursion generates, one score
matrix built per order and one Frobenius distance per completion pair, the
completions of an order that leaves at most one object out written down by
their definition (for sizes that the filter cannot reach), and
the float64 grid that a Gram product over whole score matrices gave; for
the command line, one ``json.dumps`` of the whole reply and one ``repr`` per
table cell; for preference text, a character-loop tokenizer and a
recursive-descent parser, and the group loop that split every text on ``>``
and ``=`` (the oracle of the error messages); for the pair-category table,
one int64-ranked code array per order and one ``bincount`` of the two, summed
by numpy.
They are slow and stay here only as oracles.
"""

import contextlib
import functools
import io
import itertools
import json
import math
import os
import re
import string
import sys
import tempfile
import threading
import tracemalloc
from collections import Counter
from typing import Iterator, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefdist import (
    ATOM_EQUIV,
    ATOM_PREC,
    ATOM_SUCC,
    FULL_FRAME,
    BbaFormatError,
    BbaMatrix,
    BbaMetric,
    DimensionMismatchError,
    DuplicateObjectError,
    EmptyExpressionError,
    MassFunction,
    NotTotalError,
    ObjectUniverse,
    PairRelation,
    PreferenceSyntaxError,
    PrefdistError,
    PsmConvention,
    UnnormalizedMassError,
    WeakOrder,
    belief_interval_distance,
    bfm_distance,
    compatible_tpos,
    direct_distance,
    direct_distance_general,
    indirect_distance,
    jousselme_distance,
    load_bba_matrix,
    max_psm_distance,
    normalized_distance,
    parse_preference,
    render_preference,
)
from prefdist import bfm, cli
from prefdist.model import _LABEL, render_ranks
from prefdist.psm import (
    _COST,
    _DIRECT_COST,
    _INDIRECT_COST,
    _INDIRECT_SCORE,
    _SCORE,
    _category_counts,
    _tied_pairs,
)

from strategies import (
    CODE_SCORE,
    ReferenceWeakOrder,
    all_partial_orders,
    all_weak_orders,
    chain_order,
    classes,
    ctpos,
    mentioned,
    pair_cost,
    preference_texts,
    reference_order_of_ranks,
    reference_relation_codes,
    restrict,
    reverse,
    weak_orders,
)

MAX_N = 7
REFERENCE_METRIC = {
    BbaMetric.JOUSSELME: jousselme_distance,
    BbaMetric.BELIEF_INTERVAL: belief_interval_distance,
}
SUCC_CERTAIN = MassFunction.certain(ATOM_SUCC)
#: The focal set of each relation: its state, or the whole frame when unknown.
RELATION_MASK = {
    PairRelation.SUCC: ATOM_SUCC,
    PairRelation.EQUIV: ATOM_EQUIV,
    PairRelation.PREC: ATOM_PREC,
    PairRelation.UNKNOWN: FULL_FRAME,
}


def reference_cells(order):
    """The mass function of every cell (i, j): certain on how object i compares
    with object j, vacuous when either is unmentioned, tied on the diagonal."""
    ref = reference_order_of_ranks(order.rank_tuple)
    n = order.universe_size
    return [
        [MassFunction.certain(RELATION_MASK[ref.relation(i, j)]) for j in range(n)]
        for i in range(n)
    ]


def reference_bba_matrix(order):
    return BbaMatrix(tuple(map(tuple, reference_cells(order))))


def reference_grid_array(rows):
    """An (n, n, 8) array from a grid of mass vectors, as the old ``as_array``."""
    return np.array(rows, dtype=np.float64)


def reference_grid_distance(b1, b2):
    a1, a2 = (reference_grid_array(b.masses.tolist()) for b in (b1, b2))
    return float(np.linalg.norm(a1 - a2))


FOCAL_KEYS = {"1": 1, "2": 2, "3": 4, "1|2": 3, "1|3": 5, "2|3": 6, "1|2|3": 7}


def reference_mass_vector(values):
    values = tuple(float(v) for v in values)
    if len(values) != 8:
        raise UnnormalizedMassError(f"mass vector needs 8 components, got {len(values)}")
    if values[0] != 0.0:
        raise UnnormalizedMassError(f"empty set must carry zero mass, got {values[0]}")
    if not all(v >= 0.0 for v in values):
        raise UnnormalizedMassError("masses must be non-negative")
    total = 0.0
    for v in values:  # sum(values) before Python 3.12, which compensates
        total += v
    if not abs(total - 1.0) <= 1e-9:
        raise UnnormalizedMassError(f"masses sum to {total!r}, expected 1")
    return values


def reference_cell_from_json(cell):
    if not isinstance(cell, dict):
        raise BbaFormatError("cell must be an object mapping focal-set keys to masses")
    values = [0.0] * 8
    for key, mass in cell.items():
        mask = FOCAL_KEYS.get(key)
        if mask is None:
            raise BbaFormatError(
                f"invalid focal-set key {key!r} (expected one of {', '.join(sorted(FOCAL_KEYS))})"
            )
        if isinstance(mass, bool) or not isinstance(mass, (int, float)):
            raise BbaFormatError(f"mass for {key!r} must be a number, got {mass!r}")
        values[mask] = float(mass)
    return reference_mass_vector(values)


def reference_load(document):
    """The tuple grid of checked mass vectors, or the first fault in row-major order."""
    if not isinstance(document, dict):
        raise BbaFormatError("top-level value must be a JSON object")
    n = document.get("n")
    cells = document.get("cells")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise BbaFormatError("'n' must be a positive integer")
    if not isinstance(cells, list) or len(cells) != n:
        raise BbaFormatError(f"'cells' must be a list of {n} rows")
    rows = []
    for i, row in enumerate(cells):
        if not isinstance(row, list) or len(row) != n:
            raise BbaFormatError(f"row {i} must hold {n} cells")
        parsed_row = []
        for j, cell in enumerate(row):
            try:
                parsed_row.append(reference_cell_from_json(cell))
            except (BbaFormatError, UnnormalizedMassError) as exc:
                raise type(exc)(f"cell ({i}, {j}): {exc}") from None
        rows.append(tuple(parsed_row))
    return tuple(rows)


def reference_direct_max(n):
    chain = chain_order(n)
    return reference_grid_distance(
        reference_bba_matrix(chain), reference_bba_matrix(reverse(chain))
    )


def reference_indirect_psm(order, metric):
    """Score-alike matrix: entry (i, j) is the metric distance from cell (i, j)
    to certain row-over-column preference."""
    distance = REFERENCE_METRIC[metric]
    cells = reference_cells(order)
    return np.array([[distance(cell, SUCC_CERTAIN) for cell in row] for row in cells])


def reference_indirect_max(n, metric):
    chain = chain_order(n)
    return float(
        np.linalg.norm(
            reference_indirect_psm(chain, metric)
            - reference_indirect_psm(reverse(chain), metric)
        )
    )


def reference_rank_vectors(fixed: Sequence[int]) -> Iterator[tuple[int, ...]]:
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


def reference_order(ranks):
    n = len(ranks)
    return WeakOrder(
        tuple(tuple(i for i in range(n) if ranks[i] == rank) for rank in range(max(ranks) + 1)), n
    )


def reference_compatible_tpos(ppo):
    known = mentioned(ppo)
    return tuple(
        candidate
        for candidate in map(reference_order, reference_rank_vectors((-1,) * ppo.universe_size))
        if restrict(candidate, known) == ppo
    )


def reference_insertions(order):
    """The completions of an order that leaves at most one object out, by the
    definition and not by enumeration, sorted by rank vector: a total order
    completes only to itself, and the one unmentioned object either joins one
    of the k classes or opens a new class in one of the k + 1 gaps."""
    ranks = order.rank_tuple
    if order.is_total:
        return (order,)
    obj, k = ranks.index(-1), max(ranks) + 1
    rows = []
    for gap in range(k + 1):
        rows.append([gap if i == obj else r + (r >= gap) for i, r in enumerate(ranks)])
        if gap < k:
            rows.append([gap if i == obj else r for i, r in enumerate(ranks)])
    return tuple(map(WeakOrder.from_ranks, sorted(rows)))


def reference_build_psm(tpo, convention):
    """The score matrix of a total order: entry (i, j) scores object i against object j."""
    r = np.array(tpo.rank_tuple, dtype=np.float64)
    signed = np.sign(r[None, :] - r[:, None])
    return signed if convention is PsmConvention.SIGNED else (signed + 1.0) / 2.0


def reference_max_psm_distance(n, convention):
    chain = chain_order(n)
    m1, m2 = (reference_build_psm(order, convention) for order in (chain, reverse(chain)))
    return float(np.linalg.norm(m1 - m2))


def reference_bfm_grid(ppo1, ppo2, convention, completions=reference_compatible_tpos):
    maximum = reference_max_psm_distance(ppo1.universe_size, convention)
    psms1 = [reference_build_psm(t, convention) for t in completions(ppo1)]
    psms2 = [reference_build_psm(t, convention) for t in completions(ppo2)]
    grid = np.empty((len(psms1), len(psms2)))
    for i, m1 in enumerate(psms1):
        for j, m2 in enumerate(psms2):
            grid[i, j] = float(np.linalg.norm(m1 - m2)) / maximum
    return grid


@functools.cache
def float_score_rows(order):
    """The flattened signed score matrix of each completion of ``order``."""
    ranks = compatible_tpos(order)
    signed = np.sign(ranks[:, None, :] - ranks[:, :, None])  # +1 where row outranks column
    return signed.astype(np.float64).reshape(len(ranks), -1)


def float_gram_grid(ppo1, ppo2):
    """The normalized grid as a float64 Gram product over whole score matrices."""
    a, b = float_score_rows(ppo1), float_score_rows(ppo2)
    grid = (-2.0 * a) @ b.T
    grid += np.einsum("ij,ij->i", a, a)[:, None]
    grid += np.einsum("ij,ij->i", b, b)
    return np.divide(np.sqrt(grid, out=grid), max_psm_distance(ppo1.universe_size), out=grid)


def reference_grid_text(squared, n, seps):
    """The grid of cells sqrt(k) / max, one ``repr`` per cell, with ``seps``
    after each cell, each row and the last row."""
    maximum = reference_max_psm_distance(n, PsmConvention.SIGNED)
    cell, row, end = seps
    return row.join(
        cell.join(repr(math.sqrt(k) / maximum) for k in values) for values in squared.tolist()
    ) + end


def reference_render_preference(order: ReferenceWeakOrder, universe: ObjectUniverse) -> str:
    parts = []
    for group in order.classes:
        labels = [universe.labels[idx] for idx in group]
        parts.append(labels[0] if len(labels) == 1 else "(" + " = ".join(labels) + ")")
    return " > ".join(parts)


_TOKEN = re.compile(r"[A-Za-z0-9_]+|[>=()]")
_SYMBOLS = {">", "=", "(", ")"}


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(text, pos)
        if match is None:
            raise PreferenceSyntaxError(f"unexpected character {text[pos]!r}")
        tokens.append(match.group())
        pos = match.end()
    return tokens


def reference_parse_preference(text: str, universe: ObjectUniverse) -> WeakOrder:
    """Parse ``A > (B = C) > D`` style text into a weak order over ``universe``.

    Every identifier must name a universe object and may appear only once.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise EmptyExpressionError("empty preference expression")

    pos = 0

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise PreferenceSyntaxError("unexpected end of expression")
        token = tokens[pos]
        if expected is not None and token != expected:
            raise PreferenceSyntaxError(f"expected {expected!r}, got {token!r}")
        pos += 1
        return token

    def take_ident() -> str:
        token = take()
        if token in _SYMBOLS:
            raise PreferenceSyntaxError(f"expected an object name, got {token!r}")
        return token

    def take_group() -> list[str]:
        if pos < len(tokens) and tokens[pos] == "(":
            take("(")
            members = [take_ident()]
            take("=")
            members.append(take_ident())
            while pos < len(tokens) and tokens[pos] == "=":
                take("=")
                members.append(take_ident())
            take(")")
            return members
        return [take_ident()]

    groups = [take_group()]
    while pos < len(tokens):
        take(">")
        groups.append(take_group())

    seen: set[str] = set()
    indexed: list[tuple[int, ...]] = []
    for members in groups:
        for label in members:
            if label in seen:
                raise DuplicateObjectError(f"object {label!r} mentioned twice")
            seen.add(label)
        indexed.append(tuple(universe.index(label) for label in members))
    return WeakOrder(tuple(indexed), len(universe))


def reference_group_loop_parse(text: str, universe: ObjectUniverse) -> WeakOrder:
    """Split the text on ``>``, strip each group and split a parenthesized one on
    ``=``; every error it raises is the one the parser must raise."""
    if not text.strip():
        raise EmptyExpressionError("empty preference expression")
    groups: list[list[str]] = []
    for part in text.split(">"):
        group = part.strip()
        tie = group.startswith("(") and group.endswith(")")
        members = [label.strip() for label in group[1:-1].split("=")] if tie else [group]
        if (tie and len(members) < 2) or not all(map(_LABEL.fullmatch, members)):
            raise PreferenceSyntaxError(
                f"malformed group {group!r}: expected an object name [A-Za-z0-9_]+ "
                "or a tie of two or more names, such as '(A = B)'"
            )
        groups.append(members)

    seen: set[str] = set()
    ranks = [-1] * len(universe)
    for pos, members in enumerate(groups):
        for label in members:
            if label in seen:
                raise DuplicateObjectError(f"object {label!r} mentioned twice")
            seen.add(label)
        for label in members:
            ranks[universe.index(label)] = pos
    return WeakOrder.from_ranks(ranks)


def reference_category_counts(order1: WeakOrder, order2: WeakOrder) -> np.ndarray:
    codes = 4 * reference_relation_codes(order1) + reference_relation_codes(order2)
    return np.bincount(codes.ravel(), minlength=16).reshape(4, 4)


def bincount_distance(order1: WeakOrder, order2: WeakOrder, cost) -> float:
    """The library's distance expression over the oracle's K, summed by numpy."""
    k = reference_category_counts(order1, order2)
    return math.sqrt(float(((k + k.T) * np.array(cost)).sum()) / 2)


def reference_emit(payload, fmt, report=None):  # renders every cell of the payload's grid
    if "grid" in payload:  # the payload carries the squared distances k
        maximum = reference_max_psm_distance(len(payload["objects"]), PsmConvention.SIGNED)
        grid = [[math.sqrt(k) / maximum for k in row] for row in payload["grid"].tolist()]
        payload = {**payload, "grid": grid}
    if fmt == "json":
        print(json.dumps(payload))
        return
    for key, value in payload.items():
        if key == "grid":
            print("grid:")
            for row in value:
                print("  " + "  ".join(repr(v) for v in row))
        elif isinstance(value, float):
            print(f"{key}: {value!r}")
        elif isinstance(value, list):
            print(f"{key}: " + ", ".join(str(v) for v in value))
        else:
            print(f"{key}: {value}")


def cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def assert_stdout_matches_reference(argv):
    with mock.patch.object(cli, "_emit", reference_emit):
        expected = cli_stdout(argv)
    actual = cli_stdout(argv)
    same = actual == expected  # a bare assert would diff megabytes of text
    assert same, (argv, len(os.path.commonprefix([actual, expected])))


def assert_bfm_stdout_matches_reference(a, b, convention, fmt):
    universe = ObjectUniverse(tuple("ABCDEFG"[: a.universe_size]))
    assert_stdout_matches_reference([
        "dist", "--method", "bfm", "--objects", ",".join(universe.labels),
        "--pref1", render_preference(a, universe), "--pref2", render_preference(b, universe),
        "--conv", convention.value, "--format", fmt,
    ])


def assert_completions_match_reference(order):
    expected = reference_compatible_tpos(order)
    assert ctpos(order) == expected
    assert compatible_tpos(order).tolist() == [list(t.rank_tuple) for t in expected]


@st.composite
def order_pairs(draw, max_n=MAX_N, total=False):
    """Two orders over one universe of 2..max_n objects, possibly partial unless ``total``."""
    n = draw(st.integers(2, max_n))
    return (
        draw(weak_orders(min_n=n, max_n=n, total=total)),
        draw(weak_orders(min_n=n, max_n=n, total=total)),
    )


@st.composite
def valid_cells(draw):
    """A normalized cell: certain, or weights over a few focal sets, with
    zero and negative-zero masses mixed in and a whole weight written as the
    integer 1."""
    keys = draw(st.lists(st.sampled_from(sorted(FOCAL_KEYS)), min_size=1, max_size=7, unique=True))
    if len(keys) == 1:
        return {keys[0]: draw(st.sampled_from([1, 1.0]))}
    weights = draw(st.lists(st.integers(0, 50), min_size=len(keys), max_size=len(keys)))
    weights[0] += 1
    total = sum(weights)
    zero = st.sampled_from([0, 0.0, -0.0])
    return {
        key: draw(zero) if w == 0 else 1 if w == total else w / total
        for key, w in zip(keys, weights)
    }


def _break_cell(draw, cell, fault):
    key = draw(st.sampled_from(sorted(FOCAL_KEYS)))
    if fault == "unknown_key":
        cell[draw(st.sampled_from(["4", "1|1", "3|2", "", "1 | 2"]))] = 1.0
    elif fault == "zero_key":
        cell["0"] = draw(st.sampled_from([0.0, 1.0]))
    elif fault == "bool_mass":
        cell[key] = draw(st.booleans())
    elif fault == "string_mass":
        cell[key] = draw(st.sampled_from(["0.5", "1"]))
    elif fault == "negative":
        cell[key] = draw(st.sampled_from([-0.25, -1e-12, -1.0]))
    elif fault == "nan":
        cell[key] = math.nan
    elif fault == "infinity":
        cell[key] = draw(st.sampled_from([math.inf, -math.inf]))
    else:  # sum_off: around the 1e-9 tolerance, both ways
        delta = draw(st.sampled_from([1, -1])) * draw(st.sampled_from([5e-10, 1e-9, 1.5e-9, 1e-3]))
        numbers = [k for k, mass in cell.items() if type(mass) in (int, float)]
        if numbers:
            cell[numbers[0]] += delta


FAULTS = [
    "n_value", "cells_type", "row_type", "short_row", "cell_type", "unknown_key",
    "zero_key", "bool_mass", "string_mass", "negative", "nan", "infinity", "sum_off",
]


def _apply_fault(draw, document, cells, fault):
    """Break ``document`` in place; a fault whose target is already broken is skipped."""
    n = len(cells)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    row = cells[i]
    if fault == "n_value":
        document["n"] = draw(st.sampled_from([0, True, "2", n + 1]))
    elif fault == "cells_type":
        document["cells"] = draw(st.sampled_from([None, {}, cells[:-1]]))
    elif fault == "row_type":
        cells[i] = draw(st.sampled_from([None, "row", {"0": row}]))
    elif not isinstance(row, list) or j >= len(row):
        pass
    elif fault == "short_row":
        del row[j:]
    elif fault == "cell_type":
        row[j] = draw(st.sampled_from([None, 1.0, "cell", [1.0]]))
    elif isinstance(row[j], dict):
        _break_cell(draw, row[j], fault)


@st.composite
def bba_documents(draw, n=None, faults=st.sampled_from(FAULTS), count=st.integers(0, 2)):
    """A mass-grid document of 1..12 objects, mostly 1..4, with ``count``
    faults drawn from ``faults``; a fault in a large grid lands deep in the
    flattened cells.  The cells are copies of up to eight drawn valid cells,
    placed by one drawn index list, so that a 12 x 12 grid is quick to draw;
    they are copies because a fault edits its cell in place."""
    n = n or draw(st.one_of(st.integers(1, 4), st.integers(5, 12)))
    palette = draw(st.lists(valid_cells(), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(palette) - 1), min_size=n * n, max_size=n * n))
    cells = [[dict(palette[k]) for k in picks[i * n : (i + 1) * n]] for i in range(n)]
    document = {"n": n, "cells": cells}
    for _ in range(draw(count)):
        _apply_fault(draw, document, cells, draw(faults))
    return document


def load_from_text(document):
    return load_bba_matrix(io.StringIO(json.dumps(document)))


def assert_loads_like_reference(document):
    """The loader and the oracle give the same masses bit for bit, or raise the
    same exception type with the same message; returns that type, or None."""
    try:
        masses = load_from_text(document).masses
    except (BbaFormatError, UnnormalizedMassError) as exc:
        with pytest.raises(type(exc)) as expected:
            reference_load(json.loads(json.dumps(document)))
        assert str(exc) == str(expected.value)
        return type(exc)
    array = reference_grid_array(reference_load(json.loads(json.dumps(document))))
    assert masses.shape == array.shape and masses.tobytes() == array.tobytes()
    return None


class TestMassGridLoader:
    @settings(max_examples=200)
    @given(bba_documents())
    def test_loads_like_the_per_cell_loader(self, document):
        assert_loads_like_reference(document)

    @pytest.mark.parametrize(
        "rows, cell",
        [
            ([[{"2": 1.0}, {"1": 0.5}], [{"2": 1.0}, {"4": 1.0}]], "0, 1"),
            ([[{"2": 1.0}, {"1": 0.5}], [{"2": 1.0}, None]], "0, 1"),
            ([[{"2": 1.0}, {"1": 0.5}], [{"2": 1.0}]], "0, 1"),
            ([[{"2": 1.0}, {"1": 1.0}], [{"3": 0.5}, {"2": True}]], "1, 0"),
        ],
    )
    def test_an_earlier_unnormalized_cell_is_named_first(self, rows, cell):
        document = {"n": 2, "cells": rows}
        assert assert_loads_like_reference(document) is UnnormalizedMassError
        with pytest.raises(UnnormalizedMassError, match=rf"^cell \({cell}\): masses sum to 0\.5,"):
            load_from_text(document)

    @pytest.mark.parametrize("fault", FAULTS)
    @settings(max_examples=20)
    @given(data=st.data())
    def test_every_fault_kind_is_rejected_alike(self, fault, data):
        document = data.draw(bba_documents(faults=st.just(fault), count=st.just(1)))
        rejected = assert_loads_like_reference(document)
        if fault != "sum_off":  # an offset below 1e-9 is within tolerance
            assert rejected is not None

    @settings(max_examples=50)
    @given(data=st.data())
    def test_direct_distance_general_is_exact(self, data):
        n = data.draw(st.integers(2, 5))
        documents = [data.draw(bba_documents(n, count=st.just(0))) for _ in range(2)]
        b1, b2 = map(load_from_text, documents)
        rows1, rows2 = (reference_load(json.loads(json.dumps(d))) for d in documents)
        raw = float(np.linalg.norm(reference_grid_array(rows1) - reference_grid_array(rows2)))
        report = direct_distance_general(b1, b2)
        maximum = reference_direct_max(b1.n)
        assert report.raw == raw
        assert report.max == maximum
        assert report.normalized == raw / maximum


@pytest.mark.parametrize(
    "rows, cell",
    [
        ([[{"2": 1.0}, {"4": 1.0}], [None, {"2": 1.0}]], "0, 1"),
        ([[{"2": "1"}, {"2": 1.0}], "row"], "0, 0"),
        ([[{"2": 1.0}, {"1": 0.5, "3": True}], [{"2": 1.0}]], "0, 1"),
    ],
)
def test_a_key_or_mass_fault_is_named_before_a_later_structural_fault(rows, cell):
    document = {"n": 2, "cells": rows}
    assert assert_loads_like_reference(document) is BbaFormatError
    with pytest.raises(BbaFormatError, match=rf"^cell \({cell}\): "):
        load_from_text(document)


@st.composite
def kernel_pairs(draw, max_n=70):
    """Two orders over 2..max_n objects, each partial, total, mentioning
    nothing, or one tie of some or all objects."""
    n = draw(st.integers(2, max_n))

    def order():
        kind = draw(st.sampled_from(["partial", "total", "nothing", "tie"]))
        if kind == "nothing":
            return WeakOrder((), n)
        if kind == "tie":
            return WeakOrder([draw(st.sets(st.integers(0, n - 1), min_size=1))], n)
        return draw(weak_orders(min_n=n, max_n=n, total=kind == "total"))

    return order(), order()


def kernel_table(a, b):
    return _category_counts(a.rank_tuple, b.rank_tuple)


def assert_kernel_is_the_bincount_oracle(a, b):
    """K, and every distance read from it, bit for bit as the N x N bincount gives them."""
    counts = kernel_table(a, b)
    assert {type(c) for row in counts for c in row} == {int}
    assert np.array_equal(counts, reference_category_counts(a, b)), (a, b)
    assert direct_distance(a, b).raw == bincount_distance(a, b, _DIRECT_COST)
    for metric, cost in _INDIRECT_COST.items():
        assert indirect_distance(a, b, metric).raw == bincount_distance(a, b, cost)
    if a.is_total and b.is_total:
        cost = _COST[PsmConvention.SIGNED]
        expected = bincount_distance(a, b, cost) / reference_max_psm_distance(
            a.universe_size, PsmConvention.SIGNED
        )
        assert normalized_distance(a, b) == expected


def seeded_order(rng, n):
    """Ranks over about 80 % of n objects, each next one tied with the last at 30 %."""
    ranks = [-1] * n
    rank = -1
    for i in rng.permutation(n).tolist():
        if rng.random() < 0.8:
            if rank < 0 or rng.random() >= 0.3:
                rank += 1
            ranks[i] = rank
    return WeakOrder.from_ranks(ranks)


class TestCategoryCounts:
    @settings(max_examples=200, deadline=None)
    @given(pair=order_pairs(max_n=70) | order_pairs(max_n=70, total=True))
    def test_table_is_the_two_array_bincount(self, pair):
        assert np.array_equal(kernel_table(*pair), reference_category_counts(*pair))

    @settings(max_examples=300, deadline=None)
    @given(kernel_pairs())
    def test_table_and_values_are_the_bincount_oracle(self, pair):
        assert_kernel_is_the_bincount_oracle(*pair)

    @pytest.mark.parametrize("n", [2, 3, 8, 70])
    def test_empty_tied_and_total_orders(self, n):
        orders = (
            WeakOrder((), n),
            WeakOrder([range(n)], n),
            chain_order(n),
            reverse(chain_order(n)),
        )
        for a, b in itertools.product(orders, repeat=2):
            assert_kernel_is_the_bincount_oracle(a, b)

    def test_every_pair_of_orders_of_four_objects(self):
        """All 150 orders of 4 objects, the empty one among them, against each
        other: every shape of tie runs that four objects can take."""
        orders = all_partial_orders(4)
        assert len(orders) == 150
        for a, b in itertools.product(orders, repeat=2):
            assert_kernel_is_the_bincount_oracle(a, b)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_exact_at_two_thousand_objects(self, seed):
        """One pair per seed, read by every method (direct and indirect-j among them)."""
        rng = np.random.default_rng(seed)
        assert_kernel_is_the_bincount_oracle(seeded_order(rng, 2000), seeded_order(rng, 2000))

    def test_closed_forms_and_memory_at_twenty_thousand_objects(self):
        """The bincount oracle would need about 800 MB here, so the tables are
        their closed forms: a chain against its reversal, where every pair is
        discordant, and against the order that ties its objects in twos, where
        those N / 2 pairs are strict against tied and the rest concordant."""
        n = 20_000
        pairs = n * (n - 1) // 2
        chain = tuple(range(n))
        expected = {
            tuple(reversed(chain)): ((0, 0, pairs, 0), (0, n, 0, 0), (pairs, 0, 0, 0), (0,) * 4),
            tuple(i // 2 for i in chain): (
                (pairs - n // 2, n // 2, 0, 0),
                (0, n, 0, 0),
                (0, n // 2, pairs - n // 2, 0),
                (0,) * 4,
            ),
        }
        tracemalloc.start()
        try:
            for other, table in expected.items():
                tracemalloc.reset_peak()
                assert _category_counts(chain, other) == table
                assert tracemalloc.get_traced_memory()[1] < 16 * 2**20
        finally:
            tracemalloc.stop()


# runs of lengths 1, 2, 3, 1, 2, 3; its prefixes end in every position of a run
RUNS = [0, 1, 1, 2, 2, 2, 3, 4, 4, 5, 5, 5]


@pytest.mark.parametrize(
    "ordered", [[], [7], [4] * 9] + [RUNS[:k] for k in range(2, len(RUNS) + 1)]
)
def test_tied_pairs_are_the_class_size_count(ordered):
    assert _tied_pairs(ordered) == sum(c * (c - 1) // 2 for c in Counter(ordered).values())


class TestDistances:
    @given(order_pairs())
    def test_direct_is_exact(self, pair):
        a, b = pair
        report = direct_distance(a, b)
        raw = reference_grid_distance(reference_bba_matrix(a), reference_bba_matrix(b))
        maximum = reference_direct_max(a.universe_size)
        assert report.raw == raw
        assert report.max == maximum
        assert report.normalized == raw / maximum
        assert direct_distance_general(reference_bba_matrix(a), reference_bba_matrix(b)) == report

    @pytest.mark.parametrize("metric", list(BbaMetric))
    @given(pair=order_pairs())
    def test_indirect_agrees(self, metric, pair):
        a, b = pair
        report = indirect_distance(a, b, metric)
        raw = float(
            np.linalg.norm(reference_indirect_psm(a, metric) - reference_indirect_psm(b, metric))
        )
        maximum = reference_indirect_max(a.universe_size, metric)
        assert abs(report.raw - raw) < 1e-12
        assert abs(report.max - maximum) < 1e-12
        assert abs(report.normalized - raw / maximum) < 1e-12


@pytest.mark.parametrize("n", range(2, 13))
def test_maxima_are_exact(n):
    chain = chain_order(n)
    assert direct_distance(chain, reverse(chain)).max == reference_direct_max(n)
    for metric in BbaMetric:
        report = indirect_distance(chain, reverse(chain), metric)
        assert report.max == reference_indirect_max(n, metric)
        assert report.raw == report.max


class TestBruteForce:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_completions_are_bitwise_the_recursive_generator(self, n):
        for order in all_partial_orders(n):
            rows = list(reference_rank_vectors(order.rank_tuple))
            expected = np.array(rows, dtype=np.min_scalar_type(-n)).reshape(-1, n)
            ranks = compatible_tpos(order)
            assert type(ranks) is np.ndarray and ranks.dtype == np.min_scalar_type(-n), order
            assert not ranks.flags.writeable, order
            assert ranks.shape == expected.shape, order
            assert ranks.tobytes() == expected.tobytes(), order

    def test_the_insertion_oracle_is_the_recursive_generator(self):
        for n in range(1, 6):
            for order in all_partial_orders(n):
                if order.rank_tuple.count(-1) <= 1:
                    rows = reference_rank_vectors(order.rank_tuple)
                    assert reference_insertions(order) == tuple(map(WeakOrder.from_ranks, rows))

    @pytest.mark.parametrize("n", [127, 128, 129])
    def test_completions_at_the_rank_type_boundary(self, n):
        """Rows are int8 up to n = 128, where a completion's rank reaches 127,
        and int16 at n = 129."""
        total = reverse(chain_order(n))
        left_out = n // 2
        partial = WeakOrder.from_ranks(
            [-1 if i == left_out else i - (i > left_out) for i in range(n)]
        )
        for order in (total, partial):
            ranks = compatible_tpos(order, cap=n)
            assert ranks.dtype == np.min_scalar_type(-n) == (np.int8 if n <= 128 else np.int16)
            assert ranks.tolist() == [list(t.rank_tuple) for t in reference_insertions(order)]
        grid = bfm_distance(partial, total, cap=n).grid
        expected = reference_bfm_grid(partial, total, PsmConvention.SIGNED, reference_insertions)
        assert grid.shape == (2 * n - 1, 1) and np.array_equal(grid, expected)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_weak_orders_follow_the_recursive_generator(self, n):
        vectors = [order.rank_tuple for order in all_weak_orders(n)]
        assert vectors == list(reference_rank_vectors((-1,) * n))

    @pytest.mark.parametrize("convention", list(PsmConvention))
    def test_every_pair_of_up_to_three_objects(self, convention):
        for n in (2, 3):
            orders = all_partial_orders(n)
            for a in orders:
                assert_completions_match_reference(a)
            for a, b in itertools.product(orders, repeat=2):
                grid = bfm_distance(a, b).grid
                assert np.array_equal(grid, reference_bfm_grid(a, b, convention)), (a, b)

    @settings(deadline=None, max_examples=40)
    @given(pair=order_pairs(max_n=5), convention=st.sampled_from(list(PsmConvention)))
    def test_random_pairs_up_to_five_objects(self, pair, convention):
        a, b = pair
        for order in pair:
            assert_completions_match_reference(order)
        assert np.array_equal(bfm_distance(a, b).grid, reference_bfm_grid(a, b, convention))

    @pytest.mark.parametrize(
        "text1, text2",
        [
            ("F > A > C > (B = E)", "A > B > C > D > E"),
            ("(A = B) > C > D", "D > (C = F) > E > A"),
            ("B > F", "A > (B = C = D) > E > F"),
        ],
    )
    def test_fixed_pairs_at_six_objects(self, text1, text2):
        universe = ObjectUniverse(tuple("ABCDEF"))
        a, b = parse_preference(text1, universe), parse_preference(text2, universe)
        for order in (a, b):
            assert_completions_match_reference(order)
        for convention in PsmConvention:
            assert np.array_equal(bfm_distance(a, b).grid, reference_bfm_grid(a, b, convention))


@st.composite
def reference_orders(draw, n):
    """A possibly partial order over n objects, each class listed in a drawn order."""
    ranks = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    classes = [
        draw(st.permutations([idx for idx, rank in enumerate(ranks) if rank == level]))
        for level in sorted(set(ranks) - {-1})
    ]
    return ReferenceWeakOrder(tuple(map(tuple, classes)), n)


class TestWeakOrderModel:
    """The rank-tuple ``WeakOrder`` against the tie-class tuples it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_agrees_with_the_tie_class_tuples(self, data):
        n = data.draw(st.integers(1, 8))
        ref = data.draw(reference_orders(n))
        order = WeakOrder(ref.classes, n)
        ranks = ref.rank_vector.tolist()
        assert order == WeakOrder.from_ranks(ranks)
        assert (order.universe_size, order.rank_tuple) == (n, tuple(ranks))
        assert order.is_total == ref.is_total
        codes = reference_relation_codes(order)
        for i, j in itertools.product(range(n), repeat=2):
            assert list(PairRelation)[codes[i, j]] is ref.relation(i, j)
        universe = ObjectUniverse.numbered(n)
        assert render_preference(order, universe) == reference_render_preference(ref, universe)

        subset = data.draw(st.sets(st.sampled_from(sorted(ref.mentioned or {0}))))
        subset &= ref.mentioned
        other = data.draw(
            st.sampled_from([ref, ref.reverse(), ref.restrict(subset)]) | reference_orders(n)
        )
        other_order = WeakOrder(other.classes, n)
        assert (order == other_order) is (ref == other)
        if ref == other:
            assert hash(order) == hash(other_order)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_completion_row_renders_like_the_tie_class_tuples(self, n):
        universe = ObjectUniverse.numbered(n)
        objects = ",".join(universe.labels)
        for order in all_partial_orders(n):
            rows = compatible_tpos(order).tolist()
            expected = [
                reference_render_preference(reference_order_of_ranks(row), universe)
                for row in rows
            ]
            assert [render_ranks(row, universe.labels) for row in rows] == expected, order
            if mentioned(order):
                pref = render_preference(order, universe)
                argv = ["compatible", "--objects", objects, "--pref", pref]
            else:  # the empty order has no text form; its completions are every weak order
                argv = ["enumerate", "--objects", objects]
                expected.append(f"count: {len(rows)}")
            assert cli_stdout(argv) == "".join(line + "\n" for line in expected), order


@pytest.mark.parametrize("convention", list(PsmConvention))
@pytest.mark.parametrize("n", range(2, 6))
def test_grid_writer_table_reproduces_every_cell(n, convention):
    """The empty order completes to every weak order, so its grid holds every
    pair of completions that any two orders on n objects can have; the writer
    takes the squared distances, and the grid is the same in both conventions."""
    grid = reference_bfm_grid(WeakOrder((), n), WeakOrder((), n), convention)
    report = bfm_distance(WeakOrder((), n), WeakOrder((), n))
    assert np.array_equal(report.grid, grid)
    text = "".join(bfm.grid_text(report, (" ", "\n", "\n")))
    expected = "".join(" ".join(map(repr, row)) + "\n" for row in grid.tolist())
    same = text == expected  # a bare assert would diff megabytes of text
    assert same, len(os.path.commonprefix([text, expected]))


# Squared distances at n = 3 (even, at most 24), named by shape and by the side
# of the writer's gate: a grid of more than 2m^2 cells, m distinct values, is
# looked up two cells at a time.
WRITER_GRIDS = {
    "one_cell": [[8]],
    "one_column_per_cell": [[0], [8], [24]],
    "one_column_pairs": [[0], [8], [0], [8], [0], [8], [0], [8], [0]],
    "odd_columns_per_cell": [[0, 8, 8, 0, 24], [24, 24, 0, 8, 8], [8, 0, 24, 24, 0]],
    "odd_columns_pairs": [[0, 8, 8, 0, 0], [0, 0, 0, 8, 8], [8, 0, 8, 8, 0]],
    "one_value_pairs": [[12] * 4] * 4,
    "one_value_odd_pairs": [[12] * 3] * 3,
    "at_gate_per_cell": [[0, 8, 8, 0], [8, 0, 0, 8]],
    "past_gate_odd_pairs": [[0, 8, 0], [8, 8, 0], [0, 0, 8]],
    "past_gate_even_pairs": [[0, 8, 0], [8, 8, 0], [0, 0, 8], [8, 0, 8]],
}


def writer_report(squared, n=3):
    """A report on the grid ``squared`` of n objects, holding its histogram
    and maximum; the grid writer reads nothing else of it."""
    counts = np.bincount(squared.ravel())
    return bfm.BfmReport(squared, counts, max_psm_distance(n), 0.0, 0.0, 0.0, 0.0, 0.5)


@pytest.mark.parametrize("sep", [", ", "  "])  # a JSON and a table cell separator
@pytest.mark.parametrize("name", list(WRITER_GRIDS))
def test_grid_writer_shapes_and_gate_sides(name, sep):
    """On every type that k can have: the writer looks codes up by k."""
    seps = {", ": cli._FORMATS["json"][-1], "  ": cli._FORMATS["table"][-1]}[sep]
    for dtype in (np.uint8, np.uint16, np.uint32):
        squared = np.array(WRITER_GRIDS[name], dtype=dtype)
        m = len(np.unique(squared))
        assert (squared.size > 2 * m * m) == name.endswith("_pairs")
        for grid in (squared.T, squared):
            text = "".join(bfm.grid_text(writer_report(grid), seps))
            assert text == reference_grid_text(grid, 3, seps), (grid, dtype)


# Cells per block: one (a block is one row), three (three rows of a one-column
# grid, one row of a wider one) and more than any grid here
BLOCK_SIZES = [1, 3, 10**9]


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("name", list(WRITER_GRIDS))
def test_grid_reply_is_the_reference_at_every_block_size(name, fmt, block):
    squared = np.array(WRITER_GRIDS[name], dtype=np.uint8)
    for grid in (squared.T, squared):
        payload = {"method": "bfm", "objects": ["A", "B", "C"], "grid": grid, "optim": 0.0}
        expected = io.StringIO()
        with contextlib.redirect_stdout(expected):
            reference_emit(payload, fmt)
        actual = io.StringIO()
        with mock.patch.object(bfm, "_BLOCK_CELLS", block), contextlib.redirect_stdout(actual):
            cli._emit(payload, fmt, writer_report(grid))
        assert actual.getvalue() == expected.getvalue(), grid


# Orders on four objects, by the side of the writer's gate their grid lies on:
# 75 x 75 and 31 x 31 cells read in pairs, 7 x 75 and 1 x 75 cell by cell
GATE_PAIRS = [
    ("A", "B", True), ("A>B", "B>A", True), ("A>B>C", "D", False), ("A>B>C>D", "A", False),
]


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("text1,text2,in_pairs", GATE_PAIRS)
def test_bfm_stdout_is_the_reference_at_every_block_size(text1, text2, in_pairs, fmt, block):
    universe = ObjectUniverse(tuple("ABCD"))
    a, b = parse_preference(text1, universe), parse_preference(text2, universe)
    with mock.patch.object(bfm, "_BLOCK_CELLS", block):
        report = bfm_distance(a, b)
        assert np.array_equal(report.counts, np.bincount(report.squared.ravel()))
        m = np.count_nonzero(report.counts)
        assert (report.squared.size > 2 * m * m) == in_pairs
        assert_bfm_stdout_matches_reference(a, b, PsmConvention.SIGNED, fmt)


def cached_writer_calls():
    """Grids read in pairs at n = 3, 4 and 5, each written in both formats:
    three sets of present k per n, two grids per set (one with an odd number
    of columns, one of two blocks), so calls share a table key yet meet new
    pair keys.  The 18 keys outnumber the cache's 16 entries."""
    rng = np.random.default_rng(31)
    calls = []
    for n in (3, 4, 5):
        evens = np.arange(0, 4 * n * (n - 1) + 1, 2)
        for m in (1, 3, 6):
            present = np.sort(rng.choice(evens, m, replace=False))
            for shape in ((9, 13), (170, 100)):
                squared = rng.choice(present, shape).astype(np.uint8)
                squared.flat[:m] = present  # every k of the set is present
                for fmt in ("json", "table"):
                    calls.append((squared, n, cli._FORMATS[fmt][-1]))
    return calls


def test_cached_pair_table_interleaved_is_the_reference():
    """From a cleared cache, calls on other formats, maxima and present sets
    in between, every grid is the reference text on both of its calls, with
    its table new, cached or rebuilt after an eviction."""
    calls = cached_writer_calls()
    order = np.random.default_rng(32).permutation(2 * len(calls)) % len(calls)
    bfm._pair_table.cache_clear()
    for index in order.tolist():
        squared, n, seps = calls[index]
        text = "".join(bfm.grid_text(writer_report(squared, n), seps))
        expected = reference_grid_text(squared, n, seps)
        same = text == expected  # a bare assert would diff the whole text
        assert same, (index, len(os.path.commonprefix([text, expected])))
    info = bfm._pair_table.cache_info()
    assert info.hits > 0 and info.misses > 18 and info.currsize == 16, info


def test_cached_pair_table_after_a_closed_reply_is_the_reference():
    """A reply closed after its first block leaves the keys of later blocks
    unrendered; the next reply on the same key renders them, and two replies
    read alternately share the table."""
    first, rest = [[0, 8] * 4] * 5, [[16, 24] * 4] * 5  # 10 x 8, m = 4: in pairs
    squared = np.array(first + rest, dtype=np.uint8)
    other = np.array(rest[:3] + first, dtype=np.uint8)
    seps = cli._FORMATS["json"][-1]
    bfm._pair_table.cache_clear()
    with mock.patch.object(bfm, "_BLOCK_CELLS", 8):  # one row per block
        closed = bfm.grid_text(writer_report(squared), seps)
        next(closed)
        closed.close()
        *_, table, rendered = bfm._pair_table(max_psm_distance(3), seps, (0, 8, 16, 24))
        assert 0 < rendered.sum() < len(rendered)
        assert all(isinstance(text, str) for text in table[rendered])
        assert "".join(bfm.grid_text(writer_report(squared), seps)) == reference_grid_text(
            squared, 3, seps
        )
        bfm._pair_table.cache_clear()
        replies = [bfm.grid_text(writer_report(grid), seps) for grid in (squared, other)]
        blocks = itertools.zip_longest(*replies, fillvalue="")
        texts = ["".join(parts) for parts in zip(*blocks)]
    assert texts == [reference_grid_text(grid, 3, seps) for grid in (squared, other)]
    assert bfm._pair_table.cache_info()[:2] == (1, 1)  # (hits, misses)


def test_cached_pair_table_shared_by_threads_is_the_reference():
    """Threads, more than cores, writing grids of one table key with a short
    switch interval: a slot marked rendered before its text is stored would
    let another thread join a None."""
    rng = np.random.default_rng(33)
    present = np.arange(0, 25, 2)  # every k at n = 3: 13 codes, 588 pair keys
    grids = [rng.choice(present, (60, 61)).astype(np.uint8) for _ in range(6)]
    for grid in grids:
        grid.flat[: len(present)] = present
    seps = cli._FORMATS["json"][-1]
    expected = [reference_grid_text(grid, 3, seps) for grid in grids]
    texts = [[] for _ in grids]

    def write(index):
        for _ in range(20):
            bfm._pair_table.cache_clear()
            texts[index].append("".join(bfm.grid_text(writer_report(grids[index]), seps)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(bfm, "_BLOCK_CELLS", 61):  # one row per block
            threads = [threading.Thread(target=write, args=(i,)) for i in range(len(grids))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [set(replies) for replies in texts] == [{text} for text in expected]
    assert all(len(replies) == 20 for replies in texts)


PAIRS_UP_TO_FOUR = [
    pair for n in (2, 3, 4) for pair in itertools.product(all_partial_orders(n), repeat=2)
]


def test_integer_grid_against_the_float_gram_product():
    """Both float grids stay float64 (a bare sqrt of a uint8 grid is float16) and
    bitwise the float Gram product; optim, pessim and hurwicz are bitwise its
    extremes, and aver, a histogram sum, is its mean within 1e-12."""
    for a, b in PAIRS_UP_TO_FOUR:
        expected = float_gram_grid(a, b)
        report = bfm_distance(a, b, alpha=0.3)
        grid = report.grid
        assert grid.dtype == np.float64 and grid.tobytes() == expected.tobytes(), (a, b)
        optim, pessim = float(expected.min()), float(expected.max())
        assert (report.optim, report.pessim) == (optim, pessim), (a, b)
        assert report.hurwicz == 0.3 * optim + 0.7 * pessim, (a, b)
        mean = float(np.mean(report.grid))
        assert abs(report.aver - mean) <= 1e-12 * mean, (a, b)


@pytest.mark.parametrize("convention", list(PsmConvention))
@pytest.mark.parametrize("n", range(2, 13))
def test_max_psm_distance_is_exact(n, convention):
    assert max_psm_distance(n, convention) == reference_max_psm_distance(n, convention)


@pytest.mark.parametrize("convention", list(PsmConvention))
@pytest.mark.parametrize("n", range(1, 6))
def test_score_table_is_bitwise_the_per_order_construction(n, convention):
    for order in all_weak_orders(n):
        entries = CODE_SCORE[convention][reference_relation_codes(order)]
        expected = reference_build_psm(order, convention)
        assert entries.dtype == expected.dtype and entries.shape == expected.shape
        assert entries.tobytes() == expected.tobytes(), order


TOTAL_PAIRS_UP_TO_FOUR = [
    pair for n in (2, 3, 4) for pair in itertools.product(all_weak_orders(n), repeat=2)
]


def reference_normalized_distance(a, b, convention):
    m1, m2 = (reference_build_psm(order, convention) for order in (a, b))
    return float(np.linalg.norm(m1 - m2)) / reference_max_psm_distance(a.universe_size, convention)


class TestClassicalDistance:
    """The classical distance, a count of relation-code pairs, against score
    matrices built per order and their Frobenius norm."""

    @pytest.mark.parametrize("convention", list(PsmConvention))
    def test_every_pair_of_total_orders_up_to_four(self, convention):
        for a, b in TOTAL_PAIRS_UP_TO_FOUR:
            expected = reference_normalized_distance(a, b, convention)
            assert normalized_distance(a, b) == expected, (a, b)

    @given(pair=order_pairs(max_n=8, total=True), convention=st.sampled_from(list(PsmConvention)))
    def test_random_pairs_up_to_eight_objects(self, pair, convention):
        expected = reference_normalized_distance(*pair, convention)
        assert normalized_distance(*pair) == expected

    def test_cost_tables_hold_their_hand_values(self):
        assert np.array_equal(_DIRECT_COST, 2 * (1 - np.eye(4)))
        signed = np.array([[0, 1, 4], [1, 0, 1], [4, 1, 0]])
        assert np.array_equal(np.array(_COST[PsmConvention.SIGNED])[:3, :3], signed)
        assert np.array_equal(np.array(_COST[PsmConvention.UNIT])[:3, :3], signed / 4)

    def test_cost_literals_are_their_definitions_bit_for_bit(self):
        cells = [MassFunction.certain(RELATION_MASK[relation]) for relation in PairRelation]
        masses = np.array([cell.masses for cell in cells])
        assert np.array(_DIRECT_COST).tobytes() == pair_cost(masses).tobytes()
        for metric, distance in REFERENCE_METRIC.items():
            scores = np.array([distance(cell, SUCC_CERTAIN) for cell in cells])
            assert np.array(_INDIRECT_SCORE[metric]).tobytes() == scores.tobytes()
            expected = pair_cost(scores).tobytes()
            assert np.array(_INDIRECT_COST[metric]).tobytes() == expected
        for convention, scores in CODE_SCORE.items():
            assert np.array(_SCORE[convention][:3]).tobytes() == scores.tobytes()
            expected = pair_cost(np.array(_SCORE[convention])).tobytes()
            assert np.array(_COST[convention]).tobytes() == expected

    def test_total_orders_leave_the_unknown_costs_unread(self):
        """The classical tables' UNKNOWN row and column weigh no cell: K of two
        total orders has a zero UNKNOWN row and column."""
        pairs = [*TOTAL_PAIRS_UP_TO_FOUR, (chain_order(70), reverse(chain_order(70)))]
        for a, b in pairs:
            k = np.array(kernel_table(a, b))
            assert not k[3].any() and not k[:, 3].any(), (a, b)

    def test_a_partial_operand_is_rejected(self):
        total = chain_order(3)
        for partial in all_partial_orders(3):
            if not partial.is_total:
                for pair in ((partial, total), (total, partial)):
                    with pytest.raises(NotTotalError):
                        normalized_distance(*pair)

    def test_a_size_mismatch_is_named_before_a_partial_operand(self):
        for a, b in itertools.permutations([WeakOrder([[0]], 3), chain_order(4)]):
            with pytest.raises(DimensionMismatchError):
                normalized_distance(a, b)


# Object labels from the whole grammar [A-Za-z0-9_]+: digits only, "_", mixed
# case, and names that JSON spells as constants or numbers.  A reply quotes a
# label as it stands, which holds while no label needs escaping.
GRAMMAR_LABELS = st.one_of(
    st.sampled_from(["NaN", "Infinity", "true", "false", "null", "_", "0", "1e5", "x_1"]),
    st.text(string.digits, min_size=1, max_size=4),
    st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=6),
)


class TestCliOutput:
    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("convention", list(PsmConvention))
    def test_every_pair_of_three_objects(self, convention, fmt):
        orders = all_partial_orders(3)[1:]  # the empty order has no text form
        for a, b in itertools.product(orders, repeat=2):
            assert_bfm_stdout_matches_reference(a, b, convention, fmt)

    @settings(deadline=None, max_examples=40)
    @given(
        pair=order_pairs(max_n=5).filter(lambda pair: all(map(classes, pair))),
        convention=st.sampled_from(list(PsmConvention)),
        fmt=st.sampled_from(["json", "table"]),
    )
    def test_random_pairs_up_to_five_objects(self, pair, convention, fmt):
        assert_bfm_stdout_matches_reference(*pair, convention, fmt)

    @settings(deadline=None, max_examples=100)
    @given(
        data=st.data(),
        method=st.sampled_from(["direct", "indirect-j", "indirect-bi"]),
        fmt=st.sampled_from(["json", "table"]),
    )
    def test_belief_replies_over_grammar_labels(self, data, method, fmt):
        a, b = data.draw(order_pairs(max_n=6).filter(lambda pair: all(map(classes, pair))))
        n = a.universe_size
        labels = data.draw(st.lists(GRAMMAR_LABELS, min_size=n, max_size=n, unique=True))
        universe = ObjectUniverse(tuple(labels))
        assert_stdout_matches_reference([
            "dist", "--method", method, "--objects", ",".join(labels),
            "--pref1", render_preference(a, universe), "--pref2", render_preference(b, universe),
            "--format", fmt,
        ])

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(2, 4), data=st.data(), fmt=st.sampled_from(["json", "table"]))
    def test_dist_general_replies(self, n, data, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name in ("bba1.json", "bba2.json"):
                paths.append(os.path.join(tmp, name))
                with open(paths[-1], "w") as file:
                    json.dump(data.draw(bba_documents(n=n, count=st.just(0))), file)
            assert_stdout_matches_reference(["dist-general", *paths, "--format", fmt])


PARSE_LABELS = ("A", "B", "C", "D", "E", "F", "G", "x_1", "Z9")
PARSE_UNIVERSE = ObjectUniverse(PARSE_LABELS[:-1])  # Z9 names no object


def parse_outcome(parse, text):
    """The order ``parse`` reads from ``text``, or the type of error it raises."""
    try:
        return parse(text, PARSE_UNIVERSE)
    except PrefdistError as exc:
        return type(exc)


def full_parse_outcome(parse, text):
    """The order ``parse`` reads from ``text``, or the type and message of its error."""
    try:
        return parse(text, PARSE_UNIVERSE)
    except PrefdistError as exc:
        return type(exc), str(exc)


FIXED_PARSE_TEXTS = [
    "B > A > C", "C > (A = B)", "(A = B = C)", "  C>(A =B) ", "C > A", "A > A",
    "A > Z9", "   ", "", "A >", "> A", "A B", "(A)", "(A = B", "A = B", "A > (B > C)",
    "A # B", "()", "( A=B )", "(A = B))", "((A = B)", "(A = B) > (A = C)",
    "x_1>\tG", "\u00e9", "A > \u00e9", "A\x1cB", "(A = = B)", "(=A)", "A > Z9 > (",
]


class TestParser:
    @settings(max_examples=1000, deadline=None)
    @given(text=preference_texts(PARSE_LABELS))
    def test_matches_the_recursive_descent_parser(self, text):
        assert parse_outcome(parse_preference, text) == parse_outcome(
            reference_parse_preference, text
        )

    @pytest.mark.parametrize("text", FIXED_PARSE_TEXTS)
    def test_fixed_cases_match_the_recursive_descent_parser(self, text):
        assert parse_outcome(parse_preference, text) == parse_outcome(
            reference_parse_preference, text
        )

    @settings(max_examples=1000, deadline=None)
    @given(text=preference_texts(PARSE_LABELS) | preference_texts(PARSE_LABELS, unique=True))
    def test_order_or_error_message_matches_the_group_loop(self, text):
        outcome = full_parse_outcome(parse_preference, text)
        if isinstance(outcome, WeakOrder):  # the fast path builds it without a density check
            assert WeakOrder.from_ranks(outcome.rank_tuple) == outcome
        assert outcome == full_parse_outcome(reference_group_loop_parse, text)

    @pytest.mark.parametrize(
        "text",
        FIXED_PARSE_TEXTS
        + [
            "C\u3000> A", "A\x85>\xa0B", "\nA\n", "(A\x1c=\x1cB)", "A >\u2028D", "\u3000",
            "D > A > A", "A > (B = B)", "(A = D) > A", "A > B > C > D > E > F > G > x_1",
            "\u200bA", "A\ufeff", "A > x_1 > Z9", "(A=B)>(C=D)>(E=F=G)",
            "Z9 > A > A", "A > A > Z9", "(A = Z9 = A)",
        ],
    )
    def test_fixed_cases_match_the_group_loop(self, text):
        assert full_parse_outcome(parse_preference, text) == full_parse_outcome(
            reference_group_loop_parse, text
        )
