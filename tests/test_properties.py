"""Cross-module structural properties: metric axioms, dualities, involutions.

The exhaustive checks run over every weak order of three objects, and the
metric axioms also over every partial order of four; the randomized ones use
hypothesis to sample orders and mass functions.
"""

import itertools
import math
import string

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from prefdist import (
    FULL_FRAME,
    BbaMetric,
    MassFunction,
    ObjectUniverse,
    PairRelation,
    PsmConvention,
    bfm_distance,
    build_psm,
    chain_order,
    direct_distance,
    enumerate_weak_orders,
    indirect_distance,
    max_psm_distance,
    normalized_distance,
    parse_preference,
    render_preference,
)

from strategies import all_partial_orders, weak_orders


@st.composite
def mass_functions(draw):
    weights = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
            min_size=7,
            max_size=7,
        )
    )
    total = sum(weights)
    assume(total > 1e-6)
    return MassFunction((0.0, *(w / total for w in weights)))


class TestOrderProperties:
    @given(weak_orders())
    def test_reverse_is_an_involution(self, order):
        assert order.reverse().reverse() == order

    @given(weak_orders())
    def test_relation_antisymmetry(self, order):
        n = order.universe_size
        for i in range(n):
            for j in range(n):
                forward, backward = order.relation(i, j), order.relation(j, i)
                if forward is PairRelation.SUCC:
                    assert backward is PairRelation.PREC
                else:
                    assert forward is not PairRelation.PREC or backward is PairRelation.SUCC
                if forward in (PairRelation.EQUIV, PairRelation.UNKNOWN):
                    assert backward is forward

    @given(weak_orders())
    def test_render_parse_round_trip(self, order):
        assume(order.mentioned)
        universe = ObjectUniverse.numbered(order.universe_size)
        assert parse_preference(render_preference(order, universe), universe) == order

    @given(weak_orders(), st.data())
    def test_render_parse_round_trip_over_grammar_labels(self, order, data):
        assume(order.mentioned)
        names = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=6)
        n = order.universe_size
        labels = data.draw(st.lists(names, min_size=n, max_size=n, unique=True))
        universe = ObjectUniverse(tuple(labels))
        assert parse_preference(render_preference(order, universe), universe) == order

    @given(weak_orders(), st.data())
    def test_restriction_mentions_exactly_the_subset(self, order, data):
        mentioned = sorted(order.mentioned)
        subset = frozenset(
            data.draw(st.lists(st.sampled_from(mentioned), unique=True))
            if mentioned
            else ()
        )
        restricted = order.restrict(subset)
        assert restricted.mentioned == subset
        for i in subset:
            for j in subset:
                assert restricted.relation(i, j) is order.relation(i, j)


class TestMassProperties:
    @given(mass_functions())
    def test_plausibility_duality(self, m):
        for subset in range(1, 7):
            assert abs(m.pl(subset) - (1.0 - m.bel(FULL_FRAME ^ subset))) < 1e-12
        assert abs(m.pl(FULL_FRAME) - 1.0) < 1e-9

    @given(mass_functions())
    def test_bel_below_pl_everywhere(self, m):
        for subset in range(1, 8):
            assert m.bel(subset) <= m.pl(subset) + 1e-12

    @given(mass_functions())
    def test_swap_is_an_involution(self, m):
        assert m.swapped().swapped() == m


def _distance_tables():
    """13 x 13 normalized distance matrix for each method, rows/cols in
    enumeration order."""
    orders = list(enumerate_weak_orders(3))
    tables = {}
    tables["classical"] = np.array(
        [[normalized_distance(a, b) for b in orders] for a in orders]
    )
    tables["direct"] = np.array(
        [[direct_distance(a, b).normalized for b in orders] for a in orders]
    )
    for metric in BbaMetric:
        tables[metric.value] = np.array(
            [[indirect_distance(a, b, metric).normalized for b in orders] for a in orders]
        )
    return orders, tables


@pytest.fixture(scope="module")
def distance_tables():
    return _distance_tables()


class TestMetricAxioms:
    def test_all_methods_over_every_triple_of_three_objects(self, distance_tables):
        orders, tables = distance_tables
        size = len(orders)
        for name, table in tables.items():
            assert np.all(table >= 0.0), name
            assert np.allclose(table, table.T), name
            for i in range(size):
                for j in range(size):
                    assert (table[i, j] < 1e-12) == (i == j), name
            for i, j, k in itertools.product(range(size), repeat=3):
                assert table[i, k] <= table[i, j] + table[j, k] + 1e-12, name

    def test_methods_coincide_on_tie_free_total_orders(self, distance_tables):
        # the three routes agree whenever every pairwise difference is a full
        # strict flip; ties break the coincidence (all-tied vs chain scores
        # 0.5 classically but 1.0 directly), so only strict orders qualify
        orders, tables = distance_tables
        strict = [i for i, o in enumerate(orders) if len(o.classes) == o.universe_size]
        assert len(strict) == 6
        reference = tables["classical"]
        for name, table in tables.items():
            for i in strict:
                for j in strict:
                    assert abs(table[i, j] - reference[i, j]) < 5e-5, name

    def test_example_pair_coincides_across_methods(self, abc, distance_tables):
        orders, tables = distance_tables
        a = orders.index(parse_preference("B > A > C", abc))
        b = orders.index(parse_preference("B > C > A", abc))
        for name, table in tables.items():
            assert table[a, b] == pytest.approx(0.5774, abs=5e-5), name


ORDER_DISTANCES = {
    "direct": lambda a, b: direct_distance(a, b).normalized,
    **{
        metric.value: lambda a, b, metric=metric: indirect_distance(a, b, metric).normalized
        for metric in BbaMetric
    },
}


@pytest.fixture(scope="module")
def four_object_tables():
    """Distance tables over all 150 partial orders of four objects for the
    belief methods, and over the 75 total ones for the classical distance."""
    partial = all_partial_orders(4)
    total = [o for o in partial if o.is_total]
    tables = {
        name: (partial, np.array([[d(a, b) for b in partial] for a in partial]))
        for name, d in ORDER_DISTANCES.items()
    }
    tables["classical"] = (
        total, np.array([[normalized_distance(a, b) for b in total] for a in total])
    )
    return tables


class TestMetricAxiomsAtFourAndFive:
    """Pseudo-metric axioms: an order mentioning one object and the empty
    order have the same relation codes, so their distance is 0."""

    def test_every_partial_order_of_four_objects(self, four_object_tables):
        assert len(four_object_tables["direct"][0]) == 150
        assert len(four_object_tables["classical"][0]) == 75
        for name, (orders, table) in four_object_tables.items():
            codes = np.array([o.relation_codes().ravel() for o in orders])
            same = (codes[:, None] == codes[None]).all(axis=2)
            assert np.array_equal(table, table.T), name
            assert np.array_equal(table == 0.0, same), name
            # d(i, k) <= d(i, j) + d(j, k) for every triple, axes (i, j, k)
            assert np.all(table[:, None, :] <= table[:, :, None] + table[None] + 1e-12), name

    @given(st.integers(4, 5), st.data())
    def test_random_partial_triples(self, n, data):
        a, b, c = (data.draw(weak_orders(min_n=n, max_n=n)) for _ in range(3))
        same = np.array_equal(a.relation_codes(), b.relation_codes())
        for name, d in ORDER_DISTANCES.items():
            assert d(a, b) == d(b, a), name
            assert d(a, c) <= d(a, b) + d(b, c) + 1e-12, name
            assert (d(a, b) == 0.0) == same, name

    @given(st.integers(4, 5), st.data())
    def test_random_total_triples(self, n, data):
        a, b, c = (data.draw(weak_orders(min_n=n, max_n=n, total=True)) for _ in range(3))
        for name, d in {**ORDER_DISTANCES, "classical": normalized_distance}.items():
            assert d(a, b) == d(b, a), name
            assert d(a, c) <= d(a, b) + d(b, c) + 1e-12, name
            assert (d(a, b) == 0.0) == (a == b), name


class TestNormalizers:
    def test_classical_reversal_is_the_exhaustive_maximum(self, distance_tables):
        orders, tables = distance_tables
        assert tables["classical"].max() == pytest.approx(1.0)
        raw_max = tables["classical"].max() * max_psm_distance(3)
        assert raw_max == pytest.approx(math.sqrt(24))

    def test_direct_reversal_is_the_exhaustive_maximum(self, distance_tables):
        orders, tables = distance_tables
        raw = tables["direct"] * direct_distance(orders[1], orders[2]).max
        assert raw.max() == pytest.approx(math.sqrt(12))
        chain = chain_order(3)
        assert direct_distance(chain, chain.reverse()).raw == pytest.approx(math.sqrt(12))

    def test_convention_invariance_over_all_pairs(self):
        orders = list(enumerate_weak_orders(3))
        for a, b in itertools.product(orders, orders):
            assert abs(
                normalized_distance(a, b, PsmConvention.SIGNED)
                - normalized_distance(a, b, PsmConvention.UNIT)
            ) < 1e-12


class TestBruteForceSymmetry:
    def test_scalars_invariant_under_argument_swap(self, abc):
        texts = ["C > A", "A > B", "B > (A = C)", "(A = B) > C"]
        for t1, t2 in itertools.combinations(texts, 2):
            p1, p2 = parse_preference(t1, abc), parse_preference(t2, abc)
            forward, backward = bfm_distance(p1, p2), bfm_distance(p2, p1)
            assert forward.aver == pytest.approx(backward.aver)
            assert forward.optim == pytest.approx(backward.optim)
            assert forward.pessim == pytest.approx(backward.pessim)


class TestPsmStructure:
    @given(weak_orders(min_n=2, max_n=5, total=True))
    def test_signed_matrix_antisymmetric(self, order):
        entries = build_psm(order, PsmConvention.SIGNED).entries
        assert np.array_equal(entries.T, -entries)

    @given(st.integers(2, 5), st.data())
    def test_normalized_distance_in_unit_interval(self, n, data):
        a = data.draw(weak_orders(min_n=n, max_n=n, total=True))
        b = data.draw(weak_orders(min_n=n, max_n=n, total=True))
        assert 0.0 <= normalized_distance(a, b) <= 1.0 + 1e-12
