"""Cross-module structural properties: metric axioms, dualities, involutions.

The exhaustive checks run over every weak order of three objects, and the
metric axioms also over every partial order of three (with the bfm
attitudes) and of four; the randomized ones use hypothesis to sample orders
and mass functions.
"""

import itertools
import math
import string

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prefdist import (
    FULL_FRAME,
    BbaMetric,
    MassFunction,
    ObjectUniverse,
    PsmConvention,
    WeakOrder,
    bfm_distance,
    compatible_tpos,
    direct_distance,
    indirect_distance,
    max_psm_distance,
    normalized_distance,
    parse_preference,
    render_preference,
)
from prefdist.enumeration import _completion_count

from strategies import (
    CODE_SCORE,
    all_partial_orders,
    all_weak_orders,
    chain_order,
    classes,
    mentioned,
    reference_relation_codes,
    restrict,
    reverse,
    swapped,
    weak_orders,
)

#: The code of each relation code's mirror pair (j, i): SUCC and PREC swap.
MIRROR_CODE = np.array([2, 1, 0, 3])


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
        assert reverse(reverse(order)) == order

    @given(weak_orders())
    def test_relation_antisymmetry(self, order):
        codes = reference_relation_codes(order)
        assert np.array_equal(codes.T, MIRROR_CODE[codes])

    @given(weak_orders())
    def test_render_parse_round_trip(self, order):
        assume(mentioned(order))
        universe = ObjectUniverse.numbered(order.universe_size)
        assert parse_preference(render_preference(order, universe), universe) == order

    @given(weak_orders(), st.data())
    def test_render_parse_round_trip_over_grammar_labels(self, order, data):
        assume(mentioned(order))
        names = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=6)
        n = order.universe_size
        labels = data.draw(st.lists(names, min_size=n, max_size=n, unique=True))
        universe = ObjectUniverse(tuple(labels))
        assert parse_preference(render_preference(order, universe), universe) == order

    @given(weak_orders(), st.data())
    def test_restriction_mentions_exactly_the_subset(self, order, data):
        known = sorted(mentioned(order))
        subset = frozenset(
            data.draw(st.lists(st.sampled_from(known), unique=True))
            if known
            else ()
        )
        restricted = restrict(order, subset)
        assert mentioned(restricted) == subset
        kept = np.ix_(sorted(subset), sorted(subset))
        restricted_codes, codes = (reference_relation_codes(o)[kept] for o in (restricted, order))
        assert np.array_equal(restricted_codes, codes)


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
        assert swapped(swapped(m)) == m


def _distance_tables():
    """13 x 13 normalized distance matrix for each method, rows/cols in
    enumeration order."""
    orders = all_weak_orders(3)
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
        strict = [i for i, o in enumerate(orders) if len(classes(o)) == o.universe_size]
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
            codes = np.array([reference_relation_codes(o).ravel() for o in orders])
            same = (codes[:, None] == codes[None]).all(axis=2)
            assert np.array_equal(table, table.T), name
            assert np.array_equal(table == 0.0, same), name
            # d(i, k) <= d(i, j) + d(j, k) for every triple, axes (i, j, k)
            assert np.all(table[:, None, :] <= table[:, :, None] + table[None] + 1e-12), name

    @given(st.integers(4, 5), st.data())
    def test_random_partial_triples(self, n, data):
        a, b, c = (data.draw(weak_orders(min_n=n, max_n=n)) for _ in range(3))
        same = np.array_equal(reference_relation_codes(a), reference_relation_codes(b))
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


def partial_tables(n):
    """Distance tables over the non-empty partial orders of n objects, for the
    belief methods and the three bfm attitudes."""
    orders = all_partial_orders(n)[1:]
    tables = {
        name: np.array([[d(a, b) for b in orders] for a in orders])
        for name, d in ORDER_DISTANCES.items()
    }
    reports = [[bfm_distance(a, b) for b in orders] for a in orders]
    for attitude in ("optim", "pessim", "aver"):
        tables[attitude] = np.array([[getattr(r, attitude) for r in row] for row in reports])
    return orders, tables


@pytest.fixture(scope="module")
def three_object_partial_tables():
    """The tables over the 25 non-empty partial orders of three objects."""
    return partial_tables(3)


class TestMetricStatusOfEveryPartialOrderOfThree:
    """The 15,625 triples of non-empty partial orders of three objects: which
    measures keep the triangle inequality, and which give an order a non-zero
    distance to itself."""

    def test_only_optim_breaks_the_triangle_inequality(self, three_object_partial_tables):
        orders, tables = three_object_partial_tables
        assert len(orders) == 25
        breaks = {
            name: int(np.sum(~(table[:, None, :] <= table[:, :, None] + table[None] + 1e-12)))
            for name, table in tables.items()
        }
        assert breaks == {
            "direct": 0, "jousselme": 0, "belief-interval": 0, "optim": 2424, "pessim": 0, "aver": 0
        }

    def test_pessim_and_aver_part_a_partial_order_from_itself(self, three_object_partial_tables):
        orders, tables = three_object_partial_tables
        partial = np.array([not order.is_total for order in orders])
        assert partial.sum() == 12
        for name, table in tables.items():
            expected = partial if name in ("pessim", "aver") else np.zeros(25, dtype=bool)
            assert np.array_equal(np.diag(table) != 0.0, expected), name


def average_ranks(values):
    """1-based ranks, tied values sharing the mean of their ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman(x, y):
    return float(np.corrcoef(average_ranks(x), average_ranks(y))[0, 1])


def kendall_tau_b(x, y):
    sx, sy = (np.sign(v[:, None] - v[None, :]) for v in (x, y))
    return float((sx * sy).sum() / np.sqrt((sx * sx).sum() * (sy * sy).sum()))


def kendall_tau_b_by_ranks(x, y):
    """Kendall's tau-b from the table of (rank of x, rank of y) counts, so that
    no n x n matrix is built: a cell's concordant partners lie above and to
    the right of it, and the discordant pairs are what remains once the
    concordant and the tied pairs are counted."""
    (_, i), (_, j) = (np.unique(v, return_inverse=True) for v in (x, y))
    table = np.zeros((i.max() + 1, j.max() + 1), dtype=np.int64)
    np.add.at(table, (i, j), 1)
    # above[a, b]: values with both ranks at least (a, b)
    above = np.pad(table[::-1, ::-1].cumsum(0).cumsum(1)[::-1, ::-1], ((0, 1), (0, 1)))
    concordant = int((table * above[1:, 1:]).sum())

    def pairs(counts):
        return int((counts * (counts - 1)).sum()) // 2

    n0, tied_x, tied_y = len(x) * (len(x) - 1) // 2, pairs(table.sum(1)), pairs(table.sum(0))
    discordant = n0 - concordant - tied_x - tied_y + pairs(table)
    return (concordant - discordant) / math.sqrt((n0 - tied_x) * (n0 - tied_y))


ATTITUDES = ("aver", "optim", "pessim")


class TestAgreementWithBfmAtThree:
    """How each belief route ranks the 625 pairs of non-empty partial orders of
    three objects against bfm's attitudes (the README's n = 3 rows)."""

    # per route: (Spearman, Kendall tau-b) with aver, optim and pessim
    CORRELATIONS = {
        "direct": ((0.436279, 0.344359), (0.371544, 0.309249), (0.195855, 0.178863)),
        "jousselme": ((0.725894, 0.566251), (0.809858, 0.688285), (0.130303, 0.094054)),
        "belief-interval": ((0.702491, 0.54646), (0.854064, 0.728229), (0.077669, 0.061448)),
    }
    INSIDE = {"direct": 295, "jousselme": 493, "belief-interval": 493}

    def test_correlations_and_pairs_inside_optim_and_pessim(self, three_object_partial_tables):
        _, tables = three_object_partial_tables
        # rounded, so that values equal but for the last bits tie
        values = {name: np.round(table.ravel(), 12) for name, table in tables.items()}
        for name, expected in self.CORRELATIONS.items():
            got = [
                (spearman(values[name], values[att]), kendall_tau_b(values[name], values[att]))
                for att in ATTITUDES
            ]
            assert np.allclose(got, expected, rtol=0, atol=5e-7), (name, got)
            by_ranks = [kendall_tau_b_by_ranks(values[name], values[att]) for att in ATTITUDES]
            assert np.allclose(by_ranks, [tau for _, tau in got], rtol=0, atol=1e-12), name
            d, optim, pessim = (tables[key].ravel() for key in (name, "optim", "pessim"))
            inside = (optim - 1e-12 <= d) & (d <= pessim + 1e-12)
            assert int(inside.sum()) == self.INSIDE[name], name


class TestAgreementWithBfmAtFour:
    """The README's table over the 22,201 pairs of non-empty partial orders of
    four objects: each belief route's Spearman and Kendall tau-b with bfm's
    aver, optim and pessim, and how many pairs fall inside [optim, pessim]."""

    # per route: (Spearman, Kendall tau-b) with aver, optim and pessim
    CORRELATIONS = {
        "direct": ((0.484836, 0.369263), (0.32683, 0.251765), (0.351756, 0.29911)),
        "jousselme": ((0.772565, 0.592591), (0.871729, 0.721609), (0.141627, 0.10904)),
        "belief-interval": ((0.750169, 0.564067), (0.912168, 0.775754), (0.068645, 0.054395)),
    }
    INSIDE = {"direct": 7045, "jousselme": 16701, "belief-interval": 16245}

    def test_correlations_and_pairs_inside_optim_and_pessim(self):
        orders, tables = partial_tables(4)
        assert len(orders) == 149
        # rounded, so that values equal but for the last bits tie
        values = {name: np.round(table.ravel(), 12) for name, table in tables.items()}
        optim, pessim = tables["optim"].ravel(), tables["pessim"].ravel()
        for name, expected in self.CORRELATIONS.items():
            got = [
                (spearman(x, y), kendall_tau_b_by_ranks(x, y))
                for x, y in ((values[name], values[att]) for att in ATTITUDES)
            ]
            assert np.allclose(got, expected, rtol=0, atol=5e-7), (name, got)
            d = tables[name].ravel()
            inside = (optim - 1e-12 <= d) & (d <= pessim + 1e-12)
            assert int(inside.sum()) == self.INSIDE[name], name
        # without the slack, direct often falls just outside, at an end up to rounding
        d = tables["direct"].ravel()
        assert int(((optim <= d) & (d <= pessim)).sum()) == 6637


class TestOperandSymmetryAtBeliefOrdersSizes:
    """The belief methods at N = 6..64, the sizes of the belief_orders workload."""

    @given(st.integers(6, 64), st.data())
    def test_reports_are_bitwise_symmetric_and_zero_only_on_equal_codes(self, n, data):
        a = data.draw(weak_orders(min_n=n, max_n=n))
        b = data.draw(st.one_of(weak_orders(min_n=n, max_n=n), st.just(a)))
        same = np.array_equal(reference_relation_codes(a), reference_relation_codes(b))
        reports = [(direct_distance(a, b), direct_distance(b, a))] + [
            (indirect_distance(a, b, metric), indirect_distance(b, a, metric))
            for metric in BbaMetric
        ]
        for forward, backward in reports:
            bits = [list(map(float.hex, (r.raw, r.max, r.normalized))) for r in (forward, backward)]
            assert bits[0] == bits[1], forward.method
            assert (forward.raw == 0.0) == same, forward.method


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
        assert direct_distance(chain, reverse(chain)).raw == pytest.approx(math.sqrt(12))


class TestBruteForceSymmetry:
    def test_scalars_invariant_under_argument_swap(self, abc):
        texts = ["C > A", "A > B", "B > (A = C)", "(A = B) > C"]
        for t1, t2 in itertools.combinations(texts, 2):
            p1, p2 = parse_preference(t1, abc), parse_preference(t2, abc)
            forward, backward = bfm_distance(p1, p2), bfm_distance(p2, p1)
            assert forward.aver == pytest.approx(backward.aver)
            assert forward.optim == pytest.approx(backward.optim)
            assert forward.pessim == pytest.approx(backward.pessim)


def relabel(order, perm):
    """``order`` with object i renamed ``perm[i]``."""
    ranks = [0] * order.universe_size
    for i, rank in zip(perm, order.rank_tuple):
        ranks[i] = rank
    return WeakOrder.from_ranks(ranks)


def completion_rows(order, perm):
    """For each completion of ``order``, in order, the row of its relabeled
    self among the completions of ``relabel(order, perm)``."""
    moved = compatible_tpos(relabel(order, perm)).tolist()
    index = {tuple(row): k for k, row in enumerate(moved)}
    rows = compatible_tpos(order)[:, np.argsort(perm)].tolist()
    return [index[tuple(row)] for row in rows]


class TestRelabelingAndReversal:
    """Renaming the objects, or reversing both orders, moves no bit of any
    distance: the pair-category kernel and bfm's histogram see the same pairs."""

    @given(st.integers(2, 64), st.data())
    def test_belief_raw_values(self, n, data):
        a = data.draw(weak_orders(min_n=n, max_n=n))
        b = data.draw(weak_orders(min_n=n, max_n=n))
        perm = data.draw(st.permutations(range(n)))

        def raws(x, y):
            reports = [direct_distance(x, y)] + [indirect_distance(x, y, m) for m in BbaMetric]
            return [report.raw.hex() for report in reports]

        expected = raws(a, b)
        assert raws(relabel(a, perm), relabel(b, perm)) == expected
        assert raws(reverse(a), reverse(b)) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_bfm_scalars_counts_and_grid(self, n, data):
        a = data.draw(weak_orders(min_n=n, max_n=n))
        b = data.draw(weak_orders(min_n=n, max_n=n))
        perm = data.draw(st.permutations(range(n)))
        report = bfm_distance(a, b)
        expected = [getattr(report, f).hex() for f in ("optim", "pessim", "aver")]
        for x, y in ((relabel(a, perm), relabel(b, perm)), (reverse(a), reverse(b))):
            other = bfm_distance(x, y)
            assert [getattr(other, f).hex() for f in ("optim", "pessim", "aver")] == expected
            assert np.array_equal(other.counts, report.counts)
        moved = bfm_distance(relabel(a, perm), relabel(b, perm)).squared
        rows, cols = completion_rows(a, perm), completion_rows(b, perm)
        assert np.array_equal(moved[np.ix_(rows, cols)], report.squared)


def agree_on_overlap(a, b):
    """Whether ``a`` and ``b`` relate alike every pair of objects that both mention."""
    codes_a, codes_b = reference_relation_codes(a), reference_relation_codes(b)
    known = (codes_a != 3) & (codes_b != 3)  # 3 is UNKNOWN
    return bool(np.array_equal(codes_a[known], codes_b[known]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bfm_optim_is_zero_exactly_when_the_orders_agree_on_their_overlap(n):
    """Weak orders that agree on the objects both mention share a completion,
    and orders that disagree on a pair share none."""
    orders = all_partial_orders(n)[1:]  # every non-empty partial order
    for a, b in itertools.product(orders, repeat=2):
        assert (bfm_distance(a, b).optim == 0.0) == agree_on_overlap(a, b), (a, b)


@st.composite
def overlapping_pairs(draw):
    """Restrictions of two total orders of 2..6 objects: the same order (they
    agree on their overlap), its reverse, or an independent one."""
    n = draw(st.integers(2, 6))
    total = draw(weak_orders(min_n=n, max_n=n, total=True))
    other = draw(weak_orders(min_n=n, max_n=n, total=True))
    other = draw(st.sampled_from([total, reverse(total), other]))
    subsets = st.sets(st.integers(0, n - 1))
    return restrict(total, draw(subsets)), restrict(other, draw(subsets))


@settings(deadline=None)
@given(
    overlapping_pairs().filter(
        lambda pair: _completion_count(pair[0]) * _completion_count(pair[1]) <= 10**5
    )
)
def test_bfm_optim_is_zero_exactly_when_the_orders_agree_up_to_six_objects(pair):
    a, b = pair
    assert (bfm_distance(a, b).optim == 0.0) == agree_on_overlap(a, b), (a, b)


class TestPsmStructure:
    @given(weak_orders(min_n=2, max_n=5, total=True))
    def test_signed_matrix_antisymmetric(self, order):
        entries = CODE_SCORE[PsmConvention.SIGNED][reference_relation_codes(order)]
        assert np.array_equal(entries.T, -entries)

    @given(st.integers(2, 5), st.data())
    def test_normalized_distance_in_unit_interval(self, n, data):
        a = data.draw(weak_orders(min_n=n, max_n=n, total=True))
        b = data.draw(weak_orders(min_n=n, max_n=n, total=True))
        assert 0.0 <= normalized_distance(a, b) <= 1.0 + 1e-12
