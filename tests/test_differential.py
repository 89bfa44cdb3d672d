"""Differential tests: the rank-vector paths against the per-cell reference.

The reference functions below are the original cell-by-cell implementations:
one relation per object pair read from a rank dictionary, one mass function
per grid cell, one metric call per cell, and maxima measured between the
strict chain and its reversal.  They are slow and stay here only as oracles.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefdist import (
    ATOM_SUCC,
    BbaMatrix,
    BbaMetric,
    MassFunction,
    PairRelation,
    bba_from_relation,
    belief_interval_distance,
    build_bba_matrix,
    chain_order,
    direct_distance,
    direct_distance_general,
    indirect_distance,
    indirect_psm,
    jousselme_distance,
)

from strategies import weak_orders

MAX_N = 7
REFERENCE_METRIC = {
    BbaMetric.JOUSSELME: jousselme_distance,
    BbaMetric.BELIEF_INTERVAL: belief_interval_distance,
}
SUCC_CERTAIN = MassFunction.certain(ATOM_SUCC)


def reference_relation(order, i, j):
    if i == j:
        return PairRelation.EQUIV
    ranks = {idx: pos for pos, group in enumerate(order.classes) for idx in group}
    ri, rj = ranks.get(i), ranks.get(j)
    if ri is None or rj is None:
        return PairRelation.UNKNOWN
    if ri == rj:
        return PairRelation.EQUIV
    return PairRelation.SUCC if ri < rj else PairRelation.PREC


def reference_bba_matrix(order):
    n = order.universe_size
    return BbaMatrix(
        tuple(
            tuple(bba_from_relation(reference_relation(order, i, j)) for j in range(n))
            for i in range(n)
        )
    )


def reference_grid_distance(b1, b2):
    return float(np.linalg.norm(b1.as_array() - b2.as_array()))


def reference_direct_max(n):
    chain = chain_order(n)
    return reference_grid_distance(
        reference_bba_matrix(chain), reference_bba_matrix(chain.reverse())
    )


def reference_indirect_psm(order, metric):
    distance = REFERENCE_METRIC[metric]
    cells = reference_bba_matrix(order).cells
    n = order.universe_size
    entries = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            entries[i, j] = distance(cells[i][j], SUCC_CERTAIN)
    return entries


def reference_indirect_max(n, metric):
    chain = chain_order(n)
    return float(
        np.linalg.norm(
            reference_indirect_psm(chain, metric)
            - reference_indirect_psm(chain.reverse(), metric)
        )
    )


@st.composite
def order_pairs(draw):
    """Two possibly partial orders over one universe of 2..MAX_N objects."""
    n = draw(st.integers(2, MAX_N))
    return (
        draw(weak_orders(min_n=n, max_n=n)),
        draw(weak_orders(min_n=n, max_n=n)),
    )


class TestEncoding:
    @given(weak_orders(max_n=MAX_N))
    def test_relation_codes_match_relation(self, order):
        codes = order.relation_codes()
        relations = list(PairRelation)
        n = order.universe_size
        assert codes.shape == (n, n) and codes.dtype == np.int8
        for i in range(n):
            for j in range(n):
                assert order.relation(i, j) is reference_relation(order, i, j)
                assert codes[i, j] == relations.index(order.relation(i, j))

    @given(weak_orders(max_n=MAX_N))
    def test_bba_matrix_matches_reference(self, order):
        assert build_bba_matrix(order) == reference_bba_matrix(order)


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
        assert direct_distance_general(build_bba_matrix(a), build_bba_matrix(b)) == report

    @pytest.mark.parametrize("metric", list(BbaMetric))
    @given(pair=order_pairs())
    def test_indirect_agrees(self, metric, pair):
        a, b = pair
        for order in pair:
            assert np.array_equal(indirect_psm(order, metric), reference_indirect_psm(order, metric))
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
    assert direct_distance(chain, chain.reverse()).max == reference_direct_max(n)
    for metric in BbaMetric:
        report = indirect_distance(chain, chain.reverse(), metric)
        assert report.max == reference_indirect_max(n, metric)
        assert report.raw == report.max
