"""Differential tests: the fast paths against the slow reference implementations.

The reference functions below are the original implementations: one relation
per object pair read from a rank dictionary, one mass function per grid cell,
one metric call per cell, and maxima measured between the strict chain and
its reversal; for the brute-force method, completions found by filtering
every weak order, one score matrix built per order and one Frobenius
distance per completion pair; for the command line, one ``json.dumps`` of
the whole reply and one ``repr`` per table cell.  They are slow and stay
here only as oracles.
"""

import contextlib
import io
import itertools
import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefdist import (
    ATOM_SUCC,
    BbaMatrix,
    BbaMetric,
    MassFunction,
    ObjectUniverse,
    PairRelation,
    PreferenceScoreMatrix,
    PsmConvention,
    WeakOrder,
    bba_from_relation,
    belief_interval_distance,
    bfm_grid,
    build_bba_matrix,
    build_psm,
    chain_order,
    compatible_tpos,
    direct_distance,
    direct_distance_general,
    enumerate_weak_orders,
    frobenius_distance,
    indirect_distance,
    indirect_psm,
    jousselme_distance,
    max_psm_distance,
    parse_preference,
    render_preference,
)
from prefdist import cli

from strategies import all_partial_orders, weak_orders

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


def reference_compatible_tpos(ppo):
    mentioned = ppo.mentioned
    return tuple(
        candidate
        for candidate in enumerate_weak_orders(ppo.universe_size)
        if candidate.restrict(mentioned) == ppo
    )


def reference_build_psm(tpo, convention):
    r = tpo.rank_vector.astype(np.float64)
    signed = np.sign(r[None, :] - r[:, None])
    entries = signed if convention is PsmConvention.SIGNED else (signed + 1.0) / 2.0
    return PreferenceScoreMatrix(entries, convention)


def reference_max_psm_distance(n, convention):
    chain = chain_order(n)
    return frobenius_distance(
        reference_build_psm(chain, convention), reference_build_psm(chain.reverse(), convention)
    )


def reference_bfm_grid(ppo1, ppo2, convention):
    maximum = reference_max_psm_distance(ppo1.universe_size, convention)
    psms1 = [reference_build_psm(t, convention) for t in reference_compatible_tpos(ppo1)]
    psms2 = [reference_build_psm(t, convention) for t in reference_compatible_tpos(ppo2)]
    grid = np.empty((len(psms1), len(psms2)))
    for i, m1 in enumerate(psms1):
        for j, m2 in enumerate(psms2):
            grid[i, j] = frobenius_distance(m1, m2) / maximum
    return grid


def reference_emit(payload, fmt):
    if "grid" in payload:
        payload = {**payload, "grid": payload["grid"].tolist()}
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


def assert_bfm_stdout_matches_reference(a, b, convention, fmt):
    universe = ObjectUniverse(tuple("ABCDEFG"[: a.universe_size]))
    argv = [
        "dist", "--method", "bfm", "--objects", ",".join(universe.labels),
        "--pref1", render_preference(a, universe), "--pref2", render_preference(b, universe),
        "--conv", convention.value, "--format", fmt,
    ]
    with mock.patch.object(cli, "_emit", reference_emit):
        expected = cli_stdout(argv)
    actual = cli_stdout(argv)
    same = actual == expected  # a bare assert would diff megabytes of text
    assert same, (argv, len(os.path.commonprefix([actual, expected])))


def assert_completions_match_reference(order):
    result = compatible_tpos(order)
    expected = reference_compatible_tpos(order)
    assert result.ctpos == expected
    assert result.ranks.tolist() == [t.rank_vector.tolist() for t in expected]


@st.composite
def order_pairs(draw, max_n=MAX_N):
    """Two possibly partial orders over one universe of 2..MAX_N objects."""
    n = draw(st.integers(2, max_n))
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


class TestBruteForce:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_empty_order_completes_to_every_weak_order(self, n):
        assert compatible_tpos(WeakOrder((), n)).ctpos == tuple(enumerate_weak_orders(n))

    @pytest.mark.parametrize("convention", list(PsmConvention))
    def test_every_pair_of_up_to_three_objects(self, convention):
        for n in (2, 3):
            orders = all_partial_orders(n)
            for a in orders:
                assert_completions_match_reference(a)
            for a, b in itertools.product(orders, repeat=2):
                grid = bfm_grid(a, b, convention)
                assert np.array_equal(grid, reference_bfm_grid(a, b, convention)), (a, b)

    @settings(deadline=None, max_examples=40)
    @given(pair=order_pairs(max_n=5), convention=st.sampled_from(list(PsmConvention)))
    def test_random_pairs_up_to_five_objects(self, pair, convention):
        a, b = pair
        for order in pair:
            assert_completions_match_reference(order)
        assert np.array_equal(bfm_grid(a, b, convention), reference_bfm_grid(a, b, convention))

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
            assert np.array_equal(bfm_grid(a, b, convention), reference_bfm_grid(a, b, convention))


@pytest.mark.parametrize("convention", list(PsmConvention))
@pytest.mark.parametrize("n", range(2, 13))
def test_max_psm_distance_is_exact(n, convention):
    assert max_psm_distance(n, convention) == reference_max_psm_distance(n, convention)


@pytest.mark.parametrize("convention", list(PsmConvention))
@pytest.mark.parametrize("n", range(1, 6))
def test_build_psm_is_bitwise_the_per_order_construction(n, convention):
    for order in enumerate_weak_orders(n):
        entries = build_psm(order, convention).entries
        expected = reference_build_psm(order, convention).entries
        assert entries.dtype == expected.dtype and entries.shape == expected.shape
        assert entries.tobytes() == expected.tobytes(), order


class TestCliOutput:
    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("convention", list(PsmConvention))
    def test_every_pair_of_three_objects(self, convention, fmt):
        orders = all_partial_orders(3)[1:]  # the empty order has no text form
        for a, b in itertools.product(orders, repeat=2):
            assert_bfm_stdout_matches_reference(a, b, convention, fmt)

    @settings(deadline=None, max_examples=40)
    @given(
        pair=order_pairs(max_n=5).filter(lambda pair: all(o.classes for o in pair)),
        convention=st.sampled_from(list(PsmConvention)),
        fmt=st.sampled_from(["json", "table"]),
    )
    def test_random_pairs_up_to_five_objects(self, pair, convention, fmt):
        assert_bfm_stdout_matches_reference(*pair, convention, fmt)
