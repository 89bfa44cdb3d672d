import itertools
import math

import numpy as np
import pytest

from prefdist import (
    DegenerateUniverseError,
    DimensionMismatchError,
    DistanceReport,
    NotTotalError,
    PsmConvention,
    direct_distance,
    max_psm_distance,
    normalized_distance,
)

from strategies import CODE_SCORE, all_weak_orders, reference_relation_codes
from test_differential import reference_build_psm
from test_model import check_frozen_value

TOL = 5e-5


def scores(order, convention):
    """The score matrix that the classical distance reads off the relation codes."""
    return CODE_SCORE[convention][reference_relation_codes(order)]


def raw_distance(a, b, convention):
    """The unnormalized classical distance under ``convention``."""
    return normalized_distance(a, b) * max_psm_distance(a.universe_size, convention)


class TestScoreMatrix:
    def test_signed_worked_matrix(self, pref):
        entries = scores(pref("B > A > C"), PsmConvention.SIGNED)
        expected = [[0, -1, 1], [1, 0, 1], [-1, -1, 0]]
        assert np.array_equal(entries, np.array(expected, dtype=float))

    def test_unit_worked_matrix(self, pref):
        entries = scores(pref("B > A > C"), PsmConvention.UNIT)
        expected = [[0.5, 0, 1], [1, 0.5, 1], [0, 0, 0.5]]
        assert np.array_equal(entries, np.array(expected))

    def test_all_ties_signed_is_zero(self, pref):
        entries = scores(pref("(A = B = C)"), PsmConvention.SIGNED)
        assert np.array_equal(entries, np.zeros((3, 3)))

    def test_signed_antisymmetry_over_all_orders_of_three(self):
        for order in all_weak_orders(3):
            entries = scores(order, PsmConvention.SIGNED)
            assert np.array_equal(entries.T, -entries)
            assert entries.trace() == 0.0

    def test_unit_complementarity_over_all_orders_of_three(self):
        for order in all_weak_orders(3):
            entries = scores(order, PsmConvention.UNIT)
            assert np.array_equal(entries + entries.T, np.ones((3, 3)))


class TestRawDistance:
    def test_signed_worked_value(self, pref):
        d = raw_distance(pref("B > A > C"), pref("B > C > A"), PsmConvention.SIGNED)
        assert d == pytest.approx(math.sqrt(8))
        assert d == pytest.approx(2.8284, abs=TOL)

    def test_unit_worked_value(self, pref):
        d = raw_distance(pref("B > A > C"), pref("B > C > A"), PsmConvention.UNIT)
        assert d == pytest.approx(math.sqrt(2))
        assert d == pytest.approx(1.4142, abs=TOL)


class TestMaxDistance:
    def test_three_objects_signed(self):
        assert max_psm_distance(3, PsmConvention.SIGNED) == pytest.approx(math.sqrt(24))
        assert max_psm_distance(3, PsmConvention.SIGNED) == pytest.approx(4.8990, abs=TOL)

    def test_three_objects_unit(self):
        assert max_psm_distance(3, PsmConvention.UNIT) == pytest.approx(math.sqrt(6))

    def test_two_objects_signed_against_brute_force(self):
        # independent oracle: exhaustive maximum over all weak-order pairs
        orders = all_weak_orders(2)
        matrices = [reference_build_psm(order, PsmConvention.SIGNED) for order in orders]
        brute = max(np.linalg.norm(m1 - m2) for m1 in matrices for m2 in matrices)
        assert max_psm_distance(2, PsmConvention.SIGNED) == pytest.approx(brute)
        assert brute == pytest.approx(math.sqrt(8))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_closed_forms(self, n):
        assert max_psm_distance(n, PsmConvention.SIGNED) == pytest.approx(
            2 * math.sqrt(n * (n - 1))
        )
        assert max_psm_distance(n, PsmConvention.UNIT) == pytest.approx(
            math.sqrt(n * (n - 1))
        )

    def test_degenerate_universe(self):
        with pytest.raises(DegenerateUniverseError):
            max_psm_distance(1)

    def test_reversal_attains_exhaustive_maximum_at_three(self):
        for convention in PsmConvention:
            orders = all_weak_orders(3)
            matrices = [reference_build_psm(order, convention) for order in orders]
            brute = max(np.linalg.norm(m1 - m2) for m1 in matrices for m2 in matrices)
            assert brute == pytest.approx(max_psm_distance(3, convention))


class TestNormalizedDistance:
    def test_worked_value(self, pref):
        p1, p2 = pref("B > A > C"), pref("B > C > A")
        assert normalized_distance(p1, p2) == pytest.approx(1 / math.sqrt(3))
        assert normalized_distance(p1, p2) == pytest.approx(0.5774, abs=TOL)

    def test_identical_orders(self, pref):
        for text in ("A > B > C", "B > A > C"):
            assert normalized_distance(pref(text), pref(text)) == 0.0

    def test_partial_input_rejected(self, pref):
        with pytest.raises(NotTotalError):
            normalized_distance(pref("C > A"), pref("A > B > C"))
        with pytest.raises(NotTotalError):
            normalized_distance(pref("A > B > C"), pref("C > A"))

    def test_universe_size_mismatch(self, pref):
        other = all_weak_orders(4)[0]
        with pytest.raises(DimensionMismatchError):
            normalized_distance(pref("A > B > C"), other)

    def test_values_lie_in_unit_interval(self):
        orders = all_weak_orders(3)
        for a, b in itertools.product(orders, orders):
            d = normalized_distance(a, b)
            assert 0.0 <= d <= 1.0 + 1e-12


class TestDistanceReport:
    def test_value_semantics(self, pref):
        report = direct_distance(pref("C > A"), pref("A > B"))
        same = DistanceReport("direct", report.raw, report.max, report.normalized)
        other = direct_distance(pref("C > A"), pref("A > C"))
        text = (
            "DistanceReport(method='direct', raw=2.8284271247461903, "
            "max=3.4641016151377544, normalized=0.8164965809277261)"
        )
        check_frozen_value(report, same, other, "raw", text)

    def test_a_report_is_a_named_tuple(self, pref):
        report = direct_distance(pref("C > A"), pref("A > B"))
        method, raw, maximum, normalized = report
        assert report == (method, raw, maximum, normalized) == tuple(report)
        assert (method, raw / maximum) == ("direct", normalized)
        assert report._fields == ("method", "raw", "max", "normalized")
