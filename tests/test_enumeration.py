import math

import pytest

from prefdist import (
    CapExceededError,
    WeakOrder,
    compatible_tpos,
    render_preference,
)
from prefdist.enumeration import _completion_count

from strategies import all_partial_orders, all_weak_orders, ctpos, mentioned, restrict

# All 13 weak orders of three objects.
ALL_THREE_OBJECT_ORDERS = {
    "A > B > C",
    "A > C > B",
    "B > A > C",
    "B > C > A",
    "C > A > B",
    "C > B > A",
    "A > (B = C)",
    "B > (A = C)",
    "C > (A = B)",
    "(A = B) > C",
    "(A = C) > B",
    "(B = C) > A",
    "(A = B = C)",
}


def ordered_bell(n):
    """Independent count oracle: a(n) = sum_k C(n,k) * a(n-k), a(0) = 1."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


class TestEnumerateWeakOrders:
    """The weak orders of n objects: the completions of the empty order."""

    def test_single_object(self):
        assert all_weak_orders(1) == (WeakOrder(((0,),), 1),)

    def test_three_objects_match_known_list(self, abc):
        rendered = [render_preference(o, abc) for o in all_weak_orders(3)]
        assert len(rendered) == 13
        assert set(rendered) == ALL_THREE_OBJECT_ORDERS

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_match_recurrence_oracle(self, n):
        assert len(compatible_tpos(WeakOrder((), n))) == ordered_bell(n)

    def test_four_objects_count(self):
        assert len(all_weak_orders(4)) == 75

    def test_no_duplicates_and_all_total(self):
        orders = all_weak_orders(4)
        assert len(set(orders)) == len(orders)
        assert all(o.is_total for o in orders)

    def test_deterministic_lexicographic_rank_vectors(self):
        vectors = [o.rank_tuple for o in all_weak_orders(4)]
        assert vectors == sorted(vectors)

    def test_repeatable(self):
        assert all_weak_orders(3) == all_weak_orders(3)

    def test_cap_exceeded(self):
        with pytest.raises(CapExceededError):
            compatible_tpos(WeakOrder((), 9))

    def test_cap_override(self):
        with pytest.raises(CapExceededError):
            compatible_tpos(WeakOrder((), 3), cap=2)
        result = compatible_tpos(WeakOrder((), 9), cap=9)  # a raised cap admits n = 9
        assert len(result) == ordered_bell(9) and result.min() == 0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            compatible_tpos(WeakOrder((), 0))

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_a_usage_error(self, cap):
        """A cap that no universe fits is a faulty argument, not a refusal of
        the size, as ``--cap`` is on the command line."""
        with pytest.raises(ValueError, match=f"^cap must be at least 1, got {cap}$"):
            compatible_tpos(WeakOrder((), 3), cap=cap)


class TestCompatibleTpos:
    def test_first_worked_partial_order(self, abc, pref):
        result = ctpos(pref("C > A"))
        rendered = {render_preference(o, abc) for o in result}
        assert len(result) == 5
        assert rendered == {
            "B > C > A",
            "C > A > B",
            "C > B > A",
            "C > (A = B)",
            "(B = C) > A",
        }

    def test_second_worked_partial_order(self, abc, pref):
        result = ctpos(pref("A > B"))
        rendered = {render_preference(o, abc) for o in result}
        assert len(result) == 5
        assert rendered == {
            "A > B > C",
            "A > C > B",
            "C > A > B",
            "A > (B = C)",
            "(A = C) > B",
        }

    def test_total_order_is_its_own_unique_completion(self, pref):
        order = pref("B > A > C")
        assert ctpos(order) == (order,)

    def test_empty_partial_order_matches_everything(self):
        assert len(compatible_tpos(WeakOrder((), 3))) == 13

    def test_restrictions_reproduce_the_partial_order(self, pref):
        ppo = pref("C > A")
        for ctpo in ctpos(ppo):
            assert restrict(ctpo, mentioned(ppo)) == ppo

    @pytest.mark.parametrize(
        "weaker, stronger",
        [
            ("C > A", "C > A > B"),
            ("A > B", "A > B > C"),
            ("B > C", "B > C > A"),
        ],
    )
    def test_monotone_under_extension(self, pref, weaker, stronger):
        weak_set = set(ctpos(pref(weaker)))
        strong_set = set(ctpos(pref(stronger)))
        assert strong_set <= weak_set

    def test_cap_applies(self, pref):
        with pytest.raises(CapExceededError):
            compatible_tpos(pref("C > A"), cap=2)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_completion_count_matches_the_generated_completions(self, n):
        for order in all_partial_orders(n):
            assert _completion_count(order) == len(compatible_tpos(order)), order
