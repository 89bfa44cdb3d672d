import pytest

from prefdist import (
    DuplicateObjectError,
    EmptyExpressionError,
    IndexOutOfRangeError,
    ObjectUniverse,
    PairRelation,
    PreferenceSyntaxError,
    SubsetNotMentionedError,
    UnknownObjectError,
    WeakOrder,
    chain_order,
    enumerate_weak_orders,
    parse_preference,
    render_preference,
)


class TestObjectUniverse:
    def test_labels_are_positional(self, abc):
        assert abc.index("B") == 1
        assert len(abc) == 3

    def test_unknown_label(self, abc):
        with pytest.raises(UnknownObjectError):
            abc.index("D")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateObjectError):
            ObjectUniverse(("A", "B", "A"))

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            ObjectUniverse(())

    def test_blank_label_rejected(self):
        with pytest.raises(ValueError):
            ObjectUniverse(("A", ""))

    @pytest.mark.parametrize("label", ["A B", "é", "A>B", "(A)", "A=B", " A", "A\n"])
    def test_label_outside_the_grammar_rejected(self, label):
        with pytest.raises(ValueError, match=r"must match \[A-Za-z0-9_\]\+$"):
            ObjectUniverse(("A0", label))

    def test_single_object_allowed(self):
        assert len(ObjectUniverse(("A",))) == 1

    def test_numbered_labels(self):
        assert ObjectUniverse.numbered(3).labels == ("x1", "x2", "x3")


class TestWeakOrderConstruction:
    def test_within_class_indices_are_sorted(self):
        order = WeakOrder(((2, 0),), 3)
        assert order.classes == ((0, 2),)

    def test_class_sequence_is_preserved(self):
        order = WeakOrder(((2,), (0, 1)), 3)
        assert order.classes == ((2,), (0, 1))

    def test_overlapping_classes_rejected(self):
        with pytest.raises(DuplicateObjectError):
            WeakOrder(((0,), (0, 1)), 3)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(IndexOutOfRangeError):
            WeakOrder(((3,),), 3)

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            WeakOrder(((0,), ()), 3)

    def test_empty_order_is_legal(self):
        order = WeakOrder((), 3)
        assert order.mentioned == frozenset()
        assert not order.is_total


class TestParse:
    def test_strict_chain(self, abc):
        assert parse_preference("B > A > C", abc).classes == ((1,), (0,), (2,))

    def test_tie_group(self, abc):
        assert parse_preference("C > (A = B)", abc).classes == ((2,), (0, 1))

    def test_all_tied(self, abc):
        assert parse_preference("(A = B = C)", abc).classes == ((0, 1, 2),)

    def test_whitespace_insignificant(self, abc):
        assert parse_preference("  C>(A =B) ", abc) == parse_preference("C > (A = B)", abc)

    def test_partial_order(self, abc):
        order = parse_preference("C > A", abc)
        assert order.classes == ((2,), (0,))
        assert order.mentioned == frozenset({0, 2})
        assert not order.is_total

    def test_repeated_object(self):
        universe = ObjectUniverse(("A", "B"))
        with pytest.raises(DuplicateObjectError):
            parse_preference("A > A", universe)

    def test_unknown_object(self, abc):
        with pytest.raises(UnknownObjectError):
            parse_preference("A > D", abc)

    def test_empty_expression(self, abc):
        with pytest.raises(EmptyExpressionError):
            parse_preference("   ", abc)

    @pytest.mark.parametrize(
        "text",
        [
            "A >",
            "> A",
            "A B",
            "(A)",
            "(A = B",
            "A = B",
            "A > (B > C)",
            "A # B",
            "()",
        ],
    )
    def test_grammar_violations(self, abc, text):
        with pytest.raises(PreferenceSyntaxError):
            parse_preference(text, abc)


class TestRelation:
    def test_partial_order_known_pair(self, pref):
        order = pref("C > A")
        assert order.relation(2, 0) is PairRelation.SUCC
        assert order.relation(0, 2) is PairRelation.PREC

    def test_partial_order_unknown_pair(self, pref):
        order = pref("C > A")
        assert order.relation(1, 0) is PairRelation.UNKNOWN
        assert order.relation(0, 1) is PairRelation.UNKNOWN

    def test_self_comparison_is_tie_even_when_unmentioned(self, pref):
        order = pref("C > A")
        assert order.relation(1, 1) is PairRelation.EQUIV

    def test_tied_pair(self, pref):
        order = pref("C > (A = B)")
        assert order.relation(0, 1) is PairRelation.EQUIV

    def test_index_out_of_range(self, pref):
        with pytest.raises(IndexOutOfRangeError):
            pref("C > A").relation(0, 3)

    def test_rank_vector_marks_unmentioned_objects(self, pref):
        assert pref("C > A").rank_vector.tolist() == [1, -1, 0]
        assert pref("C > (A = B)").rank_vector.tolist() == [1, 1, 0]

    def test_rank_vector_is_read_only(self, pref):
        with pytest.raises(ValueError):
            pref("C > A").rank_vector[1] = 0

    def test_relation_codes_of_a_partial_order(self, pref):
        # SUCC 0, EQUIV 1, PREC 2, UNKNOWN 3; row object against column object
        assert pref("C > A").relation_codes().tolist() == [
            [1, 3, 2],
            [3, 1, 3],
            [0, 3, 1],
        ]

    def test_antisymmetry_over_all_orders_of_three(self):
        for order in enumerate_weak_orders(3):
            for i in range(3):
                for j in range(3):
                    forward, backward = order.relation(i, j), order.relation(j, i)
                    if forward is PairRelation.SUCC:
                        assert backward is PairRelation.PREC
                    elif forward is PairRelation.PREC:
                        assert backward is PairRelation.SUCC
                    else:
                        assert backward is forward


class TestReverse:
    def test_chain(self, pref):
        assert pref("A > B > C").reverse() == pref("C > B > A")

    def test_all_tied_is_self_reverse(self, pref):
        order = pref("(A = B = C)")
        assert order.reverse() == order

    def test_class_sequence_flip(self, pref):
        assert pref("C > (A = B)").reverse() == pref("(A = B) > C")

    def test_involution_over_all_orders_of_three(self):
        for order in enumerate_weak_orders(3):
            assert order.reverse().reverse() == order


class TestRestrict:
    def test_drops_outside_objects(self, pref):
        assert pref("C > (A = B)").restrict({0, 2}) == pref("C > A")

    def test_identity_restriction(self, pref):
        order = pref("B > A > C")
        assert order.restrict(order.mentioned) == order

    def test_sequence_preserved(self, pref):
        assert pref("B > C > A").restrict({0, 2}) == pref("C > A")

    def test_subset_must_be_mentioned(self, pref):
        with pytest.raises(SubsetNotMentionedError):
            pref("C > A").restrict({0, 1})

    def test_empty_restriction(self, pref):
        assert pref("B > C > A").restrict(set()) == WeakOrder((), 3)

    def test_preserves_pairwise_relations(self):
        subset = {0, 2, 3}
        for order in enumerate_weak_orders(4):
            restricted = order.restrict(subset)
            assert restricted.mentioned == frozenset(subset)
            for i in subset:
                for j in subset:
                    assert restricted.relation(i, j) is order.relation(i, j)


class TestRender:
    def test_chain_style(self, abc, pref):
        assert render_preference(pref("B > A > C"), abc) == "B > A > C"

    def test_tie_style(self, abc, pref):
        assert render_preference(pref("C>(B=A)"), abc) == "C > (A = B)"

    def test_round_trip_over_all_orders_of_three(self, abc):
        for order in enumerate_weak_orders(3):
            assert parse_preference(render_preference(order, abc), abc) == order

    def test_universe_size_must_match(self, pref):
        with pytest.raises(Exception):
            render_preference(pref("C > A"), ObjectUniverse(("A", "B")))


def test_chain_order_shape():
    assert chain_order(4).classes == ((0,), (1,), (2,), (3,))
