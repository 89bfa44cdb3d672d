import copy
import pickle
import re

import numpy as np
import pytest

from prefdist import (
    DuplicateObjectError,
    EmptyExpressionError,
    IndexOutOfRangeError,
    ObjectUniverse,
    PairRelation,
    PreferenceSyntaxError,
    UnknownObjectError,
    WeakOrder,
    parse_preference,
    render_preference,
)

from strategies import (
    all_weak_orders,
    chain_order,
    classes,
    mentioned,
    reference_relation_codes,
    restrict,
    reverse,
)


def check_frozen_value(value, same, other, field, text):
    """Pin the value semantics of a frozen value class: ``same`` is built apart
    and equals ``value``, ``other`` differs in a field, ``field`` names one
    field and ``text`` is the ``repr`` of ``value``."""
    assert same is not value and same == value and not same != value
    assert other != value and not other == value
    assert value.__eq__(object()) is NotImplemented
    assert hash(same) == hash(value)
    assert repr(value) == text
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text
    copies = [copy.copy(value), copy.deepcopy(value)]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copies.append(pickle.loads(pickle.dumps(value, protocol)))
    for twin in copies:
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == text
    return copies


class TestValueSemantics:
    def test_object_universe(self):
        universe = ObjectUniverse(("A", "B", "C"))
        same, other = ObjectUniverse(["A", "B", "C"]), ObjectUniverse(("A", "C", "B"))
        text = "ObjectUniverse(labels=('A', 'B', 'C'))"
        for twin in check_frozen_value(universe, same, other, "labels", text):
            assert twin.index("C") == 2 and len(twin) == 3
        assert universe != ("A", "B", "C")

    def test_weak_order(self, abc, pref):
        order = pref("C > (A = B)")
        same, other = WeakOrder.from_ranks((1, 1, 0)), pref("C > A")
        text = "WeakOrder(rank_tuple=(1, 1, 0))"
        for twin in check_frozen_value(order, same, other, "rank_tuple", text):
            assert render_preference(twin, abc) == "C > (A = B)" and twin.is_total
        assert order != (1, 1, 0)
        assert repr(pref("C > A")) == "WeakOrder(rank_tuple=(1, -1, 0))"


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

    def test_the_first_repeated_label_is_named(self):
        with pytest.raises(DuplicateObjectError, match="'B'"):
            ObjectUniverse(("A", "B", "B", "A"))

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

    def test_the_first_bad_label_is_named(self):
        with pytest.raises(ValueError, match="^object label 'x y' must match"):
            ObjectUniverse(("A", "x y", "B", "\u00e9", ""))

    @pytest.mark.parametrize("labels", [("A", 1), (0, "A"), ("A", b"B"), ("A", None)])
    def test_a_label_that_is_not_a_string_raises_type_error(self, labels):
        with pytest.raises(TypeError):
            ObjectUniverse(labels)

    def test_a_bad_label_is_named_before_a_later_non_string(self):
        with pytest.raises(ValueError, match="'A B'"):
            ObjectUniverse(("A B", 1))

    def test_single_object_allowed(self):
        assert len(ObjectUniverse(("A",))) == 1

    def test_numbered_labels(self):
        assert ObjectUniverse.numbered(3).labels == ("x1", "x2", "x3")


class TestWeakOrderConstruction:
    def test_within_class_indices_are_sorted(self):
        order = WeakOrder(((2, 0),), 3)
        assert classes(order) == ((0, 2),)

    def test_class_sequence_is_preserved(self):
        order = WeakOrder(((2,), (0, 1)), 3)
        assert classes(order) == ((2,), (0, 1))

    def test_overlapping_classes_rejected(self):
        with pytest.raises(DuplicateObjectError):
            WeakOrder(((0,), (0, 1)), 3)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(IndexOutOfRangeError):
            WeakOrder(((3,),), 3)

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            WeakOrder(((0,), ()), 3)

    def test_negative_universe_size_rejected(self):
        with pytest.raises(ValueError, match="universe_size must be non-negative"):
            WeakOrder((), -1)

    def test_empty_order_is_legal(self):
        order = WeakOrder((), 3)
        assert mentioned(order) == frozenset()
        assert not order.is_total


class TestFromRanks:
    def test_ranks_give_the_classes(self):
        order = WeakOrder.from_ranks((1, -1, 0, 1))
        assert order == WeakOrder(((2,), (0, 3)), 4)
        assert order.rank_tuple == (1, -1, 0, 1)

    @pytest.mark.parametrize("ranks", [(), (-1, -1)])
    def test_no_mentioned_object_gives_the_empty_order(self, ranks):
        assert WeakOrder.from_ranks(ranks) == WeakOrder((), len(ranks))

    @pytest.mark.parametrize("ranks", [(0, 2), (-2, 0), (1,), (0, 0.5), (0, "1")])
    def test_bad_ranks_are_named(self, ranks):
        with pytest.raises(ValueError, match=re.escape(repr(ranks))):
            WeakOrder.from_ranks(ranks)


class TestParse:
    def test_strict_chain(self, abc):
        assert classes(parse_preference("B > A > C", abc)) == ((1,), (0,), (2,))

    def test_tie_group(self, abc):
        assert classes(parse_preference("C > (A = B)", abc)) == ((2,), (0, 1))

    def test_all_tied(self, abc):
        assert classes(parse_preference("(A = B = C)", abc)) == ((0, 1, 2),)

    def test_whitespace_insignificant(self, abc):
        assert parse_preference("  C>(A =B) ", abc) == parse_preference("C > (A = B)", abc)

    def test_partial_order(self, abc):
        order = parse_preference("C > A", abc)
        assert classes(order) == ((2,), (0,))
        assert mentioned(order) == frozenset({0, 2})
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
    def test_rank_tuple_marks_unmentioned_objects(self, pref):
        assert pref("C > A").rank_tuple == (1, -1, 0)
        assert pref("C > (A = B)").rank_tuple == (1, 1, 0)

    def test_relation_codes_of_a_partial_order(self, pref):
        # SUCC 0, EQUIV 1, PREC 2, UNKNOWN 3; row object against column object.
        # An unmentioned object (B) ties with itself and is unknown against the others.
        assert reference_relation_codes(pref("C > A")).tolist() == [
            [1, 3, 2],
            [3, 1, 3],
            [0, 3, 1],
        ]
        assert reference_relation_codes(pref("C > (A = B)")).tolist() == [
            [1, 1, 2],
            [1, 1, 2],
            [0, 0, 1],
        ]
        relations = list(PairRelation)
        assert [relations[code] for code in reference_relation_codes(pref("C > A"))[2]] == [
            PairRelation.SUCC,
            PairRelation.UNKNOWN,
            PairRelation.EQUIV,
        ]

    def test_antisymmetry_over_all_orders_of_three(self):
        relations = list(PairRelation)
        for order in all_weak_orders(3):
            codes = reference_relation_codes(order)
            for i in range(3):
                for j in range(3):
                    forward, backward = relations[codes[i, j]], relations[codes[j, i]]
                    if forward is PairRelation.SUCC:
                        assert backward is PairRelation.PREC
                    elif forward is PairRelation.PREC:
                        assert backward is PairRelation.SUCC
                    else:
                        assert backward is forward


class TestReverse:
    """The test helper ``reverse``, which the oracles build on."""

    def test_chain(self, pref):
        assert reverse(pref("A > B > C")) == pref("C > B > A")

    def test_all_tied_is_self_reverse(self, pref):
        order = pref("(A = B = C)")
        assert reverse(order) == order

    def test_class_sequence_flip(self, pref):
        assert reverse(pref("C > (A = B)")) == pref("(A = B) > C")

    def test_involution_over_all_orders_of_three(self):
        for order in all_weak_orders(3):
            assert reverse(reverse(order)) == order


class TestRestrict:
    """The test helper ``restrict``, which the completion oracle builds on."""

    def test_drops_outside_objects(self, pref):
        assert restrict(pref("C > (A = B)"), {0, 2}) == pref("C > A")

    def test_identity_restriction(self, pref):
        order = pref("B > A > C")
        assert restrict(order, mentioned(order)) == order

    def test_sequence_preserved(self, pref):
        assert restrict(pref("B > C > A"), {0, 2}) == pref("C > A")

    def test_empty_restriction(self, pref):
        assert restrict(pref("B > C > A"), set()) == WeakOrder((), 3)

    def test_preserves_pairwise_relations(self):
        subset = {0, 2, 3}
        for order in all_weak_orders(4):
            restricted = restrict(order, subset)
            assert mentioned(restricted) == frozenset(subset)
            kept = np.ix_(sorted(subset), sorted(subset))
            restricted_codes, codes = (reference_relation_codes(o)[kept] for o in (restricted, order))
            assert np.array_equal(restricted_codes, codes)


class TestRender:
    def test_chain_style(self, abc, pref):
        assert render_preference(pref("B > A > C"), abc) == "B > A > C"

    def test_tie_style(self, abc, pref):
        assert render_preference(pref("C>(B=A)"), abc) == "C > (A = B)"

    def test_round_trip_over_all_orders_of_three(self, abc):
        for order in all_weak_orders(3):
            assert parse_preference(render_preference(order, abc), abc) == order

    def test_universe_size_must_match(self, pref):
        with pytest.raises(Exception):
            render_preference(pref("C > A"), ObjectUniverse(("A", "B")))


def test_chain_order_shape():
    assert classes(chain_order(4)) == ((0,), (1,), (2,), (3,))
