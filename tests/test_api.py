"""The public API: exactly the names below, each one resolving, and none of the
names that gave a second route to a number that another name computes or that
no route reached."""

import importlib
import inspect

import pytest

import prefdist
from prefdist import BbaMatrix, BfmReport, MassFunction, WeakOrder

PUBLIC = [
    "ATOM_EQUIV",
    "ATOM_PREC",
    "ATOM_SUCC",
    "BbaFormatError",
    "BbaMatrix",
    "BbaMetric",
    "BfmReport",
    "CapExceededError",
    "DEFAULT_ENUMERATION_CAP",
    "DegenerateUniverseError",
    "DimensionMismatchError",
    "DistanceReport",
    "DuplicateObjectError",
    "EmptyExpressionError",
    "EmptySubsetError",
    "FULL_FRAME",
    "IndexOutOfRangeError",
    "MassFunction",
    "NotTotalError",
    "ObjectUniverse",
    "PairRelation",
    "PrefdistError",
    "PreferenceSyntaxError",
    "PsmConvention",
    "UnknownObjectError",
    "UnnormalizedMassError",
    "WeakOrder",
    "bba_matrix_from_json",
    "belief_interval_distance",
    "bfm_distance",
    "compatible_tpos",
    "direct_distance",
    "direct_distance_general",
    "indirect_distance",
    "jousselme_distance",
    "load_bba_matrix",
    "max_psm_distance",
    "normalized_distance",
    "parse_preference",
    "render_preference",
]

# (defining module, name) of each removed function, class or exception
REMOVED = [
    ("prefdist.psm", "PreferenceScoreMatrix"),
    ("prefdist.psm", "build_psm"),
    ("prefdist.psm", "frobenius_distance"),
    ("prefdist.errors", "ConventionMismatchError"),
    ("prefdist.bfm", "bfm_grid"),
    ("prefdist.belief", "BeliefInterval"),
    ("prefdist.errors", "SubsetNotMentionedError"),
    ("prefdist.model", "chain_order"),
    ("prefdist.belief", "bba_from_relation"),
    ("prefdist.belief", "build_bba_matrix"),
    ("prefdist.belief", "indirect_psm"),
    ("prefdist.model", "_relation_codes"),
    ("prefdist.enumeration", "enumerate_weak_orders"),
    ("prefdist.enumeration", "_completion_rows"),
    ("prefdist.bfm", "Attitude"),
    ("prefdist.enumeration", "CompatibleSet"),
]


def test_all_is_the_written_list():
    assert prefdist.__all__ == PUBLIC
    assert len(set(PUBLIC)) == len(PUBLIC)


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from prefdist import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(prefdist, name), name


@pytest.mark.parametrize("module, name", REMOVED)
def test_a_removed_name_is_gone(module, name):
    assert not hasattr(prefdist, name)
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize(
    "owner, name",
    [
        (WeakOrder, "relation"),
        (WeakOrder, "ranks"),
        (WeakOrder, "restrict"),
        (WeakOrder, "reverse"),
        (WeakOrder, "rank_vector"),
        (WeakOrder, "classes"),
        (WeakOrder, "mentioned"),
        (WeakOrder, "relation_codes"),
        (BbaMatrix, "cells"),
        (MassFunction, "swapped"),
        (MassFunction, "interval"),
        (BfmReport, "value"),
    ],
)
def test_a_removed_member_is_gone(owner, name):
    assert not hasattr(owner, name)


def test_normalized_distance_takes_no_convention():
    assert list(inspect.signature(prefdist.normalized_distance).parameters) == ["tpo1", "tpo2"]
