import io
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest

from prefdist import (
    ATOM_EQUIV,
    ATOM_PREC,
    ATOM_SUCC,
    FULL_FRAME,
    BbaFormatError,
    BbaMatrix,
    BbaMetric,
    DegenerateUniverseError,
    DimensionMismatchError,
    EmptySubsetError,
    MassFunction,
    UnnormalizedMassError,
    WeakOrder,
    bba_matrix_from_json,
    belief_interval_distance,
    direct_distance,
    direct_distance_general,
    indirect_distance,
    jousselme_distance,
    load_bba_matrix,
)

from strategies import all_weak_orders, chain_order, reverse, swapped
from test_differential import reference_bba_matrix, reference_indirect_psm

TOL = 5e-5

VACUOUS = MassFunction.vacuous()
SUCC_SURE = MassFunction.certain(ATOM_SUCC)
EQUIV_SURE = MassFunction.certain(ATOM_EQUIV)
PREC_SURE = MassFunction.certain(ATOM_PREC)
BAYESIAN = MassFunction.from_masses({ATOM_SUCC: 0.2, ATOM_EQUIV: 0.3, ATOM_PREC: 0.5})
IMPRECISE = MassFunction.from_masses(
    {
        ATOM_SUCC: 0.1,
        ATOM_EQUIV: 0.2,
        ATOM_PREC: 0.3,
        ATOM_SUCC | ATOM_EQUIV: 0.02,
        ATOM_SUCC | ATOM_PREC: 0.03,
        ATOM_EQUIV | ATOM_PREC: 0.05,
        FULL_FRAME: 0.3,
    }
)


def cells_of(matrix):
    """The grid's cells as mass functions, read from its mass vectors."""
    return [list(map(MassFunction, row)) for row in matrix.masses.tolist()]


class TestMassFunction:
    def test_vector_layout(self):
        assert SUCC_SURE.masses == (0, 1, 0, 0, 0, 0, 0, 0)
        assert VACUOUS.masses == (0, 0, 0, 0, 0, 0, 0, 1)
        assert EQUIV_SURE.masses == (0, 0, 1, 0, 0, 0, 0, 0)

    def test_unnormalized_sum_rejected(self):
        with pytest.raises(UnnormalizedMassError):
            MassFunction((0, 0.4, 0.4, 0, 0, 0, 0, 0))

    def test_mass_on_empty_set_rejected(self):
        with pytest.raises(UnnormalizedMassError):
            MassFunction((0.5, 0.5, 0, 0, 0, 0, 0, 0))

    def test_negative_mass_rejected(self):
        with pytest.raises(UnnormalizedMassError):
            MassFunction((0, 1.5, -0.5, 0, 0, 0, 0, 0))

    def test_nan_component_rejected(self):
        # NaN passes neither the sign test nor the sum test
        with pytest.raises(UnnormalizedMassError):
            MassFunction((0, math.nan, 0, 0, 0, 0, 0, 1))

    def test_wrong_length_rejected(self):
        with pytest.raises(UnnormalizedMassError):
            MassFunction((0, 1))

    @pytest.mark.parametrize("mask", [8, -1])
    def test_mask_outside_the_frame_rejected(self, mask):
        with pytest.raises(ValueError, match=f"subset mask must lie in 0..7, got {mask}$"):
            MassFunction.from_masses({mask: 1.0})

    @pytest.mark.parametrize("mask", [1.5, "1"])
    def test_non_integer_mask_rejected_as_outside_the_frame(self, mask):
        message = re.escape(f"subset mask must lie in 0..7, got {mask!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            MassFunction.from_masses({mask: 1.0})

    def test_swapped_exchanges_orientation(self):
        assert swapped(BAYESIAN).masses == (0, 0.5, 0.3, 0, 0.2, 0, 0, 0)
        mixed = MassFunction.from_masses({ATOM_SUCC | ATOM_EQUIV: 0.6, FULL_FRAME: 0.4})
        assert swapped(mixed).masses == (0, 0, 0, 0, 0, 0, 0.6, 0.4)
        assert swapped(swapped(mixed)) == mixed


class TestBelPl:
    def test_imprecise_case_bel(self):
        assert IMPRECISE.bel(ATOM_SUCC) == pytest.approx(0.1)

    def test_imprecise_case_pl(self):
        assert IMPRECISE.pl(ATOM_PREC) == pytest.approx(0.68)

    def test_full_frame_is_certain(self):
        for m in (VACUOUS, SUCC_SURE, BAYESIAN, IMPRECISE):
            assert m.bel(FULL_FRAME) == pytest.approx(1.0)
            assert m.pl(FULL_FRAME) == pytest.approx(1.0)

    def test_vacuous_singletons(self):
        for atom in (ATOM_SUCC, ATOM_EQUIV, ATOM_PREC):
            assert VACUOUS.bel(atom) == 0.0
            assert VACUOUS.pl(atom) == 1.0

    def test_bayesian_collapses_interval(self):
        assert BAYESIAN.bel(ATOM_EQUIV) == pytest.approx(0.3)
        assert BAYESIAN.pl(ATOM_EQUIV) == pytest.approx(0.3)

    def test_empty_subset_rejected(self):
        with pytest.raises(EmptySubsetError):
            VACUOUS.bel(0)
        with pytest.raises(EmptySubsetError):
            VACUOUS.pl(0)

    def test_out_of_range_mask_rejected(self):
        with pytest.raises(ValueError):
            VACUOUS.bel(8)

    @pytest.mark.parametrize("m", [VACUOUS, SUCC_SURE, BAYESIAN, IMPRECISE])
    def test_duality_with_complement(self, m):
        for subset in range(1, 7):
            assert m.pl(subset) == pytest.approx(1.0 - m.bel(FULL_FRAME ^ subset))

    @pytest.mark.parametrize(
        "m, expected",
        [
            (VACUOUS, [(0, 1), (0, 1), (0, 1)]),
            (BAYESIAN, [(0.2, 0.2), (0.3, 0.3), (0.5, 0.5)]),
            (IMPRECISE, [(0.1, 0.45), (0.2, 0.57), (0.3, 0.68)]),
        ],
    )
    def test_singleton_intervals(self, m, expected):
        for atom, (bel, pl) in zip((ATOM_SUCC, ATOM_EQUIV, ATOM_PREC), expected):
            assert m.bel(atom) == pytest.approx(bel)
            assert m.pl(atom) == pytest.approx(pl)
            assert m.pl(atom) - m.bel(atom) == pytest.approx(pl - bel)


class TestEncoding:
    """The paper's mass grid of an order, as the oracle of ``direct`` builds it."""

    def test_total_order_grid(self, pref):
        cells = cells_of(reference_bba_matrix(pref("B > A > C")))
        assert cells[0][1] == PREC_SURE
        assert cells[0][2] == SUCC_SURE
        assert cells[1][2] == SUCC_SURE
        assert all(cells[i][i] == EQUIV_SURE for i in range(3))

    def test_partial_order_grid_has_vacuous_cells(self, pref):
        cells = cells_of(reference_bba_matrix(pref("C > A")))
        for i, j in [(0, 1), (1, 0), (1, 2), (2, 1)]:
            assert cells[i][j] == VACUOUS
        assert cells[2][0] == SUCC_SURE
        assert cells[0][2] == PREC_SURE

    def test_empty_order_grid_is_vacuous_off_diagonal(self):
        cells = cells_of(reference_bba_matrix(WeakOrder((), 3)))
        for i in range(3):
            for j in range(3):
                assert cells[i][j] == (EQUIV_SURE if i == j else VACUOUS)

    def test_mirror_consistency_over_all_orders_of_three(self):
        for order in all_weak_orders(3):
            cells = cells_of(reference_bba_matrix(order))
            for i in range(3):
                for j in range(3):
                    assert cells[j][i] == swapped(cells[i][j])

    def test_mirror_consistency_over_all_two_object_partials(self):
        partials = [
            WeakOrder((), 2),
            WeakOrder(((0,),), 2),
            WeakOrder(((1,),), 2),
            WeakOrder(((0,), (1,)), 2),
            WeakOrder(((1,), (0,)), 2),
            WeakOrder(((0, 1),), 2),
        ]
        for order in partials:
            cells = cells_of(reference_bba_matrix(order))
            for i in range(2):
                for j in range(2):
                    assert cells[j][i] == swapped(cells[i][j])


class TestMassMetrics:
    def test_jousselme_vacuous_vs_sure(self):
        assert jousselme_distance(VACUOUS, SUCC_SURE) == pytest.approx(math.sqrt(2 / 3))
        assert jousselme_distance(VACUOUS, SUCC_SURE) == pytest.approx(0.8165, abs=TOL)

    def test_jousselme_disjoint_certainties(self):
        assert jousselme_distance(PREC_SURE, SUCC_SURE) == pytest.approx(1.0)

    def test_interval_metric_vacuous_vs_sure(self):
        assert belief_interval_distance(VACUOUS, SUCC_SURE) == pytest.approx(math.sqrt(0.5))
        assert belief_interval_distance(VACUOUS, SUCC_SURE) == pytest.approx(0.7071, abs=TOL)

    def test_interval_metric_disjoint_certainties(self):
        # oracle: of the seven subsets, {succ}, {prec}, {succ,equiv} and
        # {equiv,prec} each contribute a unit midpoint gap, the rest nothing;
        # sqrt((1/4) * 4) = 1
        assert belief_interval_distance(PREC_SURE, SUCC_SURE) == pytest.approx(1.0)

    @pytest.mark.parametrize("distance", [jousselme_distance, belief_interval_distance])
    def test_metric_axioms_on_desk_set(self, distance):
        masses = [SUCC_SURE, EQUIV_SURE, PREC_SURE, VACUOUS, BAYESIAN, IMPRECISE]
        for a, b, c in itertools.product(masses, repeat=3):
            d_ab, d_ba = distance(a, b), distance(b, a)
            assert d_ab >= 0.0
            assert d_ab == pytest.approx(d_ba)
            assert (d_ab < 1e-12) == (a == b)
            assert distance(a, c) <= d_ab + distance(b, c) + 1e-12

    @pytest.mark.parametrize("distance", [jousselme_distance, belief_interval_distance])
    def test_bounded_by_one_on_desk_set(self, distance):
        masses = [SUCC_SURE, EQUIV_SURE, PREC_SURE, VACUOUS, BAYESIAN, IMPRECISE]
        for a, b in itertools.product(masses, repeat=2):
            assert distance(a, b) <= 1.0 + 1e-12


class TestDirectDistance:
    def test_total_order_pair(self, pref):
        report = direct_distance(pref("B > A > C"), pref("B > C > A"))
        assert report.raw == pytest.approx(2.0)
        assert report.max == pytest.approx(3.4641, abs=TOL)
        assert report.max == pytest.approx(math.sqrt(12))
        assert report.normalized == pytest.approx(0.5774, abs=TOL)

    def test_partial_order_pair(self, pref):
        report = direct_distance(pref("C > A"), pref("A > B"))
        assert report.raw == pytest.approx(2.8284, abs=TOL)
        assert report.normalized == pytest.approx(0.8165, abs=TOL)

    def test_identical_inputs(self, pref):
        report = direct_distance(pref("C > A"), pref("C > A"))
        assert report.raw == 0.0
        assert report.normalized == 0.0

    def test_symmetry(self, pref):
        forward = direct_distance(pref("C > A"), pref("A > B"))
        backward = direct_distance(pref("A > B"), pref("C > A"))
        assert forward.normalized == pytest.approx(backward.normalized)

    def test_universe_mismatch(self, pref):
        with pytest.raises(DimensionMismatchError):
            direct_distance(pref("C > A"), all_weak_orders(4)[0])

    def test_degenerate_universe(self):
        single = WeakOrder(((0,),), 1)
        with pytest.raises(DegenerateUniverseError):
            direct_distance(single, single)

    def test_chain_reversal_attains_exhaustive_maximum_at_three(self):
        orders = all_weak_orders(3)
        brute = max(
            direct_distance(a, b).raw for a, b in itertools.product(orders, orders)
        )
        assert brute == pytest.approx(math.sqrt(12))
        chain = chain_order(3)
        assert direct_distance(chain, reverse(chain)).raw == pytest.approx(brute)


class TestDirectDistanceGeneral:
    def test_identical_grids(self, pref):
        grid = reference_bba_matrix(pref("C > A"))
        report = direct_distance_general(grid, grid)
        assert report.raw == 0.0
        assert report.normalized == 0.0

    def test_consistency_with_preference_built_path(self, pref):
        # oracle: feeding the same grids through the general entry point must
        # reproduce direct_distance exactly
        ppo1, ppo2 = pref("C > A"), pref("A > B")
        general = direct_distance_general(reference_bba_matrix(ppo1), reference_bba_matrix(ppo2))
        specific = direct_distance(ppo1, ppo2)
        assert general == specific

    def test_bayesian_cell_against_certain_cell(self):
        # two objects; the grids differ only in the mirrored off-diagonal
        # pair, so raw = sqrt(2) * sqrt((1-0.2)^2 + 0.3^2 + 0.5^2) = 1.4
        b1 = BbaMatrix(
            (
                (EQUIV_SURE, BAYESIAN),
                (swapped(BAYESIAN), EQUIV_SURE),
            )
        )
        b2 = BbaMatrix(
            (
                (EQUIV_SURE, SUCC_SURE),
                (PREC_SURE, EQUIV_SURE),
            )
        )
        report = direct_distance_general(b1, b2)
        assert report.raw == pytest.approx(1.4)
        assert report.raw == pytest.approx(math.sqrt(2) * math.sqrt(0.8**2 + 0.3**2 + 0.5**2))

    def test_conflicting_diagonals_exceed_one(self):
        # the one sanctioned out-of-range case: the grids disagree on every
        # cell, diagonal included, while the maximum counts off-diagonal cells
        b1 = BbaMatrix(((SUCC_SURE, SUCC_SURE), (PREC_SURE, SUCC_SURE)))
        b2 = BbaMatrix(((PREC_SURE, PREC_SURE), (SUCC_SURE, PREC_SURE)))
        report = direct_distance_general(b1, b2)
        assert report.raw == math.sqrt(8)
        assert report.max == 2.0
        assert report.normalized > 1.0
        assert report.normalized == pytest.approx(math.sqrt(2))

    def test_size_mismatch(self, pref):
        two = BbaMatrix(((EQUIV_SURE, VACUOUS), (VACUOUS, EQUIV_SURE)))
        with pytest.raises(DimensionMismatchError):
            direct_distance_general(two, reference_bba_matrix(pref("C > A")))

    def test_single_object_grid_rejected(self):
        one = BbaMatrix(((EQUIV_SURE,),))
        with pytest.raises(DegenerateUniverseError):
            direct_distance_general(one, one)

    def test_non_square_grid_rejected(self):
        with pytest.raises(DimensionMismatchError):
            BbaMatrix(((EQUIV_SURE, VACUOUS),))


class TestBbaMatrixValue:
    DOCUMENT = {
        "n": 2,
        "cells": [[{"2": 1.0}, {"1": 0.2, "2": 0.3, "3": 0.5}], [{"1|2|3": 1}, {"2": 1.0}]],
    }

    def _load(self, tmp_path, document=DOCUMENT):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(document))
        return load_bba_matrix(str(path))

    def test_two_loads_of_one_file_are_equal(self, tmp_path):
        first, second = self._load(tmp_path), self._load(tmp_path)
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)

    def test_negative_zero_mass_equals_zero(self):
        masses = reference_bba_matrix(WeakOrder(((0,), (1,)), 2)).masses.copy()
        signed = masses.copy()
        signed[0, 1, 2] = -0.0
        assert np.signbit(signed[0, 1, 2]) and not np.signbit(masses[0, 1, 2])
        assert BbaMatrix(signed) == BbaMatrix(masses)
        assert hash(BbaMatrix(signed)) == hash(BbaMatrix(masses))

    def test_different_grids_differ(self, tmp_path):
        loaded = self._load(tmp_path)
        assert loaded != reference_bba_matrix(WeakOrder(((0,), (1,)), 2))
        assert loaded != BbaMatrix(((EQUIV_SURE,),))
        assert loaded != "masses"

    def test_masses_are_read_only_copies(self):
        source = reference_bba_matrix(WeakOrder(((0,), (1,)), 2)).masses.copy()
        matrix = BbaMatrix(source)
        source[0, 1] = VACUOUS.masses
        assert matrix.masses[0, 1].tolist() == list(SUCC_SURE.masses)
        with pytest.raises(ValueError):
            matrix.masses[0, 0, 2] = 0.5

    @pytest.mark.parametrize("shape", [(2, 2, 7), (2, 3, 8), (2, 2), (4, 8), (1, 2, 2, 8)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(DimensionMismatchError):
            BbaMatrix(np.zeros(shape))

    def test_ragged_grid_rejected(self):
        with pytest.raises(DimensionMismatchError):
            BbaMatrix(((EQUIV_SURE, VACUOUS), (VACUOUS,)))

    def test_invalid_cell_named(self):
        masses = np.zeros((2, 2, 8))
        masses[..., FULL_FRAME] = 1.0
        masses[1, 0, ATOM_SUCC] = 0.5
        masses[1, 1, 0] = 0.5
        message = r"^cell \(1, 0\): masses sum to 1\.5, expected 1$"
        with pytest.raises(UnnormalizedMassError, match=message):
            BbaMatrix(masses)

    def test_cells_are_built_from_masses(self, tmp_path):
        matrix = self._load(tmp_path)
        assert cells_of(matrix) == [[EQUIV_SURE, BAYESIAN], [VACUOUS, EQUIV_SURE]]

    def test_nested_mass_functions_construct_the_grid(self):
        matrix = BbaMatrix(((EQUIV_SURE, BAYESIAN), (swapped(BAYESIAN), EQUIV_SURE)))
        assert matrix.masses.shape == (2, 2, 8) and matrix.masses.dtype == np.float64
        assert matrix.masses[0, 1].tolist() == list(BAYESIAN.masses)


class TestMassGridFaults:
    HUGE = 10**400

    def test_integer_beyond_the_float_range_names_its_cell(self):
        document = {"n": 2, "cells": [[{"2": 1}, {"1": 1}], [{"3": 1, "1": self.HUGE}, {"4": 1}]]}
        message = r"^cell \(1, 0\): mass for '1' is too large for a float$"
        with pytest.raises(BbaFormatError, match=message):
            bba_matrix_from_json(document)

    def test_an_earlier_fault_wins_over_a_huge_integer(self):
        unnormalized = [[{"2": 1}, {"1": 0.5}], [{"1": self.HUGE}, {"2": 1}]]
        with pytest.raises(UnnormalizedMassError, match=r"^cell \(0, 1\): masses sum to 0\.5"):
            bba_matrix_from_json({"n": 2, "cells": unnormalized})
        bad_key = [[{"0": 1, "1": self.HUGE}]]
        with pytest.raises(BbaFormatError, match=r"^cell \(0, 0\): invalid focal-set key '0'"):
            bba_matrix_from_json({"n": 1, "cells": bad_key})

    def test_number_subclasses_load_as_their_float_values(self):
        cells = [[{"2": np.float64(1.0)}, {"1": np.float64(0.25), "3": 0.75}], [{"3": 1}, {"2": 1}]]
        loaded = bba_matrix_from_json({"n": 2, "cells": cells})
        assert loaded.masses[0, 1].tolist() == [0.0, 0.25, 0.0, 0.0, 0.75, 0.0, 0.0, 0.0]
        with pytest.raises(BbaFormatError, match=r"^cell \(0, 0\): mass for '2' must be"):
            bba_matrix_from_json({"n": 1, "cells": [[{"2": np.int64(1)}]]})

    def test_too_deep_nesting_is_a_format_error(self):
        with pytest.raises(BbaFormatError, match="nesting"):
            load_bba_matrix(io.StringIO("[" * 100_000))

    def test_infinities_of_both_signs_are_rejected_without_a_warning(self):
        text = '{"n": 1, "cells": [[{"1": Infinity, "2": -Infinity}]]}'
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                UnnormalizedMassError, match=r"^cell \(0, 0\): masses must be non-negative$"
            ):
                load_bba_matrix(io.StringIO(text))


class TestIndirectMethod:
    def test_score_matrices_for_total_orders(self, pref):
        for metric in BbaMetric:
            m1 = reference_indirect_psm(pref("B > A > C"), metric)
            m2 = reference_indirect_psm(pref("B > C > A"), metric)
            assert np.allclose(m1, [[1, 1, 0], [0, 1, 0], [1, 1, 1]])
            assert np.allclose(m2, [[1, 1, 1], [0, 1, 0], [0, 1, 1]])

    def test_score_matrix_for_partial_order_jousselme(self, pref):
        g = math.sqrt(2 / 3)
        expected = [[1, g, 1], [g, 1, g], [0, g, 1]]
        assert np.allclose(reference_indirect_psm(pref("C > A"), BbaMetric.JOUSSELME), expected)

    def test_score_matrix_for_partial_order_interval(self, pref):
        g = math.sqrt(0.5)
        expected = [[1, g, 1], [g, 1, g], [0, g, 1]]
        assert np.allclose(
            reference_indirect_psm(pref("C > A"), BbaMetric.BELIEF_INTERVAL), expected
        )
        assert np.allclose(
            reference_indirect_psm(pref("A > B"), BbaMetric.BELIEF_INTERVAL),
            [[1, 0, g], [1, 1, g], [g, g, 1]],
        )

    def test_chain_scores_are_zero_or_one(self):
        for metric in BbaMetric:
            entries = reference_indirect_psm(chain_order(4), metric)
            assert np.all(np.isin(entries, (0.0, 1.0)))
            assert np.all(np.diag(entries) == 1.0)

    def test_total_order_pair_jousselme(self, pref):
        report = indirect_distance(pref("B > A > C"), pref("B > C > A"), BbaMetric.JOUSSELME)
        assert report.raw == pytest.approx(1.4142, abs=TOL)
        assert report.max == pytest.approx(2.4495, abs=TOL)
        assert report.normalized == pytest.approx(0.5774, abs=TOL)

    def test_partial_order_pair_jousselme(self, pref):
        report = indirect_distance(pref("C > A"), pref("A > B"), BbaMetric.JOUSSELME)
        assert report.raw == pytest.approx(1.1835, abs=TOL)
        assert report.normalized == pytest.approx(0.4832, abs=TOL)

    def test_partial_order_pair_interval(self, pref):
        report = indirect_distance(pref("C > A"), pref("A > B"), BbaMetric.BELIEF_INTERVAL)
        assert report.raw == pytest.approx(1.0824, abs=TOL)
        assert report.normalized == pytest.approx(0.4419, abs=TOL)

    def test_method_labels(self, pref):
        assert (
            indirect_distance(pref("C > A"), pref("A > B"), BbaMetric.JOUSSELME).method
            == "indirect-j"
        )
        assert (
            indirect_distance(
                pref("C > A"), pref("A > B"), BbaMetric.BELIEF_INTERVAL
            ).method
            == "indirect-bi"
        )

    def test_degenerate_universe(self):
        single = WeakOrder(((0,),), 1)
        with pytest.raises(DegenerateUniverseError):
            indirect_distance(single, single, BbaMetric.JOUSSELME)
