import itertools
import json
import math

import numpy as np
import pytest

import prefdist.bfm
import prefdist.enumeration
from prefdist import (
    CapExceededError,
    DegenerateUniverseError,
    DimensionMismatchError,
    WeakOrder,
    bfm_distance,
    compatible_tpos,
    normalized_distance,
    render_preference,
)
from prefdist.cli import main

from strategies import all_weak_orders, chain_order, classes, ctpos, reverse

TOL = 5e-5

# Golden values for the C > A vs A > B pair over {A, B, C}: every compatible
# completion pair's squared raw distance k, with normalized value sqrt(k/24).
GOLDEN_SQUARED = {
    "B > C > A": {
        "A > B > C": 16, "A > C > B": 24, "C > A > B": 16,
        "A > (B = C)": 18, "(A = C) > B": 18,
    },
    "C > A > B": {
        "A > B > C": 16, "A > C > B": 8, "C > A > B": 0,
        "A > (B = C)": 10, "(A = C) > B": 2,
    },
    "C > B > A": {
        "A > B > C": 24, "A > C > B": 16, "C > A > B": 8,
        "A > (B = C)": 18, "(A = C) > B": 10,
    },
    "C > (A = B)": {
        "A > B > C": 18, "A > C > B": 10, "C > A > B": 2,
        "A > (B = C)": 12, "(A = C) > B": 4,
    },
    "(B = C) > A": {
        "A > B > C": 18, "A > C > B": 18, "C > A > B": 10,
        "A > (B = C)": 16, "(A = C) > B": 12,
    },
}


@pytest.fixture(scope="module")
def worked_pair(abc):
    from prefdist import parse_preference

    return parse_preference("C > A", abc), parse_preference("A > B", abc)


class TestGrid:
    def test_every_golden_cell(self, abc, worked_pair):
        ppo1, ppo2 = worked_pair
        grid = bfm_distance(ppo1, ppo2).grid
        rows = [render_preference(t, abc) for t in ctpos(ppo1)]
        cols = [render_preference(t, abc) for t in ctpos(ppo2)]
        assert grid.shape == (5, 5)
        for row_name, expected_row in GOLDEN_SQUARED.items():
            for col_name, k in expected_row.items():
                value = grid[rows.index(row_name), cols.index(col_name)]
                assert value == pytest.approx(math.sqrt(k / 24)), (row_name, col_name)

    def test_full_contradiction_cell_is_one(self, abc, worked_pair):
        grid = bfm_distance(*worked_pair).grid
        rows = [render_preference(t, abc) for t in ctpos(worked_pair[0])]
        cols = [render_preference(t, abc) for t in ctpos(worked_pair[1])]
        assert grid[rows.index("B > C > A"), cols.index("A > C > B")] == pytest.approx(1.0)

    def test_entries_lie_in_unit_interval(self, worked_pair):
        grid = bfm_distance(*worked_pair).grid
        assert np.all(grid >= 0.0) and np.all(grid <= 1.0 + 1e-12)

    def test_total_pair_gives_singleton_grid(self, pref):
        grid = bfm_distance(pref("A > B > C"), pref("A > B > C")).grid
        assert grid.shape == (1, 1)
        assert grid[0, 0] == 0.0

    def test_universe_mismatch(self, pref):
        with pytest.raises(DimensionMismatchError):
            bfm_distance(pref("C > A"), all_weak_orders(4)[0])

    def test_degenerate_universe(self):
        single = all_weak_orders(1)[0]
        with pytest.raises(DegenerateUniverseError):
            bfm_distance(single, single)

    def test_grid_over_the_cell_limit_is_refused(self, monkeypatch, worked_pair):
        monkeypatch.setattr(prefdist.bfm, "GRID_CELL_LIMIT", 24)
        with pytest.raises(CapExceededError, match="5 x 5 .* 24 cells"):
            bfm_distance(*worked_pair)
        monkeypatch.setattr(prefdist.bfm, "GRID_CELL_LIMIT", 25)
        assert bfm_distance(*worked_pair).grid.shape == (5, 5)

    def test_grid_over_the_cell_limit_is_refused_before_any_completion(self, monkeypatch):
        def generate(fixed):
            raise AssertionError("a completion was generated")

        monkeypatch.setattr(prefdist.enumeration, "_completions", generate)
        message = "a 545835 x 545835 completion grid exceeds the limit of 21930489 cells"
        with pytest.raises(CapExceededError, match=f"^{message}$"):
            bfm_distance(WeakOrder(((0,),), 8), WeakOrder(((1,),), 8))
        with pytest.raises(CapExceededError, match="^n=9 exceeds the enumeration cap 8$"):
            bfm_distance(WeakOrder(((0,),), 9), WeakOrder(((1,),), 9))

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_a_usage_error(self, worked_pair, cap):
        with pytest.raises(ValueError, match=f"^cap must be at least 1, got {cap}$"):
            bfm_distance(*worked_pair, cap=cap)

    def test_squared_grid_holds_the_golden_integers(self, abc, worked_pair):
        report = bfm_distance(*worked_pair)
        rows = [render_preference(t, abc) for t in ctpos(worked_pair[0])]
        cols = [render_preference(t, abc) for t in ctpos(worked_pair[1])]
        assert report.squared.dtype == np.uint8 and report.maximum == math.sqrt(24)
        for row_name, expected_row in GOLDEN_SQUARED.items():
            for col_name, k in expected_row.items():
                assert report.squared[rows.index(row_name), cols.index(col_name)] == k

    @pytest.mark.parametrize(
        "n, dtype",
        [(8, np.uint8), (9, np.uint16), (128, np.uint16), (129, np.uint32), (2048, np.uint32),
         (2049, np.uint32)],
    )
    def test_squared_grid_type_and_exactness_at_the_range_edges(self, n, dtype):
        """k <= 4n(n - 1) picks the smallest unsigned type: uint32 from n = 129,
        where the completion rows switch from int8 to int16.  The Gram product
        runs in float32 while 4n(n - 1) < 2^24, up to n = 2048, and in float64
        beyond."""
        chain = chain_order(n)
        swapped = WeakOrder(((1,), (0,)) + classes(chain)[2:], n)
        for other, k in ((reverse(chain), 4 * n * (n - 1)), (swapped, 8), (chain, 0)):
            report = bfm_distance(chain, other, cap=n)
            assert report.squared.dtype == dtype and report.squared.tolist() == [[k]]
        assert bfm_distance(chain, reverse(chain), cap=n).pessim == 1.0

    def test_cell_limit_admits_every_grid_of_six_objects(self):
        largest = len(compatible_tpos(WeakOrder((), 6)))
        assert largest == 4683
        assert prefdist.bfm.GRID_CELL_LIMIT >= largest**2


class TestReport:
    def test_worked_attitude_scalars(self, worked_pair):
        report = bfm_distance(*worked_pair)
        assert report.optim == 0.0
        assert report.pessim == 1.0
        assert report.aver == pytest.approx(0.6966, abs=TOL)
        assert report.hurwicz == pytest.approx(0.5)
        assert report.n_ctpo == (5, 5)

    def test_identical_total_orders(self, pref):
        report = bfm_distance(pref("A > B > C"), pref("A > B > C"))
        assert (report.optim, report.pessim, report.aver, report.hurwicz) == (0, 0, 0, 0)

    def test_chain_against_its_reverse(self):
        # single completion each, so every attitude equals the full
        # contradiction value 1 by construction
        chain = chain_order(3)
        report = bfm_distance(chain, reverse(chain))
        for value in (report.optim, report.pessim, report.aver, report.hurwicz):
            assert value == pytest.approx(1.0)

    def test_average_is_plain_grid_mean(self, worked_pair):
        report = bfm_distance(*worked_pair)
        assert abs(report.aver - float(np.mean(report.grid))) < 1e-12

    def test_hurwicz_alpha_weights_the_minimum(self, worked_pair):
        report = bfm_distance(*worked_pair, alpha=0.25)
        assert report.hurwicz == pytest.approx(0.25 * report.optim + 0.75 * report.pessim)

    def test_alpha_validation(self, worked_pair):
        with pytest.raises(ValueError):
            bfm_distance(*worked_pair, alpha=1.5)

    def test_symmetry_of_scalars(self, pref):
        pairs = [("C > A", "A > B"), ("A > B", "(A = C) > B"), ("B > C", "C > A")]
        for text1, text2 in pairs:
            forward = bfm_distance(pref(text1), pref(text2))
            backward = bfm_distance(pref(text2), pref(text1))
            assert forward.optim == pytest.approx(backward.optim)
            assert forward.pessim == pytest.approx(backward.pessim)
            assert forward.aver == pytest.approx(backward.aver)
            assert forward.hurwicz == pytest.approx(backward.hurwicz)
            assert np.allclose(forward.grid, backward.grid.T)

    def test_total_inputs_collapse_to_classical_distance(self):
        orders = all_weak_orders(3)
        for a, b in itertools.product(orders[:5], orders[:5]):
            report = bfm_distance(a, b)
            expected = normalized_distance(a, b)
            for value in (report.optim, report.pessim, report.aver, report.hurwicz):
                assert value == pytest.approx(expected)

    def test_convention_choice_does_not_move_the_grid(self, capsys):
        replies = {}
        for conv in ("signed", "unit"):
            assert main([
                "dist", "--method", "bfm", "--objects", "A,B,C",
                "--pref1", "C > A", "--pref2", "A > B", "--conv", conv,
            ]) == 0
            replies[conv] = json.loads(capsys.readouterr().out)
        signed, unit = replies["signed"], replies["unit"]
        for key in ("grid", "normalized", "optim", "pessim", "aver", "hurwicz"):
            assert unit[key] == signed[key], key
        assert unit["raw"] == signed["raw"] / 2
        assert unit["max"] == signed["max"] / 2
