"""Acceptance suite: every headline number and structural guarantee in one place.

Each criterion prints one PASS/FAIL line; run ``pytest -s tests/test_acceptance.py``
to see them.  Tolerance against four-decimal golden values is 5e-5.
"""

import functools
import itertools
import math

import numpy as np

from prefdist import (
    ATOM_EQUIV,
    ATOM_PREC,
    ATOM_SUCC,
    FULL_FRAME,
    BbaMetric,
    MassFunction,
    ObjectUniverse,
    PsmConvention,
    bfm_distance,
    direct_distance,
    indirect_distance,
    max_psm_distance,
    normalized_distance,
    parse_preference,
    render_preference,
)

from strategies import (
    CODE_SCORE,
    all_weak_orders,
    chain_order,
    ctpos,
    reference_relation_codes,
    reverse,
    swapped,
)
from test_differential import reference_bba_matrix, reference_build_psm, reference_indirect_psm

TOL = 5e-5

ABC = ObjectUniverse(("A", "B", "C"))


def text(order):
    return render_preference(order, ABC)


def pref(expression):
    return parse_preference(expression, ABC)


def criterion(num, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {num:2d} FAIL  {description}")
                raise
            print(f"criterion {num:2d} PASS  {description}")

        return wrapper

    return decorate


@criterion(1, "classical normalized distance 0.5774 under both conventions")
def test_criterion_01_classical_pair():
    p1, p2 = pref("B > A > C"), pref("B > C > A")
    normalized = normalized_distance(p1, p2)
    raw_signed = normalized * max_psm_distance(3, PsmConvention.SIGNED)
    raw_unit = normalized * max_psm_distance(3, PsmConvention.UNIT)
    assert abs(raw_signed - math.sqrt(8)) < TOL
    assert abs(raw_unit - math.sqrt(2)) < TOL
    assert abs(normalized - 0.5774) < TOL


@criterion(2, "weak-order enumeration matches the independent count oracle")
def test_criterion_02_enumeration():
    expected_orders = {
        "A > B > C", "A > C > B", "B > A > C", "B > C > A", "C > A > B",
        "C > B > A", "A > (B = C)", "B > (A = C)", "C > (A = B)",
        "(A = B) > C", "(A = C) > B", "(B = C) > A", "(A = B = C)",
    }
    rendered = [text(order) for order in all_weak_orders(3)]
    assert len(rendered) == 13
    assert set(rendered) == expected_orders

    counts = [1]  # independent recurrence: a(n) = sum_k C(n,k) a(n-k)
    for m in range(1, 6):
        counts.append(sum(math.comb(m, k) * counts[m - k] for k in range(1, m + 1)))
    assert counts[1:] == [1, 3, 13, 75, 541]
    for n in range(1, 6):
        assert len(all_weak_orders(n)) == counts[n]


@criterion(3, "compatible completions of the two worked partial orders")
def test_criterion_03_compatible_completions():
    first = ctpos(pref("C > A"))
    assert len(first) == 5
    assert {text(t) for t in first} == {
        "B > C > A", "C > A > B", "C > B > A", "C > (A = B)", "(B = C) > A",
    }
    second = ctpos(pref("A > B"))
    assert len(second) == 5
    assert {text(t) for t in second} == {
        "A > B > C", "A > C > B", "C > A > B", "A > (B = C)", "(A = C) > B",
    }


@criterion(4, "brute-force grid values and the four attitude scalars")
def test_criterion_04_brute_force_grid():
    golden_squared = {
        "B > C > A": {"A > B > C": 16, "A > C > B": 24, "C > A > B": 16,
                      "A > (B = C)": 18, "(A = C) > B": 18},
        "C > A > B": {"A > B > C": 16, "A > C > B": 8, "C > A > B": 0,
                      "A > (B = C)": 10, "(A = C) > B": 2},
        "C > B > A": {"A > B > C": 24, "A > C > B": 16, "C > A > B": 8,
                      "A > (B = C)": 18, "(A = C) > B": 10},
        "C > (A = B)": {"A > B > C": 18, "A > C > B": 10, "C > A > B": 2,
                        "A > (B = C)": 12, "(A = C) > B": 4},
        "(B = C) > A": {"A > B > C": 18, "A > C > B": 18, "C > A > B": 10,
                        "A > (B = C)": 16, "(A = C) > B": 12},
    }
    ppo1, ppo2 = pref("C > A"), pref("A > B")
    report = bfm_distance(ppo1, ppo2)
    grid = report.grid
    rows = [text(t) for t in ctpos(ppo1)]
    cols = [text(t) for t in ctpos(ppo2)]
    checked = 0
    for row_name, golden_row in golden_squared.items():
        for col_name, k in golden_row.items():
            value = grid[rows.index(row_name), cols.index(col_name)]
            assert abs(value - math.sqrt(k / 24)) < TOL, (row_name, col_name)
            checked += 1
    assert checked == 25

    assert report.optim == 0.0
    assert report.pessim == 1.0
    assert abs(report.aver - 0.6966) < TOL
    assert abs(report.hurwicz - 0.5) < TOL


@criterion(5, "direct method on the worked total orders: 2 / 3.4641 = 0.5774")
def test_criterion_05_direct_total():
    report = direct_distance(pref("B > A > C"), pref("B > C > A"))
    assert abs(report.raw - 2.0) < TOL
    assert abs(report.max - 3.4641) < TOL
    assert abs(report.normalized - 0.5774) < TOL


@criterion(6, "direct method on the worked partial orders: 2.8284 / 3.4641 = 0.8165")
def test_criterion_06_direct_partial():
    report = direct_distance(pref("C > A"), pref("A > B"))
    assert abs(report.raw - 2.8284) < TOL
    assert abs(report.normalized - 0.8165) < TOL


@criterion(7, "indirect method, overlap-kernel metric: matrices and distances")
def test_criterion_07_indirect_overlap_kernel():
    total = indirect_distance(pref("B > A > C"), pref("B > C > A"), BbaMetric.JOUSSELME)
    assert abs(total.normalized - 0.5774) < TOL
    assert np.max(np.abs(
        reference_indirect_psm(pref("B > A > C"), BbaMetric.JOUSSELME)
        - np.array([[1, 1, 0], [0, 1, 0], [1, 1, 1]])
    )) < TOL
    assert np.max(np.abs(
        reference_indirect_psm(pref("B > C > A"), BbaMetric.JOUSSELME)
        - np.array([[1, 1, 1], [0, 1, 0], [0, 1, 1]])
    )) < TOL

    partial = indirect_distance(pref("C > A"), pref("A > B"), BbaMetric.JOUSSELME)
    assert abs(partial.raw - 1.1835) < TOL
    assert abs(partial.normalized - 0.4832) < TOL
    g = 0.8165
    assert np.max(np.abs(
        reference_indirect_psm(pref("C > A"), BbaMetric.JOUSSELME)
        - np.array([[1, g, 1], [g, 1, g], [0, g, 1]])
    )) < TOL
    assert np.max(np.abs(
        reference_indirect_psm(pref("A > B"), BbaMetric.JOUSSELME)
        - np.array([[1, 0, g], [1, 1, g], [g, g, 1]])
    )) < TOL


@criterion(8, "indirect method, interval metric: matrices and distances")
def test_criterion_08_indirect_interval():
    report = indirect_distance(pref("C > A"), pref("A > B"), BbaMetric.BELIEF_INTERVAL)
    assert abs(report.raw - 1.0824) < TOL
    assert abs(report.normalized - 0.4419) < TOL
    g = 0.7071
    assert np.max(np.abs(
        reference_indirect_psm(pref("C > A"), BbaMetric.BELIEF_INTERVAL)
        - np.array([[1, g, 1], [g, 1, g], [0, g, 1]])
    )) < TOL
    assert np.max(np.abs(
        reference_indirect_psm(pref("A > B"), BbaMetric.BELIEF_INTERVAL)
        - np.array([[1, 0, g], [1, 1, g], [g, g, 1]])
    )) < TOL


@criterion(9, "mass-function primitives: belief intervals of the worked cases")
def test_criterion_09_interval_primitives():
    atoms = (ATOM_SUCC, ATOM_EQUIV, ATOM_PREC)

    vacuous = MassFunction.vacuous()
    for atom in atoms:
        assert abs(vacuous.bel(atom) - 0.0) < TOL and abs(vacuous.pl(atom) - 1.0) < TOL

    bayesian = MassFunction.from_masses(
        {ATOM_SUCC: 0.2, ATOM_EQUIV: 0.3, ATOM_PREC: 0.5}
    )
    for atom, (lo, hi) in zip(atoms, [(0.2, 0.2), (0.3, 0.3), (0.5, 0.5)]):
        assert abs(bayesian.bel(atom) - lo) < TOL and abs(bayesian.pl(atom) - hi) < TOL

    imprecise = MassFunction.from_masses({
        ATOM_SUCC: 0.1, ATOM_EQUIV: 0.2, ATOM_PREC: 0.3,
        ATOM_SUCC | ATOM_EQUIV: 0.02, ATOM_SUCC | ATOM_PREC: 0.03,
        ATOM_EQUIV | ATOM_PREC: 0.05, FULL_FRAME: 0.3,
    })
    for atom, (lo, hi) in zip(atoms, [(0.1, 0.45), (0.2, 0.57), (0.3, 0.68)]):
        assert abs(imprecise.bel(atom) - lo) < TOL and abs(imprecise.pl(atom) - hi) < TOL


@criterion(10, "exhaustive structural properties over all orders of three objects")
def test_criterion_10_property_suites():
    orders = all_weak_orders(3)
    size = len(orders)

    tables = {
        "classical": np.array(
            [[normalized_distance(a, b) for b in orders] for a in orders]
        ),
        "direct": np.array(
            [[direct_distance(a, b).normalized for b in orders] for a in orders]
        ),
    }
    for metric in BbaMetric:
        tables[metric.value] = np.array(
            [[indirect_distance(a, b, metric).normalized for b in orders] for a in orders]
        )

    # metric axioms for every method over all pairs and triples
    for name, table in tables.items():
        assert np.all(table >= 0.0), name
        assert np.allclose(table, table.T), name
        for i in range(size):
            for j in range(size):
                assert (table[i, j] < 1e-12) == (i == j), name
        for i, j, k in itertools.product(range(size), repeat=3):
            assert table[i, k] <= table[i, j] + table[j, k] + 1e-12, name

    # convention invariance over all pairs: either convention's score matrices
    # give the classical distance
    for convention in PsmConvention:
        matrices = [reference_build_psm(order, convention) for order in orders]
        for (a, m1), (b, m2) in itertools.product(zip(orders, matrices), repeat=2):
            raw = float(np.linalg.norm(m1 - m2))
            assert abs(raw / max_psm_distance(3, convention) - normalized_distance(a, b)) < 1e-12

    # signed score matrices are anti-symmetric
    for order in orders:
        entries = CODE_SCORE[PsmConvention.SIGNED][reference_relation_codes(order)]
        assert np.array_equal(entries.T, -entries)

    # mass grids mirror across the diagonal
    for order in orders:
        masses = reference_bba_matrix(order).masses
        for i in range(3):
            for j in range(3):
                assert MassFunction(masses[j, i]) == swapped(MassFunction(masses[i, j]))

    # chain reversal attains the exhaustive raw maxima
    matrices = [reference_build_psm(order, PsmConvention.SIGNED) for order in orders]
    classical_raw = max(
        float(np.linalg.norm(m1 - m2)) for m1, m2 in itertools.product(matrices, matrices)
    )
    assert abs(classical_raw - math.sqrt(24)) < TOL
    assert abs(classical_raw - max_psm_distance(3)) < TOL

    direct_raw = max(
        direct_distance(a, b).raw for a, b in itertools.product(orders, orders)
    )
    assert abs(direct_raw - math.sqrt(12)) < TOL
    chain = chain_order(3)
    assert abs(direct_distance(chain, reverse(chain)).raw - direct_raw) < TOL
