"""Belief-mass encoding of pairwise preferences and the distances built on it.

Each ordered object pair (i, j) gets a three-state frame — i strictly
preferred, tied, i strictly dispreferred — and a mass function over its eight
subsets.  A certain comparison puts mass 1 on the matching state, an unknown
comparison puts mass 1 on the whole frame, and arbitrary mass functions model
probabilistic or imprecise comparisons.

Subsets are addressed by bitmask (bit 0 = preferred, bit 1 = tied, bit 2 =
dispreferred), and the mask doubles as the index into the 8-component mass
vector: empty set, {succ}, {equiv}, {succ, equiv}, {prec}, {succ, prec},
{equiv, prec}, full frame.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from functools import cached_property
from itertools import chain, repeat
from typing import IO, Any

import numpy as np
from numpy.typing import NDArray

from .errors import (
    BbaFormatError,
    DimensionMismatchError,
    EmptySubsetError,
    UnnormalizedMassError,
)
from .model import PairRelation, WeakOrder, common_size

ATOM_SUCC = 0b001
ATOM_EQUIV = 0b010
ATOM_PREC = 0b100
FULL_FRAME = 0b111

_MASS_TOLERANCE = 1e-9

# Orientation swap (i, j) -> (j, i): preferred and dispreferred atoms trade
# places, so mask k maps to _SWAPPED_MASK[k] (an involution).
_SWAPPED_MASK = (0, 4, 2, 6, 1, 5, 3, 7)


def _check_subset(subset: int) -> None:
    if subset == 0:
        raise EmptySubsetError("belief and plausibility need a non-empty subset")
    if not 0 < subset <= FULL_FRAME:
        raise ValueError(f"subset mask must lie in 1..7, got {subset}")


@dataclass(frozen=True)
class BeliefInterval:
    """Lower and upper probability bounds [bel, pl] of one subset."""

    bel: float
    pl: float

    def __post_init__(self) -> None:
        if (
            self.bel < -_MASS_TOLERANCE
            or self.pl > 1.0 + _MASS_TOLERANCE
            or self.bel > self.pl + _MASS_TOLERANCE
        ):
            raise ValueError(f"need 0 <= bel <= pl <= 1, got [{self.bel}, {self.pl}]")

    @property
    def uncertainty(self) -> float:
        """Interval width pl - bel; zero for Bayesian mass functions."""
        return self.pl - self.bel


def _check_masses(masses: NDArray[np.float64], where: str = "") -> None:
    """The mass rule, over mass vectors of shape (..., 8).

    The empty set carries no mass, components are non-negative, and the total
    is 1 within 1e-9.  The first invalid vector in row-major order raises
    UnnormalizedMassError, its reason prefixed by ``where.format(*index)``.
    """
    if masses.shape[-1] != 8:
        raise UnnormalizedMassError(f"mass vector needs 8 components, got {masses.shape[-1]}")
    total = np.zeros(masses.shape[:-1])
    with np.errstate(invalid="ignore"):  # inf + -inf is NaN, which fails the sum test
        for k in range(8):  # left to right, bitwise what sum() does before Python 3.12
            total += masses[..., k]
    nonzero_empty = masses[..., 0] != 0.0
    negative = ~np.all(masses >= 0.0, axis=-1)  # a NaN fails this and the sum test
    invalid = nonzero_empty | negative | ~(np.abs(total - 1.0) <= _MASS_TOLERANCE)
    if not invalid.any():
        return
    index = np.unravel_index(np.argmax(invalid), invalid.shape)
    if nonzero_empty[index]:
        reason = f"empty set must carry zero mass, got {float(masses[index][0])}"
    elif negative[index]:
        reason = "masses must be non-negative"
    else:
        reason = f"masses sum to {float(total[index])!r}, expected 1"
    raise UnnormalizedMassError(where.format(*index) + reason)


@dataclass(frozen=True)
class MassFunction:
    """Normalized basic belief assignment over the 3-state pairwise frame.

    ``masses[mask]`` is the mass of the subset with that bitmask; the empty
    set carries none, components are non-negative, and the total is 1
    (within 1e-9).  Violations raise UnnormalizedMassError, so every instance
    in circulation is a valid normalized assignment.
    """

    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.masses)
        object.__setattr__(self, "masses", values)
        _check_masses(np.array([values]))  # a grid of one vector

    def __array__(self, dtype: Any = None, copy: bool | None = None) -> NDArray[np.float64]:
        return np.array(self.masses, dtype=dtype)

    @classmethod
    def certain(cls, subset: int) -> "MassFunction":
        """All mass on one non-empty subset."""
        _check_subset(subset)
        return cls(tuple(1.0 if mask == subset else 0.0 for mask in range(8)))

    @classmethod
    def vacuous(cls) -> "MassFunction":
        """All mass on the full frame: total ignorance of the comparison."""
        return cls.certain(FULL_FRAME)

    @classmethod
    def from_masses(cls, assignment: dict[int, float]) -> "MassFunction":
        """Build from a sparse {subset mask: mass} mapping."""
        values = [0.0] * 8
        for mask, mass in assignment.items():
            if not 0 <= mask <= FULL_FRAME:
                raise ValueError(f"subset mask must lie in 0..7, got {mask}")
            values[mask] = mass
        return cls(tuple(values))

    def bel(self, subset: int) -> float:
        """Total mass of the non-empty subsets contained in ``subset``."""
        _check_subset(subset)
        return sum(self.masses[y] for y in range(1, 8) if y & subset == y)

    def pl(self, subset: int) -> float:
        """Total mass of the subsets intersecting ``subset``; 1 - bel(complement)."""
        _check_subset(subset)
        return sum(self.masses[y] for y in range(1, 8) if y & subset)

    def interval(self, subset: int) -> BeliefInterval:
        return BeliefInterval(self.bel(subset), self.pl(subset))

    def swapped(self) -> "MassFunction":
        """The same evidence read in the reversed pair orientation (j, i)."""
        return MassFunction(tuple(self.masses[k] for k in _SWAPPED_MASK))


_RELATION_MASK = {
    PairRelation.SUCC: ATOM_SUCC,
    PairRelation.EQUIV: ATOM_EQUIV,
    PairRelation.PREC: ATOM_PREC,
    PairRelation.UNKNOWN: FULL_FRAME,
}


def bba_from_relation(relation: PairRelation) -> MassFunction:
    """Certain mass on the matching state; vacuous for an unknown comparison."""
    return MassFunction.certain(_RELATION_MASK[relation])


#: The mass function of each relation code (see WeakOrder.relation_codes).
_CODE_MASS = tuple(bba_from_relation(relation) for relation in PairRelation)
_CODE_MASSES = np.array(_CODE_MASS)
_SUCC, _PREC = (list(PairRelation).index(r) for r in (PairRelation.SUCC, PairRelation.PREC))


@dataclass(frozen=True, eq=False)
class BbaMatrix:
    """N x N grid of mass functions; cell (i, j) judges object i against object j.

    ``masses`` holds the (n, n, 8) mass vectors, read-only, copied from any
    array-like (nested MassFunctions too) and checked by the mass rule.
    ``cells`` is built from it when read.  Grids compare and hash by value.
    """

    masses: NDArray[np.float64]

    def __post_init__(self) -> None:
        try:
            masses = np.array(self.masses, dtype=np.float64)
        except ValueError as exc:
            raise DimensionMismatchError(f"mass grid must be (n, n, 8): {exc}") from None
        if masses.ndim != 3 or masses.shape[1:] != (len(masses), 8):
            raise DimensionMismatchError(f"mass grid must be (n, n, 8), got {masses.shape}")
        _check_masses(masses, "cell ({}, {}): ")
        masses.flags.writeable = False
        object.__setattr__(self, "masses", masses)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BbaMatrix) and bool(np.array_equal(self.masses, other.masses))

    def __hash__(self) -> int:
        return hash((self.masses + 0.0).tobytes())  # + 0.0 turns -0.0 into 0.0, as == does

    @property
    def n(self) -> int:
        return len(self.masses)

    @cached_property
    def cells(self) -> tuple[tuple[MassFunction, ...], ...]:
        return tuple(tuple(map(MassFunction, row)) for row in self.masses.tolist())


def build_bba_matrix(ppo: WeakOrder) -> BbaMatrix:
    """Encode a (partial) order: certain cells for known comparisons, vacuous
    cells for unmentioned pairs, tie-certain diagonal."""
    return BbaMatrix(_CODE_MASSES[ppo.relation_codes()])


def _jaccard_kernel() -> NDArray[np.float64]:
    kernel = np.empty((8, 8))
    for a in range(8):
        for b in range(8):
            union = a | b
            if union == 0:
                kernel[a, b] = 1.0  # empty-vs-empty convention; that coordinate is always 0
            else:
                kernel[a, b] = (a & b).bit_count() / union.bit_count()
    return kernel


_JACCARD = _jaccard_kernel()

#: 1 / 2^(atoms - 1); scales the subset sum of the interval metric into [0, 1].
_INTERVAL_SCALE = 0.25


def jousselme_distance(m1: MassFunction, m2: MassFunction) -> float:
    """Quadratic-form distance sqrt(0.5 * d^T K d) with the Jaccard overlap kernel.

    Lies in [0, 1]; 1 is reached exactly between certain masses on disjoint
    subsets.
    """
    diff = np.asarray(m1.masses) - np.asarray(m2.masses)
    value = 0.5 * float(diff @ _JACCARD @ diff)
    return math.sqrt(max(value, 0.0))


def belief_interval_distance(m1: MassFunction, m2: MassFunction) -> float:
    """Aggregate Wasserstein distance between the [bel, pl] intervals.

    Sums, over the seven non-empty subsets, the squared interval distance
    (midpoint gap squared plus a third of the half-width gap squared), scales
    by 1/4 and takes the square root; lies in [0, 1].
    """
    total = 0.0
    for subset in range(1, 8):
        b1, p1 = m1.bel(subset), m1.pl(subset)
        b2, p2 = m2.bel(subset), m2.pl(subset)
        mid_gap = ((b1 + p1) - (b2 + p2)) / 2.0
        halfwidth_gap = ((p1 - b1) - (p2 - b2)) / 2.0
        total += mid_gap * mid_gap + halfwidth_gap * halfwidth_gap / 3.0
    return math.sqrt(_INTERVAL_SCALE * total)


class BbaMetric(Enum):
    """Distance between two mass functions used by the indirect method."""

    JOUSSELME = "jousselme"
    BELIEF_INTERVAL = "belief-interval"


_METRIC_FN = {
    BbaMetric.JOUSSELME: jousselme_distance,
    BbaMetric.BELIEF_INTERVAL: belief_interval_distance,
}

_METRIC_METHOD_NAME = {
    BbaMetric.JOUSSELME: "indirect-j",
    BbaMetric.BELIEF_INTERVAL: "indirect-bi",
}

#: Reference mass for the indirect score: certain strict preference of row over column.
_SUCC_CERTAIN = MassFunction.certain(ATOM_SUCC)

#: Per metric, the indirect score of each relation code: a cell's score
#: depends only on its relation, so four metric calls cover every grid.
_CODE_SCORE = {
    metric: np.array([distance(mass, _SUCC_CERTAIN) for mass in _CODE_MASS])
    for metric, distance in _METRIC_FN.items()
}


@dataclass(frozen=True)
class DistanceReport:
    """Raw distance, the full-contradiction maximum, and their ratio."""

    method: str
    raw: float
    max: float
    normalized: float


def _direct_max(n: int) -> float:
    # The chain and its reversal disagree on all n(n-1) off-diagonal cells,
    # each with two unit mass components apart.
    return math.sqrt(2 * n * (n - 1))


def direct_distance(ppo1: WeakOrder, ppo2: WeakOrder) -> DistanceReport:
    """Distance between two (partial) orders through their full mass grids.

    No enumeration is involved: cost is quadratic in the number of objects.
    Cells of different relations differ by 1 in exactly two mass components.
    Normalization divides by the chain-vs-reversed-chain distance.
    """
    n = common_size(ppo1.universe_size, ppo2.universe_size)
    differing = int(np.count_nonzero(ppo1.relation_codes() != ppo2.relation_codes()))
    raw = math.sqrt(2 * differing)
    maximum = _direct_max(n)
    return DistanceReport("direct", raw, maximum, raw / maximum)


def direct_distance_general(b1: BbaMatrix, b2: BbaMatrix) -> DistanceReport:
    """Direct distance for caller-supplied mass grids.

    Accepts any normalized cells, so probabilistic and imprecise pairwise
    judgments are fine.  Normalization still divides by the order-based
    maximum sqrt(2N(N-1)), so adversarial grids (for example with conflicting
    diagonals) can exceed 1.
    """
    n = common_size(b1.n, b2.n)
    # Equals the Frobenius norm of the flattened 8N x 8N difference: each mass
    # component appears exactly once in the sum of squares either way.
    raw = float(np.linalg.norm(b1.masses - b2.masses))
    maximum = _direct_max(n)
    return DistanceReport("direct", raw, maximum, raw / maximum)


def indirect_psm(ppo: WeakOrder, metric: BbaMetric) -> NDArray[np.float64]:
    """Score-alike matrix: entry (i, j) is the metric distance from cell (i, j)
    to the certain row-over-column reference mass.

    Certain strict preference scores 0, certain reversal or tie scores 1,
    ignorance lands strictly in between, and the diagonal is all ones.
    """
    return _CODE_SCORE[metric][ppo.relation_codes()]


def indirect_distance(
    ppo1: WeakOrder, ppo2: WeakOrder, metric: BbaMetric
) -> DistanceReport:
    """Frobenius distance between the two score-alike matrices, normalized.

    A lossy compression of the pairwise evidence compared to the direct
    method: the N x N matrix keeps only each cell's distance to the
    reference, not the cell itself.
    """
    n = common_size(ppo1.universe_size, ppo2.universe_size)
    raw = float(np.linalg.norm(indirect_psm(ppo1, metric) - indirect_psm(ppo2, metric)))
    # The chain and its reversal swap SUCC and PREC on every off-diagonal cell.
    scores = _CODE_SCORE[metric]
    maximum = math.sqrt(n * (n - 1)) * float(abs(scores[_PREC] - scores[_SUCC]))
    return DistanceReport(_METRIC_METHOD_NAME[metric], raw, maximum, raw / maximum)


_FOCAL_KEY_TO_MASK = {
    "1": ATOM_SUCC,
    "2": ATOM_EQUIV,
    "3": ATOM_PREC,
    "1|2": ATOM_SUCC | ATOM_EQUIV,
    "1|3": ATOM_SUCC | ATOM_PREC,
    "2|3": ATOM_EQUIV | ATOM_PREC,
    "1|2|3": FULL_FRAME,
}


def bba_matrix_from_json(document: Any) -> BbaMatrix:
    """Parse the wire format ``{"n": N, "cells": [[{...}, ...], ...]}``.

    Focal-set keys are "1", "2", "3", "1|2", "1|3", "2|3" and "1|2|3" (atom 1
    = row preferred, 2 = tied, 3 = column preferred); omitted subsets carry
    zero mass and empty-set keys are rejected.  Diagnostics name the first
    offending cell in row-major order.  A well-formed grid is read in bulk;
    any other is walked cell by cell to its first fault.
    """
    if not isinstance(document, dict):
        raise BbaFormatError("top-level value must be a JSON object")
    n = document.get("n")
    cells = document.get("cells")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise BbaFormatError("'n' must be a positive integer")
    if not isinstance(cells, list) or len(cells) != n:
        raise BbaFormatError(f"'cells' must be a list of {n} rows")
    masses = _bulk_masses(cells, n)
    return BbaMatrix(_walked_masses(cells, n) if masses is None else masses)


def _bulk_masses(cells: list[Any], n: int) -> NDArray[np.float64] | None:
    """The (n, n, 8) masses of ``cells`` read list-wide, or None if a row, cell,
    key or mass is malformed.  A mass is an int or a float, but not a bool."""
    if not all(
        isinstance(row, list) and len(row) == n and all(map(isinstance, row, repeat(dict)))
        for row in cells
    ):
        return None
    flat = list(chain.from_iterable(cells))
    keys = list(chain.from_iterable(flat))
    values = list(chain.from_iterable(map(dict.values, flat)))
    if not (_FOCAL_KEY_TO_MASK.keys() >= set(keys) and {int, float} >= set(map(type, values))):
        return None
    try:
        numbers = np.array(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    cell_of = np.repeat(np.arange(n * n), list(map(len, flat)))
    masks = np.fromiter(map(_FOCAL_KEY_TO_MASK.__getitem__, keys), np.intp, len(keys))
    masses = np.zeros((n, n, 8))
    masses.reshape(-1)[cell_of * 8 + masks] = numbers
    return masses


def _walked_masses(cells: list[Any], n: int) -> NDArray[np.float64]:
    """The (n, n, 8) masses of ``cells`` read one by one in row-major order.  The
    first malformed row, cell, key or mass raises BbaFormatError, but only once
    the cells before it, with vacuous ones for the rest, pass the mass rule."""
    vectors: list[list[float]] = []
    try:
        for i, row in enumerate(cells):
            if not isinstance(row, list) or len(row) != n:
                raise BbaFormatError(f"row {i} must hold {n} cells")
            for j, cell in enumerate(row):
                if not isinstance(cell, dict):
                    raise BbaFormatError(
                        f"cell ({i}, {j}): cell must be an object mapping focal-set keys to masses"
                    )
                vector = [0.0] * 8
                for key, mass in cell.items():
                    if key not in _FOCAL_KEY_TO_MASK:
                        raise BbaFormatError(
                            f"cell ({i}, {j}): invalid focal-set key {key!r} "
                            f"(expected one of {', '.join(sorted(_FOCAL_KEY_TO_MASK))})"
                        )
                    if isinstance(mass, bool) or not isinstance(mass, (int, float)):
                        raise BbaFormatError(
                            f"cell ({i}, {j}): mass for {key!r} must be a number, got {mass!r}"
                        )
                    try:
                        vector[_FOCAL_KEY_TO_MASK[key]] = float(mass)
                    except OverflowError:
                        raise BbaFormatError(
                            f"cell ({i}, {j}): mass for {key!r} is too large for a float"
                        ) from None
                vectors.append(vector)
    except BbaFormatError:
        unread = [[0.0] * 7 + [1.0]] * (n * n - len(vectors))
        _check_masses(np.reshape(vectors + unread, (n, n, 8)), "cell ({}, {}): ")
        raise
    return np.reshape(vectors, (n, n, 8))


def _json_int(text: str) -> int:
    """A JSON integer of any length, so that a mass of thousands of digits is
    named as too large for a float: ``int`` refuses over 4300 digits by default."""
    try:
        return int(text)
    except ValueError:
        return int(Decimal(text))


def load_bba_matrix(source: str | IO[str]) -> BbaMatrix:
    """Read a BBA matrix from a JSON file path or an open text stream."""
    try:
        if isinstance(source, str):
            with open(source, encoding="utf-8") as handle:
                document = json.load(handle, parse_int=_json_int)
        else:
            document = json.load(source, parse_int=_json_int)
    except RecursionError:
        raise BbaFormatError("JSON nesting is too deep to parse") from None
    return bba_matrix_from_json(document)
