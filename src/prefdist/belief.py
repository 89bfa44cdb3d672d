"""Mass functions over the pairwise frame, grids of them, and their distances.

Each ordered object pair (i, j) gets a three-state frame — i strictly
preferred, tied, i strictly dispreferred — and a mass function over its eight
subsets.  A certain comparison puts mass 1 on the matching state, an unknown
comparison puts mass 1 on the whole frame, and arbitrary mass functions model
probabilistic or imprecise comparisons.

Subsets are addressed by bitmask (bit 0 = preferred, bit 1 = tied, bit 2 =
dispreferred), and the mask doubles as the index into the 8-component mass
vector: empty set, {succ}, {equiv}, {succ, equiv}, {prec}, {succ, prec},
{equiv, prec}, full frame.

The grid of an order holds ``MassFunction.certain`` of ATOM_SUCC, ATOM_EQUIV
or ATOM_PREC in each cell the order decides, the diagonal tied, and of
FULL_FRAME in each cell with an unmentioned object.  The distances between
two orders, ``direct`` and ``indirect-*``, build no such grid: each cell is a
lookup on its relation code, so they count code pairs in
:mod:`prefdist.psm`.  This module reads and compares grids of arbitrary
masses (:func:`load_bba_matrix`, :func:`direct_distance_general`), and
defines the metrics whose values the indirect scores in :mod:`prefdist.psm` hold.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass
from decimal import Decimal
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
from .model import common_size
from .psm import _DIRECT_COST, DistanceReport, _report

ATOM_SUCC = 0b001
ATOM_EQUIV = 0b010
ATOM_PREC = 0b100
FULL_FRAME = 0b111

_MASS_TOLERANCE = 1e-9


def _check_subset(subset: int) -> None:
    if subset == 0:
        raise EmptySubsetError("belief and plausibility need a non-empty subset")
    if not 0 < subset <= FULL_FRAME:
        raise ValueError(f"subset mask must lie in 1..7, got {subset}")


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
            try:
                index = operator.index(mask)
            except TypeError:
                index = -1
            if not 0 <= index <= FULL_FRAME:
                raise ValueError(f"subset mask must lie in 0..7, got {mask!r}")
            values[index] = mass
        return cls(tuple(values))

    def bel(self, subset: int) -> float:
        """Total mass of the non-empty subsets contained in ``subset``."""
        _check_subset(subset)
        return sum(self.masses[y] for y in range(1, 8) if y & subset == y)

    def pl(self, subset: int) -> float:
        """Total mass of the subsets intersecting ``subset``; 1 - bel(complement)."""
        _check_subset(subset)
        return sum(self.masses[y] for y in range(1, 8) if y & subset)


@dataclass(frozen=True, eq=False)
class BbaMatrix:
    """N x N grid of mass functions; cell (i, j) judges object i against object j.

    ``masses`` holds the (n, n, 8) mass vectors, read-only, copied from any
    array-like (nested MassFunctions too) and checked by the mass rule; cell
    (i, j) is ``MassFunction(masses[i, j])``.  Grids compare and hash by value.
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
    return _report("direct", float(np.linalg.norm(b1.masses - b2.masses)), n, _DIRECT_COST)


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
        rows = n if n <= sys.maxsize else "'n'"  # no list is longer; str() of a huge int raises
        raise BbaFormatError(f"'cells' must be a list of {rows} rows")
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
