"""Object universes, weak orderings with ties, and the preference-expression grammar.

A :class:`WeakOrder` is an ordered sequence of disjoint tie-classes over a
universe of N objects; earlier classes are strictly preferred.  An order that
mentions every object is total, one that mentions fewer is partial, and any
pair involving an unmentioned object compares as :data:`PairRelation.UNKNOWN`.

Text syntax (whitespace insignificant)::

    ordering := group ('>' group)*
    group    := ident | '(' ident ('=' ident)+ ')'
    ident    := [A-Za-z0-9_]+

so ``B > A > C`` is a strict chain, ``C > (A = B)`` ties A with B below C and
``(A = B = C)`` ties everything.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import filterfalse
from typing import Iterable

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DegenerateUniverseError,
    DimensionMismatchError,
    DuplicateObjectError,
    EmptyExpressionError,
    IndexOutOfRangeError,
    PreferenceSyntaxError,
    SubsetNotMentionedError,
    UnknownObjectError,
)


class PairRelation(Enum):
    """Outcome of comparing two objects; a member's position is its relation code."""

    SUCC = "succ"  # row object strictly preferred
    EQUIV = "equiv"  # tied
    PREC = "prec"  # row object strictly dispreferred
    UNKNOWN = "unknown"  # at least one object unmentioned


_LABEL = re.compile(r"[A-Za-z0-9_]+")


@dataclass(frozen=True)
class ObjectUniverse:
    """Ordered collection of distinct object labels, each a name of the grammar."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("universe must contain at least one object")
        bad = next(filterfalse(_LABEL.fullmatch, self.labels), None)
        if bad is not None:
            raise ValueError(f"object label {bad!r} must match {_LABEL.pattern}")
        seen: set[str] = set()
        for label in self.labels:
            if label in seen:
                raise DuplicateObjectError(f"duplicate object label {label!r}")
            seen.add(label)

    @classmethod
    def numbered(cls, n: int) -> "ObjectUniverse":
        """Universe with default labels ``x1 .. xn``."""
        return cls(tuple(f"x{i}" for i in range(1, n + 1)))

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {label: pos for pos, label in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise UnknownObjectError(f"unknown object {label!r}") from None


@dataclass(frozen=True)
class WeakOrder:
    """Ordered disjoint tie-classes of object indices; earlier class wins.

    ``classes`` is canonical: within each class indices are sorted ascending.
    The class sequence itself is semantic and never reordered.  A value is
    immutable and hashable once constructed.
    """

    classes: tuple[tuple[int, ...], ...]
    universe_size: int

    def __post_init__(self) -> None:
        if self.universe_size < 0:
            raise ValueError("universe_size must be non-negative")
        canonical = tuple(tuple(sorted(group)) for group in self.classes)
        object.__setattr__(self, "classes", canonical)
        seen: set[int] = set()
        for group in canonical:
            if not group:
                raise ValueError("tie-classes must be non-empty")
            for idx in group:
                if not 0 <= idx < self.universe_size:
                    raise IndexOutOfRangeError(
                        f"object index {idx} outside [0, {self.universe_size})"
                    )
                if idx in seen:
                    raise DuplicateObjectError(f"object index {idx} appears twice")
                seen.add(idx)

    @property
    def mentioned(self) -> frozenset[int]:
        return frozenset(idx for group in self.classes for idx in group)

    @property
    def is_total(self) -> bool:
        return len(self.mentioned) == self.universe_size

    @cached_property
    def rank_vector(self) -> NDArray[np.int64]:
        """Read-only class position of each object (0 = most preferred, -1 = unmentioned)."""
        ranks = [-1] * self.universe_size
        for pos, group in enumerate(self.classes):
            for idx in group:
                ranks[idx] = pos
        vector = np.array(ranks, dtype=np.int64)
        vector.flags.writeable = False
        return vector

    def relation_codes(self) -> NDArray[np.int8]:
        """N x N codes with ``list(PairRelation)[codes[i, j]] is self.relation(i, j)``:
        SUCC 0, EQUIV 1 (also the diagonal), PREC 2, UNKNOWN 3."""
        r = self.rank_vector
        codes = (np.sign(r[:, None] - r[None, :]) + 1).astype(np.int8)
        codes[(r[:, None] < 0) | (r[None, :] < 0)] = 3
        np.fill_diagonal(codes, 1)
        return codes

    def ranks(self) -> dict[int, int]:
        """Class position of every mentioned index (0 = most preferred)."""
        return {idx: pos for idx, pos in enumerate(self.rank_vector.tolist()) if pos >= 0}

    def relation(self, i: int, j: int) -> PairRelation:
        """Compare objects i and j; UNKNOWN when either is unmentioned (i != j)."""
        for idx in (i, j):
            if not 0 <= idx < self.universe_size:
                raise IndexOutOfRangeError(
                    f"object index {idx} outside [0, {self.universe_size})"
                )
        if i == j:
            return PairRelation.EQUIV
        ri, rj = self.rank_vector[i], self.rank_vector[j]
        if ri < 0 or rj < 0:
            return PairRelation.UNKNOWN
        if ri == rj:
            return PairRelation.EQUIV
        return PairRelation.SUCC if ri < rj else PairRelation.PREC

    def reverse(self) -> "WeakOrder":
        """Same tie-classes in the opposite sequence."""
        return WeakOrder(tuple(reversed(self.classes)), self.universe_size)

    def restrict(self, subset: Iterable[int]) -> "WeakOrder":
        """Drop every index outside ``subset``, preserving the class sequence.

        ``subset`` must be mentioned by this ordering; empty intersections
        disappear, so the result mentions exactly ``subset``.
        """
        keep = frozenset(subset)
        extra = keep - self.mentioned
        if extra:
            raise SubsetNotMentionedError(
                f"indices not mentioned by the ordering: {sorted(extra)}"
            )
        groups = []
        for group in self.classes:
            kept = tuple(idx for idx in group if idx in keep)
            if kept:
                groups.append(kept)
        return WeakOrder(tuple(groups), self.universe_size)


def common_size(n1: int, n2: int) -> int:
    """The universe size shared by two operands of a normalized distance (>= 2)."""
    if n1 != n2:
        raise DimensionMismatchError(f"operands over different universes: {n1} vs {n2}")
    if n1 < 2:
        raise DegenerateUniverseError(f"normalized distances need at least two objects, got {n1}")
    return n1


def chain_order(n: int) -> WeakOrder:
    """The strict chain: object 0 over object 1 over ... over object n-1."""
    return WeakOrder(tuple((i,) for i in range(n)), n)


def parse_preference(text: str, universe: ObjectUniverse) -> WeakOrder:
    """Parse ``A > (B = C) > D`` style text into a weak order over ``universe``.

    Every identifier must name a universe object and may appear only once.
    """
    if not text.strip():
        raise EmptyExpressionError("empty preference expression")
    groups: list[list[str]] = []
    for part in text.split(">"):
        group = part.strip()
        tie = group.startswith("(") and group.endswith(")")
        members = [label.strip() for label in group[1:-1].split("=")] if tie else [group]
        if (tie and len(members) < 2) or not all(map(_LABEL.fullmatch, members)):
            raise PreferenceSyntaxError(
                f"malformed group {group!r}: expected an object name [A-Za-z0-9_]+ "
                "or a tie of two or more names, such as '(A = B)'"
            )
        groups.append(members)

    seen: set[str] = set()
    indexed: list[tuple[int, ...]] = []
    for members in groups:
        for label in members:
            if label in seen:
                raise DuplicateObjectError(f"object {label!r} mentioned twice")
            seen.add(label)
        indexed.append(tuple(universe.index(label) for label in members))
    return WeakOrder(tuple(indexed), len(universe))


def render_preference(order: WeakOrder, universe: ObjectUniverse) -> str:
    """Canonical text for a weak order, e.g. ``C > (A = B)``.

    Inverse of :func:`parse_preference` for any order mentioning at least one
    object; an empty order renders as the empty string, which does not parse.
    """
    if order.universe_size != len(universe):
        raise DimensionMismatchError(
            f"ordering over {order.universe_size} objects, universe has {len(universe)}"
        )
    parts = []
    for group in order.classes:
        labels = [universe.labels[idx] for idx in group]
        parts.append(labels[0] if len(labels) == 1 else "(" + " = ".join(labels) + ")")
    return " > ".join(parts)
