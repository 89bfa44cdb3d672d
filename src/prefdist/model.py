"""Object universes, weak orderings with ties, and the preference-expression grammar.

A :class:`WeakOrder` is an ordered sequence of disjoint tie-classes over a
universe of N objects, stored as the class position of each object; earlier
classes are strictly preferred.  An order that mentions every object is
total, one that mentions fewer is partial, and any pair involving an
unmentioned object compares as :data:`PairRelation.UNKNOWN`.

Text syntax (whitespace insignificant)::

    ordering := group ('>' group)*
    group    := ident | '(' ident ('=' ident)+ ')'
    ident    := [A-Za-z0-9_]+

so ``B > A > C`` is a strict chain, ``C > (A = B)`` ties A with B below C and
``(A = B = C)`` ties everything.
"""

from __future__ import annotations

import operator
import re
from enum import Enum
from itertools import filterfalse
from typing import Iterable, Sequence

from .errors import (
    DegenerateUniverseError,
    DimensionMismatchError,
    DuplicateObjectError,
    EmptyExpressionError,
    IndexOutOfRangeError,
    PreferenceSyntaxError,
    UnknownObjectError,
)

class PairRelation(Enum):
    """Outcome of comparing two objects; a member's position is its relation code."""

    SUCC = "succ"  # row object strictly preferred
    EQUIV = "equiv"  # tied
    PREC = "prec"  # row object strictly dispreferred
    UNKNOWN = "unknown"  # at least one object unmentioned


_LABEL = re.compile(r"[A-Za-z0-9_]+")
_GROUP = r"\s*(?:{0}|\(\s*{0}(?:\s*=\s*{0})+\s*\))\s*".format(_LABEL.pattern)
_ORDERING = re.compile("{0}(?:>{0})*".format(_GROUP))  # the grammar of the module docstring


class _Frozen:
    """What ``@dataclass(frozen=True)`` gives a slotted class whose ``__match_args__``
    names its fields.  A subclass sets them with ``object.__setattr__`` and rebuilds
    itself in ``__reduce__``, as copy and pickle would restore them by assigning."""

    # dataclasses would load inspect, ast, dis and tokenize; belief and bfm keep
    # @dataclass, as they load only after numpy, whose import loads inspect anyway
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable: {name!r} cannot change")

    __delattr__ = __setattr__


class ObjectUniverse(_Frozen):
    """Ordered collection of distinct object labels, each a name of the grammar."""

    __slots__ = ("labels", "_positions")
    __match_args__ = ("labels",)
    labels: tuple[str, ...]

    def __init__(self, labels: Iterable[str]) -> None:
        labels = tuple(labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("universe must contain at least one object")
        try:
            valid = all(labels) and _LABEL.fullmatch("".join(labels))
        except TypeError:  # a label that is not a str: fullmatch below raises re's error
            valid = None
        if not valid:
            bad = next(filterfalse(_LABEL.fullmatch, labels))
            raise ValueError(f"object label {bad!r} must match {_LABEL.pattern}")
        positions = dict(zip(labels, range(len(labels))))
        if len(positions) < len(labels):
            positions = {}
            for pos, label in enumerate(labels):
                if positions.setdefault(label, pos) != pos:
                    raise DuplicateObjectError(f"duplicate object label {label!r}")
        object.__setattr__(self, "_positions", positions)

    def __reduce__(self) -> tuple:
        return self.__class__, (self.labels,)

    @classmethod
    def numbered(cls, n: int) -> "ObjectUniverse":
        """Universe with default labels ``x1 .. xn``."""
        return cls(tuple(f"x{i}" for i in range(1, n + 1)))

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise UnknownObjectError(f"unknown object {label!r}") from None


class WeakOrder(_Frozen):
    """A weak order built from disjoint tie-classes, earlier classes winning.

    It stores ``rank_tuple``: each object's class position (0 = most
    preferred, -1 = unmentioned), dense in 0..m-1, so equal orders have
    equal tuples.  :meth:`from_ranks` builds one from those positions.
    """

    __slots__ = __match_args__ = ("rank_tuple",)
    rank_tuple: tuple[int, ...]

    def __init__(self, classes: Iterable[Iterable[int]], universe_size: int) -> None:
        if universe_size < 0:
            raise ValueError("universe_size must be non-negative")
        ranks = [-1] * universe_size
        for pos, group in enumerate(map(sorted, classes)):
            if not group:
                raise ValueError("tie-classes must be non-empty")
            for idx in group:
                if not 0 <= idx < universe_size:
                    raise IndexOutOfRangeError(f"object index {idx} outside [0, {universe_size})")
                if ranks[idx] >= 0:
                    raise DuplicateObjectError(f"object index {idx} appears twice")
                ranks[idx] = pos
        object.__setattr__(self, "rank_tuple", tuple(ranks))

    @classmethod
    def from_ranks(cls, ranks: Sequence[int]) -> "WeakOrder":
        """The order whose object i has rank ``ranks[i]`` (-1 = unmentioned); the
        ranks must be integers that are -1 or fill 0..m-1 without a gap."""
        try:
            values = tuple(map(operator.index, ranks))
            dense = {-1, *values} == set(range(-1, max(values, default=-1) + 1))
        except TypeError:
            dense = False
        if not dense:
            raise ValueError(f"rank vector {ranks!r} must hold integers that are -1 or fill 0..m-1")
        return cls._dense(values)

    @classmethod
    def _dense(cls, rank_tuple: tuple[int, ...]) -> "WeakOrder":
        """The order with ``rank_tuple``, which the caller has built dense."""
        order = object.__new__(cls)
        object.__setattr__(order, "rank_tuple", rank_tuple)
        return order

    def __reduce__(self) -> tuple:
        return self.__class__._dense, (self.rank_tuple,)

    @property
    def universe_size(self) -> int:
        return len(self.rank_tuple)

    @property
    def is_total(self) -> bool:
        return -1 not in self.rank_tuple


def common_size(n1: int, n2: int) -> int:
    """The universe size shared by two operands of a normalized distance (>= 2)."""
    if n1 != n2:
        raise DimensionMismatchError(f"operands over different universes: {n1} vs {n2}")
    if n1 < 2:
        raise DegenerateUniverseError(f"normalized distances need at least two objects, got {n1}")
    return n1


def parse_preference(text: str, universe: ObjectUniverse) -> WeakOrder:
    """Parse ``A > (B = C) > D`` style text into a weak order over ``universe``.

    Every identifier must name a universe object and may appear only once.
    """
    if not _ORDERING.fullmatch(text):
        if not text.strip():
            raise EmptyExpressionError("empty preference expression")
        group = next(filterfalse(re.compile(_GROUP).fullmatch, text.split(">"))).strip()
        raise PreferenceSyntaxError(
            f"malformed group {group!r}: expected an object name [A-Za-z0-9_]+ "
            "or a tie of two or more names, such as '(A = B)'"
        )
    # the names, and a ">" between groups: one word each
    words = text.replace("(", " ").replace(")", " ").replace("=", " ").replace(">", " > ").split()
    ranks = [-1] * len(universe)
    positions = universe._positions
    pos = 0
    try:
        for word in words:
            if word == ">":
                pos += 1
            else:
                ranks[positions[word]] = pos
    except KeyError:
        pass  # an unknown object: fewer ranks are set than names are read
    if ranks.count(-1) != len(ranks) - len(words) + words.count(">"):
        # An unknown or a repeated object: name the first, group by group,
        # a repeat within a group before an unknown.
        seen: set[str] = set()
        for group in "".join(text.split()).replace("(", "").replace(")", "").split(">"):
            members = group.split("=")
            for label in members:
                if label in seen:
                    raise DuplicateObjectError(f"object {label!r} mentioned twice")
                seen.add(label)
            for label in members:
                universe.index(label)
    return WeakOrder._dense(tuple(ranks))  # no object named twice: the ranks are dense


def render_preference(order: WeakOrder, universe: ObjectUniverse) -> str:
    """Canonical text for a weak order, e.g. ``C > (A = B)``.

    Inverse of :func:`parse_preference` for any order mentioning at least one
    object; an empty order renders as the empty string, which does not parse.
    """
    if order.universe_size != len(universe):
        raise DimensionMismatchError(
            f"ordering over {order.universe_size} objects, universe has {len(universe)}"
        )
    return render_ranks(order.rank_tuple, universe.labels)


def render_ranks(ranks: Sequence[int], labels: Sequence[str]) -> str:
    """Canonical text of the order whose object i has rank ``ranks[i]``, named
    ``labels[i]``; -1 marks an unmentioned object."""
    classes: list[list[str]] = [[] for _ in range(max(ranks, default=-1) + 1)]
    for rank, label in zip(ranks, labels):
        if rank >= 0:
            classes[rank].append(label)
    return " > ".join(
        [names[0] if len(names) == 1 else "(" + " = ".join(names) + ")" for names in classes]
    )
