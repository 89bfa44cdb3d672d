"""Distances between total and partial preference orderings.

Two independent routes to the same question — how far apart are two
(possibly partial) rankings:

* brute force: enumerate every total order compatible with each partial one
  and reduce the grid of normalized score-matrix distances with a decision
  attitude (:func:`bfm_distance`);
* belief encoding: give every object pair a mass function over the
  preferred/tied/dispreferred frame and compare the grids directly
  (:func:`direct_distance`) or through per-pair metric scores
  (:func:`indirect_distance`).

On total orders the brute-force route is the classical normalized
score-matrix distance; the belief routes agree with it only when the orders
are also tie-free (``A > B > C`` against ``(A = B) > C`` reads 0.2887
classically, 0.5774 by ``direct`` and 0.4082 by ``indirect-j``).
"""

from .errors import (
    BbaFormatError,
    CapExceededError,
    DegenerateUniverseError,
    DimensionMismatchError,
    DuplicateObjectError,
    EmptyExpressionError,
    EmptySubsetError,
    IndexOutOfRangeError,
    NotTotalError,
    PrefdistError,
    PreferenceSyntaxError,
    UnknownObjectError,
    UnnormalizedMassError,
)
from .model import (
    ObjectUniverse,
    PairRelation,
    WeakOrder,
    parse_preference,
    render_preference,
)
from .psm import (
    BbaMetric,
    DistanceReport,
    PsmConvention,
    direct_distance,
    indirect_distance,
    max_psm_distance,
    normalized_distance,
)


def __getattr__(name: str) -> object:
    """The public names that need numpy, imported on first access (PEP 562),
    so that importing the package or its command line loads no numpy."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import belief, bfm, enumeration

    value = next(getattr(m, name) for m in (belief, bfm, enumeration) if hasattr(m, name))
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
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
