"""Preference-score matrices and the normalized Frobenius distance between total orders."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from .errors import (
    ConventionMismatchError,
    DegenerateUniverseError,
    DimensionMismatchError,
    NotTotalError,
)
from .model import WeakOrder, common_size


class PsmConvention(Enum):
    """Numeric encoding of a pairwise comparison in the score matrix."""

    SIGNED = "signed"  # +1 preferred / -1 dispreferred / 0 tied; anti-symmetric
    UNIT = "unit"  # 1 preferred / 0 dispreferred / 0.5 tied; M + M^T = ones


@dataclass(frozen=True, eq=False)
class PreferenceScoreMatrix:
    """N x N pairwise score matrix; entry (i, j) scores object i against object j."""

    entries: NDArray[np.float64]
    convention: PsmConvention


def score_rows(ranks: NDArray[np.int64]) -> NDArray[np.float64]:
    """Flattened signed score matrices of total orders given as a (P, n) rank array.

    Row p is the score matrix of the order with rank vector ``ranks[p]``,
    raveled to length n*n.
    """
    rows, n = ranks.shape
    signed = np.sign(ranks[:, None, :] - ranks[:, :, None])  # +1 where row outranks column
    return signed.astype(np.float64).reshape(rows, n * n)


def build_psm(
    tpo: WeakOrder, convention: PsmConvention = PsmConvention.SIGNED
) -> PreferenceScoreMatrix:
    """Score matrix of a total order.

    Raises NotTotalError when the order leaves any object unmentioned: a
    partial order has no well-defined score for the missing pairs.
    """
    if not tpo.is_total:
        raise NotTotalError("ordering does not mention every object in the universe")
    n = tpo.universe_size
    entries = score_rows(tpo.rank_vector[None, :]).reshape(n, n)
    if convention is PsmConvention.UNIT:
        entries = (entries + 1.0) / 2.0
    return PreferenceScoreMatrix(entries, convention)


def frobenius_distance(
    m1: PreferenceScoreMatrix, m2: PreferenceScoreMatrix
) -> float:
    """Square root of the summed squared entrywise differences."""
    if m1.entries.shape != m2.entries.shape:
        raise DimensionMismatchError(
            f"matrix shapes differ: {m1.entries.shape} vs {m2.entries.shape}"
        )
    if m1.convention is not m2.convention:
        raise ConventionMismatchError(
            f"cannot mix conventions {m1.convention.value} and {m2.convention.value}"
        )
    return float(np.linalg.norm(m1.entries - m2.entries))


def max_psm_distance(n: int, convention: PsmConvention = PsmConvention.SIGNED) -> float:
    """Distance between the strict chain over n objects and its reversal.

    This is the normalization constant: the two orders are in full
    contradiction.  Every off-diagonal entry differs by 2 (signed) or 1
    (unit), so it is 2*sqrt(n(n-1)) or sqrt(n(n-1)), exactly as computed.
    """
    if n < 2:
        raise DegenerateUniverseError(
            f"maximal distance needs at least two objects, got {n}"
        )
    return math.sqrt(n * (n - 1)) * (2 if convention is PsmConvention.SIGNED else 1)


def normalized_distance(
    tpo1: WeakOrder,
    tpo2: WeakOrder,
    convention: PsmConvention = PsmConvention.SIGNED,
) -> float:
    """Frobenius distance between two total orders, scaled into [0, 1].

    The value is the same under both conventions: unit-convention matrices
    are an affine rescaling of signed ones, and the normalization cancels it.
    """
    n = common_size(tpo1.universe_size, tpo2.universe_size)
    raw = frobenius_distance(build_psm(tpo1, convention), build_psm(tpo2, convention))
    return raw / max_psm_distance(n, convention)
