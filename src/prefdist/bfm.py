"""Brute-force distance between two partial orders via their compatible completions.

Every completion pair contributes one normalized classical distance; a
decision attitude then collapses the grid to a single number: the minimum
(optimistic), maximum (pessimistic), arithmetic mean (average), or a
weighted min/max blend (Hurwicz, with alpha weighting the optimistic side so
alpha = 0.5 is the midpoint attitude).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from .enumeration import _completion_count, compatible_tpos
from .errors import CapExceededError
from .model import WeakOrder, common_size
from .psm import max_psm_distance, score_rows

#: Most cells a grid may have: every pair of weak orders of 6 objects.
GRID_CELL_LIMIT = 4683**2


class Attitude(Enum):
    """Rule collapsing the completion-pair distance grid to one number."""

    OPTIMISTIC = "optim"
    PESSIMISTIC = "pessim"
    AVERAGE = "aver"
    HURWICZ = "hurwicz"


@dataclass(frozen=True, eq=False)
class BfmReport:
    """Completion-pair distance grid plus all four attitude scalars."""

    grid: NDArray[np.float64]
    optim: float
    pessim: float
    aver: float
    hurwicz: float
    alpha: float

    @property
    def n_ctpo(self) -> tuple[int, int]:
        """Completion counts of the two inputs (grid rows, grid columns)."""
        return (self.grid.shape[0], self.grid.shape[1])

    def value(self, attitude: Attitude) -> float:
        return getattr(self, attitude.value)  # each value names its field


def bfm_grid(
    ppo1: WeakOrder,
    ppo2: WeakOrder,
    *,
    cap: int | None = None,
) -> NDArray[np.float64]:
    """Normalized distances between every completion of ppo1 and of ppo2.

    Rows follow the deterministic enumeration order of ppo1's completions,
    columns that of ppo2's.  Raises CapExceededError, before generating any
    completion, when it would have more than GRID_CELL_LIMIT cells.
    """
    n = common_size(ppo1.universe_size, ppo2.universe_size)
    rows, cols = _completion_count(ppo1, cap=cap), _completion_count(ppo2, cap=cap)
    if rows * cols > GRID_CELL_LIMIT:
        raise CapExceededError(
            f"a {rows} x {cols} completion grid exceeds the limit "
            f"of {GRID_CELL_LIMIT} cells"
        )
    a = score_rows(compatible_tpos(ppo1, cap=cap).ranks)
    b = score_rows(compatible_tpos(ppo2, cap=cap).ranks)
    # ||a||^2 + ||b||^2 - 2 a.b in place: entries are -1, 0 or 1 and no sum
    # exceeds 4n^2, so every term is exact and so is each squared distance.
    grid = (-2.0 * a) @ b.T
    grid += np.einsum("ij,ij->i", a, a)[:, None]
    grid += np.einsum("ij,ij->i", b, b)
    return np.divide(np.sqrt(grid, out=grid), max_psm_distance(n), out=grid)


def bfm_distance(
    ppo1: WeakOrder,
    ppo2: WeakOrder,
    *,
    alpha: float = 0.5,
    cap: int | None = None,
) -> BfmReport:
    """Full brute-force report: the grid and all four attitude scalars."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    grid = bfm_grid(ppo1, ppo2, cap=cap)
    optim = float(grid.min())
    pessim = float(grid.max())
    aver = float(grid.mean())
    return BfmReport(
        grid=grid,
        optim=optim,
        pessim=pessim,
        aver=aver,
        hurwicz=alpha * optim + (1.0 - alpha) * pessim,
        alpha=alpha,
    )
