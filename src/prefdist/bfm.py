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

from .enumeration import compatible_tpos
from .model import WeakOrder, common_size
from .psm import PsmConvention, build_psm, frobenius_distance, max_psm_distance


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
    convention: PsmConvention

    @property
    def n_ctpo(self) -> tuple[int, int]:
        """Completion counts of the two inputs (grid rows, grid columns)."""
        return (self.grid.shape[0], self.grid.shape[1])

    def value(self, attitude: Attitude) -> float:
        return {
            Attitude.OPTIMISTIC: self.optim,
            Attitude.PESSIMISTIC: self.pessim,
            Attitude.AVERAGE: self.aver,
            Attitude.HURWICZ: self.hurwicz,
        }[attitude]


def bfm_grid(
    ppo1: WeakOrder,
    ppo2: WeakOrder,
    convention: PsmConvention = PsmConvention.SIGNED,
    *,
    cap: int | None = None,
) -> NDArray[np.float64]:
    """Normalized distances between every completion of ppo1 and of ppo2.

    Rows follow the deterministic enumeration order of ppo1's completions,
    columns that of ppo2's.
    """
    n = common_size(ppo1.universe_size, ppo2.universe_size)
    maximum = max_psm_distance(n, convention)
    psms1 = [build_psm(t, convention) for t in compatible_tpos(ppo1, cap=cap).ctpos]
    psms2 = [build_psm(t, convention) for t in compatible_tpos(ppo2, cap=cap).ctpos]
    grid = np.empty((len(psms1), len(psms2)))
    for i, m1 in enumerate(psms1):
        for j, m2 in enumerate(psms2):
            grid[i, j] = frobenius_distance(m1, m2) / maximum
    return grid


def bfm_distance(
    ppo1: WeakOrder,
    ppo2: WeakOrder,
    convention: PsmConvention = PsmConvention.SIGNED,
    *,
    alpha: float = 0.5,
    cap: int | None = None,
) -> BfmReport:
    """Full brute-force report: the grid and all four attitude scalars."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    grid = bfm_grid(ppo1, ppo2, convention, cap=cap)
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
        convention=convention,
    )
