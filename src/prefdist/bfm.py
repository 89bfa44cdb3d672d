"""Brute-force distance between two partial orders via their compatible completions.

Every completion pair contributes one normalized classical distance; a
decision attitude then collapses the grid to a single number: the minimum
(optimistic), maximum (pessimistic), arithmetic mean (average), or a
weighted min/max blend (Hurwicz, with alpha weighting the optimistic side so
alpha = 0.5 is the midpoint attitude).

A ``BfmReport`` keeps the grid as the integers k, the squared unnormalized
distances, beside their histogram and the signed maximum; the scalars and
the grid's text (``grid_text``) are both read from it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np
from numpy.typing import NDArray

from .enumeration import _completion_count, compatible_tpos
from .errors import CapExceededError
from .model import WeakOrder, common_size
from .psm import max_psm_distance

#: Most cells a grid may have: every pair of weak orders of 6 objects.
GRID_CELL_LIMIT = 4683**2

# Cells per block in which the histogram and the grid writer (in whole rows)
# read a grid, so neither holds a grid-sized temporary array
_BLOCK_CELLS = 16384

# Most cells in one block of rows of the floating-point Gram product; each block
# is cast into the integer grid, so no grid-sized float array is held
_GRAM_BLOCK_CELLS = 2**20


@dataclass(frozen=True, eq=False)
class BfmReport:
    """Squared completion-pair distances, their histogram, and all four attitude scalars."""

    squared: NDArray[np.unsignedinteger]
    counts: NDArray[np.intp]  # counts[k]: cells holding k, for k up to the greatest
    maximum: float
    optim: float
    pessim: float
    aver: float
    hurwicz: float
    alpha: float

    @property
    def grid(self) -> NDArray[np.float64]:
        """The normalized grid, sqrt(squared) / maximum, built on each read."""
        grid = np.sqrt(self.squared, dtype=np.float64)  # a bare sqrt of uint8 is float16
        return np.divide(grid, self.maximum, out=grid)

    @property
    def n_ctpo(self) -> tuple[int, int]:
        """Completion counts of the two inputs (grid rows, grid columns)."""
        return (self.squared.shape[0], self.squared.shape[1])


@functools.cache
def _upper(n: int) -> tuple[NDArray[np.intp], NDArray[np.intp]]:
    return np.triu_indices(n, 1)


def _squared_grid(
    ppo1: WeakOrder, ppo2: WeakOrder, cap: int | None
) -> tuple[NDArray[np.unsignedinteger], float]:
    """Squared unnormalized distances k between every completion pair, and the maximum.

    Raises CapExceededError, before generating any completion, when the grid
    would have more than GRID_CELL_LIMIT cells.
    """
    n = common_size(ppo1.universe_size, ppo2.universe_size)
    rows, cols = _completion_count(ppo1, cap=cap), _completion_count(ppo2, cap=cap)
    if rows * cols > GRID_CELL_LIMIT:
        raise CapExceededError(
            f"a {rows} x {cols} completion grid exceeds the limit "
            f"of {GRID_CELL_LIMIT} cells"
        )
    # A signed score matrix is antisymmetric, so k is twice the squared
    # distance over its upper triangle, |u|^2 + |v|^2 - 2 u.v.  Entries are
    # -1, 0 or 1 and k <= 4n(n - 1), so below 2^24 every float32 partial sum
    # is an exact integer.
    top = 4 * n * (n - 1)
    dtype = np.float32 if top < 2**24 else np.float64
    i, j = _upper(n)
    u, v = (
        np.sign(ranks[:, j] - ranks[:, i]).astype(dtype)
        for ranks in (compatible_tpos(ppo1, cap=cap), compatible_tpos(ppo2, cap=cap))
    )
    u_norms = 2 * np.einsum("ij,ij->i", u, u)[:, None]
    v_norms = 2 * np.einsum("ij,ij->i", v, v)
    v *= -4  # in place: v is astype's own copy, and a scaled copy could be the larger operand
    grid = np.empty((rows, cols), dtype=np.min_scalar_type(top))
    step = max(1, _GRAM_BLOCK_CELLS // cols)
    for start in range(0, rows, step):
        block = u[start : start + step] @ v.T
        block += u_norms[start : start + step]
        block += v_norms
        grid[start : start + step] = block
    return grid, max_psm_distance(n)


def bfm_distance(
    ppo1: WeakOrder,
    ppo2: WeakOrder,
    *,
    alpha: float = 0.5,
    cap: int | None = None,
) -> BfmReport:
    """Full brute-force report: the squared grid and all four attitude scalars.

    Each scalar comes from the histogram of squared distances: optim and
    pessim from its least and greatest k, aver as sum(c_k sqrt(k)) / (P Q max).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    squared, maximum = _squared_grid(ppo1, ppo2, cap)
    # bincount copies its input to intp, so it counts one block of cells at a time
    cells = squared.reshape(-1)
    counts = np.bincount(cells[:_BLOCK_CELLS])
    for start in range(_BLOCK_CELLS, len(cells), _BLOCK_CELLS):
        block = np.bincount(cells[start : start + _BLOCK_CELLS], minlength=len(counts))
        block[: len(counts)] += counts
        counts = block
    present = np.flatnonzero(counts)
    roots = np.sqrt(present.astype(np.float64))
    optim = float(roots[0] / maximum)
    pessim = float(roots[-1] / maximum)
    return BfmReport(
        squared=squared,
        counts=counts,
        maximum=maximum,
        optim=optim,
        pessim=pessim,
        aver=float(counts[present] @ roots) / (squared.size * maximum),
        hurwicz=alpha * optim + (1.0 - alpha) * pessim,
        alpha=alpha,
    )


def _cell_codes(
    maximum: float, present: NDArray[np.intp]
) -> tuple[list[str], NDArray[np.unsignedinteger]]:
    """The text of each k in ``present`` (code 0: no cell), and the code of
    each k, 1..m, in the smallest unsigned type that holds every pair key."""
    roots = np.sqrt(present.astype(np.float64)) / maximum
    texts = [""] + [repr(v) for v in roots.tolist()]
    base = len(texts)
    codes = np.zeros(present[-1] + 1, dtype=np.min_scalar_type(3 * base * base - 1))
    codes[present] = np.arange(1, base)
    return texts, codes


@functools.lru_cache(maxsize=16)
def _pair_table(
    maximum: float, seps: tuple[str, str, str], present: tuple[int, ...]
) -> tuple[list[str], list[str], NDArray[np.unsignedinteger], NDArray[Any], NDArray[np.bool_]]:
    """The pair writer's state for one (maximum, separators, present k): cell
    texts, second-cell tails, codes, and the table of 3(m+1)^2 pair-key texts
    with its mask of keys rendered so far.  Replies sharing a key fill one
    table; the cache keeps at most 16, each the size one reply needs."""
    texts, codes = _cell_codes(maximum, np.array(present, dtype=np.intp))
    tails = [""] + [seps[0] + text for text in texts[1:]]  # a second cell, or none
    size = 3 * len(texts) ** 2
    return texts, tails, codes, np.empty(size, dtype=object), np.zeros(size, dtype=bool)


def grid_text(report: BfmReport, seps: tuple[str, str, str]) -> Iterator[str]:
    """The text of the normalized grid of ``report``, in blocks of whole rows:
    as many rows as fit in _BLOCK_CELLS cells, and at least one.  Cells are
    written as ``repr`` writes them (for a finite float, ``json.dumps`` writes
    the same text), each followed by ``seps[0]``, or ``seps[1]`` at the end of
    a row, or ``seps[2]`` at the end of the grid.

    Each k present in the report's histogram is rendered once, as
    sqrt(k) / maximum.  A grid of at most 2m^2 cells, m the number of distinct
    k, is joined row by row.  A larger one is read two adjacent cells at a
    time (an odd last column alone): a slot's key, in the smallest unsigned
    type that holds them all, gives its cells' codes 1..m (0: no second cell)
    and the separator after it.  A table, kept across replies by
    :func:`_pair_table`, holds the text of each key met so far, so a block is
    one lookup and one join.
    """
    squared = report.squared
    present = np.flatnonzero(report.counts)
    m = len(present)
    rows, cols = squared.shape
    step = max(1, _BLOCK_CELLS // cols)
    if squared.size <= 2 * m * m:
        texts, codes = _cell_codes(report.maximum, present)
        cells = np.array(texts, dtype=object)
        for start in range(0, rows, step):
            block = cells.take(codes.take(squared[start : start + step])).tolist()
            yield seps[1].join(map(seps[0].join, block)) + seps[2 if start + step >= rows else 1]
        return
    texts, tails, codes, table, rendered = _pair_table(
        report.maximum, seps, tuple(present.tolist())
    )
    base = m + 1
    span = base * base  # keys followed by one separator
    for start in range(0, rows, step):
        # take copies the block's index to intp: fast and small
        keys = codes.take(squared[start : start + step])
        keys, second = keys[:, ::2] * base, keys[:, 1::2]
        keys[:, : cols // 2] += second
        keys[:, -1] += span
        if start + step >= rows:
            keys[-1, -1] += span
        keys = keys.ravel()
        if not rendered.take(keys).all():
            new = np.flatnonzero((np.bincount(keys, minlength=3 * span) > 0) & ~rendered)
            after, key = np.divmod(new, span)
            first, second = np.divmod(key, base)
            table[new] = [
                texts[i] + tails[j] + seps[k]
                for i, j, k in zip(first.tolist(), second.tolist(), after.tolist())
            ]
            rendered[new] = True  # after the texts: no reply, cut short or in a thread, reads None
        yield "".join(table.take(keys).tolist())
