"""Reference results for benchmark ops, computed without importing prefdist.

Each order-based method reduces to a closed form over rank vectors:

* ``direct``: every cell of the belief grid is one-hot, so two differing
  cells add exactly 2 to the squared norm and
  ``normalized = sqrt(#differing relation codes / (N(N-1)))``;
* ``indirect-*``: a cell's score depends only on its relation, so each
  metric is a lookup of four scalars, computed here from the metric
  definitions;
* ``bfm``: completions come from a numpy enumeration of canonical rank
  vectors (n <= 6 here), and the grid from a Gram product of sign matrices;
* ``dist-general``: the norm of the (N, N, 8) mass difference over
  ``sqrt(2N(N-1))``, after validating each file by the documented format.

``expect(op)`` returns ``{"exit": 0, "payload": {...}}`` for a valid op and
``{"exit": 2}`` for a malformed input.  A bfm payload's ``grid`` entry is
replaced by the two completion arrays; ``grid(...)`` expands them when an
output is checked.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np

SUCC, EQUIV, PREC, UNKNOWN = 0, 1, 2, 3
_CODE_MASK = (0b001, 0b010, 0b100, 0b111)  # focal-set bitmask of each relation code
_MASS_TOLERANCE = 1e-9
_FOCAL_MASK = {"1": 1, "2": 2, "3": 4, "1|2": 3, "1|3": 5, "2|3": 6, "1|2|3": 7}


def relation_codes(ranks: list[int]) -> np.ndarray:
    """(N, N) codes: SUCC where the row object ranks better, UNKNOWN off the
    diagonal when either object is unmentioned, EQUIV on the diagonal."""
    r = np.asarray(ranks)
    codes = np.where(r[:, None] < r[None, :], SUCC,
                     np.where(r[:, None] == r[None, :], EQUIV, PREC))
    unknown = (r[:, None] < 0) | (r[None, :] < 0)
    codes[unknown] = UNKNOWN
    np.fill_diagonal(codes, EQUIV)
    return codes


def _one_hot(mask: int) -> np.ndarray:
    m = np.zeros(8)
    m[mask] = 1.0
    return m


def _jousselme(m1: np.ndarray, m2: np.ndarray) -> float:
    kernel = np.array([[bin(a & b).count("1") / bin(a | b).count("1") if a | b else 1.0
                        for b in range(8)] for a in range(8)])
    d = m1 - m2
    return math.sqrt(max(0.5 * float(d @ kernel @ d), 0.0))


def _interval(m1: np.ndarray, m2: np.ndarray) -> float:
    total = 0.0
    for subset in range(1, 8):
        bel1, bel2 = (sum(m[y] for y in range(1, 8) if y & subset == y) for m in (m1, m2))
        pl1, pl2 = (sum(m[y] for y in range(1, 8) if y & subset) for m in (m1, m2))
        mid = ((bel1 + pl1) - (bel2 + pl2)) / 2.0
        half = ((pl1 - bel1) - (pl2 - bel2)) / 2.0
        total += mid * mid + half * half / 3.0
    return math.sqrt(0.25 * total)


@functools.cache
def indirect_scores(metric: str) -> np.ndarray:
    """Score of each relation code: its metric distance to certain row preference."""
    distance = _jousselme if metric == "indirect-j" else _interval
    reference = _one_hot(_CODE_MASK[SUCC])
    return np.array([distance(_one_hot(mask), reference) for mask in _CODE_MASK])


@functools.cache
def weak_orders(n: int) -> np.ndarray:
    """Every canonical rank vector of length n, in lexicographic order."""
    vectors = np.array(list(itertools.product(range(n), repeat=n)), dtype=np.int8)
    top = vectors.max(axis=1)
    canonical = np.all([(vectors == v).any(axis=1) | (v > top) for v in range(n)], axis=0)
    return vectors[canonical]


def completions(ranks: list[int]) -> np.ndarray:
    """Total rank vectors whose restriction to the mentioned objects is ``ranks``."""
    r = np.asarray(ranks)
    mentioned = np.flatnonzero(r >= 0)
    candidates = weak_orders(len(r))
    sub = candidates[:, mentioned].astype(np.int64)
    want = np.sign(r[mentioned][:, None] - r[mentioned][None, :])
    got = np.sign(sub[:, :, None] - sub[:, None, :])
    return candidates[np.all(got == want, axis=(1, 2))]


def grid(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Normalized signed-score distance between every completion pair."""
    n = c1.shape[1]

    def flat_signs(orders: np.ndarray) -> np.ndarray:
        o = orders.astype(np.float64)
        return np.sign(o[:, None, :] - o[:, :, None]).reshape(len(o), n * n)

    a, b = flat_signs(c1), flat_signs(c2)
    squared = (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * (a @ b.T)
    return np.sqrt(np.maximum(squared, 0.0)) / math.sqrt(4.0 * n * (n - 1))


def _dist_expect(op: dict) -> dict:
    argv = op["argv"]
    method = argv[argv.index("--method") + 1]
    r1, r2 = op["ranks"]
    n = len(r1)
    payload = {
        "method": method,
        "objects": argv[argv.index("--objects") + 1].split(","),
        "pref1": argv[argv.index("--pref1") + 1],
        "pref2": argv[argv.index("--pref2") + 1],
    }
    pairs = n * (n - 1)
    if method == "bfm":
        c1, c2 = completions(r1), completions(r2)
        g = grid(c1, c2)
        maximum = math.sqrt(4.0 * pairs)
        aver = float(g.mean())
        optim, pessim = float(g.min()), float(g.max())
        payload.update(raw=aver * maximum, max=maximum, normalized=aver,
                       grid=(c1, c2), optim=optim, pessim=pessim, aver=aver,
                       hurwicz=0.5 * optim + 0.5 * pessim, alpha=0.5,
                       n_ctpo=[len(c1), len(c2)])
    elif method == "direct":
        differing = int(np.count_nonzero(relation_codes(r1) != relation_codes(r2)))
        payload.update(raw=math.sqrt(2.0 * differing), max=math.sqrt(2.0 * pairs),
                       normalized=math.sqrt(differing / pairs))
    else:
        scores = indirect_scores(method)
        diff = scores[relation_codes(r1)] - scores[relation_codes(r2)]
        raw = float(np.linalg.norm(diff))
        maximum = math.sqrt(pairs) * float(scores[PREC] - scores[SUCC])
        payload.update(raw=raw, max=maximum, normalized=raw / maximum)
    return {"exit": 0, "payload": payload}


def mass_array(text: str) -> np.ndarray | None:
    """(N, N, 8) masses of a BBA-matrix file, or None when the file is malformed.

    Malformed: not the documented shape, an unknown focal-set key, a mass
    that is not a finite non-negative number, or a cell whose masses do not
    sum to 1 within 1e-9.
    """
    document = json.loads(text)
    n = document.get("n") if isinstance(document, dict) else None
    cells = document.get("cells") if isinstance(document, dict) else None
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        return None
    if not isinstance(cells, list) or len(cells) != n:
        return None
    masses = np.zeros((n, n, 8))
    for i, row in enumerate(cells):
        if not isinstance(row, list) or len(row) != n:
            return None
        for j, cell in enumerate(row):
            if not isinstance(cell, dict):
                return None
            for key, mass in cell.items():
                if key not in _FOCAL_MASK or isinstance(mass, bool):
                    return None
                if not isinstance(mass, (int, float)) or not math.isfinite(mass) or mass < 0:
                    return None
                masses[i, j, _FOCAL_MASK[key]] = mass
            if abs(sum(masses[i, j]) - 1.0) > _MASS_TOLERANCE:
                return None
    return masses


def _general_expect(op: dict) -> dict:
    a, b = (mass_array(text) for text in op["files"])
    if a is None or b is None:
        return {"exit": 2}
    n = a.shape[0]
    raw = float(np.linalg.norm(a - b))
    maximum = math.sqrt(2.0 * n * (n - 1))
    return {"exit": 0,
            "payload": {"method": "direct", "n": n, "raw": raw, "max": maximum,
                        "normalized": raw / maximum}}


def expect(op: dict) -> dict:
    return _general_expect(op) if "files" in op else _dist_expect(op)
