"""Seeded inputs for the benchmark workloads.

``generate(workload, seed)`` returns a list of blocks; a block is a list of
ops and every block of a workload has the same composition (the same
methods, the same size strata, the same completion-count classes, the same
malformed files at the same sizes), drawn afresh from the seed, with sizes
spread over their range by ``_sizes`` (``general_masses`` takes every size
of its range once).  The runner executes whole blocks only, so every run
measures the same mix of work and the latency percentiles do not move with
how far a run got through a block.

An op is a plain JSON-able dict:

* ``{"argv": [...], "ranks": [r1, r2]}`` for ``prefdist dist``, where each
  rank vector gives the class position of every object (0 = most preferred,
  -1 = unmentioned);
* ``{"argv": [...], "n": N, "files": [text1, text2], "malformed": kind or None}``
  for ``prefdist dist-general``; ``argv`` names the two files as ``{0}`` and
  ``{1}``, which the runner replaces by the paths it writes the texts to.

The same seed gives a byte-identical op list (see ``dumps``).
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("belief_orders", "bfm_dense", "bfm_sparse", "general_masses")

BELIEF_METHODS = ("direct", "indirect-j", "indirect-bi")
BELIEF_STRATA = 12  # size strata per method in one block
BELIEF_N = (8, 64)
BELIEF_MENTION_P = 0.8
TIE_P = 0.3  # chance that the next mentioned object joins the current tie class

DENSE_N = 6
DENSE_MENTIONED = (4, 5, 6)
SPARSE_N = 5
SPARSE_CLASSES = ("single", "strict_pair", "tied_pair")

GENERAL_N = (16, 64)  # a block holds one op of every size in this range
# Sizes of the ops with one malformed file; evenly spread, so the ops that
# exit early sit at the same latency ranks whatever the seed.
MALFORMED_SIZES = (20, 30, 40, 50, 60)
# Each kind breaks one cell of one file; every kind must make the program exit 2.
# A NaN mass is not among them: the program accepts it (see ``run.nan_mass_probe``).
MALFORMED_KINDS = ("unnormalized", "unknown_key", "negative_mass")
FOCAL_KEYS = ("1", "2", "3", "1|2", "1|3", "2|3", "1|2|3")

# Distinct blocks per op list; a run that gets through them all starts over.
BLOCKS = {"belief_orders": 8, "bfm_dense": 16, "bfm_sparse": 8, "general_masses": 1}
_GOLDEN = (5 ** 0.5 - 1) / 2  # fractional part of the golden ratio


def labels(n: int) -> list[str]:
    return [f"o{i}" for i in range(n)]


def render(ranks: list[int], names: list[str]) -> str:
    """Canonical text of a rank vector: classes in rank order, members by index."""
    classes: dict[int, list[str]] = {}
    for idx, rank in enumerate(ranks):
        if rank >= 0:
            classes.setdefault(rank, []).append(names[idx])
    parts = []
    for rank in sorted(classes):
        members = classes[rank]
        parts.append(members[0] if len(members) == 1 else "(" + " = ".join(members) + ")")
    return " > ".join(parts)


def _order(rng: random.Random, n: int, mentioned: list[int], tie_p: float) -> list[int]:
    """Rank vector over ``mentioned`` in random order with random ties."""
    members = list(mentioned)
    rng.shuffle(members)
    ranks = [-1] * n
    rank = 0
    for pos, idx in enumerate(members):
        if pos > 0 and rng.random() >= tie_p:
            rank += 1
        ranks[idx] = rank
    return ranks


def _dist_op(method: str, n: int, r1: list[int], r2: list[int]) -> dict:
    names = labels(n)
    argv = ["dist", "--method", method, "--objects", ",".join(names),
            "--pref1", render(r1, names), "--pref2", render(r2, names)]
    return {"argv": argv, "ranks": [r1, r2]}


def _belief_order(rng: random.Random, n: int) -> list[int]:
    mentioned = [i for i in range(n) if rng.random() < BELIEF_MENTION_P]
    while len(mentioned) < 2:
        mentioned = [i for i in range(n) if rng.random() < BELIEF_MENTION_P]
    return _order(rng, n, mentioned, TIE_P)


def _sizes(lo: int, hi: int, strata: int, base: float, block: int) -> list[int]:
    """One size in each of ``strata`` equal strata of ``lo..hi``.

    The position inside stratum k of block b is ``base + k*g + b*g^2`` (mod
    1, g = 0.618...), a low-discrepancy sequence: positions differ
    between strata, and any run of consecutive blocks fills every stratum
    evenly, so the summed and the median cost of a run vary little by seed.
    """
    return [
        lo + int((k + (base + k * _GOLDEN + block * _GOLDEN**2) % 1.0) * (hi - lo + 1) / strata)
        for k in range(strata)
    ]


def _belief_block(rng: random.Random, bases: list[float], block: int) -> list[dict]:
    lo, hi = BELIEF_N
    ops = []
    for method, base in zip(BELIEF_METHODS, bases):
        for n in _sizes(lo, hi, BELIEF_STRATA, base, block):
            ops.append(_dist_op(method, n, _belief_order(rng, n), _belief_order(rng, n)))
    rng.shuffle(ops)
    return ops


def _dense_block(rng: random.Random, _bases: list[float], _block: int) -> list[dict]:
    ops = []
    for m1 in DENSE_MENTIONED:
        for m2 in DENSE_MENTIONED:
            r1 = _order(rng, DENSE_N, rng.sample(range(DENSE_N), m1), TIE_P)
            r2 = _order(rng, DENSE_N, rng.sample(range(DENSE_N), m2), TIE_P)
            ops.append(_dist_op("bfm", DENSE_N, r1, r2))
    rng.shuffle(ops)
    return ops


def _sparse_order(rng: random.Random, kind: str) -> list[int]:
    if kind == "single":
        return _order(rng, SPARSE_N, rng.sample(range(SPARSE_N), 1), 0.0)
    return _order(rng, SPARSE_N, rng.sample(range(SPARSE_N), 2),
                  1.0 if kind == "tied_pair" else 0.0)


def _sparse_block(rng: random.Random, _bases: list[float], _block: int) -> list[dict]:
    # Every ordered pair of classes, with (single, single) and (strict_pair,
    # strict_pair) twice: the median and the p90 latency then fall inside a
    # class of grid sizes, not on the gap between two.
    pairs = [(k1, k2) for k1 in SPARSE_CLASSES for k2 in SPARSE_CLASSES]
    pairs += [("single", "single"), ("strict_pair", "strict_pair")]
    ops = [_dist_op("bfm", SPARSE_N, _sparse_order(rng, k1), _sparse_order(rng, k2))
           for k1, k2 in pairs]
    rng.shuffle(ops)
    return ops


def _mass_cell(rng: random.Random) -> dict[str, float]:
    """Sparse Dirichlet draw: one to three focal sets with Dirichlet(1) masses."""
    keys = rng.sample(FOCAL_KEYS, rng.choice((1, 2, 3)))
    weights = [rng.gammavariate(1.0, 1.0) for _ in keys]
    total = sum(weights)
    return {key: w / total for key, w in zip(keys, weights)}


def _mass_grid(rng: random.Random, n: int) -> list[list[dict[str, float]]]:
    return [[{"2": 1.0} if i == j else _mass_cell(rng) for j in range(n)] for i in range(n)]


def _break(cells: list[list[dict]], kind: str) -> None:
    """Break the last off-diagonal cell, so that rejecting the file means reading it all."""
    n = len(cells)
    cell = cells[n - 1][n - 2]
    key = next(iter(cell))
    if kind == "unnormalized":
        cell[key] += 0.25
    elif kind == "unknown_key":
        cell["1|4"] = cell.pop(key)
    else:  # negative_mass: the cell still sums to 1
        cell[next(k for k in FOCAL_KEYS if k not in cell)] = -0.25
        cell[key] += 0.25


def _general_block(rng: random.Random, _bases: list[float], _block: int) -> list[dict]:
    lo, hi = GENERAL_N
    kinds = [MALFORMED_KINDS[t % len(MALFORMED_KINDS)] for t in range(len(MALFORMED_SIZES))]
    broken = dict(zip(MALFORMED_SIZES, rng.sample(kinds, len(kinds))))
    ops = []
    for n in range(lo, hi + 1):
        grids = [_mass_grid(rng, n), _mass_grid(rng, n)]
        kind = broken.get(n)
        if kind is not None:
            _break(grids[1], kind)
        files = [json.dumps({"n": n, "cells": grid}) for grid in grids]
        ops.append({"argv": ["dist-general", "{0}", "{1}"], "n": n, "files": files,
                    "malformed": kind})
    rng.shuffle(ops)
    return ops


_BLOCK_MAKERS = {
    "belief_orders": _belief_block,
    "bfm_dense": _dense_block,
    "bfm_sparse": _sparse_block,
    "general_masses": _general_block,
}


def generate(workload: str, seed: int) -> list[list[dict]]:
    """Blocks of ops for ``workload``, a pure function of ``(workload, seed)``."""
    rng = random.Random(f"{workload}:{seed}")
    bases_rng = random.Random(f"{workload}:{seed}:sizes")
    bases = [bases_rng.random() for _ in BELIEF_METHODS]  # one per method
    build = _BLOCK_MAKERS[workload]
    return [build(rng, bases, block) for block in range(BLOCKS[workload])]


def dumps(blocks: list[list[dict]]) -> bytes:
    """Canonical bytes of an op list, for checking that generation is repeatable."""
    return json.dumps(blocks, sort_keys=True, separators=(",", ":")).encode()


def describe(blocks: list[list[dict]]) -> dict:
    """Measured input properties: mentioned share, tie share, size range, malformed share.

    ``mentioned_share`` is mentioned objects over universe objects, and
    ``tie_share`` is the share of rank-adjacent mentioned objects that are
    tied, both over every order of every op.
    """
    ops = [op for block in blocks for op in block]
    summary: dict = {"ops": len(ops), "ops_per_block": len(blocks[0])}
    if "ranks" in ops[0]:
        orders = [r for op in ops for r in op["ranks"]]
        mentioned = sum(sum(1 for x in r if x >= 0) for r in orders)
        classes = sum(max(r) + 1 for r in orders)
        summary.update(
            n_range=[min(len(r) for r in orders), max(len(r) for r in orders)],
            mentioned_share=mentioned / sum(len(r) for r in orders),
            tie_share=(mentioned - classes) / (mentioned - len(orders)),
        )
    else:
        sizes = [op["n"] for op in ops]
        kinds = [op["malformed"] for op in ops]
        summary.update(
            n_range=[min(sizes), max(sizes)],
            malformed_file_share=sum(k is not None for k in kinds) / (2 * len(ops)),
        )
    return summary
