"""Command-line front end: distances, enumeration, and compatibility listings.

Exit codes: 0 success, 2 parse or validation failure (the diagnostic names
the offending field), 3 enumeration cap or bfm grid-cell limit exceeded.
The PREFDIST_CAP environment variable overrides the default cap; an explicit
--cap flag wins over both.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any, Iterator

import numpy as np
from numpy.typing import NDArray

from .belief import (
    _METRIC_METHOD_NAME,
    direct_distance,
    direct_distance_general,
    indirect_distance,
    load_bba_matrix,
)
from .bfm import Attitude, _row_blocks, bfm_distance
from .enumeration import DEFAULT_ENUMERATION_CAP, _completion_rows
from .errors import (
    CapExceededError,
    DegenerateUniverseError,
    DimensionMismatchError,
    PrefdistError,
)
from .model import (
    ObjectUniverse,
    WeakOrder,
    parse_preference,
    render_preference,
    render_ranks,
)
from .psm import PsmConvention, max_psm_distance

EXIT_USAGE = 2
EXIT_CAP = 3

_METRICS = {name: metric for metric, name in _METRIC_METHOD_NAME.items()}

# What follows a grid cell, a grid row and the last row, after "[[" or "grid:\n  "
_JSON_SEPS = (", ", "], [", "]]")
_TABLE_SEPS = ("  ", "\n  ", "\n")


class _UsageError(PrefdistError):
    """Validation failure attributable to one CLI field."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")


def _parse_objects(flag_value: str) -> ObjectUniverse:
    labels = tuple(label.strip() for label in flag_value.split(","))
    try:
        return ObjectUniverse(labels)
    except (PrefdistError, ValueError) as exc:
        raise _UsageError("--objects", str(exc)) from None


def _parse_pref(text: str, universe: ObjectUniverse, field: str) -> WeakOrder:
    try:
        return parse_preference(text, universe)
    except PrefdistError as exc:
        raise _UsageError(field, str(exc)) from None


def _effective_cap(flag: int | None) -> int:
    field, cap = "--cap", flag
    if flag is None:
        field, env = "PREFDIST_CAP", os.environ.get("PREFDIST_CAP")
        if env is None:
            return DEFAULT_ENUMERATION_CAP
        try:
            cap = int(env)
        except ValueError:
            raise _UsageError(field, f"not an integer: {env!r}") from None
    if cap < 1:
        raise _UsageError(field, f"must be at least 1, got {cap}")
    return cap


def _grid_text(
    squared: NDArray[np.unsignedinteger], counts: NDArray[np.intp], n: int, seps: tuple[str, ...]
) -> Iterator[str]:
    """The text of the grid of cells sqrt(k) / max_psm_distance(n), in blocks of
    whole rows, where ``squared`` holds the integers k and ``counts`` their
    histogram.  Cells are written as ``repr`` writes them (for a finite float,
    ``json.dumps`` writes the same text), each followed by ``seps[0]``, or
    ``seps[1]`` at the end of a row, or ``seps[2]`` at the end of the grid.

    Each k present is rendered once.  A grid of at most 2m^2 cells, m the
    number of distinct k, is joined row by row.  A larger one is read two
    adjacent cells at a time (an odd last column alone): a slot's key, in the
    smallest unsigned type that holds them all, gives its cells' codes 1..m
    (0: no second cell) and the separator after it.  A table keeps the text of
    each key met so far, so a block is one lookup and one join.
    """
    present = np.flatnonzero(counts)
    m = len(present)
    roots = np.sqrt(present.astype(np.float64)) / max_psm_distance(n)
    texts = [""] + [repr(v) for v in roots.tolist()]  # by code; code 0 is no cell
    rows, cols = squared.shape
    base = m + 1
    span = base * base  # keys followed by one separator
    codes = np.zeros(present[-1] + 1, dtype=np.min_scalar_type(3 * span - 1))
    codes[present] = np.arange(1, base)
    done = 0
    if squared.size <= 2 * m * m:
        cells = np.array(texts, dtype=object)
        for block in _row_blocks(squared):
            done += len(block)
            text = seps[1].join(map(seps[0].join, cells.take(codes.take(block)).tolist()))
            yield text + seps[1 if done < rows else 2]
        return
    tails = [""] + [seps[0] + text for text in texts[1:]]  # a second cell, or none
    table = np.empty(3 * span, dtype=object)
    rendered = np.zeros(3 * span, dtype=bool)
    for block in _row_blocks(squared):
        keys = codes.take(block)  # take copies the block's index to intp: fast and small
        keys, second = keys[:, ::2] * base, keys[:, 1::2]
        keys[:, : cols // 2] += second
        keys[:, -1] += span
        done += len(block)
        if done == rows:
            keys[-1, -1] += span
        keys = keys.ravel()
        new = np.flatnonzero((np.bincount(keys, minlength=3 * span) > 0) & ~rendered)
        rendered[new] = True
        after, key = np.divmod(new, span)
        first, second = np.divmod(key, base)
        table[new] = [
            texts[i] + tails[j] + seps[k]
            for i, j, k in zip(first.tolist(), second.tolist(), after.tolist())
        ]
        yield "".join(table.take(keys).tolist())


def _emit(payload: dict[str, Any], fmt: str, counts: NDArray[np.intp] | None = None) -> None:
    """Print ``payload`` as one JSON object or as a table, writing a grid in
    blocks of rows; ``counts`` is the histogram of the grid's k, when it has one."""
    write = sys.stdout.write
    if fmt == "json":
        if "grid" not in payload:
            print(json.dumps(payload))
            return
        keys = list(payload)  # a bfm reply has keys before and after its grid
        at = keys.index("grid")
        write(json.dumps({key: payload[key] for key in keys[:at]})[:-1] + ', "grid": [[')
        for text in _grid_text(payload["grid"], counts, len(payload["objects"]), _JSON_SEPS):
            write(text)
        write(", " + json.dumps({key: payload[key] for key in keys[at + 1 :]})[1:] + "\n")
        return
    for key, value in payload.items():
        if key == "grid":
            write("grid:\n  ")
            for text in _grid_text(value, counts, len(payload["objects"]), _TABLE_SEPS):
                write(text)
        elif isinstance(value, float):
            print(f"{key}: {value!r}")
        elif isinstance(value, list):
            print(f"{key}: " + ", ".join(str(v) for v in value))
        else:
            print(f"{key}: {value}")


def _cmd_dist(args: argparse.Namespace) -> int:
    universe = _parse_objects(args.objects)
    pref1 = _parse_pref(args.pref1, universe, "--pref1")
    pref2 = _parse_pref(args.pref2, universe, "--pref2")
    if args.method != "bfm":
        for field, value in (("--conv", args.conv), ("--attitude", args.attitude),
                             ("--alpha", args.alpha)):
            if value is not None:
                raise _UsageError(field, "only valid with --method bfm")
    alpha = 0.5 if args.alpha is None else args.alpha
    if not 0.0 <= alpha <= 1.0:
        raise _UsageError("--alpha", f"must lie in [0, 1], got {alpha}")

    payload: dict[str, Any] = {
        "method": args.method,
        "objects": list(universe.labels),
        "pref1": render_preference(pref1, universe),
        "pref2": render_preference(pref2, universe),
    }
    try:
        if args.method == "bfm":
            report = bfm_distance(pref1, pref2, alpha=alpha, cap=_effective_cap(args.cap))
        elif args.method == "direct":
            report = direct_distance(pref1, pref2)
        else:
            report = indirect_distance(pref1, pref2, _METRICS[args.method])
    except DegenerateUniverseError as exc:
        raise _UsageError("--objects", str(exc)) from None
    if args.method == "bfm":
        attitude = args.attitude or "all"
        headline = (
            report.aver if attitude == "all" else report.value(Attitude(attitude))
        )
        maximum = max_psm_distance(len(universe), PsmConvention(args.conv or "signed"))
        payload.update(
            raw=headline * maximum,
            max=maximum,
            normalized=headline,
            grid=report.squared,
            optim=report.optim,
            pessim=report.pessim,
            aver=report.aver,
            hurwicz=report.hurwicz,
            alpha=report.alpha,
            n_ctpo=list(report.n_ctpo),
        )
        _emit(payload, args.format, report.counts)
    else:
        payload.update(raw=report.raw, max=report.max, normalized=report.normalized)
        _emit(payload, args.format)
    return 0


def _cmd_dist_general(args: argparse.Namespace) -> int:
    matrices = []
    for field, path in (("bba1", args.bba1), ("bba2", args.bba2)):
        try:
            matrices.append(load_bba_matrix(path))
        except (PrefdistError, OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise _UsageError(field, str(exc)) from None
    try:
        report = direct_distance_general(matrices[0], matrices[1])
    except DimensionMismatchError as exc:  # the second grid disagrees with the first
        raise _UsageError("bba2", str(exc)) from None
    except DegenerateUniverseError as exc:
        raise _UsageError("bba1", str(exc)) from None
    payload = {
        "method": report.method,
        "n": matrices[0].n,
        "raw": report.raw,
        "max": report.max,
        "normalized": report.normalized,
    }
    _emit(payload, args.format)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.objects is not None:
        universe = _parse_objects(args.objects)
        if args.n is not None and args.n != len(universe):
            raise _UsageError("--n", f"disagrees with the {len(universe)} labels in --objects")
    elif args.n is not None:
        if args.n < 1:
            raise _UsageError("--n", "must be at least 1")
        universe = ObjectUniverse.numbered(args.n)
    else:
        raise _UsageError("--n", "required unless --objects is given")
    ranks = _completion_rows((-1,) * len(universe), _effective_cap(args.cap))
    _print_orders(ranks, universe)
    print(f"count: {len(ranks)}")
    return 0


def _cmd_compatible(args: argparse.Namespace) -> int:
    universe = _parse_objects(args.objects)
    ppo = _parse_pref(args.pref, universe, "--pref")
    _print_orders(_completion_rows(ppo.rank_tuple, _effective_cap(args.cap)), universe)
    return 0


def _print_orders(ranks: NDArray[np.integer], universe: ObjectUniverse) -> None:
    """Print the order of each row of ``ranks``, converting 4096 rows at a time."""
    for start in range(0, len(ranks), 4096):
        rows = ranks[start : start + 4096].tolist()
        sys.stdout.write("".join(render_ranks(row, universe.labels) + "\n" for row in rows))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefdist",
        description="Normalized distances between total and partial preference orderings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dist = sub.add_parser(
        "dist", help="distance between two preference orderings over one universe"
    )
    dist.add_argument("--objects", required=True, help="comma-separated object labels")
    dist.add_argument("--pref1", required=True, help='e.g. "C > A" or "B > (A = C)"')
    dist.add_argument("--pref2", required=True)
    dist.add_argument(
        "--method",
        choices=["bfm", "direct", *_METRICS],
        default="direct",
        help="bfm = exhaustive completion pairs; direct = mass-grid distance; "
        "indirect-* = score-alike matrices (default: direct)",
    )
    dist.add_argument(
        "--conv",
        choices=[c.value for c in PsmConvention],
        default=None,
        help="bfm only: score-matrix convention for raw and max (default signed; "
        "the normalized value is identical)",
    )
    dist.add_argument(
        "--attitude",
        choices=["all", "optim", "pessim", "aver", "hurwicz"],
        default=None,
        help="bfm only: which scalar to headline (default all, headlining aver)",
    )
    dist.add_argument("--alpha", type=float, default=None, help="Hurwicz weight on the minimum")
    dist.add_argument("--cap", type=int, default=None, help="enumeration cap override")
    dist.add_argument("--format", choices=["json", "table"], default="json")
    dist.set_defaults(handler=_cmd_dist)

    general = sub.add_parser(
        "dist-general", help="direct distance between two BBA-matrix JSON files"
    )
    general.add_argument("bba1", help="path to the first matrix")
    general.add_argument("bba2", help="path to the second matrix")
    general.add_argument("--format", choices=["json", "table"], default="json")
    general.set_defaults(handler=_cmd_dist_general)

    enum_cmd = sub.add_parser("enumerate", help="list every weak order of n objects")
    enum_cmd.add_argument("--n", type=int, default=None, help="number of objects")
    enum_cmd.add_argument("--objects", default=None, help="labels to render with")
    enum_cmd.add_argument("--cap", type=int, default=None)
    enum_cmd.set_defaults(handler=_cmd_enumerate)

    compat = sub.add_parser(
        "compatible", help="list the total orders compatible with a partial one"
    )
    compat.add_argument("--objects", required=True)
    compat.add_argument("--pref", required=True)
    compat.add_argument("--cap", type=int, default=None)
    compat.set_defaults(handler=_cmd_compatible)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (PrefdistError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
