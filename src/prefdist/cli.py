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
from typing import Any, Callable, Iterator

import numpy as np
from numpy.typing import NDArray

from .belief import (
    BbaMetric,
    direct_distance,
    direct_distance_general,
    indirect_distance,
    load_bba_matrix,
)
from .bfm import Attitude, bfm_distance
from .enumeration import DEFAULT_ENUMERATION_CAP, compatible_tpos, enumerate_weak_orders
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
)
from .psm import PsmConvention, max_psm_distance

EXIT_USAGE = 2
EXIT_CAP = 3

_METRICS = {
    "indirect-j": BbaMetric.JOUSSELME,
    "indirect-bi": BbaMetric.BELIEF_INTERVAL,
}


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


def _grid_rows(
    grid: NDArray[np.float64], n: int, text: Callable[[float], str], sep: str
) -> Iterator[str]:
    """Each grid row's cells as ``text`` renders them, joined by ``sep``.

    Every cell is sqrt(k) / max_psm_distance(n) for an integer k in
    [0, 4n(n - 1)], so k indexes a table that renders each value present once.
    """
    maximum = max_psm_distance(n)
    keys = np.rint(np.square(grid * maximum)).astype(np.intp)
    present = np.flatnonzero(np.bincount(keys.ravel()))
    texts = np.empty(present[-1] + 1, dtype=object)
    texts[present] = [text(v) for v in (np.sqrt(present.astype(np.float64)) / maximum).tolist()]
    return map(sep.join, texts[keys].tolist())


def _emit(payload: dict[str, Any], fmt: str) -> None:
    """Print ``payload`` as one JSON object or as a table, writing a grid row by row."""
    if fmt == "json":
        write = sys.stdout.write
        write("{")
        for k, (key, value) in enumerate(payload.items()):
            write((", " if k else "") + json.dumps(key) + ": ")
            if key == "grid":
                rows = _grid_rows(value, len(payload["objects"]), json.dumps, ", ")
                for i, row in enumerate(rows):
                    write((", [" if i else "[[") + row + "]")
                write("]")
            else:
                write(json.dumps(value))
        write("}\n")
        return
    for key, value in payload.items():
        if key == "grid":
            print("grid:")
            for row in _grid_rows(value, len(payload["objects"]), repr, "  "):
                print("  " + row)
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
        if args.attitude is not None:
            raise _UsageError("--attitude", "only valid with --method bfm")
        if args.alpha is not None:
            raise _UsageError("--alpha", "only valid with --method bfm")
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
        maximum = max_psm_distance(len(universe), PsmConvention(args.conv))
        payload.update(
            raw=headline * maximum,
            max=maximum,
            normalized=headline,
            grid=report.grid,
            optim=report.optim,
            pessim=report.pessim,
            aver=report.aver,
            hurwicz=report.hurwicz,
            alpha=report.alpha,
            n_ctpo=list(report.n_ctpo),
        )
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
    count = 0
    for order in enumerate_weak_orders(len(universe), cap=_effective_cap(args.cap)):
        print(render_preference(order, universe))
        count += 1
    print(f"count: {count}")
    return 0


def _cmd_compatible(args: argparse.Namespace) -> int:
    universe = _parse_objects(args.objects)
    ppo = _parse_pref(args.pref, universe, "--pref")
    for order in compatible_tpos(ppo, cap=_effective_cap(args.cap)).ctpos:
        print(render_preference(order, universe))
    return 0


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
        choices=["bfm", "direct", "indirect-j", "indirect-bi"],
        default="direct",
        help="bfm = exhaustive completion pairs; direct = mass-grid distance; "
        "indirect-* = score-alike matrices (default: direct)",
    )
    dist.add_argument(
        "--conv",
        choices=[c.value for c in PsmConvention],
        default="signed",
        help="score-matrix convention for bfm (the normalized value is identical)",
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
