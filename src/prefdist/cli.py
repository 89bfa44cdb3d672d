"""Command-line front end: distances, enumeration, and compatibility listings.

Exit codes: 0 success, 2 parse or validation failure (the diagnostic names
the offending field), 3 enumeration cap or bfm grid-cell limit exceeded, and
1 with nothing on stderr when the reader of stdout closes it before the reply
or the help text ends (as ``prefdist enumerate --n 7 | head -1`` does); the
rest is dropped.
The PREFDIST_CAP environment variable overrides the default cap; an explicit
--cap flag wins over both.

The grammar is one table, ``_COMMANDS``: each subcommand's help text, handler
and ``(name, add_argument keywords)`` rows.  A plain call, the subcommand then
only ``--flag value`` pairs, is read straight from its rows (``_plain_args``,
which indexes a subcommand's rows on its first plain call): each flag is
spelled in full, no value starts with ``-``, each value converts and passes
its choices, and every required argument is given.  Such a call
imports no argparse and builds no parser, which would cost more than parsing
both orders.  Any other call (help, ``--flag=value``, an abbreviation, a value
such as ``-A``, a stray word, a missing or bad value, ``dist-general``'s file
paths, a first word that is no subcommand) goes whole to the one argparse
parser that ``_build_parser`` builds from the same rows, which keeps its own
messages and exit codes.

``_emit`` writes every reply itself, as the text that ``json.dumps`` would
write, so only ``dist-general`` loads ``json``, through its mass-grid loader.

The handlers import ``bfm``, ``enumeration`` and the mass-grid loader when
they run: those need numpy, and a ``dist`` call with a belief method, which
needs none, then never loads it.
"""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any

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
from .psm import (
    _METRIC_METHOD_NAME,
    PsmConvention,
    direct_distance,
    indirect_distance,
    max_psm_distance,
)

if TYPE_CHECKING:
    import argparse

EXIT_USAGE = 2
EXIT_CAP = 3

_METRICS = {name: metric for metric, name in _METRIC_METHOD_NAME.items()}

# Per format: what opens and closes a reply, quotes a string, parts two values
# and encloses a list; what follows "grid:"; and what follows a grid cell, a
# grid row and the last row
_FORMATS = {
    "json": ("{", "}\n", '"', ", ", ("[", "]"), " [[", (", ", "], [", "]]")),
    "table": ("", "\n", "", "\n", ("", ""), "\n  ", ("  ", "\n  ", "")),
}


class _UsageError(PrefdistError):
    """Validation failure attributable to one CLI field."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")


def _parse_objects(flag_value: str) -> ObjectUniverse:
    labels = tuple(map(str.strip, flag_value.split(",")))
    try:
        return ObjectUniverse(labels)
    except (PrefdistError, ValueError) as exc:
        raise _UsageError("--objects", str(exc)) from None


def _parse_pref(text: str, universe: ObjectUniverse, field: str) -> WeakOrder:
    try:
        return parse_preference(text, universe)
    except PrefdistError as exc:
        raise _UsageError(field, str(exc)) from None


def _effective_cap(flag: int | None) -> int | None:
    field, cap = "--cap", flag
    if flag is None:
        field, env = "PREFDIST_CAP", os.environ.get("PREFDIST_CAP")
        if env is None:
            return None
        try:
            cap = int(env)
        except ValueError:
            raise _UsageError(field, f"not an integer: {env!r}") from None
    if cap < 1:
        raise _UsageError(field, f"must be at least 1, got {cap}")
    return cap


def _emit(payload: dict[str, Any], fmt: str) -> None:
    """Write ``payload`` as one JSON object on a line or as ``key: value``
    lines; a bfm reply's grid, whose report is at its "grid" key, is written in
    blocks of rows.

    A value is a string, a finite float, an int, or a list of strings or of
    ints, and the JSON is the text that ``json.dumps`` writes: a string is
    quoted as it stands (labels, method names and rendered orders hold no
    character that JSON escapes), a float is written by ``float.__repr__``
    (also for a numpy float64) and an int by ``int.__repr__``.
    """
    write = sys.stdout.write
    opening, closing, quote, sep, bracket, grid_head, grid_seps = _FORMATS[fmt]
    text, between = opening, ""
    for key, value in payload.items():
        text += between + quote + key + quote + ":"
        between = sep
        if key == "grid":
            from .bfm import grid_text

            write(text + grid_head)
            for block in grid_text(value, grid_seps):
                write(block)
            text = ""
            continue
        if isinstance(value, str):
            value = quote + value + quote
        elif isinstance(value, float):
            value = float.__repr__(value)
        elif isinstance(value, int):
            value = int.__repr__(value)
        elif value and isinstance(value[0], str):
            value = bracket[0] + quote + (quote + ", " + quote).join(value) + quote + bracket[1]
        else:
            value = bracket[0] + ", ".join(map(int.__repr__, value)) + bracket[1]
        text += " " + value
    write(text + closing)


def _cmd_dist(args: argparse.Namespace) -> int:
    universe = _parse_objects(args.objects)
    pref1 = _parse_pref(args.pref1, universe, "--pref1")
    pref2 = _parse_pref(args.pref2, universe, "--pref2")
    if args.method != "bfm":
        for field, value in (("--conv", args.conv), ("--attitude", args.attitude),
                             ("--alpha", args.alpha), ("--cap", args.cap)):
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
            from .bfm import bfm_distance

            report = bfm_distance(pref1, pref2, alpha=alpha, cap=_effective_cap(args.cap))
        elif args.method == "direct":
            report = direct_distance(pref1, pref2)
        else:
            report = indirect_distance(pref1, pref2, _METRICS[args.method])
    except DegenerateUniverseError as exc:
        raise _UsageError("--objects", str(exc)) from None
    if args.method == "bfm":
        attitude = args.attitude or "all"  # each other choice names a field of the report
        headline = getattr(report, "aver" if attitude == "all" else attitude)
        maximum = max_psm_distance(len(universe), PsmConvention(args.conv or "signed"))
        payload.update(
            raw=headline * maximum,
            max=maximum,
            normalized=headline,
            grid=report,
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
    from .belief import direct_distance_general, load_bba_matrix

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
        from .enumeration import _check_size

        if args.n < 1:
            raise _UsageError("--n", "must be at least 1")
        _check_size(args.n, _effective_cap(args.cap))  # before n labels are built
        universe = ObjectUniverse.numbered(args.n)
    else:
        raise _UsageError("--n", "required unless --objects is given")
    count = _print_orders(WeakOrder._dense((-1,) * len(universe)), universe, args.cap)
    print(f"count: {count}")
    return 0


def _cmd_compatible(args: argparse.Namespace) -> int:
    universe = _parse_objects(args.objects)
    ppo = _parse_pref(args.pref, universe, "--pref")
    _print_orders(ppo, universe, args.cap)
    return 0


def _print_orders(order: WeakOrder, universe: ObjectUniverse, cap: int | None) -> int:
    """Print every completion of ``order``, converting 4096 rows at a time,
    and return how many there are."""
    from .enumeration import compatible_tpos

    ranks = compatible_tpos(order, cap=_effective_cap(cap))
    for start in range(0, len(ranks), 4096):
        rows = ranks[start : start + 4096].tolist()
        sys.stdout.write("".join(render_ranks(row, universe.labels) + "\n" for row in rows))
    return len(ranks)


_FORMAT = ("--format", {"choices": ["json", "table"], "default": "json"})

#: The command line's grammar: each subcommand's help text, its handler, and
#: its arguments as ``(name, add_argument keywords)`` rows, in argparse's order.
_COMMANDS = {
    "dist": (
        "distance between two preference orderings over one universe",
        _cmd_dist,
        (
            ("--objects", {"required": True, "help": "comma-separated object labels"}),
            ("--pref1", {"required": True, "help": 'e.g. "C > A" or "B > (A = C)"'}),
            ("--pref2", {"required": True}),
            ("--method", {
                "choices": ["bfm", "direct", *_METRICS],
                "default": "direct",
                "help": "bfm = exhaustive completion pairs; direct = mass-grid distance; "
                "indirect-* = score-alike matrices (default: direct)",
            }),
            ("--conv", {
                "choices": [c.value for c in PsmConvention],
                "default": None,
                "help": "bfm only: score-matrix convention for raw and max (default signed; "
                "the normalized value is identical)",
            }),
            ("--attitude", {
                "choices": ["all", "optim", "pessim", "aver", "hurwicz"],
                "default": None,
                "help": "bfm only: which scalar to headline (default all, headlining aver)",
            }),
            ("--alpha", {"type": float, "default": None, "help": "Hurwicz weight on the minimum"}),
            ("--cap", {"type": int, "default": None, "help": "enumeration cap override"}),
            _FORMAT,
        ),
    ),
    "dist-general": (
        "direct distance between two BBA-matrix JSON files",
        _cmd_dist_general,
        (
            ("bba1", {"help": "path to the first matrix"}),
            ("bba2", {"help": "path to the second matrix"}),
            _FORMAT,
        ),
    ),
    "enumerate": (
        "list every weak order of n objects",
        _cmd_enumerate,
        (
            ("--n", {"type": int, "default": None, "help": "number of objects"}),
            ("--objects", {"default": None, "help": "labels to render with"}),
            ("--cap", {"type": int, "default": None}),
        ),
    ),
    "compatible": (
        "list the total orders compatible with a partial one",
        _cmd_compatible,
        (
            ("--objects", {"required": True}),
            ("--pref", {"required": True}),
            ("--cap", {"type": int, "default": None}),
        ),
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with a subcommand parser per row of ``_COMMANDS``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="prefdist",
        description="Normalized distances between total and partial preference orderings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, handler, rows) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=text)
        for name, keywords in rows:
            command_parser.add_argument(name, **keywords)
        command_parser.set_defaults(handler=handler)
    return parser


@functools.cache
def _plain_grammar(
    command: str,
) -> tuple[dict[str, dict[str, Any]], dict[str, Any], list[str]] | None:
    """``command``'s rows by flag, its defaults by dest and its required flags;
    None for a command with positional arguments, which is never plain."""
    rows = _COMMANDS[command][2]
    options = {name: keywords for name, keywords in rows if name.startswith("--")}
    if len(options) < len(rows):
        return None
    # by dest, as no flag holds a "-" past its "--"; argparse would convert a
    # string default by its type, and no row has both
    defaults = {name[2:]: keywords.get("default") for name, keywords in rows}
    return options, defaults, [name for name, keywords in rows if keywords.get("required")]


def _plain_args(command: str, words: list[str]) -> SimpleNamespace | None:
    """The namespace that ``command``'s parser makes of ``words`` if they are
    ``--flag value`` pairs it reads as they stand, every required argument among
    them; else None.

    Each value is converted and checked as argparse does, and the last of a
    repeated flag wins.  Rows are read for ``required``, ``default``, ``type``
    and ``choices`` only, once per command (``_plain_grammar``): every flag
    takes one value.  The handler is read from ``_COMMANDS`` on every call, so
    a handler swapped into the table is the one the namespace carries.
    """
    grammar = _plain_grammar(command)
    if grammar is None or len(words) % 2:
        return None
    options, defaults, required = grammar
    values = dict(defaults)
    given = set()
    for flag, text in zip(words[::2], words[1::2]):
        keywords = options.get(flag)
        if keywords is None or text.startswith("-"):
            return None
        convert = keywords.get("type")
        try:
            value = text if convert is None else convert(text)
        except (TypeError, ValueError):
            return None
        choices = keywords.get("choices")
        if choices is not None and value not in choices:
            return None
        values[flag[2:]] = value
        given.add(flag)
    if not given.issuperset(required):
        return None
    return SimpleNamespace(**values, handler=_COMMANDS[command][1])


def _parse(argv: list[str]) -> argparse.Namespace | SimpleNamespace:
    if argv and argv[0] in _COMMANDS:
        args = _plain_args(argv[0], argv[1:])
        if args is not None:
            return args
    return _build_parser().parse_args(argv)  # help, a fault, or a spelling only argparse reads


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = _parse(argv)  # help and argparse's faults end here, in SystemExit
            return args.handler(args)
        finally:
            sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's last flush
    except BrokenPipeError:  # what is left to write, and that last flush, go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (PrefdistError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
