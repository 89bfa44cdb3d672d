"""Fuzz tests of the command line's exit-code contract.

Every call exits 0, 2 or 3 without a traceback, and a nonzero exit leaves
stdout empty.  Exit 2 names the offending field, either as ``error: <field>:
...`` or as argparse's ``prefdist <cmd>: error: argument <field>: ...``.
Exit 0 prints finite numbers, with ``normalized`` in [0, 1] unless the two
mass grids' diagonals differ.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prefdist import load_bba_matrix
from prefdist.cli import main

from strategies import preference_texts

FIELDS = {
    "dist": (
        "--objects", "--pref1", "--pref2", "--method", "--conv", "--attitude", "--alpha",
        "--cap", "--format", "PREFDIST_CAP",
    ),
    "dist-general": ("bba1", "bba2", "--format", "PREFDIST_CAP"),
    "enumerate": ("--n", "--objects", "--cap", "PREFDIST_CAP"),
    "compatible": ("--objects", "--pref", "--cap", "PREFDIST_CAP"),
}

#: The mass rule admits totals up to 1 + 1e-9, so two cells can lie a little
#: more than sqrt(2) apart, and a grid a little more than its maximum.
MASS_SLACK = 1e-9

GRAMMAR_LABELS = ["A", "B", "C", "D", "x1", "_"]
ODD_LABELS = ["A B", "é", "", " C ", "A>B", "(A)", "A"]
FOCAL_KEYS = ["1", "2", "3", "1|2", "1|3", "2|3", "1|2|3"]
JSON_ALPHABET = b'{}[],:" 0123456789.-eE|ntrufalsNIy'


def call(argv, env_cap):
    """Exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    env = {} if env_cap is None else {"PREFDIST_CAP": env_cap}
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        if env_cap is None:
            os.environ.pop("PREFDIST_CAP", None)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a value
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_contract(command, code, out, err):
    assert "Traceback" not in err
    assert code in (0, 2, 3), (code, err)
    if code != 0:
        assert out == ""
    if code == 2:
        last = err.splitlines()[-1]
        named = re.match(rf"(?:error: |prefdist {command}: error: argument )(\S+): ", last)
        assert named and named.group(1) in FIELDS[command], err


def reported_numbers(out, fmt):
    """The ``raw``, ``max`` and ``normalized`` values of a distance reply."""
    if fmt == "json":
        payload = json.loads(out)
    else:
        payload = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    return [float(payload[key]) for key in ("raw", "max", "normalized")]


def values(valid, invalid):
    """A string from ``valid`` or ``invalid``, each valid one three times as
    likely as each invalid one."""
    return st.sampled_from(valid * 3 + invalid)


#: An empty value and values that start with ``-``, drawn now and then into
#: any value slot; argparse reads ``-A``, ``-h`` and ``--help`` there as flags.
ODD_VALUES = ["", "-", "-A", "-1", "-h", "--help"]


@st.composite
def option(draw, name, drawn):
    """``name`` with a value from the strategy ``drawn``, now and then an odd
    one, spelled as two words or, one time in four, as ``name=value``; now
    and then given twice, where the last one counts."""
    words = []
    for _ in range(draw(st.sampled_from([1, 1, 1, 2]))):
        odd = draw(st.integers(0, 19)) == 0
        value = draw(st.sampled_from(ODD_VALUES) if odd else drawn)
        words += draw(st.sampled_from([[name, value]] * 3 + [[f"{name}={value}"]]))
    return words


def flag(name, valid, invalid):
    """``name`` with a value from ``valid`` or ``invalid``, or nothing."""
    return st.one_of(st.just([]), option(name, values(valid, invalid)))


def last_value(argv, name):
    """The value of the last ``name`` in ``argv``, in either spelling, or None."""
    found = None
    for word, following in zip(argv, argv[1:] + [None]):
        if word == name:
            found = following
        elif word.startswith(name + "="):
            found = word[len(name) + 1:]
    return found


caps = values(["5", "8", " 4", "99999999999999999999"], ["1", "0", "-1", "x", "2.5", ""])
env_caps = st.one_of(st.none(), caps)


@st.composite
def labels(draw):
    """Two to five distinct grammar names; now and then one of them is swapped
    for a name that is empty, outside the grammar or a repeat, or only one is
    drawn."""
    names = draw(st.lists(st.sampled_from(GRAMMAR_LABELS), min_size=2, max_size=5, unique=True))
    if draw(st.integers(0, 4)) == 0:
        names[draw(st.integers(0, len(names) - 1))] = draw(st.sampled_from(ODD_LABELS))
    return names[:1] if draw(st.integers(0, 9)) == 0 else names


@st.composite
def prefs(draw, names):
    """A ranking of some of ``names`` as canonical text or as mutated text, or a
    text that does not parse."""
    grammar = [name for name in dict.fromkeys(names) if re.fullmatch(r"[A-Za-z0-9_]+", name)]
    kind = draw(st.integers(0, 5))
    if grammar and kind < 4:
        ranked = draw(st.lists(st.sampled_from(grammar), min_size=1, unique=True))
        return " > ".join(ranked)
    if grammar and kind < 5:
        return draw(preference_texts(tuple(grammar), unique=draw(st.booleans())))
    return draw(st.sampled_from(["A", "A > B", "(A = B)", "", "A B", "é"]))


@st.composite
def argv_calls(draw):
    """A ``dist``, ``enumerate`` or ``compatible`` call over at most five labels."""
    command = draw(st.sampled_from(["dist", "dist", "dist", "enumerate", "compatible"]))
    names = draw(labels())
    objects = draw(option("--objects", st.just(",".join(names))))
    cap = draw(st.one_of(st.just([]), option("--cap", caps)))
    if command == "dist":
        argv = objects + draw(option("--pref1", prefs(names)))
        argv += draw(option("--pref2", prefs(names)))
        methods = values(["direct", "indirect-j", "indirect-bi", "bfm", "bfm"], ["kendall"])
        argv += draw(option("--method", methods))
        argv += draw(flag("--conv", ["signed", "unit"], ["square"]))
        if last_value(argv, "--method") == "bfm" or draw(st.integers(0, 9)) == 0:
            argv += draw(flag("--attitude", ["all", "optim", "pessim", "aver", "hurwicz"], ["x"]))
            argv += draw(flag("--alpha", ["0", "0.5", "1", "1e-300"],
                              ["1.5", "-0.1", "nan", "inf", "x", ""]))
        argv += draw(flag("--format", ["json", "table"], ["csv"]))
    elif command == "enumerate":
        argv = draw(st.sampled_from([objects, []]))
        argv += draw(flag("--n", ["1", "3", "4", "5"], ["0", "-2", "x"]))
    else:
        argv = objects + draw(option("--pref", prefs(names)))
    return [command] + argv + cap


@st.composite
def grid_documents(draw):
    """A valid mass-grid document of one to five objects as a dict."""
    n = draw(st.integers(1, 5))
    cells = []
    for _ in range(n * n):
        keys = draw(st.lists(st.sampled_from(FOCAL_KEYS), min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.integers(1, 4), min_size=len(keys), max_size=len(keys)))
        cells.append({key: w / sum(weights) for key, w in zip(keys, weights)})
    return {"n": n, "cells": [cells[i * n:(i + 1) * n] for i in range(n)]}


@st.composite
def mutated(draw, text):
    """``text`` with one to four byte insertions, deletions or replacements."""
    data = bytearray(text)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(JSON_ALPHABET))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        if kind == "insert":
            data.insert(pos, byte)
        elif pos < len(data):
            if kind == "delete":
                del data[pos]
            else:
                data[pos] = byte
    return bytes(data)


@st.composite
def huge_integer(draw, text):
    """``text`` with one of its numbers replaced by an integer of 300-5000 digits."""
    digits = draw(st.integers(300, 5000))
    huge = draw(st.sampled_from(["", "-"])) + "9" + "0" * (digits - 1)
    numbers = list(re.finditer(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?", text))
    number = draw(st.sampled_from(numbers))
    return text[:number.start()] + huge.encode() + text[number.end():]


@st.composite
def file_bytes(draw, document):
    text = json.dumps(document).encode()
    kind = draw(st.sampled_from(["valid", "valid", "mutated", "random", "deep", "huge"]))
    if kind == "mutated":
        return draw(mutated(text))
    if kind == "random":
        return draw(st.binary(max_size=64))
    if kind == "deep":
        depth = draw(st.sampled_from([10, 500, 950, 1000, 100_000]))
        nest, close = draw(st.sampled_from([(b"[", b"]"), (b'{"a": [', b"]}")]))
        in_a_cell = (b'{"n": 1, "cells": [[{"2": ', b"}]]}")
        prefix, suffix = draw(st.sampled_from([(b"", b""), in_a_cell]))
        closed = draw(st.booleans())
        return prefix + nest * depth + (close * depth + suffix if closed else b"")
    if kind == "huge":
        return draw(huge_integer(text))
    return text


class TestArgvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(argv=argv_calls(), env_cap=env_caps)
    def test_every_call_keeps_the_exit_code_contract(self, argv, env_cap):
        command = argv[0]
        code, out, err = call(argv, env_cap)
        assert_contract(command, code, out, err)
        if code == 0 and command == "dist":
            fmt = last_value(argv, "--format") or "json"
            raw, maximum, normalized = reported_numbers(out, fmt)
            assert all(map(math.isfinite, (raw, maximum, normalized)))
            assert 0.0 <= normalized <= 1.0
        elif code == 0:
            assert out.endswith("\n")


class TestMassFileFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), fmt=st.sampled_from(["json", "table"]))
    def test_every_pair_of_files_keeps_the_exit_code_contract(self, data, fmt):
        first = data.draw(grid_documents())
        second = data.draw(st.one_of(st.just(first), grid_documents()))
        contents = [data.draw(file_bytes(first)), data.draw(file_bytes(second))]
        with tempfile.TemporaryDirectory() as folder:
            paths = [str(Path(folder, name)) for name in ("bba1.json", "bba2.json")]
            for path, content in zip(paths, contents):
                Path(path).write_bytes(content)
            code, out, err = call(["dist-general", *paths, f"--format={fmt}"], None)
            assert_contract("dist-general", code, out, err)
            if code != 0:
                return
            raw, maximum, normalized = reported_numbers(out, fmt)
            assert all(map(math.isfinite, (raw, maximum, normalized)))
            assert normalized >= 0.0
            masses = [load_bba_matrix(path).masses for path in paths]
            diagonals = [m[np.arange(len(m)), np.arange(len(m))] for m in masses]
            if np.array_equal(*diagonals):
                assert normalized <= 1.0 + MASS_SLACK
