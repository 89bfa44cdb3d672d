import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefdist
from prefdist import ObjectUniverse, WeakOrder, bfm, cli, render_preference
from prefdist.cli import main

from strategies import all_weak_orders, preference_texts
from test_cli_fuzz import argv_calls

TOL = 5e-5


def fresh_env():
    """The environment of a fresh interpreter that imports this prefdist."""
    src = str(Path(prefdist.__file__).resolve().parents[1])
    path_entries = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_entries))}


class Discard(io.TextIOBase):
    """A stdout that keeps nothing, for replies too large to hold."""

    def write(self, text):
        return len(text)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert out == json.dumps(payload) + "\n"  # the CLI's own writer, byte for byte
    return payload


class TestDist:
    def test_bfm_all_attitudes(self, capsys):
        payload = run_json(
            capsys,
            "dist", "--method", "bfm", "--objects", "A,B,C",
            "--pref1", "C>A", "--pref2", "A>B", "--attitude", "all",
        )
        assert payload["method"] == "bfm"
        assert payload["aver"] == pytest.approx(0.6966, abs=TOL)
        assert payload["optim"] == 0.0
        assert payload["pessim"] == 1.0
        assert payload["hurwicz"] == pytest.approx(0.5)
        assert payload["alpha"] == 0.5
        assert payload["n_ctpo"] == [5, 5]
        assert len(payload["grid"]) == 5 and len(payload["grid"][0]) == 5
        assert payload["normalized"] == payload["aver"]

    @pytest.mark.parametrize("attitude", ["optim", "pessim", "aver", "hurwicz"])
    def test_bfm_specific_attitude_headline(self, capsys, attitude):
        payload = run_json(
            capsys,
            "dist", "--method", "bfm", "--objects", "A,B,C",
            "--pref1", "C>A", "--pref2", "A>B", "--attitude", attitude,
        )
        assert payload["normalized"] == payload[attitude]
        assert payload["raw"] == payload["normalized"] * payload["max"]

    def test_direct_is_the_default_method(self, capsys):
        payload = run_json(
            capsys, "dist", "--objects", "A,B,C", "--pref1", "C>A", "--pref2", "A>B"
        )
        assert payload["method"] == "direct"
        assert payload["normalized"] == pytest.approx(0.8165, abs=TOL)
        assert payload["raw"] == pytest.approx(2.8284, abs=TOL)

    def test_identical_inputs_give_zero(self, capsys):
        payload = run_json(
            capsys,
            "dist", "--method", "direct", "--objects", "A,B,C",
            "--pref1", "A>B>C", "--pref2", "A>B>C",
        )
        assert payload["normalized"] == 0.0

    def test_indirect_methods(self, capsys):
        jous = run_json(
            capsys,
            "dist", "--method", "indirect-j", "--objects", "A,B,C",
            "--pref1", "C>A", "--pref2", "A>B",
        )
        assert jous["normalized"] == pytest.approx(0.4832, abs=TOL)
        interval = run_json(
            capsys,
            "dist", "--method", "indirect-bi", "--objects", "A,B,C",
            "--pref1", "C>A", "--pref2", "A>B",
        )
        assert interval["normalized"] == pytest.approx(0.4419, abs=TOL)

    def test_argument_swap_leaves_scalars_unchanged(self, capsys):
        for method in ("bfm", "direct", "indirect-j", "indirect-bi"):
            forward = run_json(
                capsys, "dist", "--method", method, "--objects", "A,B,C",
                "--pref1", "C>A", "--pref2", "A>B",
            )
            backward = run_json(
                capsys, "dist", "--method", method, "--objects", "A,B,C",
                "--pref1", "A>B", "--pref2", "C>A",
            )
            for key in ("raw", "max", "normalized", "optim", "pessim", "aver", "hurwicz"):
                if key in forward:
                    assert forward[key] == pytest.approx(backward[key], abs=1e-12), (method, key)

    def test_table_format_carries_identical_numbers(self, capsys):
        payload = run_json(
            capsys, "dist", "--objects", "A,B,C", "--pref1", "C>A", "--pref2", "A>B"
        )
        code, out, _ = run(
            capsys,
            "dist", "--objects", "A,B,C", "--pref1", "C>A", "--pref2", "A>B",
            "--format", "table",
        )
        assert code == 0
        table = dict(line.split(": ", 1) for line in out.strip().splitlines())
        for key in ("raw", "max", "normalized"):
            assert float(table[key]) == payload[key]

    def test_json_floats_round_trip_at_full_precision(self, capsys):
        from prefdist import direct_distance, parse_preference, ObjectUniverse

        universe = ObjectUniverse(("A", "B", "C"))
        expected = direct_distance(
            parse_preference("C>A", universe), parse_preference("A>B", universe)
        )
        payload = run_json(
            capsys, "dist", "--objects", "A,B,C", "--pref1", "C>A", "--pref2", "A>B"
        )
        assert payload["raw"] == expected.raw
        assert payload["max"] == expected.max
        assert payload["normalized"] == expected.normalized

    def test_bfm_grid_is_the_library_grid(self, capsys):
        from prefdist import ObjectUniverse, bfm_distance, parse_preference

        universe = ObjectUniverse(("A", "B", "C", "D"))
        expected = bfm_distance(
            parse_preference("D>A", universe), parse_preference("(A=B)>C", universe)
        ).grid
        payload = run_json(
            capsys,
            "dist", "--method", "bfm", "--objects", "A,B,C,D",
            "--pref1", "D>A", "--pref2", "(A=B)>C",
        )
        assert payload["grid"] == expected.tolist()

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_bfm_reply_holds_no_grid_sized_temporary(self, fmt):
        """A 4683 x 541 grid is 2.5 MB as uint8 and 20 MB as an intp copy; the
        histogram and the writer read it in blocks of rows.  The bound holds
        with the writer's table built (cold) and read from its cache (warm)."""
        argv = [
            "dist", "--method", "bfm", "--objects", "a,b,c,d,e,f",
            "--pref1", "a", "--pref2", "(a=b)", "--format", fmt,
        ]
        bfm._pair_table.cache_clear()
        for _ in ("cold", "warm"):
            with contextlib.redirect_stdout(Discard()):
                tracemalloc.start()
                try:
                    assert main(argv) == 0
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak < 20 * 2**20, peak
        assert bfm._pair_table.cache_info()[:2] == (1, 1)  # (hits, misses)

    def test_writer_cache_after_a_reply_at_the_grid_cell_limit_is_small(self):
        """The 4683 x 4683 grid's table has 3 * 62^2 slots, at most one string
        each: what the cache keeps after the reply is under 2 MB (0.4 MB here)."""
        argv = [
            "dist", "--method", "bfm", "--objects", "a,b,c,d,e,f",
            "--pref1", "a", "--pref2", "b",
        ]
        bfm._pair_table.cache_clear()
        with contextlib.redirect_stdout(Discard()):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                held = tracemalloc.get_traced_memory()[0]
                assert bfm._pair_table.cache_info().currsize == 1
                bfm._pair_table.cache_clear()
                held -= tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert 0 < held < 2 * 2**20, held

    @pytest.mark.parametrize("fmts", [("json", "table", "json"), ("table", "json", "table")])
    def test_grid_text_keeps_its_sha256_pins_cold_and_warm(self, fmts):
        """The 541 x 541 grid, written again in one process once the writer's
        table for its format is cached, keeps the sha256 that CI pins."""
        pins = {
            "json": ('"grid": ', ', "optim"', "fd7ad74903dfe12026ff43d8630ef2dc"
                     "b9e78f7c8e4c2c3099a1e840544411b3"),
            "table": ("grid:", "optim:", "48118d2d9b08862995fb40c995cd4582"
                      "e19d934dcc9fb17744d52c8c9ad27b2f"),
        }
        argv = ["dist", "--method", "bfm", "--objects", "o0,o1,o2,o3,o4", "--pref1", "o0",
                "--pref2", "o1", "--format"]
        bfm._pair_table.cache_clear()
        for fmt in fmts:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv + [fmt]) == 0
            text = out.getvalue()
            start, end, pin = pins[fmt]
            grid = text[text.index(start) : text.index(end)]
            assert hashlib.sha256(grid.encode()).hexdigest() == pin, fmt
        assert bfm._pair_table.cache_info()[:2] == (1, 2)  # (hits, misses)

    def test_unknown_object_exits_2_naming_the_field(self, capsys):
        code, _, err = run(
            capsys, "dist", "--objects", "A,B,C", "--pref1", "D>A", "--pref2", "A>B"
        )
        assert code == 2
        assert "--pref1" in err and "D" in err

    def test_duplicate_objects_exit_2(self, capsys):
        code, _, err = run(
            capsys, "dist", "--objects", "A,B,A", "--pref1", "A>B", "--pref2", "B>A"
        )
        assert code == 2
        assert "--objects" in err

    @pytest.mark.parametrize("method", ["direct", "indirect-j", "indirect-bi", "bfm"])
    def test_one_object_exits_2_naming_objects(self, capsys, method):
        code, out, err = run(
            capsys, "dist", "--method", method, "--objects", "A", "--pref1", "A", "--pref2", "A"
        )
        assert code == 2
        assert out == ""
        assert err == "error: --objects: normalized distances need at least two objects, got 1\n"

    @pytest.mark.parametrize("command", [
        ["dist", "--pref1", "C", "--pref2", "C"],
        ["compatible", "--pref", "C"],
        ["enumerate"],
    ])
    def test_label_outside_the_grammar_exits_2_naming_objects(self, capsys, command):
        code, out, err = run(capsys, *command, "--objects", "A B,C")
        assert code == 2
        assert out == ""
        assert err == "error: --objects: object label 'A B' must match [A-Za-z0-9_]+\n"

    def test_attitude_requires_bfm(self, capsys):
        code, _, err = run(
            capsys,
            "dist", "--method", "direct", "--objects", "A,B,C",
            "--pref1", "C>A", "--pref2", "A>B", "--attitude", "aver",
        )
        assert code == 2
        assert "--attitude" in err

    @pytest.mark.parametrize("method", ["direct", "indirect-j", "indirect-bi"])
    @pytest.mark.parametrize("conv", ["signed", "unit"])
    def test_conv_requires_bfm(self, capsys, method, conv):
        code, out, err = run(
            capsys,
            "dist", "--method", method, "--objects", "A,B,C",
            "--pref1", "C>A", "--pref2", "A>B", "--conv", conv,
        )
        assert code == 2
        assert out == ""
        assert err == "error: --conv: only valid with --method bfm\n"

    @pytest.mark.parametrize("method", ["direct", "indirect-j", "indirect-bi"])
    @pytest.mark.parametrize("cap", ["8", "0"])
    def test_cap_requires_bfm(self, capsys, monkeypatch, method, cap):
        monkeypatch.setenv("PREFDIST_CAP", "0")  # the environment cap is not a flag
        argv = ["dist", "--method", method, "--objects", "A,B,C",
                "--pref1", "C>A", "--pref2", "A>B"]
        assert run(capsys, *argv)[0] == 0
        code, out, err = run(capsys, *argv, "--cap", cap)
        assert code == 2
        assert out == ""
        assert err == "error: --cap: only valid with --method bfm\n"

    def test_bfm_without_conv_reports_the_signed_numbers(self, capsys):
        argv = ["dist", "--method", "bfm", "--objects", "A,B,C", "--pref1", "C>A", "--pref2", "A>B"]
        default = run_json(capsys, *argv)
        assert default == run_json(capsys, *argv, "--conv", "signed")
        assert default["max"] == 2 * run_json(capsys, *argv, "--conv", "unit")["max"]

    def test_alpha_out_of_range(self, capsys):
        code, _, err = run(
            capsys,
            "dist", "--method", "bfm", "--objects", "A,B,C",
            "--pref1", "C>A", "--pref2", "A>B", "--alpha", "1.5",
        )
        assert code == 2
        assert "--alpha" in err

    def test_cap_exceeded_exits_3(self, capsys):
        code, _, err = run(
            capsys,
            "dist", "--method", "bfm", "--objects", "A,B,C,D",
            "--pref1", "C>A", "--pref2", "A>B", "--cap", "3",
        )
        assert code == 3
        assert "cap" in err

    def test_grid_over_the_cell_limit_exits_3(self, capsys):
        # every weak order of 7 objects completes each side: 47293 x 47293 cells
        code, out, err = run(
            capsys,
            "dist", "--method", "bfm", "--objects", "A,B,C,D,E,F,G",
            "--pref1", "A", "--pref2", "B",
        )
        assert code == 3
        assert out == ""
        assert "47293 x 47293" in err


class TestDistGeneral:
    PREF1_DOC = {
        "n": 3,
        "cells": [
            [{"2": 1.0}, {"1|2|3": 1.0}, {"3": 1.0}],
            [{"1|2|3": 1.0}, {"2": 1.0}, {"1|2|3": 1.0}],
            [{"1": 1.0}, {"1|2|3": 1.0}, {"2": 1.0}],
        ],
    }
    PREF2_DOC = {
        "n": 3,
        "cells": [
            [{"2": 1.0}, {"1": 1.0}, {"1|2|3": 1.0}],
            [{"3": 1.0}, {"2": 1.0}, {"1|2|3": 1.0}],
            [{"1|2|3": 1.0}, {"1|2|3": 1.0}, {"2": 1.0}],
        ],
    }

    def _write(self, tmp_path, name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    def test_identical_files_give_zero(self, capsys, tmp_path):
        path = self._write(tmp_path, "m.json", self.PREF1_DOC)
        payload = run_json(capsys, "dist-general", path, path)
        assert payload["normalized"] == 0.0
        assert payload["n"] == 3

    def test_worked_partial_pair(self, capsys, tmp_path):
        p1 = self._write(tmp_path, "m1.json", self.PREF1_DOC)
        p2 = self._write(tmp_path, "m2.json", self.PREF2_DOC)
        payload = run_json(capsys, "dist-general", p1, p2)
        assert payload["normalized"] == pytest.approx(0.8165, abs=TOL)

    def test_unnormalized_cell_exits_2_naming_the_cell(self, capsys, tmp_path):
        bad = {
            "n": 2,
            "cells": [
                [{"2": 1.0}, {"1": 0.9}],
                [{"3": 1.0}, {"2": 1.0}],
            ],
        }
        p1 = self._write(tmp_path, "bad.json", bad)
        p2 = self._write(
            tmp_path,
            "good.json",
            {"n": 2, "cells": [[{"2": 1.0}, {"1": 1.0}], [{"3": 1.0}, {"2": 1.0}]]},
        )
        code, _, err = run(capsys, "dist-general", p1, p2)
        assert code == 2
        assert "(0, 1)" in err

    def test_nan_mass_exits_2_naming_the_cell(self, capsys, tmp_path):
        bad = {
            "n": 2,
            "cells": [
                [{"2": 1.0}, {"1": float("nan"), "2": 1.0}],
                [{"3": 1.0}, {"2": 1.0}],
            ],
        }
        p1 = self._write(tmp_path, "nan.json", bad)
        assert "NaN" in (tmp_path / "nan.json").read_text()
        code, out, err = run(capsys, "dist-general", p1, p1)
        assert code == 2
        assert out == ""
        assert "cell (0, 1)" in err

    def test_empty_set_key_rejected(self, capsys, tmp_path):
        bad = {"n": 2, "cells": [[{"2": 1.0}, {"0": 1.0}], [{"3": 1.0}, {"2": 1.0}]]}
        p1 = self._write(tmp_path, "bad.json", bad)
        code, _, err = run(capsys, "dist-general", p1, p1)
        assert code == 2
        assert "'0'" in err

    def test_dimension_mismatch_exits_2(self, capsys, tmp_path):
        small = {"n": 2, "cells": [[{"2": 1.0}, {"1": 1.0}], [{"3": 1.0}, {"2": 1.0}]]}
        p1 = self._write(tmp_path, "m1.json", self.PREF1_DOC)
        p2 = self._write(tmp_path, "m2.json", small)
        code, _, err = run(capsys, "dist-general", p1, p2)
        assert code == 2

    def test_one_object_grids_exit_2_naming_bba1(self, capsys, tmp_path):
        path = self._write(tmp_path, "one.json", {"n": 1, "cells": [[{"2": 1.0}]]})
        code, out, err = run(capsys, "dist-general", path, path)
        assert code == 2
        assert out == ""
        assert err == "error: bba1: normalized distances need at least two objects, got 1\n"

    @pytest.mark.parametrize("n1, n2", [(1, 2), (3, 2)])
    def test_grids_of_different_sizes_exit_2_naming_bba2(self, capsys, tmp_path, n1, n2):
        two = {"n": 2, "cells": [[{"2": 1}, {"1": 1}], [{"3": 1}, {"2": 1}]]}
        docs = {1: {"n": 1, "cells": [[{"2": 1}]]}, 2: two, 3: self.PREF1_DOC}
        p1 = self._write(tmp_path, "m1.json", docs[n1])
        p2 = self._write(tmp_path, "m2.json", docs[n2])
        code, out, err = run(capsys, "dist-general", p1, p2)
        assert code == 2
        assert out == ""
        assert err == f"error: bba2: operands over different universes: {n1} vs {n2}\n"

    def test_missing_file_exits_2(self, capsys, tmp_path):
        p1 = self._write(tmp_path, "m1.json", self.PREF1_DOC)
        code, _, err = run(capsys, "dist-general", p1, str(tmp_path / "absent.json"))
        assert code == 2
        assert "bba2" in err

    def _rejected(self, capsys, tmp_path, content, field):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        good = self._write(tmp_path, "good.json", self.PREF1_DOC)
        paths = (str(bad), good) if field == "bba1" else (good, str(bad))
        code, out, err = run(capsys, "dist-general", *paths)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field}: ")
        return err

    @pytest.mark.parametrize("field", ["bba1", "bba2"])
    def test_integer_mass_beyond_the_float_range_exits_2(self, capsys, tmp_path, field):
        huge = b'{"n": 1, "cells": [[{"2": 1, "1": 1' + b"0" * 400 + b"}]]}"
        err = self._rejected(capsys, tmp_path, huge, field)
        assert err.startswith(f"error: {field}: cell (0, 0): mass for '1' ")

    @pytest.mark.parametrize("field", ["bba1", "bba2"])
    def test_integer_mass_of_thousands_of_digits_exits_2_naming_the_cell(
        self, capsys, tmp_path, field
    ):
        # more digits than int() converts from text
        huge = b'{"n": 1, "cells": [[{"2": 1, "1": 1' + b"0" * 5000 + b"}]]}"
        err = self._rejected(capsys, tmp_path, huge, field)
        assert err == f"error: {field}: cell (0, 0): mass for '1' is too large for a float\n"

    @pytest.mark.parametrize("field", ["bba1", "bba2"])
    def test_n_of_thousands_of_digits_exits_2_naming_the_rows(self, capsys, tmp_path, field):
        # more digits than str() converts to text
        huge = b'{"n": 1' + b"0" * 5000 + b', "cells": []}'
        err = self._rejected(capsys, tmp_path, huge, field)
        assert err == f"error: {field}: 'cells' must be a list of 'n' rows\n"

    @pytest.mark.parametrize("field", ["bba1", "bba2"])
    def test_too_deep_nesting_exits_2(self, capsys, tmp_path, field):
        self._rejected(capsys, tmp_path, b"[" * 100_000, field)

    @pytest.mark.parametrize("field", ["bba1", "bba2"])
    def test_non_utf8_file_exits_2(self, capsys, tmp_path, field):
        err = self._rejected(capsys, tmp_path, b'{"n": 1, "cells": [[{"\xff": 1}]]}', field)
        assert "utf-8" in err

    def test_infinities_of_both_signs_print_only_the_error_line(self, tmp_path):
        # a fresh interpreter, so that a numpy RuntimeWarning would reach stderr
        path = tmp_path / "inf.json"
        path.write_text('{"n": 1, "cells": [[{"1": Infinity, "2": -Infinity}]]}')
        done = subprocess.run(
            [sys.executable, "-m", "prefdist", "dist-general", str(path), str(path)],
            capture_output=True, text=True, env=fresh_env(),
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: bba1: cell (0, 0): masses must be non-negative\n"


class TestEnumerateCommand:
    def test_three_objects(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 14
        assert lines[-1] == "count: 13"
        assert "x1 > x2 > x3" in lines

    def test_custom_labels(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--objects", "A,B,C")
        assert code == 0
        assert "(A = B = C)" in out.splitlines()

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_non_positive_n_exits_2(self, capsys, n):
        assert run(capsys, "enumerate", "--n", n) == (2, "", "error: --n: must be at least 1\n")

    def test_cap_exceeded_exits_3(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "9")
        assert code == 3

    def test_cap_is_checked_before_the_labels_are_built(self, capsys, monkeypatch):
        def refuse(cls, n):
            raise AssertionError(f"built {n} labels past the cap")

        monkeypatch.setattr(ObjectUniverse, "numbered", classmethod(refuse))
        expected = (3, "", "error: n=1000000 exceeds the enumeration cap 8\n")
        assert run(capsys, "enumerate", "--n", "1000000") == expected
        monkeypatch.setenv("PREFDIST_CAP", "x")  # a bad environment cap still exits 2
        expected = (2, "", "error: PREFDIST_CAP: not an integer: 'x'\n")
        assert run(capsys, "enumerate", "--n", "1000000") == expected

    def test_env_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PREFDIST_CAP", "2")
        code, _, err = run(capsys, "enumerate", "--n", "3")
        assert code == 3
        monkeypatch.setenv("PREFDIST_CAP", "9")
        code, out, _ = run(capsys, "enumerate", "--n", "3")
        assert code == 0

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_non_positive_cap_flag_exits_2(self, capsys, cap):
        for argv in (
            ["enumerate", "--n", "3", "--cap", cap],
            ["dist", "--method", "bfm", "--objects", "A,B,C",
             "--pref1", "C>A", "--pref2", "A>B", "--cap", cap],
            ["dist", "--method", "direct", "--objects", "A,B,C",
             "--pref1", "C>A", "--pref2", "A>B", "--cap", cap],
            ["compatible", "--objects", "A,B,C", "--pref", "C>A", "--cap", cap],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert "--cap" in err

    def test_non_positive_env_cap_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PREFDIST_CAP", "0")
        code, out, err = run(capsys, "enumerate", "--n", "3")
        assert code == 2
        assert out == ""
        assert "PREFDIST_CAP" in err

    def test_flag_cap_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PREFDIST_CAP", "2")
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--cap", "3")
        assert code == 0
        assert out.strip().splitlines()[-1] == "count: 13"


class TestCompatibleCommand:
    def test_worked_partial_order(self, capsys):
        code, out, _ = run(
            capsys, "compatible", "--objects", "A,B,C", "--pref", "C>A"
        )
        assert code == 0
        assert set(out.strip().splitlines()) == {
            "B > C > A",
            "C > A > B",
            "C > B > A",
            "C > (A = B)",
            "(B = C) > A",
        }

    def test_completions_print_without_building_the_tuple_of_orders(self, capsys):
        universe = ObjectUniverse(tuple("ABCD"))
        expected = [render_preference(order, universe) for order in all_weak_orders(4)]
        code, out, _ = run(capsys, "compatible", "--objects", "A,B,C,D", "--pref", "C")
        assert code == 0
        assert out.splitlines() == expected  # C alone: every weak order of four objects

    @pytest.mark.parametrize(
        "argv, built",
        [(("compatible", "--objects", "A,B,C,D", "--pref", "C"), 0), (("enumerate", "--n", "4"), 1)],
    )
    def test_listings_build_no_weak_order(self, capsys, monkeypatch, argv, built):
        """A listing prints the completions' rank rows and builds no order
        from them; ``enumerate`` builds only the empty order it completes."""
        expected = run(capsys, *argv)
        parsed = WeakOrder(((2,),), 4)
        monkeypatch.setattr(cli, "_parse_pref", lambda *args: parsed)

        def refuse(*args):
            raise AssertionError("a listing built a WeakOrder")

        dense = WeakOrder._dense.__func__
        calls = []

        def counted(cls, rank_tuple):
            calls.append(rank_tuple)
            return dense(cls, rank_tuple)

        monkeypatch.setattr(WeakOrder, "__init__", refuse)
        monkeypatch.setattr(WeakOrder, "from_ranks", classmethod(refuse))
        monkeypatch.setattr(WeakOrder, "_dense", classmethod(counted))
        assert run(capsys, *argv) == expected
        assert len(calls) == built, calls

    def test_parse_error_names_the_field(self, capsys):
        code, _, err = run(capsys, "compatible", "--objects", "A,B,C", "--pref", "C >")
        assert code == 2
        assert "--pref" in err


class TestRepeatedCalls:
    """The parser is built once and reused, so calls must not leak into each other."""

    def test_bfm_call_leaves_no_bfm_keys_behind(self, capsys):
        bfm = run_json(
            capsys,
            "dist", "--method", "bfm", "--attitude", "optim", "--objects", "A,B,C",
            "--pref1", "C>A", "--pref2", "A>B",
        )
        assert bfm["normalized"] == 0.0
        direct = run_json(
            capsys,
            "dist", "--method", "direct", "--objects", "A,B,C",
            "--pref1", "C>A", "--pref2", "A>B",
        )
        assert set(direct) == {"method", "objects", "pref1", "pref2", "raw", "max", "normalized"}
        assert direct["normalized"] == pytest.approx(0.8165, abs=TOL)

    def test_failed_calls_leave_the_next_call_working(self, capsys):
        code, _, err = run(
            capsys, "dist", "--objects", "A,B,C", "--pref1", "D>A", "--pref2", "A>B"
        )
        assert code == 2 and "--pref1" in err
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--objects", "A,B,C", "--pref1", "C>A", "--pref2", "A>B",
                  "--conv", "square"])
        assert exc.value.code == 2
        capsys.readouterr()
        payload = run_json(
            capsys, "dist", "--objects", "A,B,C", "--pref1", "C>A", "--pref2", "A>B"
        )
        assert payload["method"] == "direct"


class TestBeliefCallsLoadNoNumpy:
    """The package, its command line and the belief methods run without numpy,
    and without ``dataclasses`` and the modules it loads; the first call that
    needs numpy imports it."""

    SCRIPT = """
import sys
import prefdist
import prefdist.cli as cli
assert "numpy" not in sys.modules
argv = ["dist", "--objects", "A,B,C", "--pref1", "C>A", "--pref2", "A>B", "--method"]
assert cli.main(argv + ["direct"]) == 0
assert cli.main(argv + ["indirect-j"]) == 0
assert "numpy" not in sys.modules, sorted(name for name in sys.modules if "numpy" in name)
assert "dataclasses" not in sys.modules
unneeded = set(sys.argv[1:]) & set(sys.modules)
assert not unneeded, sorted(unneeded)
assert cli.main(argv + ["bfm"]) == 0
assert "numpy" in sys.modules
"""

    def test_direct_and_indirect_calls_then_a_bfm_call(self):
        # what a bare interpreter loads in this environment is not the route's doing
        modules = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
        bare = subprocess.run(
            [sys.executable, "-c", "import sys; print(*sys.modules)"],
            capture_output=True, text=True, env=fresh_env(), check=True,
        )
        unneeded = sorted(set(modules) - set(bare.stdout.split()))
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *unneeded],
            capture_output=True, text=True, env=fresh_env(),
        )
        assert done.returncode == 0, done.stderr
        replies = [json.loads(line) for line in done.stdout.splitlines()]
        assert [reply["method"] for reply in replies] == ["direct", "indirect-j", "bfm"]
        normalized = [round(reply["normalized"], 4) for reply in replies]
        assert normalized == [0.8165, 0.4832, 0.6966]


class TestPlainCallsLoadNoArgparse:
    """A plain call reads the grammar's table and builds no argparse parser, so
    neither argparse nor the gettext it imports is loaded, and it writes its
    reply itself, so no json module is loaded either; help builds the parsers,
    and ``dist-general`` builds them and reads its files with json."""

    JSON = ["json", "json.decoder", "json.scanner", "json.encoder", "_json"]

    SCRIPT = """
import contextlib, io, sys
import prefdist.cli as cli
control, needed = sys.argv[1].split("|"), sys.argv[2].split(",")
unneeded = set(sys.argv[3:])
for argv in (
    ["dist", "--objects", "A,B,C", "--pref1", "C>A", "--pref2", "A>B", "--method", "direct"],
    ["dist", "--objects", "A,B,C", "--pref1", "C>A", "--pref2", "A>B", "--method", "indirect-j"],
    ["dist", "--objects", "A,B,C", "--pref1", "C>A", "--pref2", "A>B", "--method", "indirect-bi"],
    ["dist", "--objects", "A,B,C", "--pref1", "C>A", "--pref2", "A>B", "--method", "bfm"],
    ["enumerate", "--n", "3"],
    ["compatible", "--objects", "A,B,C", "--pref", "C>A"],
):
    assert cli.main(argv) == 0, argv
loaded = unneeded & set(sys.modules)
assert not loaded, sorted(loaded)
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(control)
    except SystemExit as exc:
        code = exc.code
assert code == 0, code
missing = set(needed) - set(sys.modules)
assert not missing, sorted(missing)
"""

    @pytest.mark.parametrize(
        "control,needed",
        [("dist|--help", "argparse"), ("dist-general|{0}|{0}", "argparse,json")],
    )
    def test_plain_calls_then_help_or_dist_general(self, tmp_path, control, needed):
        grid = tmp_path / "grid.json"
        grid.write_text('{"n": 2, "cells": [[{"2": 1}, {"1": 1}], [{"1|2|3": 1}, {"2": 1}]]}')
        # what a bare interpreter loads in this environment is not the plain path's doing
        bare = subprocess.run(
            [sys.executable, "-c", "import sys; print(*sys.modules)"],
            capture_output=True, text=True, env=fresh_env(), check=True,
        )
        unneeded = sorted({"argparse", "gettext", *self.JSON} - set(bare.stdout.split()))
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, control.format(grid), needed, *unneeded],
            capture_output=True, text=True, env=fresh_env(),
        )
        assert done.returncode == 0, done.stderr
        replies = [json.loads(line) for line in done.stdout.splitlines()[:4]]
        normalized = [round(reply["normalized"], 4) for reply in replies]
        assert normalized == [0.8165, 0.4832, 0.4419, 0.6966]


class TestClosedPipe:
    """A reader that closes stdout before the reply ends: exit 1, nothing on
    stderr."""

    @staticmethod
    def outcome(argv, read, env):
        child = subprocess.Popen(
            [sys.executable, "-m", "prefdist", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert len(child.stdout.read(read)) == read
        child.stdout.close()
        err = child.stderr.read()
        return child.wait(), err

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--n", "7"],
            ["dist", "--method", "bfm", "--objects", "A,B,C,D,E", "--pref1", "A", "--pref2", "B"],
        ],
    )
    def test_a_reply_over_1_mb_is_still_being_written(self, argv):
        assert self.outcome(argv, 16, fresh_env()) == (1, b"")

    @pytest.mark.parametrize(
        "argv",
        [
            ["dist", "--objects", "A,B,C", "--pref1", "C>A", "--pref2", "A>B"],
            ["dist", "--help"],
            ["--help"],
        ],
    )
    def test_a_buffered_short_reply_meets_it_in_the_last_flush(self, argv):
        env = fresh_env()
        env.pop("PYTHONUNBUFFERED", None)
        assert self.outcome(argv, 0, env) == (1, b"")


def parse_outcome(parse, argv):
    """The namespace ``parse`` makes of ``argv``, less its ``command``; or the
    code it exits with, and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parse(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()
    assert out.getvalue() == err.getvalue() == ""
    # a NaN (``--alpha nan``) is unequal to itself, so it is compared by its text
    return {
        key: repr(value) if value != value else value
        for key, value in vars(args).items()
        if key != "command"
    }


@contextlib.contextmanager
def handlers_return_their_namespace():
    """Make ``main`` return the namespace it parsed instead of running a command:
    each row of the grammar, and the parsers built from it, get that handler."""
    commands = dict(cli._COMMANDS)
    for name, (text, _, rows) in commands.items():
        cli._COMMANDS[name] = (text, lambda args: args, rows)
    cli._build_parser.cache_clear()
    try:
        yield
    finally:
        cli._COMMANDS.update(commands)
        cli._build_parser.cache_clear()


def assert_dispatch_matches_the_full_parser(argv):
    """``main`` hands a call straight to its subcommand's parser; the full
    parser, reading the whole argv, is the reference."""
    with handlers_return_their_namespace():
        parser, _ = cli._build_parser()
        assert parse_outcome(main, argv) == parse_outcome(parser.parse_args, argv)


DIST = ["dist", "--objects", "A,B,C", "--pref1", "C>A", "--pref2", "A>B"]
DISPATCH_ARGVS = [
    DIST,
    DIST + ["--method", "bfm", "--conv", "unit", "--attitude", "hurwicz", "--alpha", "0.25"],
    ["dist-general", "one.json", "two.json", "--format", "table"],
    ["enumerate", "--n", "3", "--objects", "A,B,C"],
    ["compatible", "--objects", "A,B,C", "--pref", "C>A", "--cap", "5"],
    [], ["--help"], ["-h"], ["-h", "dist"], ["dist", "-h"], DIST + ["--help"], ["enumerate", "--he"],
    ["dsit"], ["dsit", "--objects", "A,B"], ["Dist"], ["-x", "dist"],
    ["--"] + DIST, ["--", "--help"], ["dist", "--", "extra"], DIST + ["--"],
    DIST + ["extra"], DIST + ["extra", "--bogus", "-x"], ["enumerate", "3"],
    ["dist", "--objects=A,B", "--pref1=A", "--pref2=B"],
    ["dist", "--obj", "A,B,C", "--pref1", "C>A", "--pref2", "A>B"],
    ["dist", "--objects", "A,B,C", "--pref", "C>A", "--pref2", "A>B"],  # ambiguous
    DIST + ["--method", "kendall"], DIST + ["--alpha", "x"], DIST + ["--alpha", "nan"],
    DIST + ["--cap"],
    ["dist"], ["dist-general"], ["compatible", "--objects", "A,B"], ["enumerate", "--n", "-1"],
    # plain calls: a repeated flag (the last one wins), an empty value, no flags at all
    DIST + ["--method", "bfm", "--method", "indirect-j"], DIST + ["--pref1", ""], ["enumerate"],
    # one of each kind that the plain path leaves to argparse
    ["dist", "--objects", "A,B,C", "--pref1", "C>A"],  # a required flag missing
    DIST + ["--method", "kendall", "--method", "bfm"],  # a bad choice, then a good one
    DIST + ["--cap", "x", "--cap", "5"],  # a bad type, then a good one
    ["enumerate", "--n", ""],
    DIST + ["--cap", "-1"], DIST + ["--alpha", "-0.5"],  # a value that starts with "-"
    DIST + ["--pref1", "-A"], DIST + ["--pref1", "-"], DIST + ["--pref1", "-h"],
    DIST + ["--pref1", "--help"], DIST + ["--pref1", "--"], DIST + ["--format=table"],
]


@st.composite
def dispatch_argvs(draw):
    """A call from the fuzz strategies, now and then with a stray word after it,
    an unknown word or ``-h`` for its command, or a leading ``--``."""
    argv = draw(argv_calls())
    kind = draw(st.integers(0, 3))
    if kind == 1:
        return argv + [draw(st.sampled_from(["extra", "-x", "--bogus=1", "C>A", "--", "-h"]))]
    if kind == 2:
        return [draw(st.sampled_from(["dsit", "Dist", "dist-", "compat", "-h"]))] + argv[1:]
    if kind == 3:
        return ["--"] + argv
    return argv


class TestDispatch:
    @pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
    def test_fixed_calls_parse_like_the_full_parser(self, argv):
        assert_dispatch_matches_the_full_parser(argv)

    @settings(max_examples=300, deadline=None)
    @given(argv=dispatch_argvs())
    def test_fuzzed_calls_parse_like_the_full_parser(self, argv):
        assert_dispatch_matches_the_full_parser(argv)


class ReachedArgparse(Exception):
    """Raised in place of building the argparse parsers."""


@pytest.fixture
def argparse_refused(monkeypatch):
    """Make every call that would build the argparse parsers raise ReachedArgparse."""

    def refuse():
        raise ReachedArgparse

    monkeypatch.setattr(cli, "_build_parser", refuse)


#: The call shapes of the README and of the benchmark's ``dist`` ops.
PLAIN_ARGVS = [
    DIST,
    ["dist", "--method", "bfm", "--objects", "A,B,C", "--pref1", "C>A", "--pref2", "A>B",
     "--attitude", "all"],
    ["dist", "--method", "indirect-j", "--objects", "A,B,C", "--pref1", "C>A", "--pref2", "A>B"],
    ["dist", "--method", "indirect-bi", "--objects", "o0,o1,o2,o3", "--pref1", "o1 > (o0 = o3)",
     "--pref2", "o2 > o1"],
    DIST + ["--method", "bfm", "--conv", "unit", "--alpha", "0.25", "--cap", "99",
            "--format", "table"],
    ["enumerate", "--n", "3", "--objects", "A,B,C"],
    ["compatible", "--objects", "A,B,C", "--pref", "C>A"],
]

#: One call of each kind that only argparse reads.
FALLBACK_ARGVS = [
    [], ["-h"], ["dsit"], ["--"] + DIST,
    ["dist-general", "one.json", "two.json"],  # positionals
    DIST + ["--help"], ["dist", "-h"],
    ["dist", "--obj", "A,B,C", "--pref1", "C>A", "--pref2", "A>B"],  # an abbreviation
    ["dist", "--objects=A,B,C", "--pref1", "C>A", "--pref2", "A>B"],
    DIST + ["--pref1", "-A"], DIST + ["--cap", "-1"], DIST + ["--pref1", "--help"],
    DIST + ["extra"], DIST + ["--cap"], ["dist", "--", "extra"],
    ["dist", "--objects", "A,B,C", "--pref1", "C>A"],  # a required flag missing
    DIST + ["--method", "kendall"], DIST + ["--method", "kendall", "--method", "bfm"],
    DIST + ["--alpha", "x"], ["enumerate", "--n", ""],
]


class TestPlainPath:
    """Plain ``--flag value`` calls build no argparse parser; every other call builds them."""

    @pytest.mark.parametrize("argv", PLAIN_ARGVS, ids=" ".join)
    def test_plain_calls_parse_without_argparse(self, capsys, argparse_refused, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.endswith("\n")

    @pytest.mark.parametrize("argv", FALLBACK_ARGVS, ids=" ".join)
    def test_every_other_call_reaches_argparse(self, argparse_refused, argv):
        with pytest.raises(ReachedArgparse):
            main(argv)


#: Each subcommand's help text, handler and actions: option strings, dest,
#: type, choices, default, required and help, as the parsers read them before
#: the grammar became a table.
GRAMMAR = {
    "dist": (
        "distance between two preference orderings over one universe",
        cli._cmd_dist,
        [
            (["-h", "--help"], "help", None, None, argparse.SUPPRESS, False,
             "show this help message and exit"),
            (["--objects"], "objects", None, None, None, True, "comma-separated object labels"),
            (["--pref1"], "pref1", None, None, None, True, 'e.g. "C > A" or "B > (A = C)"'),
            (["--pref2"], "pref2", None, None, None, True, None),
            (["--method"], "method", None, ["bfm", "direct", "indirect-j", "indirect-bi"],
             "direct", False,
             "bfm = exhaustive completion pairs; direct = mass-grid distance; "
             "indirect-* = score-alike matrices (default: direct)"),
            (["--conv"], "conv", None, ["signed", "unit"], None, False,
             "bfm only: score-matrix convention for raw and max (default signed; "
             "the normalized value is identical)"),
            (["--attitude"], "attitude", None, ["all", "optim", "pessim", "aver", "hurwicz"],
             None, False, "bfm only: which scalar to headline (default all, headlining aver)"),
            (["--alpha"], "alpha", float, None, None, False, "Hurwicz weight on the minimum"),
            (["--cap"], "cap", int, None, None, False, "enumeration cap override"),
            (["--format"], "format", None, ["json", "table"], "json", False, None),
        ],
    ),
    "dist-general": (
        "direct distance between two BBA-matrix JSON files",
        cli._cmd_dist_general,
        [
            (["-h", "--help"], "help", None, None, argparse.SUPPRESS, False,
             "show this help message and exit"),
            ([], "bba1", None, None, None, True, "path to the first matrix"),
            ([], "bba2", None, None, None, True, "path to the second matrix"),
            (["--format"], "format", None, ["json", "table"], "json", False, None),
        ],
    ),
    "enumerate": (
        "list every weak order of n objects",
        cli._cmd_enumerate,
        [
            (["-h", "--help"], "help", None, None, argparse.SUPPRESS, False,
             "show this help message and exit"),
            (["--n"], "n", int, None, None, False, "number of objects"),
            (["--objects"], "objects", None, None, None, False, "labels to render with"),
            (["--cap"], "cap", int, None, None, False, None),
        ],
    ),
    "compatible": (
        "list the total orders compatible with a partial one",
        cli._cmd_compatible,
        [
            (["-h", "--help"], "help", None, None, argparse.SUPPRESS, False,
             "show this help message and exit"),
            (["--objects"], "objects", None, None, None, True, None),
            (["--pref"], "pref", None, None, None, True, None),
            (["--cap"], "cap", int, None, None, False, None),
        ],
    ),
}


class TestGrammar:
    def test_the_parsers_built_from_the_table_hold_the_pinned_grammar(self):
        parser, commands = cli._build_parser()
        (subparsers,) = [action for action in parser._actions if action.dest == "command"]
        helps = {action.dest: action.help for action in subparsers._choices_actions}
        built = {
            name: (
                helps[name],
                sub.get_default("handler"),
                [
                    (action.option_strings, action.dest, action.type, action.choices,
                     action.default, action.required, action.help)
                    for action in sub._actions
                ],
            )
            for name, sub in commands.items()
        }
        assert list(built) == list(GRAMMAR)
        for name, expected in GRAMMAR.items():
            assert built[name] == expected, name


class TestPreferenceTextFuzz:
    METHODS = ("direct", "indirect-j", "indirect-bi", "bfm")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 5))
    def test_every_method_exits_0_or_2_naming_the_field(self, data, n):
        labels = "ABCDE"[:n]
        texts = preference_texts(tuple(labels), unique=True)
        pref1, pref2 = data.draw(texts), data.draw(texts)
        for method in self.METHODS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([
                    "dist", "--method", method, "--objects", ",".join(labels),
                    "--pref1", pref1, "--pref2", pref2,
                ])
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert out.getvalue() == ""
                assert err.getvalue().startswith(("error: --pref1: ", "error: --pref2: "))
            else:
                assert code == 0, err.getvalue()
                normalized = json.loads(out.getvalue())["normalized"]
                assert math.isfinite(normalized) and 0.0 <= normalized <= 1.0
