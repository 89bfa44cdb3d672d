import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefdist
from prefdist.cli import main

from strategies import preference_texts

TOL = 5e-5


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


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

    def test_bfm_specific_attitude_headline(self, capsys):
        payload = run_json(
            capsys,
            "dist", "--method", "bfm", "--objects", "A,B,C",
            "--pref1", "C>A", "--pref2", "A>B", "--attitude", "pessim",
        )
        assert payload["normalized"] == 1.0
        assert payload["raw"] == pytest.approx(payload["max"])

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
        from prefdist import ObjectUniverse, bfm_grid, parse_preference

        universe = ObjectUniverse(("A", "B", "C", "D"))
        expected = bfm_grid(
            parse_preference("D>A", universe), parse_preference("(A=B)>C", universe)
        )
        payload = run_json(
            capsys,
            "dist", "--method", "bfm", "--objects", "A,B,C,D",
            "--pref1", "D>A", "--pref2", "(A=B)>C",
        )
        assert payload["grid"] == expected.tolist()

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
        src = str(Path(prefdist.__file__).resolve().parents[1])
        path_entries = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_entries))}
        done = subprocess.run(
            [sys.executable, "-m", "prefdist", "dist-general", str(path), str(path)],
            capture_output=True, text=True, env=env,
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

    def test_cap_exceeded_exits_3(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "9")
        assert code == 3

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
