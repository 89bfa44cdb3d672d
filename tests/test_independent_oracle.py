"""Every ``dist`` method and ``dist-general`` against the benchmark's own
oracle, which reimplements each one without importing prefdist:
``bench/inputs.py`` builds the call, ``cli.main`` answers it in process, and
``bench/run.py``'s ``check`` compares every JSON value with
``bench/oracle.py``'s ``expect`` at its 1e-9 tolerance."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefdist import cli

from strategies import weak_orders
from test_cli import fresh_env

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402


@st.composite
def rank_pairs(draw, min_n, max_n):
    """Two rank vectors over one universe of min_n..max_n objects, each
    mentioning at least one object, as every benchmark op does."""
    n = draw(st.integers(min_n, max_n))
    orders = weak_orders(min_n=n, max_n=n).filter(lambda order: max(order.rank_tuple) >= 0)
    return [list(draw(orders).rank_tuple) for _ in range(2)]


def assert_the_oracle_accepts(op, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert run.check(code, out.getvalue(), oracle.expect(op)), argv


def test_the_check_tolerance_is_1e_9():
    assert run.TOLERANCE == 1e-9


@settings(deadline=None)
@given(method=st.sampled_from(inputs.BELIEF_METHODS), ranks=rank_pairs(2, 64))
def test_belief_replies_up_to_64_objects(method, ranks):
    op = inputs._dist_op(method, len(ranks[0]), *ranks)
    assert_the_oracle_accepts(op, op["argv"])


@settings(max_examples=30, deadline=None)
@given(ranks=rank_pairs(2, 5))
@example(ranks=[[0, -1, -1, -1, -1], [-1, 0, -1, -1, -1]])  # the 541 x 541 grid
def test_bfm_replies_up_to_5_objects(ranks):
    op = inputs._dist_op("bfm", len(ranks[0]), *ranks)
    assert_the_oracle_accepts(op, op["argv"])


def test_general_replies_of_one_block(tmp_path):
    """Every size 16..64 once, five of the ops with a malformed file (exit 2)."""
    (block,) = inputs.generate("general_masses", 1)
    assert len(block) == 49 and sum(op["malformed"] is not None for op in block) == 5
    for index, op in enumerate(block):
        paths = []
        for side, text in enumerate(op["files"]):
            path = tmp_path / f"{index}-{side}.json"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        assert_the_oracle_accepts(op, [arg.format(*paths) for arg in op["argv"]])


def test_the_oracle_imports_no_prefdist():
    script = (
        "import sys, oracle\n"
        "assert not [m for m in sys.modules if m.partition('.')[0] == 'prefdist']\n"
        "import prefdist  # the control: this interpreter finds the package\n"
    )
    env = fresh_env()
    env["PYTHONPATH"] = os.pathsep.join([str(BENCH), env["PYTHONPATH"]])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
