"""Tests of the benchmark itself: input generation, the reference oracle, the
reply check and the span recorder.  Run with ``python3 -m pytest bench/tests``."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracing import Recorder  # noqa: E402

TOL = 5e-5
C_OVER_A = [1, -1, 0]  # "C > A" over A, B, C
A_OVER_B = [0, 1, -1]  # "A > B"


def _normalized(method, r1, r2):
    return oracle.expect(inputs._dist_op(method, len(r1), r1, r2))["payload"]["normalized"]


def test_metrics_match_the_declaration():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.UNITS
    traced = list(Recorder().layer_metrics(1)) + ["cli.stdout_bytes", "trace.overhead_ratio"]
    assert sorted(m["name"] for m in declared["per_layer"]) == sorted(traced)
    for m in declared["per_layer"]:
        default = "ms" if m["name"].endswith("_ms") else "count"
        assert m["unit"] == run.LAYER_UNITS.get(m["name"], default)
    assert [w["name"] for w in declared["workloads"]] == list(inputs.WORKLOADS)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_bytes(workload):
    first = inputs.dumps(inputs.generate(workload, 7))
    assert first == inputs.dumps(inputs.generate(workload, 7))
    assert first != inputs.dumps(inputs.generate(workload, 8))


def test_blocks_share_their_composition():
    for block in inputs.generate("belief_orders", 3):
        methods = sorted(op["argv"][2] for op in block)
        assert methods == sorted(inputs.BELIEF_METHODS * inputs.BELIEF_STRATA)
        assert all(8 <= len(op["ranks"][0]) <= 64 for op in block)
    for block in inputs.generate("general_masses", 3):
        assert sorted(op["n"] for op in block) == list(range(16, 65))
        broken = {op["n"]: op["malformed"] for op in block if op["malformed"]}
        assert sorted(broken) == list(inputs.MALFORMED_SIZES)
        assert set(broken.values()) == set(inputs.MALFORMED_KINDS)


def test_oracle_reproduces_acceptance_values():
    assert abs(_normalized("direct", [1, 0, 2], [2, 0, 1]) - 0.5774) < TOL
    assert abs(_normalized("bfm", C_OVER_A, A_OVER_B) - 0.6966) < TOL
    assert abs(_normalized("direct", C_OVER_A, A_OVER_B) - 0.8165) < TOL
    assert abs(_normalized("indirect-j", C_OVER_A, A_OVER_B) - 0.4832) < TOL
    assert abs(_normalized("indirect-bi", C_OVER_A, A_OVER_B) - 0.4419) < TOL


def test_oracle_counts_weak_orders_and_completions():
    assert [len(oracle.weak_orders(n)) for n in range(1, 7)] == [1, 3, 13, 75, 541, 4683]
    assert len(oracle.completions([0, -1, -1, -1, -1])) == 541
    assert len(oracle.completions([0, 1, -1, -1, -1])) == 233
    assert len(oracle.completions([0, 0, -1, -1, -1])) == 75


def test_oracle_rejects_each_malformed_kind():
    ops = [op for block in inputs.generate("general_masses", 5) for op in block]
    for op in ops:
        assert oracle.expect(op)["exit"] == (2 if op["malformed"] else 0)
    assert oracle.mass_array(run.NAN_MASS_FILE) is None


def _reply(argv):
    from prefdist import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", ["belief_orders", "bfm_dense", "bfm_sparse"])
def test_program_replies_match_the_oracle(workload):
    block = inputs.generate(workload, 11)[0]
    for op in sorted(block, key=lambda op: len(op["ranks"][0]))[:3]:
        code, out = _reply(op["argv"])
        assert run.check(code, out, oracle.expect(op))


def test_check_rejects_a_value_off_by_more_than_the_tolerance():
    op = inputs._dist_op("direct", 3, C_OVER_A, A_OVER_B)
    code, out = _reply(op["argv"])
    payload = json.loads(out)
    payload["normalized"] += 1e-6
    assert run.check(code, out, oracle.expect(op))
    assert not run.check(code, json.dumps(payload), oracle.expect(op))
    assert not run.check(2, "", oracle.expect(op))


def test_traced_counts_follow_the_call_structure():
    recorder = Recorder()
    op = inputs._dist_op("bfm", 3, C_OVER_A, A_OVER_B)
    patched = recorder.install()
    try:
        recorder.op = 0
        _reply(op["argv"])
    finally:
        Recorder.uninstall(patched)
    metrics = recorder.layer_metrics(1)
    assert metrics["bfm.grid_cells"] == 25
    assert metrics["psm.frobenius_calls"] == 25 + 2
    assert metrics["enumeration.completions"] == 10
    assert metrics["enumeration.candidates"] == 26
    parents = {span[2]: span for span in recorder.spans}
    grid = next(span for span in recorder.spans if span[0] == "bfm.bfm_grid")
    assert parents[grid[3]][0] == "bfm.bfm_distance"


def test_a_missing_boundary_function_reads_as_zero(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + (("prefdist.bfm", "gone", "bfm.gone"),))
    recorder = Recorder()
    patched = recorder.install()
    try:
        _reply(inputs._dist_op("direct", 3, C_OVER_A, A_OVER_B)["argv"])
    finally:
        Recorder.uninstall(patched)
    metrics = recorder.layer_metrics(1)
    assert metrics["belief.encode_calls"] == 4
    assert metrics["bfm.grid_self_ms"] == 0.0


def test_program_rejects_each_malformed_kind(tmp_path):
    block = inputs.generate("general_masses", 5)[0]
    for op in (op for op in block if op["malformed"]):
        paths = []
        for k, text in enumerate(op["files"]):
            paths.append(tmp_path / f"{op['malformed']}-{k}.json")
            paths[-1].write_text(text)
        assert _reply(["dist-general", *map(str, paths)]) == (2, "")


def test_nan_mass_probe_returns_an_exit_code(tmp_path):
    client = run.Client(run.import_cli(), 10.0)
    assert run.nan_mass_probe(client, tmp_path) in (0, 2)
