"""End-to-end benchmark of the prefdist command line, with a traced per-layer run.

Usage, from the repository root::

    python3 bench/run.py --workload belief_orders --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One closed-loop client in one process calls ``prefdist.cli.main(argv)`` in
process, with stdout and stderr captured, and checks the exit code and every
JSON value of each reply against ``oracle.py``, which does not import
prefdist.  Inputs come from ``inputs.py`` and depend only on the workload and
the seed.  Before timing, the runner measures set-up (``import prefdist.cli``
in fresh interpreters), writes the input files, computes every reference and
makes one untimed call per method.

``--trace 0`` times whole blocks of ops until ``--seconds`` have passed and
reports the end-to-end metrics.  Times are scaled to a reference machine
speed measured around and inside each op (``speed.py``), because the speed
this process gets on a shared machine drifts; the unscaled values are
printed beside them and kept in the run record.  ``--trace 1`` repeats the
first block of the workload, alternately without and with span recorders
(``tracing.py``), and reports per-op layer metrics plus the traced/untraced
time ratio.  Either way
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record of the run, spans included, goes
to ``bench/out/``.  ``--workload all`` runs every workload in its own process
and prints all their metrics.

An op fails when its exit code is wrong, it raises, a value is off the
reference by more than 1e-9 (relative above 1), or it runs over the per-op
time limit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per process: BLAS worker threads would compete with the client
# for the few cores, and the fresh interpreters of measure_setup inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

import inputs
import oracle
import speed
from tracing import Recorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

TOLERANCE = 1e-9
OP_LIMIT_S = {"belief_orders": 10.0, "bfm_dense": 10.0, "bfm_sparse": 20.0,
              "general_masses": 10.0}
def _hard_stop(seconds: float) -> float:
    """No op starts later than this many seconds into a run."""
    return max(3.0 * seconds, 60.0)
SETUP_REPEATS = 9
UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"cli.stdout_bytes": "bytes", "belief.load_bytes": "bytes",
               "enumeration.yield_ratio": "ratio", "trace.overhead_ratio": "ratio"}

_IMPORT_TIMER = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import speed; "
    "before = speed.yardstick_ms(); start = time.perf_counter(); import prefdist.cli; "
    "elapsed = time.perf_counter() - start; print(elapsed, before, speed.yardstick_ms())"
)


def measure_setup() -> tuple[float, float]:
    """Median seconds of ``import prefdist.cli`` over fresh interpreters, scaled
    to the reference speed, and the raw median.

    The first, untimed import writes the bytecode cache, as installing does.
    """
    def once() -> tuple[float, float]:
        done = subprocess.run([sys.executable, "-I", "-c", _IMPORT_TIMER, str(SRC), str(BENCH)],
                              capture_output=True, text=True, timeout=120, check=True)
        elapsed, before, after = (float(x) for x in done.stdout.split())
        return speed.scale(elapsed, [before, after]), elapsed

    once()
    samples = [once() for _ in range(SETUP_REPEATS)]
    return (statistics.median(s for s, _ in samples), statistics.median(r for _, r in samples))


def import_cli():
    sys.path.insert(0, str(SRC))
    import prefdist.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "prefdist":
        raise ImportError(f"prefdist imported from {cli.__file__}, not from {SRC}")
    return cli


class OpTimeout(BaseException):
    """Raised into an op that overruns its limit; a BaseException so that the
    program's own ``except Exception`` handlers do not swallow it."""


class Client:
    """Closed-loop caller of ``cli.main`` with a per-op time limit (SIGALRM).

    With a ``speed.Probe`` set, each call also samples the machine speed, and
    the time spent in those samples is left out of the op's time.
    """

    def __init__(self, cli, limit_s: float) -> None:
        self.cli = cli
        self.limit_s = limit_s
        self.armed = False
        self.probe: speed.Probe | None = None
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame) -> None:
        if self.armed:
            self.armed = False
            raise OpTimeout

    def call(self, argv: list[str]) -> tuple[int, int | None, str, str | None]:
        """Returns (ns, exit code, stdout, error); error names a timeout or exception."""
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        probe = self.probe
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.limit_s)
        if probe:
            probe.start()
        start = time.perf_counter_ns()
        try:
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(argv)  # looked up per call, so tracing sees it
            finally:
                elapsed = time.perf_counter_ns() - start
                self.armed = False
                if probe:
                    probe.stop()
                    elapsed -= probe.spent_ns
        except OpTimeout:
            error = f"over the {self.limit_s} s limit"
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed op, not a failed run
            error = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return elapsed, code, out.getvalue(), error


def check(code: int | None, out: str, expect: dict) -> bool:
    """Whether a reply matches the reference: exit code, keys and every value."""
    if code != expect["exit"]:
        return False
    if code != 0:
        return out == ""
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return False
    want = expect["payload"]
    if not isinstance(payload, dict) or payload.keys() != want.keys():
        return False
    for key, value in want.items():
        got = payload[key]
        if key == "grid":
            reference = oracle.grid(*value)
            grid = np.asarray(got, dtype=np.float64)
            if grid.shape != reference.shape or not np.all(np.abs(grid - reference) <= TOLERANCE):
                return False
        elif isinstance(value, float):
            if (not isinstance(got, (int, float)) or isinstance(got, bool)
                    or not abs(got - value) <= TOLERANCE * max(1.0, abs(value))):
                return False
        elif got != value:
            return False
    return True


def prepare(blocks: list[list[dict]], workdir: Path) -> list[list[dict]]:
    """Write input files and compute every reference before timing starts."""
    prepared = []
    for b, block in enumerate(blocks):
        ops = []
        for i, op in enumerate(block):
            argv = op["argv"]
            if "files" in op:
                paths = []
                for k, text in enumerate(op["files"]):
                    path = workdir / f"b{b}-op{i}-{k}.json"
                    path.write_text(text, encoding="utf-8")
                    paths.append(str(path))
                argv = [arg.format(*paths) for arg in argv]
            ops.append({"argv": argv, "expect": oracle.expect(op)})
        prepared.append(ops)
    return prepared


def _size(op: dict) -> int:
    payload = op["expect"]["payload"]
    if "n_ctpo" in payload:
        return math.prod(payload["n_ctpo"])
    return payload.get("n") or len(payload["objects"])


def warm_up(client: Client, blocks: list[list[dict]]) -> None:
    """One untimed call per method, on its smallest op."""
    smallest: dict[tuple, dict] = {}
    for op in (op for block in blocks for op in block if op["expect"]["exit"] == 0):
        method = (op["argv"][0], op["expect"]["payload"]["method"])
        if method not in smallest or _size(op) < _size(smallest[method]):
            smallest[method] = op
    for op in smallest.values():
        client.call(op["argv"])


NAN_MASS_FILE = json.dumps({"n": 2, "cells": [[{"2": 1.0}, {"1": math.nan}],
                                              [{"3": 1.0}, {"2": 1.0}]]})


def nan_mass_probe(client: Client, workdir: Path) -> int | None:
    """Exit code of one untimed ``dist-general`` call on a file with a NaN mass.

    The right code is 2.  The program returns 0 and prints a NaN distance, a
    known validation hole; it is reported beside the result, not counted as a
    failed op, because every timed op of a workload must be one the program
    handles correctly.
    """
    path = workdir / "nan-mass.json"
    path.write_text(NAN_MASS_FILE)
    return client.call(["dist-general", str(path), str(path)])[1]


class Tally:
    """Attempted and failed ops, with the first few failures described."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, argv, code, out, error, expect) -> None:
        self.attempted += 1
        if error is None and check(code, out, expect):
            return
        self.failed += 1
        if len(self.errors) < 5:
            shown = " ".join(os.path.basename(arg) for arg in argv)
            self.errors.append(f"{shown[:160]}: exit {code}, "
                               f"expected {expect['exit']}{', ' + error if error else ''}")


def _go_on(start: float, seconds: float, units_done: int) -> bool:
    """Whether to start another unit (a block, or a pair of passes): stop at the
    unit boundary nearest to ``seconds``, after at least one unit."""
    elapsed = time.perf_counter() - start
    return units_done == 0 or elapsed + elapsed / units_done / 2 < seconds


def _deciles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=10) if len(values) > 1 else values * 9


def timed_run(client: Client, blocks, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Whole blocks in a closed loop; end-to-end metrics, scaled and raw."""
    wall_ms: list[float] = []
    scaled_ms: list[float] = []
    speed_ms: list[float] = []
    client.probe = speed.Probe()
    start = time.perf_counter()

    def run_blocks() -> None:
        for b in range(sys.maxsize):
            if not _go_on(start, seconds, b):
                return
            for op in blocks[b % len(blocks)]:
                if time.perf_counter() - start >= _hard_stop(seconds):
                    return
                ns, code, out, error = client.call(op["argv"])
                wall_ms.append(ns / 1e6)
                scaled_ms.append(speed.scale(ns / 1e6, client.probe.samples))
                speed_ms.append(statistics.fmean(client.probe.samples))
                tally.record(op["argv"], code, out, error, op["expect"])

    gc.collect()
    try:
        run_blocks()
    finally:
        client.probe = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = []
    for latencies in (scaled_ms, wall_ms):
        deciles = _deciles(latencies)
        results.append({
            "ops_per_s": len(latencies) / (sum(latencies) / 1e3),
            "latency_p50_ms": deciles[4],
            "latency_p90_ms": deciles[8],
            "peak_rss_mb": peak_rss_mb,
        })
    results[1].update(speed_ms_median=statistics.median(speed_ms), wall_ms=wall_ms,
                      speed_ms=speed_ms)
    return results[0], results[1]


def traced_run(client: Client, block, seconds: float, tally: Tally) -> tuple[dict, list]:
    """Repeat one block, untraced and traced in alternating order; per-op layer metrics.

    A first untimed pass keeps first-touch costs out of both sides.
    """
    recorder = Recorder()
    wall_ns = {False: 0, True: 0}
    traced_ops = stdout_bytes = 0
    gc.collect()
    begin = time.perf_counter()

    def one_pass(traced: bool) -> None:
        nonlocal traced_ops, stdout_bytes
        patched = recorder.install() if traced else []
        try:
            for op in block:
                if time.perf_counter() - begin >= _hard_stop(seconds):
                    return
                recorder.op = traced_ops
                ns, code, out, error = client.call(op["argv"])
                tally.record(op["argv"], code, out, error, op["expect"])
                wall_ns[traced] += ns
                if traced:
                    traced_ops += 1
                    stdout_bytes += len(out.encode())
        finally:
            Recorder.uninstall(patched)

    one_pass(False)
    wall_ns[False] = 0
    start = time.perf_counter()
    pairs = 0
    while _go_on(start, seconds, pairs):
        one_pass(pairs % 2 == 1)
        one_pass(pairs % 2 == 0)
        pairs += 1
    metrics = recorder.layer_metrics(traced_ops)
    metrics["cli.stdout_bytes"] = stdout_bytes / traced_ops
    metrics["trace.overhead_ratio"] = wall_ns[True] / wall_ns[False]
    return metrics, recorder.spans


def _commit() -> str:
    """HEAD commit when the tree is a git checkout, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args: argparse.Namespace) -> int:
    if not (SRC / "prefdist" / "cli.py").is_file():
        print(f"error: no prefdist sources under {SRC}", file=sys.stderr)
        return 2
    setup_s, setup_raw_s = measure_setup()
    cli = import_cli()
    blocks = inputs.generate(args.workload, args.seed)
    described = inputs.describe(blocks)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"files-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        prepared = prepare(blocks, workdir)
        del blocks
        described["completions"] = _completion_counts(prepared)
        client = Client(cli, OP_LIMIT_S[args.workload])
        warm_up(client, prepared)
        nan_exit = nan_mass_probe(client, workdir) if args.workload == "general_masses" else None
        tally = Tally()
        spans: list = []
        raw: dict = {}
        if args.trace:
            metrics, spans = traced_run(client, prepared[0], args.seconds, tally)
            units = {name: LAYER_UNITS.get(name, "ms" if name.endswith("_ms") else "count")
                     for name in metrics}
        else:
            metrics, raw = timed_run(client, prepared, args.seconds, tally)
            metrics["setup_s"] = setup_s
            raw["setup_s"] = setup_raw_s
            units = UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(), "ops": tally.attempted,
        "failed": tally.failed, "fail_ratio": tally.failed / tally.attempted,
        "inputs": described,
    }
    if nan_exit is not None:
        meta["nan_mass_exit"] = nan_exit
    record = {"meta": meta, "metrics": metrics, "raw_wall_metrics": raw,
              "errors": tally.errors, "spans": spans}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} ops, {tally.failed} failed")
    for name, value in metrics.items():
        wall = f"   (unscaled: {raw[name]:.6g})" if name in raw else ""
        print(f"{name:32s} {value:14.6g} {units[name]}{wall}")
    print(f"{'fail_ratio':32s} {tally.failed / tally.attempted:14.6g} ratio")
    for line in tally.errors:
        print(f"failed: {line}")
    if nan_exit not in (None, 2):
        print(f"known defect: a NaN-mass file exits {nan_exit}, expected 2 (not a timed op)")
    print("meta " + json.dumps(meta))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _completion_counts(prepared: list[list[dict]]) -> list[int] | None:
    """Smallest and largest completion count of any order (bfm workloads only)."""
    counts = [n for block in prepared for op in block
              for n in op["expect"].get("payload", {}).get("n_ctpo", ())]
    return [min(counts), max(counts)] if counts else None


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; prints its metric lines and failures."""
    status = 0
    for workload in inputs.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = done.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("meta ")))
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
