"""Span recorder for the traced run, installed from outside the program.

``install`` replaces the public boundary functions of prefdist, and every
alias of them that ``from .x import y`` created in another prefdist module,
by wrappers that record a span per call.  Calls between modules go through
those aliases, so spans nest as the calls do, and a span's self time is its
duration minus the durations of its direct children.  Per-cell functions get
call counters only.  A name that no longer exists is skipped, so its metrics
read zero.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

# (defining module, function, span name); each span name is "<layer>.<function>".
SPANS = (
    ("prefdist.cli", "main", "cli.main"),
    ("prefdist.model", "parse_preference", "model.parse_preference"),
    ("prefdist.enumeration", "compatible_tpos", "enumeration.compatible_tpos"),
    ("prefdist.bfm", "bfm_grid", "bfm.bfm_grid"),
    ("prefdist.bfm", "bfm_distance", "bfm.bfm_distance"),
    ("prefdist.psm", "max_psm_distance", "psm.max_psm_distance"),
    ("prefdist.belief", "build_bba_matrix", "belief.build_bba_matrix"),
    ("prefdist.belief", "direct_distance", "belief.direct_distance"),
    ("prefdist.belief", "indirect_psm", "belief.indirect_psm"),
    ("prefdist.belief", "indirect_distance", "belief.indirect_distance"),
    ("prefdist.belief", "load_bba_matrix", "belief.load_bba_matrix"),
    ("prefdist.belief", "direct_distance_general", "belief.direct_distance_general"),
)
COUNTERS = (
    ("prefdist.psm", "build_psm", "psm.build_psm_calls"),
    ("prefdist.psm", "frobenius_distance", "psm.frobenius_calls"),
)
# Weak orders a completion search draws from this generator are its candidates.
CANDIDATES = ("prefdist.enumeration", "enumerate_weak_orders", "enumeration.candidates")


def _observe(counts: Counter, span: str, args: tuple, result: object) -> None:
    """Work counts read off a boundary call's arguments and result."""
    if span == "enumeration.compatible_tpos":
        counts["enumeration.completions"] += len(getattr(result, "ctpos", ()))
    elif span == "bfm.bfm_grid":
        counts["bfm.grid_cells"] += int(getattr(result, "size", 0))
    elif span == "belief.build_bba_matrix":
        counts["belief.cells"] += int(getattr(result, "n", 0)) ** 2
    elif span == "belief.load_bba_matrix" and args and isinstance(args[0], str):
        counts["belief.load_bytes"] += os.path.getsize(args[0])


class Recorder:
    """Spans and counters of the traced ops, kept in memory until the run ends.

    A span is ``(name, op, index, parent index or -1, start ns, end ns,
    self ns)``; ``op`` is the index of the op that caused it, set by the
    caller through ``self.op``.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[list[int]] = []  # open spans: [index, child ns]
        self._next = 0

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = self._next
            self._next += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [index, 0]
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((name, self.op, index, parent, start, end,
                                   end - start - frame[1]))
            _observe(self.counts, name, args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _item_counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)  # argument checks still raise at the call

            def counted():
                for item in items:
                    self.counts[name] += 1
                    yield item

            return counted()

        return wrapper

    def install(self) -> list[tuple]:
        """Wrap every target and its aliases; returns what ``uninstall`` restores."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "prefdist" or key.startswith("prefdist."))]
        targets = [(*target, self._span) for target in SPANS]
        targets += [(*target, self._counter) for target in COUNTERS]
        targets.append((*CANDIDATES, self._item_counter))
        patched = []
        for home, fn_name, name, make in targets:
            original = getattr(sys.modules.get(home), fn_name, None)
            if original is None:
                continue
            wrapper = make(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        return patched

    @staticmethod
    def uninstall(patched: list[tuple]) -> None:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op layer metrics over ``ops`` traced ops (all zero for a missing layer)."""
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for name, _op, _index, _parent, start, end, self_ns in self.spans:
            total[name] += end - start
            own[name] += self_ns
            calls[name] += 1

        def ms(counter: Counter, *names: str) -> float:
            return sum(counter[n] for n in names) / 1e6 / ops

        def per_op(key: str) -> float:
            return self.counts[key] / ops

        candidates = self.counts["enumeration.candidates"]
        return {
            "cli.main_ms": ms(total, "cli.main"),
            "cli.self_ms": ms(own, "cli.main"),
            "model.parse_ms": ms(total, "model.parse_preference"),
            "enumeration.compatible_ms": ms(total, "enumeration.compatible_tpos"),
            "enumeration.candidates": per_op("enumeration.candidates"),
            "enumeration.completions": per_op("enumeration.completions"),
            "enumeration.yield_ratio": (
                self.counts["enumeration.completions"] / candidates if candidates else 0.0
            ),
            "bfm.grid_self_ms": ms(own, "bfm.bfm_grid"),
            "bfm.grid_cells": per_op("bfm.grid_cells"),
            "bfm.reduce_ms": ms(own, "bfm.bfm_distance"),
            "psm.frobenius_calls": per_op("psm.frobenius_calls"),
            "psm.build_psm_calls": per_op("psm.build_psm_calls"),
            "psm.max_ms": ms(total, "psm.max_psm_distance"),
            "belief.encode_ms": ms(total, "belief.build_bba_matrix"),
            "belief.encode_calls": calls["belief.build_bba_matrix"] / ops,
            "belief.cells": per_op("belief.cells"),
            "belief.indirect_psm_self_ms": ms(own, "belief.indirect_psm"),
            "belief.distance_self_ms": ms(
                own, "belief.direct_distance", "belief.indirect_distance",
                "belief.direct_distance_general",
            ),
            "belief.load_ms": ms(total, "belief.load_bba_matrix"),
            "belief.load_bytes": per_op("belief.load_bytes"),
        }
