"""Measurement helpers taken from outside the package: spans around public
calls, counters on Ray Data's logger and execution callbacks, percentiles
and process memory from ``/proc``."""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import time


class Tracer:
    """In-memory spans around the benchmark's calls into the package.

    Each span records name, start, end, its parent span and the op id it
    belongs to. A disabled tracer records nothing, so the untraced run
    pays one no-op context manager per call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> dict:
        """name → (calls, total s, self s): a span's self time is its
        duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict = {}
        for s in self.spans:
            dur = s["end"] - s["start"]
            n, tot, slf = out.get(s["name"], (0, 0.0, 0.0))
            out[s["name"]] = (n + 1, tot + dur, slf + dur - child[s["id"]])
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.spans, f)


class RayDataCounter(logging.Handler):
    """Counts dataset executions and schema-mismatch warnings on the
    ``ray.data`` logger, and keeps each finished execution's operators as
    (name, start, end, CPU seconds) from the executor's stats."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.executions = 0
        self.schema_warnings = 0
        self.op_spans: list[tuple[str, float, float, float]] = []

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        if msg.startswith("Starting execution of Dataset"):
            self.executions += 1
        elif "with a different schema" in msg:
            self.schema_warnings += 1

    def attach(self) -> None:
        from ray.data import DataContext
        from ray.data._internal.execution.execution_callback import (
            ExecutionCallback, add_execution_callback)

        logging.getLogger("ray.data").addHandler(self)
        spans = self.op_spans

        class _Stats(ExecutionCallback):
            def after_execution_succeeds(self, executor):
                todo = [executor.get_stats().to_summary()]
                while todo:  # a summary lists its upstream stages as parents
                    summ = todo.pop()
                    todo.extend(summ.parents)
                    spans.extend((op.operator_name, op.earliest_start_time,
                                  op.latest_end_time,
                                  (op.cpu_time or {}).get("sum", 0.0))
                                 for op in summ.operators_stats)

            def __deepcopy__(self, memo):
                return self  # Datasets copy the context; keep one sink

            def __reduce__(self):
                # the DataContext travels to every task: workers get the
                # base class's no-op callback, not this driver-side sink
                return ExecutionCallback, ()

        add_execution_callback(_Stats(), DataContext.get_current())


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def process_tree_hwm_mb(root_pid: int) -> float:
    """Max VmHWM (peak resident set) over ``root_pid`` and every process
    descended from it — the driver plus the Ray processes it started."""
    parent: dict[int, int] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    parent[int(d)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
    tree, frontier = {root_pid}, [root_pid]
    while frontier:
        p = frontier.pop()
        for c, pp in parent.items():
            if pp == p and c not in tree:
                tree.add(c)
                frontier.append(c)
    peak = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024
