"""Spans around the engine's layer entry points, recorded from outside ``src/``.

The tracer patches public callables of each layer for the length of a traced
block and restores the originals afterwards, so untraced blocks run the
unmodified program.  Every span carries its parent span and the id of the
client statement it belongs to; spans stay in memory until the run ends.

A layer's *self* time is its span's duration minus the part of that interval
its child spans cover.  The client statement is the root span (layer
``statement``); its self time is the time spent in glue code outside every
wrapped callable, so the self times of one statement always add up to its
traced latency.
"""

from __future__ import annotations

import gzip
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = "statement"

#: ``(module, attribute path, layer)`` — the callables each traced block
#: wraps.  Free functions imported with ``from … import`` are patched in the
#: module that looks them up at call time.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.mql.parser", "tokenize", "mql.lexer"),
    ("repro.mql.interpreter", "parse", "mql.parser"),
    # SnapshotHandle.query and the replica router import parse lazily.
    ("repro.mql.parser", "parse", "mql.parser"),
    ("repro.mql.translator", "QueryTranslator.translate_statement", "mql.translator"),
    ("repro.mql.translator", "QueryTranslator.translate_dml", "mql.translator"),
    ("repro.optimizer.planner", "Planner.optimize", "optimizer.planner"),
    ("repro.engine.executor", "Executor.run", "engine.executor"),
    ("repro.engine.executor", "Executor.run_aggregate", "engine.executor"),
    ("repro.engine.executor", "Executor.run_write", "engine.executor"),
    ("repro.manipulation.transactions", "Transaction.commit", "manipulation.transactions"),
    ("repro.storage.wal", "WriteAheadLog.commit_events", "storage.wal"),
    ("repro.storage.wal", "WriteAheadLog.append", "storage.wal"),
    # Under the batch policy appends fsync through _fsync, never through
    # sync(); sync() itself ends in _fsync, so this one name sees them all.
    ("repro.storage.wal", "WriteAheadLog._fsync", "storage.wal"),
    ("repro.storage.wal", "WriteAheadLog.truncate", "storage.wal"),
    ("repro.core.database", "Database.collect_versions", "core.versions"),
    # The interpreter holds PrimaEngine.checkpoint as a bound method taken
    # at construction, so the image write is wrapped where it is looked up.
    ("repro.storage.recovery", "write_checkpoint", "storage.recovery"),
    ("repro.storage.engine", "SnapshotHandle.query", "core.versions"),
    ("repro.storage.replication", "ReplicationHub.ship", "storage.replication"),
    ("repro.storage.replication", "FollowerEngine.apply_records", "storage.replication"),
    ("repro.storage.replication", "FollowerEngine.query", "storage.replication"),
)

#: Span record: (span id, parent id, statement id, layer, name, start, end).
Span = Tuple[int, Optional[int], int, str, str, float, float]


class Tracer:
    """Records spans while installed; one client thread issues statements.

    Spans opened on another thread (the replica router's fan-out pool)
    attach to the innermost open span of the client thread, which is
    blocked waiting for them.
    """

    def __init__(self, targets: Sequence[Tuple[str, str, str]] = TARGETS) -> None:
        self.targets = tuple(targets)
        self.spans: List[Span] = []
        self.statement_id = 0
        #: Per-name observation hooks: name -> callable(result) -> None.
        self.observers: Dict[str, Callable[[object], None]] = {}
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._client_stack: List[int] = []
        self._client_thread: Optional[int] = None
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._client_thread:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def _enter(self) -> Tuple[int, Optional[int], List[int]]:
        stack = self._stack()
        if stack:
            parent: Optional[int] = stack[-1]
        else:
            parent = self._client_stack[-1] if self._client_stack else None
        span_id = self._new_id()
        stack.append(span_id)
        return span_id, parent, stack

    def wrap(self, function: Callable, layer: str, name: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._client_stack:
                # Outside every client statement (the benchmark's own result
                # checks): not statement work, so not recorded.
                return function(*args, **kwargs)
            span_id, parent, stack = tracer._enter()
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, tracer.statement_id, layer, name, start, end)
                )
            observer = tracer.observers.get(name)
            if observer is not None:
                observer(result)
            return result

        traced.__wrapped__ = function
        return traced

    @contextmanager
    def statement(self, label: str = ROOT):
        """The root span of one client statement, named by its class."""
        self.statement_id += 1
        span_id, parent, stack = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, self.statement_id, ROOT, label, start, end))

    # ------------------------------------------------------ installation

    @staticmethod
    def _resolve(module_name: str, path: str) -> Tuple[object, str]:
        owner: object = importlib.import_module(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        self._client_thread = threading.get_ident()
        for module_name, path, layer in self.targets:
            owner, attribute = self._resolve(module_name, path)
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(original, layer, path))
        try:
            yield self
        finally:
            while self._saved:
                owner, attribute, original = self._saved.pop()
                setattr(owner, attribute, original)

    # ---------------------------------------------------------- analysis

    def write(self, path) -> None:
        """Write the recorded spans as gzip'd JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of *intervals*."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    children: Dict[Optional[int], List[Tuple[float, float]]] = defaultdict(list)
    for _, parent, _, _, _, start, end in spans:
        children[parent].append((start, end))
    result: Dict[int, float] = {}
    for span_id, _, _, _, _, start, end in spans:
        inside = [
            (max(s, start), min(e, end)) for s, e in children.get(span_id, ()) if e > start and s < end
        ]
        result[span_id] = (end - start) - covered(inside)
    return result


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: summed self time, summed inclusive time and span count.

    Also keyed per wrapped name (``name:<path>``) for inclusive timings of
    one callable, such as the WAL's fsync or the follower's query.
    """
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(lambda: {"self": 0.0, "total": 0.0, "count": 0})
    for span_id, _, _, layer, name, start, end in spans:
        for key in (layer, "name:" + name):
            entry = totals[key]
            entry["self"] += selfs[span_id]
            entry["total"] += end - start
            entry["count"] += 1
    return dict(totals)


def calibrate(iterations: int = 5000) -> float:
    """Seconds one wrapped call adds over the bare call, measured here."""
    tracer = Tracer(targets=())

    def noop():
        return None

    wrapped = tracer.wrap(noop, "calibration", "noop")
    tracer._client_thread = threading.get_ident()
    costs = []
    with tracer.statement("calibration"):
        for _ in range(5):
            started = time.perf_counter()
            for _ in range(iterations):
                noop()
            bare = time.perf_counter() - started
            started = time.perf_counter()
            for _ in range(iterations):
                wrapped()
            costs.append((time.perf_counter() - started - bare) / iterations)
    return sorted(costs)[len(costs) // 2]
