"""A persistent pool of checkpoint-seeded worker processes for read plans.

The GIL caps CPU-bound query execution at ~1× no matter how many threads
`parallel_query` fans out (the honest E-PERF7 number).  This module buys
real multi-core execution on stock CPython by shipping **compiled logical
plans** to worker **processes**:

* **Seeding.**  Each worker builds its engine with
  :func:`repro.storage.replication.seed_engine`, as a follower does: load
  the primary's latest checkpoint image, then replay the WAL tail with
  :func:`~repro.storage.recovery.replay_records` — the same idempotent redo
  path crash recovery trusts.  Workers never write the primary's files:
  unlike :func:`~repro.storage.recovery.recover`, seeding does not truncate
  torn WAL tails, it just stops at the last valid record.

* **Catch-up.**  The primary taps its WAL through
  :meth:`~repro.storage.wal.WriteAheadLog.add_observer` into an in-memory
  **record feed** with monotone sequence numbers.  Before a dispatch, each
  worker receives exactly the feed slice past its applied position — never
  a full reload — and replays it with the followers' routine
  (:func:`~repro.storage.recovery.replay_records`) into its engine's
  database, so its cached structures are maintained, not rebuilt.
  Sequence numbers (not generations) drive the slice: commit order is not
  generation order (a later-committing transaction can carry smaller
  generations), so filtering by generation could silently drop records.
  Generations are used only to *fast-forward* a worker's
  applied generation to the pin (generation ticks without WAL records —
  rollbacks, no-op writes — ship no bytes) and to *refuse* plans pinned to
  a generation behind the worker's state (a worker cannot rewind; the
  router falls back to primary-side snapshot execution).

* **Crash transparency.**  A worker that dies mid-dispatch (``kill -9``
  included) is detected on the pipe, respawned, reseeded from the on-disk
  checkpoint + WAL, caught up from the feed, and the statement retried;
  repeated crashes degrade to primary-side fallback, never to an error.

Because the observer fires *after* the record's bytes reach the OS, the
feed is always a suffix of the durable log: a worker seeded from the files
has at least every record the feed held at spawn time, and re-shipping the
overlap is safe — replay is idempotent (the same property recovery relies
on for the checkpoint-truncate crash window).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import threading

from repro.analysis.runtime import make_lock
from typing import Dict, List, Optional, Tuple

from repro.exceptions import StorageError

#: Dispatch labels used in shipped results and EXPLAIN notes.
DISPATCH_PROCESS = "process"
DISPATCH_PARTITIONED = "process-partitioned"


class WorkerCrashed(Exception):
    """The worker process died mid-conversation (detected on the pipe)."""


class WorkerRefused(Exception):
    """The worker cannot serve the plan's pinned generation."""


# ----------------------------------------------------------- worker process


def _execute_job(engine, job: Dict[str, object], applied_generation: int):
    """Execute one shipped plan on the worker's engine; returns the payload."""
    from repro.engine.executor import compile_plan
    from repro.engine.physical import (
        AggregationOperator,
        ColumnarAggregate,
        IntervalScan,
        RecursiveScan,
    )
    from repro.storage.shipping import (
        encode_group_states,
        encode_molecule_result,
        encode_row_result,
        plan_from_json,
    )

    pin = int(job["pin"])
    if pin > applied_generation:
        raise WorkerRefused(
            f"plan pinned to generation {pin} but worker applied only "
            f"{applied_generation} — catch-up missing"
        )
    if pin < applied_generation:
        raise WorkerRefused(
            f"plan pinned to generation {pin} but worker already applied "
            f"{applied_generation} — a worker cannot rewind"
        )
    plan = plan_from_json(job["plan"])
    interpreter = engine.interpreter()
    executor = interpreter.executor
    operator = compile_plan(plan)
    partition = job.get("partition")
    if partition is not None:
        if not isinstance(operator, (RecursiveScan, IntervalScan, ColumnarAggregate)):
            raise WorkerRefused(
                f"operator {type(operator).__name__} does not support partitioned execution"
            )
        operator.partition = (int(partition[0]), int(partition[1]))
    ctx = executor.context()
    if isinstance(operator, ColumnarAggregate) and job.get("mode") == "groups":
        groups = operator.partial_groups(ctx)
        payload: Dict[str, object] = {
            "kind": "groups",
            "groups": encode_group_states(operator.aggregates, groups),
        }
    elif isinstance(operator, AggregationOperator):
        payload = encode_row_result(operator.columns(), operator.rows(ctx))
    else:
        payload = encode_molecule_result(operator.execute(ctx))
    counters = ctx.counters
    payload["counters"] = {
        "molecules_derived": counters.molecules_derived,
        "atoms_touched": counters.atoms_touched,
        "restrictions_evaluated": counters.restrictions_evaluated,
        "links_followed": counters.links_followed,
        "index_lookups": counters.index_lookups,
        "groups_aggregated": counters.groups_aggregated,
        "columnar_rows_scanned": counters.columnar_rows_scanned,
    }
    return payload


def _worker_main(directory: str, conn) -> None:
    """Worker-process entry point: seed, then serve the pipe until stopped."""
    from repro.storage.recovery import replay_records
    from repro.storage.replication import seed_engine

    try:
        seed = seed_engine(directory, name="prima-worker")
    except BaseException as exc:  # noqa: BLE001 - reported to the primary
        try:
            conn.send(("seed_error", repr(exc)))
        finally:
            conn.close()
        return
    engine, applied_generation = seed.engine, seed.generation
    conn.send(("ready", applied_generation, seed.records_replayed))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op = message[0]
        if op == "stop":
            conn.send(("stopped",))
            break
        try:
            if op == "ping":
                conn.send(("pong", applied_generation, engine.maintenance_statistics()))
            elif op == "catchup":
                _op, records, target = message
                # The followers' replay routine: records fold into the
                # worker's database and every cached structure through the
                # engine's change listener — nothing is rebuilt per catch-up.
                applied_generation = replay_records(
                    engine, records, max(applied_generation, int(target))
                )
                conn.send(("caught", applied_generation, len(records)))
            elif op == "execute":
                payload = _execute_job(engine, message[1], applied_generation)
                conn.send(("result", payload))
            else:
                conn.send(("error", f"unknown op {op!r}"))
        except WorkerRefused as refusal:
            conn.send(("refused", str(refusal)))
        except BaseException as exc:  # noqa: BLE001 - reported to the primary
            conn.send(("error", repr(exc)))
    conn.close()


# ---------------------------------------------------------------- primary


class _WorkerHandle:
    """Primary-side state of one worker: process, pipe, applied positions."""

    __slots__ = ("process", "conn", "applied_seq", "applied_gen")

    def __init__(self, process, conn, applied_seq: int, applied_gen: int) -> None:
        self.process = process
        self.conn = conn
        #: Feed position (absolute sequence number) this worker has applied.
        #: Tracked primary-side: it only advances when the primary ships.
        self.applied_seq = applied_seq
        #: Generation the worker has reached (applied records + fast-forwards).
        self.applied_gen = applied_gen


class ProcessPool:
    """Spawn-context worker processes executing shipped read plans.

    Created lazily by :meth:`PrimaEngine.process_pool` (durable engines
    only).  The pool owns the catch-up feed: construction installs a WAL
    observer, so every record appended after this point is shippable
    incrementally; anything earlier is covered by the workers' file-based
    seeding.
    """

    def __init__(self, engine, size: int) -> None:
        if engine.durability is None or engine.wal is None:
            raise StorageError(
                "process-pool execution requires a durable engine: workers "
                "seed from the checkpoint image and WAL tail"
            )
        self._engine = engine
        self._directory = str(engine.durability.directory)
        self._context = multiprocessing.get_context("spawn")
        self._feed: List[Dict[str, object]] = []  # guarded-by: ProcessPool._feed_lock
        self._feed_base = 0  # absolute sequence number of self._feed[0]  # guarded-by: ProcessPool._feed_lock
        self._feed_lock = make_lock("ProcessPool._feed_lock")
        self._closed = False
        self.counters: Dict[str, int] = {
            "workers_started": 0,
            "dispatches": 0,
            "plans_shipped": 0,
            "catchup_records": 0,
            "restarts": 0,
            "refusals": 0,
            "fallbacks": 0,
            "partitioned": 0,
        }
        # Tap the WAL before any worker spawns: every record not yet on the
        # feed at spawn time is, by the observer's post-flush contract,
        # already in the files the worker seeds from.  The tap is one of
        # possibly many subscribers (a replication hub may tail the same
        # log); shutdown removes exactly this one.
        engine.wal.add_observer(self._observe)
        self._workers: List[_WorkerHandle] = [self._spawn() for _ in range(size)]  # guarded-by: ProcessPool._slot_locks
        #: One conversation (catch-up + execute batch, restarts included) at
        #: a time per worker slot — concurrent dispatches interleave across
        #: slots, never on one pipe.
        self._slot_locks: List[threading.Lock] = [
            make_lock("ProcessPool._slot_locks") for _ in self._workers
        ]

    # ------------------------------------------------------------- the feed

    def _observe(self, record: Dict[str, object]) -> None:
        with self._feed_lock:
            self._feed.append(record)

    def feed_position(self) -> int:
        """The absolute sequence number one past the last feed record."""
        with self._feed_lock:
            return self._feed_base + len(self._feed)

    def _feed_slice(self, start: int, stop: int) -> List[Dict[str, object]]:
        with self._feed_lock:
            base = self._feed_base
            return list(self._feed[max(0, start - base) : max(0, stop - base)])

    def _trim_feed(self) -> None:
        """Drop feed records every worker has applied (bounded memory)."""
        floor = min((worker.applied_seq for worker in self._workers), default=0)
        with self._feed_lock:
            drop = floor - self._feed_base
            if drop > 0:
                del self._feed[:drop]
                self._feed_base = floor

    # ------------------------------------------------------------ lifecycle

    @property
    def size(self) -> int:
        return len(self._workers)

    def _spawn(self) -> _WorkerHandle:
        # Capture the feed position *before* the process starts: every
        # record below it is durably in the files the worker reads, and any
        # overlap with records at/after it double-applies idempotently.
        applied_seq = self.feed_position()
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(self._directory, child_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()
        try:
            reply = parent_conn.recv()
        except (EOFError, OSError) as exc:
            raise StorageError(f"process-pool worker died while seeding: {exc!r}")
        if reply[0] != "ready":
            raise StorageError(f"process-pool worker failed to seed: {reply!r}")
        self.counters["workers_started"] += 1
        return _WorkerHandle(process, parent_conn, applied_seq, int(reply[1]))

    # requires: ProcessPool._slot_locks
    def _restart(self, index: int) -> None:
        worker = self._workers[index]
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=10)
        self._workers[index] = self._spawn()
        self.counters["restarts"] += 1

    def shutdown(self) -> None:
        """Stop every worker and remove the WAL tap (idempotent)."""
        if self._closed:
            return
        self._closed = True
        wal = self._engine.wal
        if wal is not None:
            wal.remove_observer(self._observe)
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
                worker.conn.recv()
            except (EOFError, OSError):
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.process.join(timeout=10)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=10)
        # Slot locks are deliberately NOT taken here: shutdown runs after
        # the engine unpublished the pool (no new dispatches can reach it)
        # and closing the pipes makes any in-flight conversation fail over
        # to serial execution rather than deadlock against a dead worker.
        self._workers = []  # lock-lint: ignore[unguarded-write] — see above: pool already unpublished, pipes closed

    # ------------------------------------------------------------- dispatch

    def _call(self, worker: _WorkerHandle, message: Tuple) -> Tuple:
        """One pipe round-trip; raises :class:`WorkerCrashed` on a dead pipe."""
        try:
            worker.conn.send(message)
            return worker.conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(repr(exc))

    def _catch_up(self, worker: _WorkerHandle, pin_gen: int, cut_seq: int) -> None:
        """Ship the feed slice ``(worker.applied_seq, cut_seq]`` and fast-forward.

        Raises :class:`WorkerRefused` when the worker is already past the
        pin (an explicitly pinned older generation) — it cannot rewind.
        """
        if worker.applied_gen > pin_gen or worker.applied_seq > cut_seq:
            raise WorkerRefused(
                f"worker at generation {worker.applied_gen} (seq {worker.applied_seq}) "
                f"is ahead of the pinned generation {pin_gen} (seq {cut_seq})"
            )
        records = self._feed_slice(worker.applied_seq, cut_seq)
        # A worker serves only its head: applying a record puts its state AT
        # that record's generation.  When the dispatch pins an older
        # generation the slice may contain commits past the pin (the cut is
        # the live feed head) — shipping those would make the worker answer
        # for a future the pin must not see, so the plan is refused instead.
        for record in records:
            if int(record.get("gen", 0)) > pin_gen:
                raise WorkerRefused(
                    f"catch-up slice contains a commit at generation "
                    f"{record.get('gen')}, past the pinned generation {pin_gen}"
                )
        reply = self._call(worker, ("catchup", records, pin_gen))
        if reply[0] != "caught":
            raise WorkerCrashed(f"catch-up failed: {reply!r}")
        worker.applied_seq = cut_seq
        worker.applied_gen = max(worker.applied_gen, pin_gen)
        self.counters["catchup_records"] += len(records)

    def catch_up_all(self, pin_gen: int, cut_seq: int) -> None:
        """Bring every worker to *(pin_gen, cut_seq)* (used by benchmarks/tests)."""
        for index in range(len(self._workers)):
            with self._slot_locks[index]:
                try:
                    self._catch_up(self._workers[index], pin_gen, cut_seq)
                except WorkerCrashed:
                    self._restart(index)
                    self._catch_up(self._workers[index], pin_gen, cut_seq)
        self._trim_feed()

    def run_batch(
        self,
        index: int,
        pin_gen: int,
        cut_seq: int,
        jobs: List[Tuple[int, Dict[str, object]]],
    ) -> Dict[int, Tuple]:
        """Run *jobs* (``(key, job)`` pairs) on worker *index*, in order.

        Each job's outcome is a worker reply tuple: ``("result", payload)``,
        ``("refused", why)`` or — after the crash-retry budget is spent —
        ``("fallback", why)``.  A crash mid-batch respawns the worker
        (reseeded from disk, caught up from the feed) and resumes with the
        job that was in flight.
        """
        outcomes: Dict[int, Tuple] = {}
        pending = list(jobs)
        crashes = 0
        with self._slot_locks[index]:
            while pending:
                worker = self._workers[index]
                try:
                    self._catch_up(worker, pin_gen, cut_seq)
                    while pending:
                        key, job = pending[0]
                        reply = self._call(worker, ("execute", job))
                        pending.pop(0)
                        outcomes[key] = reply
                        if reply[0] == "result":
                            self.counters["plans_shipped"] += 1
                        elif reply[0] == "refused":
                            self.counters["refusals"] += 1
                except WorkerRefused as refusal:
                    for key, _job in pending:
                        outcomes[key] = ("refused", str(refusal))
                    self.counters["refusals"] += len(pending)
                    pending = []
                except WorkerCrashed:
                    crashes += 1
                    if crashes > 2:
                        for key, _job in pending:
                            outcomes[key] = ("fallback", "worker crashed repeatedly")
                        pending = []
                    else:
                        self._restart(index)
        return outcomes

    def dispatch_state(self) -> Dict[str, int]:
        """Pool telemetry for the planner's dispatch costing."""
        tail = self.feed_position()
        backlog = max(
            (tail - worker.applied_seq for worker in self._workers), default=0
        )
        return {"workers": len(self._workers), "backlog": backlog}

    def worker_pids(self) -> List[int]:
        """The workers' process ids (crash tests kill these)."""
        return [worker.process.pid for worker in self._workers]
