"""Log-shipping replication: follower engines, catch-up, and promotion.

The WAL's commit and DDL records are a self-contained replication feed
(every record carries the full change events of one committed unit), and
the recovery machinery replays them idempotently — the two properties this
module combines into read scale-out:

* **Seeding.**  A :class:`FollowerEngine` builds its state from the
  primary's durability directory exactly the way a process-pool worker
  does: bulk-load the checkpoint image, replay the WAL tail with
  :func:`~repro.storage.recovery.replay_records`, never write a byte back.
  Unlike :func:`~repro.storage.recovery.recover`, a torn WAL tail is *not*
  truncated — against a live primary it is an in-flight append, not a
  crash artefact (see :func:`~repro.storage.wal.read_wal`).

* **Tailing.**  Two transports share the same apply path,
  :func:`~repro.storage.recovery.replay_records`, which replays each
  commit as mutations on the follower engine's database so every derived
  structure is maintained in place (see :class:`FollowerEngine`):

  - **in-process** — a :class:`ReplicationHub` taps the primary's WAL via
    :meth:`~repro.storage.wal.WriteAheadLog.add_observer` into an
    in-memory record feed with monotone sequence numbers (the PR 8
    contract: the observer fires inside the log mutex *after* the bytes
    reach the OS, so the feed is always a suffix of the durable file and
    a follower seeded from the files holds at least every record the
    feed held at seed time — re-shipping the overlap double-applies
    idempotently);
  - **out-of-process** — :meth:`FollowerEngine.poll` reads the WAL file
    incrementally (``read_wal(path, from_offset=…)``), treats a torn
    tail as *not yet* (re-polls from the last good offset, never
    truncates), and survives primary checkpoint truncation by re-seeding
    from the new image when the checkpoint stamp changes or the log
    shrinks below the consumed offset.

* **Catch-up.**  The follower reports ``applied_seq``; the hub ships the
  ``(applied_seq, cut]`` feed slice.  Sequence numbers — not generations —
  drive the slice (commit order is not generation order); generations only
  *fast-forward* the follower to the pin or *refuse* a ship whose pin lies
  behind the follower's state (a follower cannot rewind) or whose slice
  contains a commit past the pin (too fresh for the pinned read).

* **Promotion.**  :meth:`FollowerEngine.promote` fences the old primary
  *first* (no record can enter the feed afterwards), then ships the final
  slice, then detaches — so the promoted engine's state is byte-identical
  to the primary's committed head at the fence point.  The fenced primary
  refuses every subsequent write (basic interface, DDL, and transactions —
  in-flight transactions abort at their commit point).

The replica-aware read router lives on the engine
(:meth:`PrimaEngine.parallel_query` with ``mode="replica"``); this module
provides the follower lifecycle and the feed it routes over.
"""

from __future__ import annotations

import os
from repro.analysis.runtime import make_lock, make_rlock
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.atom import ensure_surrogate_counter
from repro.exceptions import StorageError
from repro.storage.recovery import replay_records


class ReplicationError(StorageError):
    """A replication-protocol violation (rewind, fenced feed, bad record)."""


def checkpoint_stamp(path) -> Optional[Tuple[int, int, int]]:
    """Identity stamp of a checkpoint image: ``(mtime_ns, size, inode)``.

    A changed stamp means the primary wrote a new image (and truncated the
    WAL right after) — the signal a file-tailing follower re-seeds on.
    ``None`` when no image exists yet.
    """
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return (stat.st_mtime_ns, stat.st_size, stat.st_ino)


@dataclass
class SeedResult:
    """What one seeding pass produced (engine + resume positions)."""

    engine: object
    generation: int
    records_replayed: int
    #: Absolute WAL offset one past the last record replayed — the file
    #: poller resumes from exactly here.
    wal_offset: int
    #: Checkpoint-image stamp at seed time (``None`` — no image yet).
    checkpoint_stamp: Optional[Tuple[int, int, int]]


def seed_engine(directory, name: str = "prima-replica") -> SeedResult:
    """Build a read-only engine replica from *directory*'s checkpoint + WAL.

    Mirrors :func:`repro.storage.recovery.recover` except that nothing is
    ever written: no WAL is opened for appending and a torn tail is skipped
    (``read_wal`` already stops at the last valid record) instead of
    truncated — against a live primary the tail is an in-flight append.
    """
    from repro.storage.engine import PrimaEngine
    from repro.storage.recovery import apply_checkpoint, load_checkpoint
    from repro.storage.wal import DurabilityConfig, read_wal

    config = DurabilityConfig(directory)
    stamp = checkpoint_stamp(config.checkpoint_path)
    engine = PrimaEngine(name=name)
    generation = 0
    image = load_checkpoint(config)
    if image is not None:
        ensure_surrogate_counter(apply_checkpoint(engine, image))
        generation = int(image.get("generation", 0))
    scan = read_wal(config.wal_path)
    generation = replay_records(engine, scan.records, generation)
    return SeedResult(engine, generation, len(scan.records), scan.valid_bytes, stamp)


# ------------------------------------------------------------- the follower


class FollowerEngine:
    """A read-only replica of a durable primary, fed by its WAL.

    Construct directly with the primary's durability directory for an
    out-of-process follower (drive it with :meth:`poll`), or through
    :meth:`ReplicationHub.create_follower` /
    :meth:`PrimaEngine.create_follower` for an in-process follower the hub
    ships to incrementally.  Reads (:meth:`query`) run against a pinned
    snapshot at the follower's applied generation, so they are repeatable
    even while records keep applying underneath.

    Catch-up is incremental: each applied record replays as mutations on
    the follower engine's database
    (:func:`~repro.storage.recovery.replay_records`), so its network,
    index pool, structure indexes, columnar projections and interpreter are
    maintained in place, as on the primary — nothing is rebuilt per
    catch-up.  Only a DDL record drops the derived structures, as DDL does
    on the primary.
    """

    def __init__(self, directory, name: str = "prima-follower", hub=None) -> None:
        self._directory = str(directory)
        self.name = name
        self._hub = hub
        #: Serializes applies, re-seeds and snapshot acquisition.  Query
        #: *execution* runs outside it, on the acquired handle: applies are
        #: versioned snapshot mutations, so a handle pinned before an apply
        #: keeps reading its own generation through the version chains
        #: (MVCC, exactly as on the primary) and never sees a partial apply.
        self._lock = make_rlock("FollowerEngine._lock")
        self._promoted = False  # guarded-by: FollowerEngine._lock
        self._closed = False
        self.counters: Dict[str, int] = {
            "records_applied": 0,
            "polls": 0,
            "reseeds": 0,
            "torn_tail_retries": 0,
            "queries": 0,
        }
        #: Feed position (hub transport): absolute sequence number one past
        #: the last hub record applied.  Owned by the hub — it only
        #: advances when the hub ships.
        self.applied_seq = 0
        self._seed()

    def _seed(self) -> SeedResult:
        seed = seed_engine(self._directory, name=self.name)
        self._engine = seed.engine
        #: Generation the follower's state has reached (applied records
        #: plus pin fast-forwards).
        self.applied_generation = seed.generation  # guarded-by: FollowerEngine._lock
        self._wal_offset = seed.wal_offset
        self._stamp = seed.checkpoint_stamp
        return seed

    # ------------------------------------------------------------ applying

    def _require_live(self) -> None:
        if self._closed:
            raise ReplicationError(f"follower {self.name!r} is closed")
        if self._promoted:
            raise ReplicationError(
                f"follower {self.name!r} was promoted; use the engine "
                "promote() returned"
            )

    def apply_records(self, records, target_generation: int) -> None:
        """Apply a feed slice, then fast-forward to *target_generation*.

        The hub's transport: records arrive in feed order and double-applies
        are idempotent.  *target_generation* absorbs generation ticks that
        ship no bytes (rollbacks, no-op writes) — it may only move the
        follower forward.
        """
        with self._lock:
            self._require_live()
            self.applied_generation = replay_records(
                self._engine, records, max(self.applied_generation, int(target_generation))
            )
            self.counters["records_applied"] += len(records)

    def poll(self) -> int:
        """Apply newly durable records from the primary's files; returns the
        number of records applied by this call.

        The out-of-process transport.  Three cases per poll:

        * **new records** — applied from the last consumed offset
          (``read_wal(path, from_offset=…)``; never a full re-read);
        * **torn tail** — an append is in flight: the valid prefix is
          applied, the torn bytes are left alone, and the next poll resumes
          from the last good offset (*never* truncated — only crash
          recovery, which knows no append is in flight, may do that);
        * **checkpoint truncation** — the image stamp changed or the log
          shrank below the consumed offset: the primary checkpointed, so
          the follower re-seeds from the new image + fresh log instead of
          replaying a rewound file.  Re-seeding covers everything already
          applied (the image is taken at the primary's head), so the
          follower's generation never moves backwards.
        """
        with self._lock:
            self._require_live()
            from repro.storage.wal import DurabilityConfig, read_wal

            self.counters["polls"] += 1
            config = DurabilityConfig(self._directory)
            stamp = checkpoint_stamp(config.checkpoint_path)
            try:
                wal_size = os.path.getsize(config.wal_path)
            except OSError:
                wal_size = 0
            if stamp != self._stamp or wal_size < self._wal_offset:
                previous = self.applied_generation
                seed = self._seed()
                self.counters["reseeds"] += 1
                if seed.generation < previous:
                    raise ReplicationError(
                        f"re-seed from {self._directory!r} reached generation "
                        f"{seed.generation}, behind the follower's applied "
                        f"generation {previous} — a follower cannot rewind"
                    )
                return seed.records_replayed
            scan = read_wal(config.wal_path, from_offset=self._wal_offset)
            if scan.torn_tail:
                # In-flight append: apply the valid prefix, keep the offset
                # at the last good byte, and let a later poll retry.
                self.counters["torn_tail_retries"] += 1
            self.applied_generation = replay_records(
                self._engine, scan.records, self.applied_generation
            )
            self.counters["records_applied"] += len(scan.records)
            self._wal_offset = scan.valid_bytes
            return len(scan.records)

    # ------------------------------------------------------------- reading

    def snapshot(self):
        """Pin the follower's applied generation; returns a read handle.

        Acquisition serializes with applies (the handle is taken between
        records, never mid-apply); the returned handle's reads then run
        lock-free and stay repeatable while further records apply.
        """
        with self._lock:
            self._require_live()
            self.counters["queries"] += 1
            return self._engine.snapshot_at()

    def query(self, statement: str):
        """Execute one MQL read statement at the follower's applied generation."""
        handle = self.snapshot()
        try:
            return handle.query(statement)
        finally:
            handle.release()

    def lag(self, head_generation: int) -> int:
        """Generations this follower trails *head_generation* (may be < 0
        when the follower is ahead of an older pin)."""
        return int(head_generation) - self.applied_generation

    # ----------------------------------------------------------- lifecycle

    @property
    def engine(self):
        """The backing :class:`PrimaEngine` (read-only until promotion)."""
        return self._engine

    @property
    def promoted(self) -> bool:
        return self._promoted

    def promote(self):
        """Promote this follower to a writable primary; returns its engine.

        Hub-attached followers run the full fail-over protocol, in this
        order: **fence** the old primary (its versioning state refuses new
        transactions and in-flight ones abort at commit; basic-interface
        writes and DDL raise — so nothing can enter the feed after the
        fence), take the **final cut**, **ship** the remaining slice, then
        **detach**.  The promoted engine's state is therefore exactly the
        old primary's committed head.

        File-tailing followers (no hub) drain one final :meth:`poll` and
        convert; fencing an out-of-process primary is the caller's job (the
        usual promotion trigger is that primary being gone).
        """
        if self._hub is not None:
            self._hub.promote(self)
        else:
            with self._lock:
                self._require_live()
                self.poll()
        with self._lock:
            self._require_live()
            self._promoted = True
            engine = self._engine
        return engine

    def close(self) -> None:
        """Detach from the hub (if any) and refuse further use (idempotent)."""
        if self._closed:
            return
        self._closed = True
        hub, self._hub = self._hub, None
        if hub is not None:
            hub.detach(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "promoted"
            if self._promoted
            else ("closed" if self._closed else f"gen={self.applied_generation}")
        )
        return f"FollowerEngine({self.name!r}, {state})"


# ------------------------------------------------------------------ the hub


class ReplicationHub:
    """Primary-side replication state: the WAL feed and its followers.

    Created lazily by :meth:`PrimaEngine.replication_hub` (durable engines
    only).  Construction installs a WAL observer — one of possibly many
    (a process pool may tap the same log); every record appended after this
    point is shippable incrementally, anything earlier is covered by the
    followers' file-based seeding.
    """

    def __init__(self, engine) -> None:
        if engine.durability is None or engine.wal is None:
            raise ReplicationError(
                "replication requires a durable engine: followers seed from "
                "the checkpoint image and WAL tail"
            )
        self._engine = engine
        self._directory = str(engine.durability.directory)
        self._feed: List[Dict[str, object]] = []  # guarded-by: ReplicationHub._feed_lock
        self._feed_base = 0  # absolute sequence number of self._feed[0]  # guarded-by: ReplicationHub._feed_lock
        self._feed_lock = make_lock("ReplicationHub._feed_lock")
        self._followers: List[FollowerEngine] = []  # guarded-by: ReplicationHub._lock
        self._lock = make_rlock("ReplicationHub._lock")
        self._closed = False
        self.counters: Dict[str, int] = {
            "followers_started": 0,
            "ships": 0,
            "records_shipped": 0,
            "refusals": 0,
            "promotions": 0,
            "routed": 0,
            "fallbacks": 0,
            "skipped": 0,
            "waits": 0,
        }
        engine.wal.add_observer(self._observe)

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
        """Drop feed records every follower has applied (bounded memory)."""
        with self._lock:
            floor = min(
                (follower.applied_seq for follower in self._followers), default=0
            )
        with self._feed_lock:
            drop = floor - self._feed_base
            if drop > 0:
                del self._feed[:drop]
                self._feed_base = floor

    # ------------------------------------------------------------ followers

    def create_follower(self, name: Optional[str] = None) -> FollowerEngine:
        """Seed a new in-process follower and register it for shipping.

        The feed position is captured *before* seeding: every record below
        it is, by the observer's post-flush contract, already in the files
        the follower seeds from; records at/after it ship incrementally,
        and any overlap with the seed double-applies idempotently.
        """
        with self._lock:
            if self._closed:
                raise ReplicationError("replication hub is closed")
            seq0 = self.feed_position()
            follower = FollowerEngine(
                self._directory,
                name=name or f"{self._engine.name}-follower-{self.counters['followers_started']}",
                hub=self,
            )
            follower.applied_seq = seq0
            self._followers.append(follower)
            self.counters["followers_started"] += 1
            return follower

    def followers(self) -> List[FollowerEngine]:
        with self._lock:
            return list(self._followers)

    def detach(self, follower: FollowerEngine) -> None:
        """Stop shipping to *follower* (it keeps serving its applied state)."""
        with self._lock:
            if follower in self._followers:
                self._followers.remove(follower)
                follower._hub = None
        self._trim_feed()

    # ------------------------------------------------------------- shipping

    def ship(
        self,
        follower: FollowerEngine,
        pin_generation: Optional[int] = None,
        cut: Optional[int] = None,
    ) -> int:
        """Ship the ``(applied_seq, cut]`` feed slice to *follower*; returns
        the record count shipped.

        *pin_generation* is the fast-forward target and the refusal bound: a
        follower already past the pin cannot rewind, and a slice containing a
        commit past the pin would make the follower answer for a future the
        pin must not see — both raise :class:`ReplicationError` and ship
        nothing.  When *pin_generation* is ``None`` the caller wants the
        head: the pin covers every record in the slice, because the
        write-ahead ordering (bytes durable, then snapshot published) means
        the feed can momentarily run ahead of the primary's published
        generation — such records are decided commits, not a future.
        """
        if cut is None:
            cut = self.feed_position()
        catch_up_to_head = pin_generation is None
        if catch_up_to_head:
            pin_generation = self._engine.generation
        with follower._lock:
            if catch_up_to_head:
                for record in self._feed_slice(follower.applied_seq, cut):
                    pin_generation = max(pin_generation, int(record.get("gen", 0)))
            if (
                follower.applied_generation > pin_generation
                or follower.applied_seq > cut
            ):
                self.counters["refusals"] += 1
                raise ReplicationError(
                    f"follower at generation {follower.applied_generation} "
                    f"(seq {follower.applied_seq}) is ahead of the pinned "
                    f"generation {pin_generation} (seq {cut}) — cannot rewind"
                )
            records = self._feed_slice(follower.applied_seq, cut)
            for record in records:
                if int(record.get("gen", 0)) > pin_generation:
                    self.counters["refusals"] += 1
                    raise ReplicationError(
                        f"catch-up slice contains a commit at generation "
                        f"{record.get('gen')}, past the pinned generation "
                        f"{pin_generation} — too fresh"
                    )
            follower.apply_records(records, pin_generation)
            follower.applied_seq = cut
        self.counters["ships"] += 1
        self.counters["records_shipped"] += len(records)
        self._trim_feed()
        return len(records)

    def catch_up_all(
        self, pin_generation: Optional[int] = None, cut: Optional[int] = None
    ) -> int:
        """Ship every follower to *(pin_generation, cut)*; returns records shipped."""
        shipped = 0
        for follower in self.followers():
            shipped += self.ship(follower, pin_generation, cut)
        return shipped

    def max_lag(self) -> int:
        """The largest follower lag behind the primary head, in generations.

        Lock-free: reads an atomic snapshot of the follower list, so the
        planner can call it while holding the plan lock (the hub lock sits
        *below* the plan lock in the hierarchy and must not be acquired
        under it).
        """
        head = self._engine.generation
        followers = tuple(self._followers)
        return max(
            (head - follower.applied_generation for follower in followers),
            default=0,
        )

    def dispatch_state(self) -> Dict[str, int]:
        """Hub telemetry for the planner's dispatch costing (lock-free)."""
        replicas = len(self._followers)
        return {"replicas": replicas, "replica_lag": self.max_lag() if replicas else 0}

    # ------------------------------------------------------------ promotion

    def promote(self, follower: FollowerEngine) -> None:
        """Fail the primary over to *follower* (fence → final cut → ship → detach)."""
        with self._lock:
            if follower not in self._followers:
                raise ReplicationError(
                    "cannot promote a follower this hub is not shipping to"
                )
            # 1. Fence: after this, no write can append a WAL record, so the
            #    feed position below is the final one.
            self._engine.fence()
            # 2. Final cut at the fenced head; 3. ship the remaining slice.
            self.ship(follower, self._engine.generation, self.feed_position())
            self.counters["promotions"] += 1
        # 4. Detach — the promoted engine leaves the feed.
        self.detach(follower)

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Remove the WAL tap and detach every follower (idempotent).

        Followers are not destroyed: each keeps serving reads at its applied
        generation — it just stops receiving records.
        """
        if self._closed:
            return
        self._closed = True
        wal = self._engine.wal
        if wal is not None:
            wal.remove_observer(self._observe)
        for follower in self.followers():
            self.detach(follower)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicationHub(followers={len(self._followers)}, "
            f"feed={self.feed_position()})"
        )
