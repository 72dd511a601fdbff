"""The PRIMA-like two-layer engine: atom-oriented interface + molecule processing.

The engine mirrors the architecture the paper reports for the PRIMA prototype:

* the **basic component** (``store_atom``, ``get_atom``, ``lookup``,
  ``scan``, ``connect``, ``neighbours``, ``delete_atom``) provides an
  atom-oriented interface whose functionality corresponds to the atom-type
  algebra;
* the **molecule component** (:meth:`PrimaEngine.define_molecule_type`,
  :meth:`PrimaEngine.query`) performs molecule processing and exposes an MQL
  interface: statements are translated to logical plans, optimized by the
  rule-driven planner, and run on the streaming executor — which reuses the
  engine's hash indexes and its cached atom network as access paths.  MQL
  DML statements (INSERT / DELETE / MODIFY) run through the same pipeline:
  the write plan mutates the database inside a transaction.

Both components work on **one atom layer**: a single versioned
:class:`~repro.core.database.Database`, created with the engine and never
re-exported.  Basic-interface writes are plain mutations on it, DDL adds
types to it in place, and :meth:`PrimaEngine.to_database` returns it.

**Head reads see committed state only.**  The basic-interface reads and an
unpinned :meth:`PrimaEngine.query` (outside the reader's own ``BEGIN WORK``
session) run at the head while no transaction is active — with the index
pool, atom network, columnar projections and structure indexes — and at a
snapshot of the head that excludes uncommitted writers while one is.

**Cache maintenance.**  The atom network, the hash-index pool, the planner
statistics, the structure indexes and the columnar projections are derived
from the database and — in the default ``incremental`` mode — maintained
*in place* on every write: the engine subscribes to the database's change
events and folds each atom/link delta into them, bumping a
:attr:`generation` counter the derived structures are stamped with.  The
``rebuild`` mode is the invalidate-everything baseline — every write drops
all derived structures and the next read rebuilds them; the mixed-workload
benchmark compares the two.

**Durability.**  With ``durability=DurabilityConfig(directory)`` the engine
opens (and crash-recovers) a write-ahead log on construction: change events
are buffered per transaction and appended as one checksummed commit record
when the transaction commits — atomically with the MVCC commit-log entry —
so recovery (:mod:`repro.storage.recovery`) is pure redo of the committed
prefix.  A basic-interface write is one commit record of its own.
:meth:`PrimaEngine.checkpoint` (or MQL ``CHECKPOINT``) writes a compact
catalog + occurrence image and truncates the log.
"""

from __future__ import annotations

import os

from repro.analysis.runtime import make_lock, make_rlock
from repro.analysis.runtime import checker_report as runtime_lock_report
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.atom import Atom, AtomType
from repro.core.database import Database
from repro.core.events import ChangeEvent
from repro.core.link import Cardinality, Link, LinkType
from repro.core.molecule import MoleculeType, MoleculeTypeDescription
from repro.core.molecule_algebra import molecule_type_definition
from repro.core.versions import DatabaseView, Snapshot
from repro.exceptions import StorageError
from repro.storage.network import AtomNetwork
from repro.storage.recovery import RecoveryResult, describe_attributes, recover
from repro.storage.columnar import ColumnarStore
from repro.storage.structure_index import StructureIndexStore
from repro.storage.wal import DurabilityConfig, WriteAheadLog, encode_event

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.engine.physical import IndexPool
    from repro.mql.interpreter import MQLInterpreter, QueryResult
    from repro.optimizer.planner import PlanChoice

#: The two cache-maintenance strategies.
INCREMENTAL = "incremental"
REBUILD = "rebuild"


class PrimaEngine:
    """An in-memory, two-layer storage engine for MAD databases.

    *maintenance* selects the cache strategy: ``"incremental"`` (default)
    folds every write into the atom network, hash indexes, planner
    statistics, structure indexes and columnar projections; ``"rebuild"``
    drops them on each write and rebuilds lazily — kept as the benchmark
    baseline.

    *durability* (a :class:`~repro.storage.wal.DurabilityConfig`) makes the
    engine persistent: construction recovers the directory's checkpoint and
    write-ahead log (redo of committed transactions only), then opens the
    log for appending.  Every DDL statement and every committed transaction
    is logged; :meth:`checkpoint` writes a snapshot image and truncates the
    log.  Without *durability* the engine is purely in-memory, as before.
    """

    def __init__(
        self,
        name: str = "prima",
        maintenance: str = INCREMENTAL,
        durability: Optional[DurabilityConfig] = None,
    ) -> None:
        if maintenance not in (INCREMENTAL, REBUILD):
            raise StorageError(
                f"unknown maintenance mode {maintenance!r}; use 'incremental' or 'rebuild'"
            )
        self.name = name
        self.maintenance = maintenance
        #: The engine's one occurrence store: every atom and link lives here
        #: and nowhere else.  Subscribed below; never replaced.
        self._database = Database(name)
        self._network: Optional[AtomNetwork] = None
        self._interpreter: Optional["MQLInterpreter"] = None
        self._index_pool: Optional["IndexPool"] = None
        #: Rebuild mode: set by a write; the next read drops the derived
        #: structures and rebuilds them.
        self._dirty = False
        #: Declared secondary indexes per atom type (``create_index``), kept
        #: for the checkpoint image; lookups use the executor's index pool.
        self._declared_indexes: Dict[str, Set[str]] = {}
        #: Serializes basic-interface writes (store_atom/connect/delete_atom)
        #: and checkpoints against each other.
        self._write_lock = make_rlock("PrimaEngine._write_lock")
        #: Guards lazy construction/teardown of the derived access
        #: structures (network, interpreter, index pool).
        self._cache_lock = make_rlock("PrimaEngine._cache_lock")
        #: The event path's lock: generation counter, stats, WAL routing and
        #: incremental cache maintenance fold one event at a time.  Acquired
        #: *inside* the per-type head locks; only ever acquires the true
        #: leaves below it — the interpreter's plan lock and the WAL's lock
        #: (see DESIGN.md "Threading model").
        self._event_lock = make_rlock("PrimaEngine._event_lock")
        #: Monotonic write generation; cached access structures are stamped
        #: with the generation they are coherent with.
        self.generation = 0
        self._stats: Dict[str, int] = {
            # The database is built once, here; the counter stays for the
            # benchmarks and CI checks that assert it never grows.
            "snapshot_builds": 1,
            "network_builds": 0,
            "interpreter_builds": 0,
            "invalidations": 0,
            "events_applied": 0,
        }
        #: Interval-encoded structure indexes over recursive link closures
        #: (``CREATE STRUCTURE INDEX``).  The store outlives cache
        #: invalidation — registrations and counters persist; only the
        #: encodings are marked stale.  Created before recovery runs, which
        #: may replay ``structure_index`` DDL records into it.
        self._structure_indexes = StructureIndexStore()
        #: Columnar attribute projections backing MQL aggregate scans.  Like
        #: the structure-index store it outlives cache invalidation: the
        #: arrays are merely marked stale and rebuilt lazily on next head use.
        self._columnar = ColumnarStore()
        # -- durability state (all inert when durability is None) -----------
        self._durability = durability
        self._wal: Optional[WriteAheadLog] = None
        #: Change events buffered per active writer (a transaction or one
        #: basic-interface write, keyed by ``id``); flushed as one commit
        #: record when the writer commits, discarded when it rolls back —
        #: redo-only logging.  (Each entry is appended and flushed by the one
        #: thread driving that writer.)
        self._wal_tx_pending: Dict[int, List[Dict[str, object]]] = {}
        self._recovery: Optional[RecoveryResult] = None
        self._checkpoints = 0
        #: Lazily created pool of checkpoint-seeded worker processes
        #: (:meth:`process_pool`); ``None`` until first use and for
        #: in-memory engines.
        self._procpool = None  # guarded-by: PrimaEngine._cache_lock
        #: Lazily created replication hub (:meth:`replication_hub`);
        #: ``None`` until first use and for in-memory engines.
        self._replication = None  # guarded-by: PrimaEngine._cache_lock
        #: ``True`` once :meth:`fence` ran (a follower was promoted over
        #: this engine): every write — basic interface, DDL, transactions —
        #: is refused from then on.
        self._fenced = False  # guarded-by: PrimaEngine._write_lock
        self._database.subscribe(self._on_change)
        state = self._database.enable_versioning()
        if durability is not None:
            # The WAL flushes a transaction's buffered events when it commits
            # (and discards them when it rolls back); the hook fires inside
            # Transaction.commit, right after the MVCC commit-log append.
            state.transaction_hooks.append(self._wal_transaction_finished)
            # Recovery runs before the WAL opens for appending, so nothing
            # replayed here is ever re-logged.
            self._recovery = recover(self, durability)
            factory = durability.wal_factory or WriteAheadLog
            self._wal = factory(
                durability.wal_path,
                fsync=durability.fsync,
                group_commit=durability.group_commit,
            )

    # ------------------------------------------------------------------ DDL

    def create_atom_type(self, name: str, description) -> AtomType:
        """Create an (empty) atom type in the engine's database."""
        return self._add_atom_type(AtomType(name, description))

    def _add_atom_type(self, atom_type: AtomType) -> AtomType:
        """DDL: add *atom_type* — possibly bulk-loaded — to the database.

        A bulk-loaded type enters without ticking the generation or emitting
        an event (or a WAL record) per atom; only the DDL record is logged.
        """
        self._require_unfenced()
        if atom_type.name in self._database:
            raise StorageError(f"type name {atom_type.name!r} already in use")
        self._database.add_atom_type(atom_type)
        self._invalidate()
        if self._wal is not None:
            self._wal.append_ddl(
                {
                    "op": "atom_type",
                    "name": atom_type.name,
                    "attributes": describe_attributes(atom_type.description),
                }
            )
        return atom_type

    def create_link_type(
        self,
        name: str,
        first_type: str,
        second_type: str,
        cardinality: Cardinality = Cardinality.MANY_TO_MANY,
    ) -> LinkType:
        """Create an (empty) link type in the engine's database."""
        return self._add_link_type(
            LinkType(name, first_type, second_type, cardinality=cardinality)
        )

    def _add_link_type(self, link_type: LinkType) -> LinkType:
        """DDL: add *link_type* — possibly bulk-loaded — to the database."""
        self._require_unfenced()
        if link_type.name in self._database:
            raise StorageError(f"type name {link_type.name!r} already in use")
        self._database.add_link_type(link_type)  # UnknownNameError on bad endpoints
        self._invalidate()
        if self._wal is not None:
            first_type, second_type = link_type.atom_type_names
            self._wal.append_ddl(
                {
                    "op": "link_type",
                    "name": link_type.name,
                    "first": first_type,
                    "second": second_type,
                    "cardinality": link_type.cardinality.value,
                }
            )
        return link_type

    def create_index(self, atom_type_name: str, attribute: str) -> None:
        """Declare a secondary index on ``atom_type_name.attribute``.

        Lookups and pushed-down equality filters are answered by the
        executor's index pool, which builds a hash index on first use and
        maintains it from then on; the declaration is kept for the
        checkpoint image.
        """
        self._require_unfenced()
        if attribute not in self._database.atyp(atom_type_name).description:
            raise StorageError(
                f"cannot index unknown attribute {attribute!r} of {atom_type_name!r}"
            )
        self._declared_indexes.setdefault(atom_type_name, set()).add(attribute)
        if self._wal is not None:
            self._wal.append_ddl(
                {"op": "index", "type": atom_type_name, "attribute": attribute}
            )

    def create_structure_index(
        self, atom_type_name: str, link_type_name: str, direction: str = "down"
    ) -> None:
        """Register an interval-encoded structure index over a recursive closure.

        Recursive queries over ``atom_type_name`` via ``link_type_name`` in
        *direction* (``"down"`` follows the link's first→second orientation,
        ``"up"`` the reverse) are then answered by interval range scans (or a
        compact-adjacency sweep on non-tree networks) instead of the
        hop-by-hop fixpoint loop.  The encoding is built lazily on first use
        and maintained incrementally off the change-event stream.
        """
        self._require_unfenced()
        self._database.atyp(atom_type_name)  # existence check
        link_type = self._database.ltyp(link_type_name)
        if atom_type_name not in link_type.atom_type_names:
            raise StorageError(
                f"link type {link_type_name!r} does not connect atom type "
                f"{atom_type_name!r}"
            )
        self._structure_indexes.register(atom_type_name, link_type_name, direction)
        if self._wal is not None:
            self._wal.append_ddl(
                {
                    "op": "structure_index",
                    "type": atom_type_name,
                    "link": link_type_name,
                    "direction": direction,
                }
            )

    def set_columnar(self, enabled: bool) -> None:
        """Switch the columnar aggregation path on or off.

        Disabled, every aggregate runs on the row operators (hash/sorted-group
        over the molecule scan) — the benchmark baseline and an escape hatch;
        the projections and their counters are kept, not dropped.
        """
        self._columnar.enabled = bool(enabled)

    # --------------------------------------------- atom-oriented interface

    @contextmanager
    def _basic_write(self):
        """Scope one basic-interface write on the database.

        Writes serialize on the engine's write lock and are refused once the
        engine is fenced.  The write's change events take the one event path
        (:meth:`_on_change`); attributing them to a writer token of their own
        buffers them like a transaction's, so a multi-event write such as
        :meth:`delete_atom` reaches the WAL as one commit record — or, when
        it fails, not at all.
        """
        with self._write_lock:
            self._require_unfenced()
            state = self._database.versioning
            writer = object()
            token = state.begin_tracking(writer)
            try:
                yield
            finally:
                state.end_tracking(token)
                records = self._wal_tx_pending.pop(id(writer), None)
            if records:
                self._wal.commit_events(records)

    def store_atom(self, atom_type_name: str, identifier: Optional[str] = None, **values) -> Atom:
        """Insert (or replace) an atom — basic-component write operation."""
        with self._basic_write():
            atom_type = self._database.atyp(atom_type_name)
            atom = Atom(atom_type_name, values, identifier=identifier)
            if atom_type.get(atom.identifier) is None:
                return atom_type.add(atom)
            return atom_type.replace(atom)

    def connect(self, link_type_name: str, first: "Atom | str", second: "Atom | str") -> Link:
        """Insert a link — basic-component write operation.

        The link type enforces its cardinality: a clashing link raises
        :class:`~repro.exceptions.CardinalityError` and changes nothing.
        """
        first_id = first.identifier if isinstance(first, Atom) else first
        second_id = second.identifier if isinstance(second, Atom) else second
        with self._basic_write():
            return self._database.ltyp(link_type_name).connect(first_id, second_id)

    def delete_atom(self, atom_type_name: str, identifier: str) -> int:
        """Delete an atom and all its incident links; returns the links removed."""
        with self._basic_write():
            atom_type = self._database.atyp(atom_type_name)
            if atom_type.get(identifier) is None:
                raise StorageError(
                    f"no atom {identifier!r} in atom type {atom_type_name!r}"
                )
            removed = sum(
                link_type.remove_atom(identifier)
                for link_type in self._database.link_types_of(atom_type_name)
            )
            atom_type.remove(identifier)
            return removed

    def _committed_snapshot(self) -> Optional[Snapshot]:
        """The snapshot a head read must run at, or ``None`` for the head.

        While a transaction is active its uncommitted writes sit at the
        head; :meth:`~repro.core.versions.VersioningState.make_snapshot`
        excludes them.  Otherwise the head *is* the committed state.
        """
        state = self._database.versioning
        if not state.active_transactions:
            return None
        return state.make_snapshot()

    def _read_view(self) -> "Database | DatabaseView":
        """The database as a basic-interface read may see it (committed only)."""
        snapshot = self._committed_snapshot()
        return self._database if snapshot is None else self._database.at(snapshot)

    def get_atom(self, atom_type_name: str, identifier: str) -> Optional[Atom]:
        """Point lookup — basic-component read operation."""
        return self._read_view().atyp(atom_type_name).get(identifier)

    def lookup(self, atom_type_name: str, attribute: str, value: object) -> Tuple[Atom, ...]:
        """Value lookup through the index pool — basic-component read operation."""
        view = self._read_view()
        atom_type = view.atyp(atom_type_name)
        if view is not self._database:
            return tuple(atom for atom in atom_type if atom.get(attribute) == value)
        with self._cache_lock:
            self.interpreter()  # builds the index pool alongside
            identifiers = self._index_pool.lookup(atom_type_name, attribute, value)
        atoms = (atom_type.get(identifier) for identifier in identifiers)
        return tuple(atom for atom in atoms if atom is not None)

    def scan(self, atom_type_name: str) -> Tuple[Atom, ...]:
        """Full scan of one atom type."""
        return tuple(self._read_view().atyp(atom_type_name))

    def neighbours(self, link_type_name: str, identifier: str) -> Tuple[str, ...]:
        """Adjacent atom identifiers through one link type."""
        return tuple(self._read_view().ltyp(link_type_name).partners_of(identifier))

    # --------------------------------------------- molecule-processing layer

    def to_database(self) -> Database:
        """The engine's :class:`Database` — its one occurrence store.

        Mutations applied to it directly — by MQL DML write plans, the
        manipulation API or a second interpreter — reach the engine's change
        listener like any other write: they are logged and folded into the
        derived access structures.
        """
        return self._database

    def define_molecule_type(
        self,
        name: str,
        atom_type_names: "Sequence[str] | MoleculeTypeDescription",
        directed_links: Sequence = (),
    ) -> MoleculeType:
        """Molecule-type definition (α) over the engine's current contents."""
        return molecule_type_definition(self._database, name, atom_type_names, directed_links)

    def query(self, statement: str, optimize: bool = True) -> "QueryResult":
        """Execute an MQL statement over the engine's current contents.

        Statements run through the planner → streaming-executor pipeline by
        default; ``optimize=False`` executes the literal α→Σ→Π translation
        through the materializing molecule algebra instead.  DML statements
        (INSERT / DELETE / MODIFY) execute atomically against the database;
        every change is folded into the cached access structures.  ``BEGIN
        WORK`` / ``COMMIT WORK`` / ``ROLLBACK WORK`` scope the engine's
        interpreter session as one transaction with repeatable reads and
        first-committer-wins conflict detection; for pinned read-only views
        see :meth:`snapshot_at`.

        Outside that session a read sees committed state only: while another
        transaction is active it runs at a snapshot of the head that
        excludes the uncommitted writers (the literal path cannot serve a
        snapshot and raises then).
        """
        interpreter = self.interpreter()
        snapshot = None if interpreter.in_transaction else self._committed_snapshot()
        if snapshot is not None:
            from repro.mql.ast_nodes import Query, SetOperation
            from repro.mql.parser import parse  # deferred: package cycle

            statement = parse(statement) if isinstance(statement, str) else statement
            if isinstance(statement, (Query, SetOperation)):
                return interpreter.execute(statement, optimize=optimize, at=snapshot)
        return interpreter.execute(statement, optimize=optimize)

    def plan(self, statement: str) -> "PlanChoice":
        """Return the planner's costed plan choice for *statement*.

        Mirrors :meth:`MQLInterpreter.plan`; for a rendered report execute an
        ``EXPLAIN`` statement through :meth:`query` instead.
        """
        return self.interpreter().plan(statement)

    def interpreter(self) -> "MQLInterpreter":
        """The cached MQL interpreter bound to the engine's access structures.

        The interpreter's executor answers pushed-down equality filters
        through hash indexes built (on demand, then cached) over the
        database it queries, and traverses the cached atom network during
        the hierarchical join.  In incremental mode writes are folded into
        those structures in place; in rebuild mode any write drops them and
        this method rebuilds everything on its next call.
        """
        with self._cache_lock:
            self._check_dirty()
            if self._interpreter is None:
                from repro.engine.executor import Executor, IndexPool
                from repro.mql.interpreter import MQLInterpreter

                database = self._database
                self._index_pool = IndexPool(database)
                self._index_pool.generation = self.generation
                self._structure_indexes.stamp(self.generation)
                self._columnar.stamp(self.generation)
                executor = Executor(
                    database,
                    indexes=self._index_pool,
                    network=self.network(),
                    structure=self._structure_indexes,
                    columnar=self._columnar,
                )
                from repro.optimizer.planner import Planner

                planner = Planner(database, executor=executor)
                # EXPLAIN reports whether the costed plan is worth shipping
                # to the process pool; the advisor reads the live pool state
                # (None while no pool exists — dispatch stays unreported).
                planner.dispatch_advisor = self._dispatch_state
                self._interpreter = MQLInterpreter(
                    database,
                    executor=executor,
                    planner=planner,
                    checkpoint=self.checkpoint if self._durability is not None else None,
                )
                self._stats["interpreter_builds"] += 1
            return self._interpreter

    def network(self) -> AtomNetwork:
        """Return the (cached, incrementally maintained) atom-network view."""
        with self._cache_lock:
            self._check_dirty()
            if self._network is None:
                self._network = AtomNetwork(self._database)
                self._network.generation = self.generation
                self._stats["network_builds"] += 1
            return self._network

    # --------------------------------------------------- snapshots and MVCC

    def snapshot_at(self, generation: Optional[int] = None) -> "SnapshotHandle":
        """Pin a generation and return a handle for repeatable reads.

        The handle's :meth:`SnapshotHandle.query` runs MQL against the
        pinned generation: concurrent committed DML (through this engine or
        any transaction on its snapshot) is invisible until the handle is
        released, while a fresh ``engine.query`` continues to see the head.
        Pinning is refcounted; releasing the last pin on a generation lets
        the garbage collector truncate the version chains behind it.

        *generation* defaults to the current write generation, resolved
        atomically inside the pin registry's lock (a concurrent writer
        cannot slip a tick between the read and the pin).  Pinning an older
        generation is allowed only down to the retention floor — the
        truncation horizon while other pins/transactions hold history —
        below it the registry refuses the pin rather than serve stale reads.

        Safe to call from any thread; the returned handle's reads are safe
        from any thread too (see :class:`SnapshotHandle`).
        """
        database = self.to_database()
        interpreter = self.interpreter()
        state = database.versioning
        with state.lock:
            # Pin and snapshot-build form one critical section: a writer
            # finishing (e.g. rolling back) in between would otherwise leave
            # the exclusion set without its uncommitted generations and leak
            # dirty values into the handle.
            pinned = database.pin(generation)
            snapshot = state.make_snapshot(pinned)
        return SnapshotHandle(database, interpreter, snapshot)

    def parallel_query(
        self,
        statements: "Iterable[str]",
        threads: Optional[int] = None,
        generation: Optional[int] = None,
        mode: str = "thread",
        workers: Optional[int] = None,
        max_lag: int = 0,
    ) -> "List[QueryResult]":
        """Run read-only MQL statements concurrently at one pinned generation.

        Pins a single snapshot (like :meth:`snapshot_at`), executes every
        statement through a worker-thread pool against that pinned
        generation, and returns the results **in statement order** —
        byte-identical to running the same statements serially on the same
        snapshot, no matter how much committed DML races at the head.
        Readers run lock-free over the immutable version chains; only the
        plan step serializes briefly on the interpreter's planner lock.

        *threads* defaults to ``min(len(statements), 4)``; ``threads=1``
        degrades to a serial loop over the same pinned handle (the E-PERF7
        benchmark's baseline).  DML and transaction statements are rejected
        by the underlying read-only snapshot handle.

        Note: under CPython's GIL the pure-Python execute phase of the
        statements is time-sliced, not parallel — the thread pool buys
        wall-clock when requests spend time off the GIL (client wire I/O,
        durable reads, checksum/compression of results), which is what the
        E-PERF7 benchmark measures.

        ``mode="process"`` instead ships each statement's compiled plan to
        the checkpoint-seeded worker-process pool (:meth:`process_pool`),
        executing CPU-bound plans off-GIL on *workers* processes.  Results
        keep statement order and render byte-identical ``to_dicts()``
        content; statements the shipping codec refuses (opaque predicates,
        EXPLAIN, DML — which still raises) fall back to primary-side
        execution at the same pinned generation.  ``mode="serial"`` is the
        explicit one-thread baseline.

        ``mode="replica"`` routes read statements over the replication
        hub's followers (:meth:`create_follower`) instead.  *max_lag*
        bounds staleness in generations: a follower within the bound
        serves at its own applied generation; one lagging further is
        caught up (the hub ships the missing feed slice) before it serves;
        one *ahead* of the pin is skipped — a follower cannot rewind.
        With the default ``max_lag=0`` every routed follower answers
        exactly at the pinned generation, byte-identical to primary
        execution.  Unshippable statements (EXPLAIN, DML — which still
        raises — and anything unparseable) and statements no follower can
        serve fall back to the primary at the same pinned generation.
        """
        statements = list(statements)
        if not statements:
            return []
        if mode == "process":
            return self._parallel_query_process(statements, generation, workers)
        if mode == "replica":
            return self._parallel_query_replica(statements, generation, max_lag)
        if mode == "serial":
            threads = 1
        elif mode != "thread":
            raise StorageError(
                f"unknown parallel_query mode {mode!r}; use 'thread', "
                "'process', 'replica' or 'serial'"
            )
        if threads is None:
            threads = min(len(statements), 4)
        with self.snapshot_at(generation) as handle:
            if threads <= 1:
                return [handle.query(statement) for statement in statements]
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(handle.query, statements))

    def process_pool(self, workers: Optional[int] = None):
        """The engine's pool of checkpoint-seeded worker processes (lazy).

        Requires durability: workers seed by loading the checkpoint image
        and replaying the WAL tail, then track the primary through
        incremental record shipping (see :mod:`repro.engine.procpool`).
        *workers* sizes the pool on first creation (default
        ``min(4, cpu count)``); later calls return the existing pool.
        """
        if self._durability is None:
            raise StorageError(
                "process_pool requires a durable engine; construct it with "
                "durability=DurabilityConfig(directory)"
            )
        with self._cache_lock:
            if self._procpool is None:
                from repro.engine.procpool import ProcessPool

                size = workers or max(1, min(4, os.cpu_count() or 1))
                self._procpool = ProcessPool(self, size)
            return self._procpool

    def _dispatch_state(self) -> "Optional[Dict[str, int]]":
        """Live pool + replica telemetry for the planner's dispatch costing.

        Merges the process pool's ``{"workers", "backlog"}`` with the
        replication hub's ``{"replicas", "replica_lag"}``; ``None`` while
        neither exists (dispatch stays unreported in EXPLAIN).
        """
        pool = self._procpool
        hub = self._replication
        if pool is None and hub is None:
            return None
        state: Dict[str, int] = {}
        if pool is not None:
            state.update(pool.dispatch_state())
        if hub is not None:
            state.update(hub.dispatch_state())
        return state

    # --------------------------------------------------------- replication

    def replication_hub(self):
        """The engine's replication hub (lazy; durable engines only).

        The hub taps the WAL into an in-memory record feed and owns the
        followers it ships to (see :mod:`repro.storage.replication`).
        """
        if self._durability is None:
            raise StorageError(
                "replication requires a durable engine; construct it with "
                "durability=DurabilityConfig(directory)"
            )
        with self._cache_lock:
            if self._replication is None:
                from repro.storage.replication import ReplicationHub

                self._replication = ReplicationHub(self)
            return self._replication

    def create_follower(self, name: Optional[str] = None):
        """Seed a new in-process follower tracking this engine's WAL feed.

        Shorthand for ``engine.replication_hub().create_follower(name)``.
        The follower serves snapshot reads at its applied generation; the
        replica router (``parallel_query(mode="replica")``) fans read
        statements over all followers created this way.
        """
        return self.replication_hub().create_follower(name)

    def fence(self) -> None:
        """Refuse every future write — the promotion protocol's first step.

        Takes the write lock (draining in-flight basic-interface writers)
        and the versioning engine lock (draining racing committers) before
        flipping the flag, so after :meth:`fence` returns no record can
        ever reach the WAL again: basic-interface writes and DDL raise
        :class:`StorageError`, new transactions refuse to begin, and
        in-flight transactions abort at their commit point.  Reads (and
        :meth:`checkpoint`) keep working.  Idempotent.
        """
        with self._write_lock:
            state = self._database.versioning
            with state.lock:
                self._fenced = True
                state.fenced = True

    @property
    def fenced(self) -> bool:
        """``True`` once a follower promotion fenced this engine."""
        return self._fenced

    def _require_unfenced(self) -> None:
        if self._fenced:
            raise StorageError(
                "engine is fenced (a follower was promoted); writes must go "
                "to the promoted engine"
            )

    def _parallel_query_process(
        self,
        statements: "List[str]",
        generation: Optional[int],
        workers: Optional[int],
    ) -> "List[QueryResult]":
        """Fan statements out over the worker-process pool at one pin.

        The pin and the feed cut are taken inside the versioning engine
        lock, the same critical section transactional commits append their
        WAL record in — a commit is therefore either visible at the pin
        *and* included in the cut, or neither.  (Basic-interface writes
        flush their record outside that lock; interleaving one
        with the pin can put the cut one record past the pin, which only
        matters if the caller races direct writes against the dispatch.)
        """
        from concurrent.futures import ThreadPoolExecutor

        from repro.engine.logical import (
            AggregatePlan,
            ColumnarAggregatePlan,
            IntervalScanPlan,
            RecursivePlan,
        )
        from repro.engine.physical import (
            aggregate_columns,
            finalize_groups,
            merge_group_accumulators,
        )
        from repro.storage.shipping import (
            ShippedQueryResult,
            ShippingError,
            decode_group_states,
            plan_to_json,
        )
        from repro.mql.ast_nodes import Query, SetOperation
        from repro.mql.parser import parse

        pool = self.process_pool(workers)
        pool.counters["dispatches"] += 1
        interpreter = self.interpreter()
        database = self.to_database()
        state = database.versioning
        with state.lock:
            pinned = database.pin(generation)
            snapshot = state.make_snapshot(pinned)
            cut_seq = pool.feed_position()
        handle = SnapshotHandle(database, interpreter, snapshot)
        try:
            pin_gen = handle.generation
            # ---- classify: build one shippable job per statement, or None.
            jobs: "List[Optional[Dict[str, object]]]" = []
            plans: "List[Optional[object]]" = []
            for statement in statements:
                job = None
                plan = None
                try:
                    ast = parse(statement)
                    if isinstance(ast, (Query, SetOperation)):
                        choice = interpreter.plan(ast)
                        plan = choice.best
                        aggregate = isinstance(
                            plan, (AggregatePlan, ColumnarAggregatePlan)
                        )
                        job = {
                            "plan": plan_to_json(plan),
                            "pin": pin_gen,
                            "mode": "rows" if aggregate else "molecules",
                            "partition": None,
                        }
                except ShippingError:
                    job = None
                except Exception:
                    # Unparseable / untranslatable statements fall through to
                    # handle.query, which raises the proper MQL error.
                    job = None
                jobs.append(job)
                plans.append(plan)

            results: "List[Optional[QueryResult]]" = [None] * len(statements)

            # ---- intra-query partitioning: one statement, many workers.
            partitionable = (
                len(statements) == 1
                and jobs[0] is not None
                and pool.size >= 2
                and isinstance(
                    plans[0], (RecursivePlan, IntervalScanPlan, ColumnarAggregatePlan)
                )
            )
            if partitionable:
                plan = plans[0]
                count = pool.size
                grouped = isinstance(plan, ColumnarAggregatePlan)
                part_jobs = []
                for index in range(count):
                    job = dict(jobs[0])
                    job["partition"] = [index, count]
                    if grouped:
                        job["mode"] = "groups"
                    part_jobs.append(job)
                with ThreadPoolExecutor(max_workers=count) as fanout:
                    futures = [
                        fanout.submit(pool.run_batch, index, pin_gen, cut_seq, [(0, job)])
                        for index, job in enumerate(part_jobs)
                    ]
                    outcomes = [future.result()[0] for future in futures]
                if all(outcome[0] == "result" for outcome in outcomes):
                    pool.counters["partitioned"] += 1
                    if grouped:
                        specs = plan.aggregates
                        merged: Dict = {}
                        total_counters: Dict[str, int] = {}
                        for outcome in outcomes:
                            payload = outcome[1]
                            partial = decode_group_states(specs, payload["groups"])
                            merge_group_accumulators(specs, merged, partial)
                            for key, value in payload.get("counters", {}).items():
                                total_counters[key] = total_counters.get(key, 0) + value
                        rows = tuple(
                            tuple(row)
                            for row in finalize_groups(plan.group_by, specs, merged)
                        )
                        results[0] = ShippedQueryResult(
                            statements[0],
                            columns=aggregate_columns(plan.group_by, specs),
                            rows=rows,
                            counters=total_counters,
                            dispatch="process-partitioned",
                        )
                    else:
                        import json as _json

                        dicts = []
                        total_counters = {}
                        for outcome in outcomes:
                            payload = outcome[1]
                            from repro.storage.wal import decode_value

                            dicts.extend(
                                decode_value(entry) for entry in payload["dicts"]
                            )
                            for key, value in payload.get("counters", {}).items():
                                total_counters[key] = total_counters.get(key, 0) + value
                        # Partitions interleave arbitrarily: impose the
                        # canonical rendering order so the merged result is
                        # deterministic regardless of worker scheduling.
                        dicts.sort(
                            key=lambda entry: _json.dumps(
                                entry, sort_keys=True, default=str
                            )
                        )
                        results[0] = ShippedQueryResult(
                            statements[0],
                            dicts=dicts,
                            counters=total_counters,
                            dispatch="process-partitioned",
                        )
                    pool._trim_feed()
                    return list(results)
                # A refused/crashed partition poisons the merge — fall back.
                pool.counters["fallbacks"] += 1
                results[0] = handle.query(statements[0])
                return list(results)

            # ---- statement fan-out: round-robin statements over workers.
            batches: "Dict[int, List[Tuple[int, Dict[str, object]]]]" = {}
            for index, job in enumerate(jobs):
                if job is not None:
                    batches.setdefault(index % pool.size, []).append((index, job))
            if batches:
                with ThreadPoolExecutor(max_workers=len(batches)) as fanout:
                    futures = {
                        fanout.submit(
                            pool.run_batch, slot, pin_gen, cut_seq, batch
                        ): slot
                        for slot, batch in batches.items()
                    }
                    for future in futures:
                        for index, outcome in future.result().items():
                            if outcome[0] == "result":
                                results[index] = ShippedQueryResult.from_payload(
                                    statements[index], outcome[1]
                                )
            # Fallbacks: never-shippable statements plus refused/crashed ones
            # execute on the primary at the same pinned generation (DML and
            # transaction statements raise here, matching thread mode).
            for index, result in enumerate(results):
                if result is None:
                    pool.counters["fallbacks"] += 1
                    results[index] = handle.query(statements[index])
            pool._trim_feed()
            return list(results)
        finally:
            handle.release()

    def _parallel_query_replica(
        self,
        statements: "List[str]",
        generation: Optional[int],
        max_lag: int,
    ) -> "List[QueryResult]":
        """Fan read statements over the replication hub's followers.

        The pin and the feed cut are taken inside the versioning engine
        lock — the same critical section transactional commits append
        their WAL record in — so a commit is either visible at the pin
        *and* included in the cut, or neither (the process-mode contract).

        Follower eligibility at the pinned generation: lag < 0 (ahead of
        an older pin) skips the follower; lag > *max_lag* waits on it (the
        hub ships the missing ``(applied_seq, cut]`` slice — a refusal
        skips instead); 0 ≤ lag ≤ *max_lag* serves as-is at the follower's
        own applied generation.  Statements route round-robin over the
        eligible followers; everything else — unshippable statements,
        follower-side failures, no eligible follower at all — executes on
        the primary at the same pinned generation.
        """
        from concurrent.futures import ThreadPoolExecutor

        from repro.mql.ast_nodes import Query, SetOperation
        from repro.mql.parser import parse
        from repro.storage.replication import ReplicationError

        hub = self._replication
        followers = hub.followers() if hub is not None else []
        database = self.to_database()
        interpreter = self.interpreter()
        state = database.versioning
        with state.lock:
            pinned = database.pin(generation)
            snapshot = state.make_snapshot(pinned)
            cut = hub.feed_position() if hub is not None else 0
        handle = SnapshotHandle(database, interpreter, snapshot)
        try:
            pin_gen = handle.generation
            eligible = []
            for follower in followers:
                lag = follower.lag(pin_gen)
                if lag < 0:
                    hub.counters["skipped"] += 1
                    continue
                if lag > max_lag:
                    try:
                        hub.ship(follower, pin_gen, cut)
                        hub.counters["waits"] += 1
                    except ReplicationError:
                        hub.counters["skipped"] += 1
                        continue
                eligible.append(follower)

            results: "List[Optional[QueryResult]]" = [None] * len(statements)
            assignments: "List[Tuple[int, object]]" = []
            if eligible:
                routable = []
                for index, statement in enumerate(statements):
                    try:
                        ast = parse(statement)
                    except Exception:
                        continue  # falls back; the primary raises properly
                    if isinstance(ast, (Query, SetOperation)):
                        routable.append(index)
                assignments = [
                    (index, eligible[position % len(eligible)])
                    for position, index in enumerate(routable)
                ]
            if assignments:

                def run(assignment):
                    index, follower = assignment
                    try:
                        return index, follower.query(statements[index])
                    except StorageError:
                        # Follower-side failure (closed, promoted, racing
                        # detach): the primary fallback below serves it.
                        return index, None

                with ThreadPoolExecutor(max_workers=len(eligible)) as fanout:
                    for index, result in fanout.map(run, assignments):
                        if result is not None:
                            hub.counters["routed"] += 1
                        results[index] = result
            for index, result in enumerate(results):
                if result is None:
                    if hub is not None:
                        hub.counters["fallbacks"] += 1
                    results[index] = handle.query(statements[index])
            return list(results)
        finally:
            handle.release()

    def collect_versions(self) -> Dict[str, object]:
        """Run version-chain garbage collection; returns the GC statistics."""
        return self._database.collect_versions()

    # ---------------------------------------------------- durability and WAL

    @classmethod
    def open(
        cls,
        directory,
        name: str = "prima",
        maintenance: str = INCREMENTAL,
        fsync: str = "batch",
        group_commit: int = 8,
    ) -> "PrimaEngine":
        """Open (or create) a durable engine rooted at *directory*.

        Construction recovers the directory's checkpoint and WAL; an empty
        directory yields an empty engine whose subsequent DDL and commits are
        logged.  Shorthand for ``PrimaEngine(durability=DurabilityConfig(…))``.
        """
        return cls(
            name,
            maintenance=maintenance,
            durability=DurabilityConfig(directory, fsync=fsync, group_commit=group_commit),
        )

    @property
    def durability(self) -> Optional[DurabilityConfig]:
        """The durability configuration, or ``None`` for in-memory engines."""
        return self._durability

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        """The open write-ahead log (``None`` for in-memory engines)."""
        return self._wal

    @property
    def recovery(self) -> Optional[RecoveryResult]:
        """What construction-time recovery replayed (``None`` when in-memory)."""
        return self._recovery

    def checkpoint(self) -> Dict[str, object]:
        """Write a snapshot image and truncate the WAL (quiescent points only).

        The checkpoint protocol is: image to a temporary file, fsync, atomic
        rename over the previous image, fsync the directory, *then* truncate
        the log — a crash between any two steps leaves a state recovery
        handles (old image + full log, or new image + full log, both of which
        replay to the committed head because replay is idempotent).  The
        image is the database's head, so it is refused while any transaction
        is active: the head then carries uncommitted writes that must not
        enter an image.  Holds the engine's write lock so no basic-interface
        write can interleave with the image.
        """
        with self._write_lock:
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> Dict[str, object]:
        if self._wal is None:
            raise StorageError(
                "checkpoint requires a durable engine; construct it with "
                "durability=DurabilityConfig(directory)"
            )
        if self._wal.closed:
            # Fail before the image write: replacing the image and then
            # failing to truncate would otherwise leave a half-finished
            # checkpoint behind a closed engine.
            raise StorageError("cannot checkpoint a closed engine; reopen the directory")
        from repro.storage.recovery import write_checkpoint  # deferred: cycle hygiene

        state = self._database.versioning
        # The quiescence check, the image and the truncate form one critical
        # section of the versioning engine lock: a transaction beginning (or
        # any mutation ticking) after the check would otherwise put
        # uncommitted state into the image.  Checkpoints are rare and
        # explicitly quiescent; stalling pins/commits for the image write is
        # the intended trade.
        with state.lock:
            if state.active_transactions or self._wal_tx_pending:
                raise StorageError(
                    "cannot checkpoint while transactions are active; "
                    "COMMIT WORK or ROLLBACK WORK first"
                )
            path = write_checkpoint(self, self._durability)
            self._wal.truncate()
        self._checkpoints += 1
        return {
            "path": str(path),
            "checkpoints": self._checkpoints,
            "generation": self.generation,
            "atoms": self._database.atom_count(),
            "links": self._database.link_count(),
        }

    def close(self) -> None:
        """Flush and close the WAL (idempotent; in-memory engines: no-op).

        Shuts down the worker-process pool and the replication hub first,
        if they were created (the hub's followers survive, detached, at
        their applied generations).  A closed durable engine keeps serving
        reads, but further writes fail at the log append — reopen the
        directory with :meth:`open` instead.
        """
        with self._cache_lock:
            pool, self._procpool = self._procpool, None
            hub, self._replication = self._replication, None
        if pool is not None:
            pool.shutdown()
        if hub is not None:
            hub.close()
        if self._wal is not None:
            self._wal.close()

    def _wal_capture(self, event: ChangeEvent) -> None:
        """Route one change event into the WAL's buffers.

        Events of an attributed writer — a transaction's tracked block, or
        one basic-interface write — are buffered under that writer (flushed
        at its commit, dropped at rollback); everything else — a direct
        database mutation outside any writer — auto-commits immediately.
        The writer attribution (``current_writer``) is thread-local, so
        concurrent writers on other threads never interleave their events
        into this thread's records.
        """
        writer = self._database.versioning.current_writer
        record = encode_event(event)
        if writer is not None:
            self._wal_tx_pending.setdefault(id(writer), []).append(record)
        else:
            self._wal.commit_events([record])

    def _wal_transaction_finished(self, txn: object, committed: bool) -> None:
        """Transaction hook: flush the writer's buffered events on commit.

        Fired by :meth:`repro.manipulation.transactions.Transaction.commit`
        immediately after the MVCC commit-log append (and by ``rollback`` /
        conflict aborts with ``committed=False``, which discards the buffer —
        the log only ever carries committed transactions).
        """
        events = self._wal_tx_pending.get(id(txn))
        if committed and events and self._wal is not None:
            # May raise (closed log, full disk): the buffer is kept so a
            # retried commit logs the transaction's events after all — the
            # pop below is only reached once the record is safely appended.
            self._wal.commit_events(events)
        self._wal_tx_pending.pop(id(txn), None)

    # -------------------------------------------------- cache maintenance

    def _on_change(self, event: ChangeEvent) -> None:
        """Fold one change event of the database into the WAL and every
        derived structure.

        The one event path: basic-interface writes, MQL DML, transactions on
        other interpreters and replayed WAL records all arrive here.
        Serialized on the engine's event lock: concurrent writer threads
        emit events one at a time (each already holds its type's head lock),
        and every incremental structure applies exactly one delta at a time.
        The event lock acquires only the true leaves (the interpreter's plan
        lock, the WAL lock), so holding a head lock here can never deadlock.
        """
        with self._event_lock:
            # The database's version clock stamps every event; the engine
            # counter follows it.
            self.generation = max(self.generation + 1, event.generation or 0)
            self._stats["events_applied"] += 1
            if self._wal is not None:
                self._wal_capture(event)
            if self.maintenance == REBUILD and not self._session_active():
                # The invalidate-everything baseline — but never while a
                # BEGIN WORK session holds the interpreter: tearing it down
                # would destroy the active transaction and orphan its
                # writes.  For the session's duration the caches are
                # maintained incrementally (the branch below); the first
                # write after it ends restores the rebuild behaviour.
                self._dirty = True
                return
            if self._network is not None:
                self._network.apply_event(event)
                self._network.generation = self.generation
            if self._index_pool is not None:
                self._index_pool.apply_event(event, generation=self.generation)
            self._structure_indexes.apply_event(event, generation=self.generation)
            self._columnar.apply_event(event, generation=self.generation)
            if self._interpreter is not None:
                self._interpreter.apply_event(event)

    def _session_active(self) -> bool:
        """``True`` while the cached interpreter runs a ``BEGIN WORK`` session."""
        return self._interpreter is not None and getattr(
            self._interpreter, "in_transaction", False
        )

    def _advance_generation(self, generation: int) -> None:
        """Fast-forward the write generation (and the database's version
        clock) to *generation* across ticks that changed nothing here.

        Replay calls this after a feed slice: the primary's commit stamps,
        rollbacks and no-op writes tick its generation without shipping an
        event.  The cached structures stay coherent across such ticks, so
        they are stamped with the new generation and pinned reads keep them.
        """
        state = self._database.versioning
        with state.lock:
            state.generation = max(state.generation, generation)
            generation = state.generation
        with self._event_lock:
            self.generation = max(self.generation, generation)
            for structure in (self._network, self._index_pool):
                if structure is not None:
                    structure.generation = self.generation
            self._structure_indexes.stamp(self.generation)
            self._columnar.stamp(self.generation)

    def _check_dirty(self) -> None:
        """Tear down invalidated caches before serving a read."""
        if self._dirty:
            self._invalidate()
            self._dirty = False

    def _invalidate(self) -> None:
        """Drop every derived access structure (DDL and rebuild mode).

        The database itself stays: only what is derived from it is rebuilt.
        """
        self._network = None
        self._interpreter = None
        self._index_pool = None
        # Registrations and counters survive; only the encodings go stale
        # (the next head use rebuilds them from the database).
        self._structure_indexes.mark_all_stale()
        self._columnar.mark_all_stale()
        self._stats["invalidations"] += 1

    def maintenance_statistics(self) -> Dict[str, int]:
        """Build/rebuild counters plus the current write generation.

        ``snapshot_builds`` is 1 — the database is built once, with the
        engine; ``network_builds`` / ``interpreter_builds`` count full
        (re)constructions — in incremental steady state they stay at 1 while
        ``events_applied`` grows; ``index_generation`` equals
        ``generation`` whenever the executor's index pool is coherent.
        """
        report = dict(self._stats)
        report["generation"] = self.generation
        report["network_rebuilds"] = self._network.rebuilds if self._network is not None else 0
        report["index_builds"] = self._index_pool.builds if self._index_pool is not None else 0
        report["index_generation"] = (
            self._index_pool.generation if self._index_pool is not None else 0
        )
        report.update(self._structure_indexes.statistics())
        report.update(self._columnar.statistics())
        return report

    def maintenance_report(self) -> Dict[str, object]:
        """The full maintenance report: cache counters **plus** MVCC/GC state.

        Extends :meth:`maintenance_statistics` with the version-chain
        statistics benchmarks and tests assert on:

        * ``versions_live`` — version-chain entries currently held;
        * ``versions_collected`` — cumulative entries dropped by GC;
        * ``oldest_pinned_generation`` — the generation the oldest active
          reader pins (``None`` when nothing is pinned — chains are then
          truncated on the next collection);
        * ``pins_active`` — active snapshot/transaction pins;
        * ``network_generation`` — the write generation the cached atom
          network was last maintained at;
        * ``wal_bytes`` / ``wal_records`` / ``wal_syncs`` — bytes and records
          currently in the write-ahead log (both reset by a checkpoint's
          truncate, so they always agree) and fsyncs issued (0 for in-memory
          engines);
        * ``wal_lifetime_bytes`` / ``wal_lifetime_records`` — totals over the
          log handle's lifetime, unaffected by truncation;
        * ``checkpoints`` — checkpoint images written by this engine;
        * ``recovery_replayed`` — WAL records replayed at construction;
        * ``replication_*`` — follower count, worst follower lag (in
          generations) and the hub's ship/route/fallback counters (all 0
          while no replication hub exists);
        * ``fenced`` — whether a follower promotion fenced this engine;
        * ``locks_declared`` / ``lock_assertions`` — only while the runtime
          lock-discipline checker (``REPRO_DEBUG_LOCKS=1``) is active:
          registry size and checked acquisitions process-wide.
        """
        report: Dict[str, object] = dict(self.maintenance_statistics())
        report["network_generation"] = (
            self._network.generation if self._network is not None else 0
        )
        report.update(self._database.version_statistics())
        report["wal_bytes"] = self._wal.bytes_written if self._wal is not None else 0
        report["wal_records"] = self._wal.records_written if self._wal is not None else 0
        report["wal_syncs"] = self._wal.syncs if self._wal is not None else 0
        report["wal_lifetime_bytes"] = (
            self._wal.lifetime_bytes if self._wal is not None else 0
        )
        report["wal_lifetime_records"] = (
            self._wal.lifetime_records if self._wal is not None else 0
        )
        report["checkpoints"] = self._checkpoints
        report["recovery_replayed"] = (
            self._recovery.records_replayed if self._recovery is not None else 0
        )
        pool = self._procpool
        report["procpool_workers"] = pool.size if pool is not None else 0
        for key in (
            "dispatches",
            "plans_shipped",
            "catchup_records",
            "restarts",
            "refusals",
            "fallbacks",
            "partitioned",
            "workers_started",
        ):
            report[f"procpool_{key}"] = pool.counters[key] if pool is not None else 0
        hub = self._replication
        report["replication_followers"] = (
            len(hub.followers()) if hub is not None else 0
        )
        report["replication_lag"] = hub.max_lag() if hub is not None else 0
        for key in (
            "followers_started",
            "ships",
            "records_shipped",
            "refusals",
            "promotions",
            "routed",
            "fallbacks",
            "skipped",
            "waits",
        ):
            report[f"replication_{key}"] = (
                hub.counters[key] if hub is not None else 0
            )
        report["fenced"] = self._fenced
        lock_report = runtime_lock_report()
        if lock_report is not None:
            # Only present while REPRO_DEBUG_LOCKS is (or was) active: a
            # stress artifact carrying these keys proves the lock-discipline
            # checker actually engaged during the run.
            report.update(lock_report)
        return report

    # ------------------------------------------------------------- loading

    @classmethod
    def from_database(
        cls,
        database: Database,
        name: Optional[str] = None,
        maintenance: str = INCREMENTAL,
        durability: Optional[DurabilityConfig] = None,
    ) -> "PrimaEngine":
        """Bulk-load an engine from a copy of an existing database.

        Each type is copied fully populated before it is added, so the load
        ticks no generation and emits no per-atom event; *database* itself
        is never adopted or mutated.  With *durability* (expects a fresh
        directory) the bulk load bypasses the log and is persisted as the
        first checkpoint instead — the cheap way to make a dataset durable.
        """
        engine = cls(name or database.name, maintenance=maintenance, durability=durability)
        for atom_type in database.atom_types:
            # Fresh atoms, validated and allocated together: sharing the
            # caller's Atom objects made molecule reads measurably slower
            # (point_lookup p99 +18%).
            engine._add_atom_type(
                AtomType(atom_type.name, atom_type.description, atom_type)
            )
        for link_type in database.link_types:
            first_type, second_type = link_type.atom_type_names
            links = [
                Link(link_type.name, *link.given_order, first_type, second_type)
                for link in link_type
            ]
            engine._add_link_type(
                LinkType(
                    link_type.name,
                    first_type,
                    second_type,
                    links,
                    cardinality=link_type.cardinality,
                )
            )
        if durability is not None:
            engine.checkpoint()
        return engine

    # ------------------------------------------------------------ statistics

    def statistics(self) -> Dict[str, Dict[str, int]]:
        """Occurrence counts per atom type and per link type."""
        return {
            "atoms": {atom_type.name: len(atom_type) for atom_type in self._database.atom_types},
            "links": {link_type.name: len(link_type) for link_type in self._database.link_types},
        }

    def __repr__(self) -> str:
        return (
            f"PrimaEngine({self.name!r}, atom_types={len(self._database.atom_types)}, "
            f"link_types={len(self._database.link_types)}, maintenance={self.maintenance!r})"
        )


class SnapshotHandle:
    """A pinned, repeatable-read view over a :class:`PrimaEngine` snapshot.

    Obtained from :meth:`PrimaEngine.snapshot_at`; usable as a context
    manager.  The handle captures the engine's interpreter and snapshot
    database at pin time, so its reads stay generation-stable even across
    engine cache invalidations.  :meth:`release` drops the pin and triggers
    version-chain garbage collection.

    Thread safety: :meth:`query` and :meth:`database_view` may be called
    from any thread, concurrently — reads resolve lock-free over immutable
    version chains (:meth:`PrimaEngine.parallel_query` fans one handle out
    over a pool).  :meth:`release` is idempotent and atomic: exactly one
    caller unpins, no matter how many threads race the release (the
    registry underneath treats a true over-release as an error).
    """

    def __init__(self, database: Database, interpreter, snapshot: Snapshot) -> None:
        self._database = database
        self._interpreter = interpreter
        self._snapshot = snapshot
        self._released = False  # guarded-by: SnapshotHandle._release_guard
        self._release_guard = make_lock("SnapshotHandle._release_guard")

    @property
    def generation(self) -> int:
        """The pinned write generation."""
        return self._snapshot.generation

    @property
    def snapshot(self) -> Snapshot:
        """The underlying visibility predicate (for executor-level callers)."""
        return self._snapshot

    def query(self, statement: str) -> "QueryResult":
        """Execute an MQL read statement as of the pinned generation.

        Snapshot handles are read-only: DML and transaction statements are
        rejected — writes go through ``engine.query`` (or a ``BEGIN WORK``
        session) and remain invisible to this handle.
        """
        if self._released:
            raise StorageError("snapshot handle has been released")
        from repro.mql.ast_nodes import (
            CheckpointStatement,
            DMLStatement,
            TransactionStatement,
        )
        from repro.mql.parser import parse  # deferred: package cycle

        ast = parse(statement) if isinstance(statement, str) else statement
        inner = getattr(ast, "statement", ast)  # unwrap EXPLAIN
        if isinstance(
            inner, (TransactionStatement, CheckpointStatement, *DMLStatement.__args__)
        ):
            raise StorageError(
                "snapshot handles are read-only; run DML through the engine"
            )
        return self._interpreter.execute(ast, at=self._snapshot)

    def database_view(self):
        """The pinned :class:`~repro.core.versions.DatabaseView` (direct reads)."""
        if self._released:
            raise StorageError("snapshot handle has been released")
        return self._database.at(self._snapshot)

    def release(self) -> None:
        """Unpin the generation (idempotent); triggers version GC."""
        with self._release_guard:
            if self._released:
                return
            self._released = True
        self._database.release_pin(self._snapshot.generation)

    @property
    def released(self) -> bool:
        return self._released

    def __enter__(self) -> "SnapshotHandle":
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:
        state = "released" if self._released else "pinned"
        return f"SnapshotHandle(generation={self.generation}, {state})"
