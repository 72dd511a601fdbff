"""The benchmark's four workloads: seeded statement streams, set-up and checks.

Every workload is a closed loop with one client: the next statement is sent
only after the previous one has returned.  A workload's statement stream is a
pure function of its seed — the engine receives nothing but the generated
statement texts — and every result is checked against a value computed in
plain Python from the generated dataset.

Why these four (one line each is also in ``BENCHMARK.json``):

* ``point_lookup`` — indexed point and molecule reads; tokenize, parse,
  translate and optimise are most of a statement, so front-end work shows here
  and nowhere in the commit path.
* ``analytic_scan`` — range reads, columnar grouped aggregates and recursive
  closures over a structure index; operators dominate, so a front-end change
  should predict "no change" here.
* ``write_commit`` — autocommit INSERT/MODIFY/DELETE triplets on a durable
  engine with periodic checkpoints; the commit path (validation, WAL encode,
  append and fsync, version GC, event fold) dominates.
* ``replica_mix`` — the same DML stream with one in-process follower and one
  long-lived pin, renewed every REPIN_EVERY triplets; every write is followed
  by a pinned read, and the insert of every ROUTE_EVERY-th triplet by a
  replica-routed read, so shipping, follower catch-up and version chains
  show.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import string
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

#: The fsync policy of every durable engine here (stated in BENCHMARK.json).
FSYNC = "batch"
#: Commits per fsync under the batch policy.  At the engine's default of 8,
#: one statement in eight waits for the device, whose latency tail
#: (milliseconds on a shared disk, varying from run to run) then sets the
#: 99th percentile and a fifth of the window's time.  At 256 a run still
#: syncs over a hundred times, the syncs sit beyond the 99th percentile, and
#: the processor work that code changes move sets the end-to-end figures;
#: ``storage.wal.sync_us`` reports the device.
GROUP_COMMIT = 256
#: Geography for point_lookup, analytic_scan and write_commit (~8.5k atoms).
GEOGRAPHY = {"n_states": 400, "edges_per_state": 5, "n_rivers": 8}
#: replica_mix rescales the geography: each replica-routed read after a
#: write rebuilds the follower's snapshot, network and interpreter, whose
#: cost grows with the data; 20 states keep over a thousand routed reads in
#: a 20 s run.
REPLICA_GEOGRAPHY = {"n_states": 20, "edges_per_state": 5, "n_rivers": 8}
#: replica_mix routes a read to the follower once per this many triplets.
#: The garbage each follower rebuild leaves is freed by a full collection
#: about every eighth routed read.  With a routed read after every write,
#: those collections sat in 4% of the statements and set the 99th
#: percentile: a memory-bound pause that a shared host slows differently
#: from the interpreter (a 25% run-to-run spread on a 2-vCPU KVM guest).
#: At one routed read per three triplets they sit in under 1% of the
#: statements, beyond the 99th percentile.
ROUTE_EVERY = 3
#: replica_mix renews its long-lived pin after this many DML triplets.  The
#: version chains the pin keeps grow with every write; renewed, they stay
#: within one bound, so a statement costs the same early and late in a run
#: and a run's figures do not depend on how far the machine let it get.
REPIN_EVERY = 30
#: Bill of materials for the recursive closures: 12 trees of 121 parts.
BOM = {"depth": 4, "fan_out": 3, "n_roots": 12}
#: write_commit issues ``CHECKPOINT;`` after this many DML triplets.
CHECKPOINT_EVERY = 2000
#: Shapes of the geography reads: molecule type text -> link types followed.
SHAPES = {
    "state-area": ("state-area",),
    "state-area-edge": ("state-area", "area-edge"),
    "state-area-edge-point": ("state-area", "area-edge", "edge-point"),
}


@dataclass(frozen=True)
class Stmt:
    """One generated statement: its class, its text and the key it was drawn for."""

    cls: str
    text: str
    key: object = None


# ------------------------------------------------------------------ streams


def state_codes(n_states: int) -> List[str]:
    """The state codes ``build_geography`` generates."""
    return [f"S{index}" for index in range(n_states)]


def bom_part_count(depth: int, fan_out: int, n_roots: int) -> int:
    """Parts ``build_bill_of_materials`` generates without sharing."""
    return n_roots * sum(fan_out**level for level in range(depth + 1))


#: The molecule type each point_lookup statement class reads.
POINT_SHAPES = {"point": "state-area", "molecule": "state-area-edge-point"}


def point_lookup_stream(seed: int, n_states: int = GEOGRAPHY["n_states"]) -> Iterator[Stmt]:
    """Two point reads, then one molecule read; keys uniform over all codes.

    The fixed 2:1 mix keeps the median statement inside the point class
    instead of on the boundary between two classes.
    """
    rng = random.Random(f"point_lookup:{seed}")
    codes = state_codes(n_states)
    while True:
        for cls in ("point", "point", "molecule"):
            code = rng.choice(codes)
            yield Stmt(
                cls, f"SELECT ALL FROM {POINT_SHAPES[cls]} WHERE state.code = '{code}';", code
            )


def analytic_scan_stream(seed: int) -> Iterator[Stmt]:
    """A range read, a grouped aggregate, a range read, a recursive closure.

    Range and aggregate thresholds select 1-15% of the states.  Range reads
    then cost more than aggregates and less than closures; as half of the
    statements they hold the median statement inside their class rather than
    on the boundary between two classes.
    """
    rng = random.Random(f"analytic_scan:{seed}")
    parts = [f"P{number:05d}" for number in range(1, bom_part_count(**BOM) + 1)]

    def range_read() -> Stmt:
        threshold = rng.randrange(850, 990)
        return Stmt(
            "range",
            f"SELECT ALL FROM state-area-edge WHERE state.hectare > {threshold};",
            threshold,
        )

    while True:
        yield range_read()
        threshold = rng.randrange(850, 990)
        yield Stmt(
            "aggregate",
            "SELECT state.code, COUNT(*), SUM(state.hectare), MAX(state.hectare) "
            f"FROM state WHERE state.hectare > {threshold} GROUP BY state.code;",
            threshold,
        )
        yield range_read()
        part = rng.choice(parts)
        yield Stmt(
            "recursive",
            f"SELECT ALL FROM RECURSIVE part [composition] DOWN WHERE part.part_no = '{part}';",
            part,
        )


def _dml_triplets(rng: random.Random) -> Iterator[Tuple[Stmt, Stmt, Stmt]]:
    """INSERT, MODIFY and DELETE of one fresh state per triplet."""
    prefix = "".join(rng.choice(string.ascii_uppercase) for _ in range(3))
    number = 0
    while True:
        number += 1
        code = f"W{prefix}{number:07d}"
        hectare = rng.randrange(100000, 1000000)
        kind = rng.choice(("border", "coast", "inland"))
        yield (
            Stmt(
                "insert",
                f"INSERT state - area VALUES {{name: 'w-{code}', code: '{code}', "
                f"hectare: {hectare}, area: {{area_id: 'A{code}', kind: '{kind}'}}}};",
                code,
            ),
            Stmt(
                "modify",
                f"MODIFY state FROM state SET hectare = {hectare + 1} "
                f"WHERE state.code = '{code}';",
                code,
            ),
            Stmt("delete", f"DELETE FROM state-area WHERE state.code = '{code}';", code),
        )


def write_commit_stream(seed: int) -> Iterator[Stmt]:
    """DML triplets on fresh keys, with a ``CHECKPOINT;`` every CHECKPOINT_EVERY."""
    rng = random.Random(f"write_commit:{seed}")
    for count, triplet in enumerate(_dml_triplets(rng), start=1):
        yield from triplet
        if count % CHECKPOINT_EVERY == 0:
            yield Stmt("checkpoint", "CHECKPOINT;")


def replica_mix_stream(seed: int) -> Iterator[Stmt]:
    """The DML stream, each write followed by a pinned read of its key, the
    insert of every ROUTE_EVERY-th triplet also by a routed read of its key,
    and a renewal of the pin every REPIN_EVERY triplets."""
    rng = random.Random(f"replica_mix:{seed}")
    for count, triplet in enumerate(_dml_triplets(rng), start=1):
        for write in triplet:
            yield write
            read = f"SELECT ALL FROM state-area WHERE state.code = '{write.key}';"
            if write.cls == "insert" and count % ROUTE_EVERY == 0:
                yield Stmt("replica_read", read, write.key)
            yield Stmt("pinned_read", read, write.key)
        if count % REPIN_EVERY == 0:
            yield Stmt("repin", "")


# ------------------------------------------------------------------- checks


MoleculeKey = Tuple[str, FrozenSet[str]]


def molecule_keys(result) -> List[MoleculeKey]:
    """A query result as (root identifier, component identifiers) pairs."""
    return [(m.root_atom.identifier, frozenset(m.atom_identifiers)) for m in result.molecules]


def check_molecules(found: Sequence[MoleculeKey], expected: Sequence[MoleculeKey]) -> bool:
    """The result holds exactly the expected molecules."""
    return sorted(found, key=_sort_key) == sorted(expected, key=_sort_key)


def _sort_key(item: MoleculeKey) -> Tuple[str, Tuple[str, ...]]:
    return item[0], tuple(sorted(item[1]))


def check_rows(found: Sequence[Tuple], expected: Sequence[Tuple]) -> bool:
    """Aggregate rows equal the plain-Python fold, in any order."""
    return sorted(map(tuple, found)) == sorted(map(tuple, expected))


def check_closures(found: Sequence[Tuple[str, int]], expected: Set[Tuple[str, int]]) -> bool:
    """Recursive molecules: each (root, closure size) as the generator predicts."""
    return len(found) == len(expected) and set(found) == expected


#: The affected counts each DML statement of the triplet must report.
EXPECTED_SUMMARY = {
    "insert": {"molecules_affected": 1, "atoms_inserted": 2, "links_inserted": 1},
    "modify": {"molecules_affected": 1, "atoms_modified": 1},
    "delete": {"molecules_affected": 1, "atoms_removed": 2, "links_removed": 1},
}


def check_summary(cls: str, summary) -> bool:
    """A DML statement's write summary reports exactly one molecule's change."""
    if summary is None or summary.operation != cls:
        return False
    return all(getattr(summary, field) == value for field, value in EXPECTED_SUMMARY[cls].items())


def result_fingerprint(result) -> str:
    """A byte-stable, order-independent rendering of a query result."""
    return json.dumps(
        sorted(json.dumps(d, sort_keys=True, default=str) for d in result.to_dicts())
    )


def engine_fingerprint(engine) -> str:
    """A digest of every atom (with its values) and every link of *engine*."""
    database = engine.to_database()
    atoms = sorted(
        (atom_type.name, atom.identifier, json.dumps(atom.values, sort_keys=True, default=str))
        for atom_type in database.atom_types
        for atom in atom_type
    )
    links = sorted(
        (link_type.name, *link.given_order)
        for link_type in database.link_types
        for link in link_type
    )
    return hashlib.sha256(json.dumps([atoms, links]).encode("utf-8")).hexdigest()


# ---------------------------------------------------------- expected values


class GeographyTruth:
    """Expected read results, derived from the generated database's links."""

    def __init__(self, database) -> None:
        self.hectare: Dict[str, int] = {
            atom.identifier: atom.get("hectare") for atom in database.atyp("state")
        }
        adjacency: Dict[str, Dict[str, List[str]]] = defaultdict(lambda: defaultdict(list))
        for link_type in database.link_types:
            for link in link_type:
                first, second = link.given_order
                adjacency[link_type.name][first].append(second)
        self._molecules: Dict[Tuple[str, str], FrozenSet[str]] = {}
        for shape, link_names in SHAPES.items():
            for code in self.hectare:
                frontier, atoms = [code], {code}
                for name in link_names:
                    frontier = [n for atom in frontier for n in adjacency[name].get(atom, ())]
                    atoms.update(frontier)
                self._molecules[shape, code] = frozenset(atoms)

    def molecule(self, shape: str, code: str) -> List[MoleculeKey]:
        return [(code, self._molecules[shape, code])]

    def range(self, threshold: int) -> List[MoleculeKey]:
        return [
            (code, self._molecules["state-area-edge", code])
            for code, hectare in self.hectare.items()
            if hectare > threshold
        ]


def aggregate_fold(states, threshold: int) -> List[Tuple]:
    """``code, COUNT(*), SUM(hectare), MAX(hectare) … GROUP BY code`` in Python."""
    groups: Dict[str, List[int]] = defaultdict(list)
    for atom in states:
        hectare = atom.get("hectare")
        if hectare is not None and hectare > threshold:
            groups[atom.get("code")].append(hectare)
    return [(code, len(values), sum(values), max(values)) for code, values in groups.items()]


class BomTruth:
    """Closure sizes of the generated bill of materials, in closed form."""

    def __init__(self, database, depth: int, fan_out: int) -> None:
        self.level = {atom.identifier: atom.get("level") for atom in database.atyp("part")}
        self.parent: Dict[str, str] = {}
        for link in database.ltyp("composition"):
            parent, child = link.given_order
            self.parent[child] = parent
        self._size = {
            level: sum(fan_out**i for i in range(depth - level + 1)) for level in range(depth + 1)
        }

    def closures(self, part: str) -> Set[Tuple[str, int]]:
        """A WHERE on a recursive molecule qualifies every molecule containing
        the part: those rooted at the part and at each of its ancestors."""
        found = set()
        node: Optional[str] = part
        while node is not None:
            found.add((node, self._size[self.level[node]]))
            node = self.parent.get(node)
        return found


# ---------------------------------------------------------------- workloads


class Workload:
    """Set-up, statement execution and checks of one workload.

    ``execute`` issues one statement and returns its result; ``check`` is
    called after the timed call.  ``counters`` gives engine counters whose
    deltas over the measured window become per-layer metrics.
    """

    name = ""
    durable = False

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.engine = None

    def stream(self, seed: int) -> Iterator[Stmt]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def execute(self, stmt: Stmt):
        return self.engine.query(stmt.text)

    def check(self, stmt: Stmt, result) -> bool:
        raise NotImplementedError

    def counters(self) -> Dict[str, object]:
        report = dict(self.engine.maintenance_report())
        report["wal_commits"] = self.engine.wal.commits if self.engine.wal is not None else 0
        return report

    def dataset(self) -> Dict[str, object]:
        stats = self.engine.statistics()
        return {
            "atoms": sum(stats["atoms"].values()),
            "links": sum(stats["links"].values()),
        }

    def finish(self) -> Tuple[int, int, Dict[str, float]]:
        """Checks after the window: (checks made, checks failed, extra metrics)."""
        return 0, 0, {}

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def _geography(sizes: Dict[str, int]):
    from repro.datasets.geography import build_geography

    return build_geography(**sizes)


def _engine(database, directory: Optional[Path] = None):
    from repro.storage.engine import PrimaEngine
    from repro.storage.wal import DurabilityConfig

    durability = None
    if directory is not None:
        durability = DurabilityConfig(directory, fsync=FSYNC, group_commit=GROUP_COMMIT)
    engine = PrimaEngine.from_database(database, durability=durability)
    engine.create_index("state", "code")
    return engine


class PointLookup(Workload):
    name = "point_lookup"

    def stream(self, seed: int) -> Iterator[Stmt]:
        return point_lookup_stream(seed)

    def setup(self) -> None:
        database = _geography(GEOGRAPHY)
        self.truth = GeographyTruth(database)
        self.engine = _engine(database)

    def check(self, stmt: Stmt, result) -> bool:
        expected = self.truth.molecule(POINT_SHAPES[stmt.cls], stmt.key)
        return check_molecules(molecule_keys(result), expected)


class AnalyticScan(Workload):
    name = "analytic_scan"

    def stream(self, seed: int) -> Iterator[Stmt]:
        return analytic_scan_stream(seed)

    def setup(self) -> None:
        from repro.datasets.bill_of_materials import build_bill_of_materials
        from repro.storage.engine import PrimaEngine

        database = _geography(GEOGRAPHY)
        self.truth = GeographyTruth(database)
        self.engine = _engine(database)
        self.states = self.engine.scan("state")
        bom = build_bill_of_materials(**BOM)
        self.bom_truth = BomTruth(bom, BOM["depth"], BOM["fan_out"])
        self.bom = PrimaEngine.from_database(bom)
        self.bom.create_structure_index("part", "composition", "down")

    def execute(self, stmt: Stmt):
        engine = self.bom if stmt.cls == "recursive" else self.engine
        return engine.query(stmt.text)

    def check(self, stmt: Stmt, result) -> bool:
        if stmt.cls == "range":
            return check_molecules(molecule_keys(result), self.truth.range(stmt.key))
        if stmt.cls == "aggregate":
            return check_rows(result.rows or (), aggregate_fold(self.states, stmt.key))
        closures = [(m.root_atom.identifier, len(m)) for m in result.molecules]
        return check_closures(closures, self.bom_truth.closures(stmt.key))

    def counters(self) -> Dict[str, object]:
        report = super().counters()
        report["structure_builds"] = self.bom.maintenance_statistics()["structure_builds"]
        return report

    def dataset(self) -> Dict[str, object]:
        sizes = super().dataset()
        bom = self.bom.statistics()
        sizes["bom_atoms"] = sum(bom["atoms"].values())
        sizes["bom_links"] = sum(bom["links"].values())
        return sizes

    def close(self) -> None:
        self.bom.close()
        super().close()


class WriteCommit(Workload):
    name = "write_commit"
    durable = True

    def stream(self, seed: int) -> Iterator[Stmt]:
        return write_commit_stream(seed)

    def setup(self) -> None:
        self.directory = self.workdir / "primary"
        self.engine = _engine(_geography(GEOGRAPHY), self.directory)

    def check(self, stmt: Stmt, result) -> bool:
        if stmt.cls == "checkpoint":
            return (result.explanation or "").startswith("CHECKPOINT #")
        return check_summary(stmt.cls, result.write_summary)

    def finish(self) -> Tuple[int, int, Dict[str, float]]:
        """Reopen the directory; the recovered state must equal the live one."""
        from repro.storage.engine import PrimaEngine

        live = engine_fingerprint(self.engine)
        checkpoint_bytes = self.engine.durability.checkpoint_path.stat().st_size
        self.engine.close()
        started = time.perf_counter()
        reopened = PrimaEngine.open(self.directory, fsync=FSYNC, group_commit=GROUP_COMMIT)
        reopen_s = time.perf_counter() - started
        try:
            failed = 0 if engine_fingerprint(reopened) == live else 1
        finally:
            reopened.close()
        return 1, failed, {
            "storage.recovery.reopen_s": reopen_s,
            "storage.recovery.checkpoint_bytes": checkpoint_bytes,
        }


class ReplicaMix(Workload):
    name = "replica_mix"
    durable = True

    def stream(self, seed: int) -> Iterator[Stmt]:
        return replica_mix_stream(seed)

    def setup(self) -> None:
        self.directory = self.workdir / "primary"
        self.engine = _engine(_geography(REPLICA_GEOGRAPHY), self.directory)
        self.follower = self.engine.create_follower("bench-follower")
        #: The long-lived pin: while it is held, every write records version
        #: chains instead of overwriting in place.
        self.keeper = self.engine.snapshot_at()

    def execute(self, stmt: Stmt):
        if stmt.cls == "replica_read":
            return self.engine.parallel_query([stmt.text], mode="replica", max_lag=0)[0]
        if stmt.cls == "pinned_read":
            return self.keeper.query(stmt.text)
        if stmt.cls == "repin":
            self.keeper.release()
            self.keeper = self.engine.snapshot_at()
            return None
        return self.engine.query(stmt.text)

    def check(self, stmt: Stmt, result) -> bool:
        if stmt.cls == "replica_read":
            # No write ran since the routed read: the head generation is the
            # one the router pinned.
            with self.engine.snapshot_at() as primary:
                return result_fingerprint(result) == result_fingerprint(primary.query(stmt.text))
        if stmt.cls == "pinned_read":
            # Every written key is fresh, so the pinned generation never saw it.
            return len(result) == 0
        if stmt.cls == "repin":
            with self.engine.snapshot_at() as head:
                return self.keeper.generation == head.generation
        return check_summary(stmt.cls, result.write_summary)

    def counters(self) -> Dict[str, object]:
        report = super().counters()
        follower = self.follower.engine.maintenance_statistics()
        report["follower_snapshot_builds"] = follower["snapshot_builds"]
        return report

    def close(self) -> None:
        self.keeper.release()
        self.follower.close()
        super().close()


WORKLOADS = {cls.name: cls for cls in (PointLookup, AnalyticScan, WriteCommit, ReplicaMix)}


def build(name: str, workdir: Path) -> Workload:
    """A set-up workload in a fresh *workdir* (removed by ``close``)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](workdir)
    gc.collect()
    workload.setup()
    return workload
