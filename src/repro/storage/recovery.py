"""Crash recovery: checkpoint images and redo-only WAL replay.

Recovery rebuilds a :class:`~repro.storage.engine.PrimaEngine` from its
durability directory in two phases:

1. **Checkpoint load** — ``checkpoint.json`` is a compact catalog + occurrence
   image (atom types with their attribute descriptions and atoms, link types
   with cardinalities and links, secondary indexes, the write generation).
   Checkpoints are written atomically: the image goes to a temporary file,
   is fsynced, and replaces the previous image via :func:`os.replace` — a
   crash mid-checkpoint leaves the old image intact.
2. **WAL replay** — every valid record after the checkpoint is applied in
   append order: DDL records re-create types and indexes, commit records
   replay their change events against the engine's database.  Only committed
   transactions ever reach the log (events are buffered per writer and
   written as one record at commit), and :func:`repro.storage.wal.read_wal`
   discards torn final records by checksum — so replay is pure redo and the
   recovered state is exactly the pre-crash committed head.

The checkpoint image is bulk-loaded: each type enters the engine's database
fully populated, without a generation tick or change event per atom.  The
WAL tail then replays as ordinary mutations on that database, so the
engine's change listener folds every replayed event into the derived
structures exactly as it folds a live write.  After replay the engine's
write generation continues from the highest stamp seen, and the atom
surrogate counter is bumped past every replayed surrogate identifier so new
inserts cannot collide with recovered atoms.

The WAL replay step, :func:`replay_records`, is also how follower seeding,
hub catch-up, file polling and process-pool catch-up apply the primary's
shipped records — one apply path for all of them.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.core.atom import Atom, AtomType, ensure_surrogate_counter
from repro.core.attributes import AtomTypeDescription, AttributeDescription
from repro.core.link import Cardinality, Link, LinkType
from repro.exceptions import CardinalityError
from repro.storage.wal import (
    DurabilityConfig,
    WalError,
    WalScan,
    decode_value,
    encode_value,
    read_wal,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.database import Database
    from repro.storage.engine import PrimaEngine

#: Checkpoint image format version (bumped on incompatible layout changes).
CHECKPOINT_FORMAT = 1

#: Surrogate identifiers have the form ``<type>#<n>`` (see repro.core.atom).
_SURROGATE = re.compile(r"#(\d+)$")


@dataclass
class RecoveryResult:
    """What one recovery pass did (reported via ``maintenance_report()``)."""

    checkpoint_loaded: bool = False
    records_replayed: int = 0
    events_replayed: int = 0
    ddl_replayed: int = 0
    discarded_bytes: int = 0
    generation: int = 0


# -------------------------------------------------------------- descriptions


def describe_attributes(description: AtomTypeDescription) -> List[Dict[str, object]]:
    """Serialize an atom-type description for a checkpoint or DDL record."""
    serialized = []
    for attribute in description:
        entry: Dict[str, object] = {"name": attribute.name, "type": attribute.data_type.value}
        if attribute.allowed_values is not None:
            entry["allowed"] = sorted(
                (encode_value(value) for value in attribute.allowed_values),
                key=repr,
            )
        if attribute.required:
            entry["required"] = True
        if attribute.doc:
            entry["doc"] = attribute.doc
        serialized.append(entry)
    return serialized


def restore_attributes(serialized: Iterable[Dict[str, object]]) -> AtomTypeDescription:
    """Invert :func:`describe_attributes`."""
    return AtomTypeDescription(
        [
            AttributeDescription(
                entry["name"],
                entry.get("type", "any"),
                allowed_values=(
                    [decode_value(value) for value in entry["allowed"]]
                    if "allowed" in entry
                    else None
                ),
                required=bool(entry.get("required", False)),
                doc=str(entry.get("doc", "")),
            )
            for entry in serialized
        ]
    )


# --------------------------------------------------------------- checkpoints


def checkpoint_image(engine: "PrimaEngine") -> Dict[str, object]:
    """A compact catalog + occurrence image of the engine's database head."""
    database = engine.to_database()
    atom_types = [
        {
            "name": atom_type.name,
            "attributes": describe_attributes(atom_type.description),
            "atoms": [
                {"id": atom.identifier, "v": encode_value(atom.values)}
                for atom in sorted(atom_type, key=lambda a: a.identifier)
            ],
            "indexes": sorted(engine._declared_indexes.get(atom_type.name, ())),
        }
        for atom_type in database.atom_types
    ]
    link_types = [
        {
            "name": link_type.name,
            "first": link_type.atom_type_names[0],
            "second": link_type.atom_type_names[1],
            "cardinality": link_type.cardinality.value,
            "links": sorted(link.given_order for link in link_type),
        }
        for link_type in database.link_types
    ]
    return {
        "format": CHECKPOINT_FORMAT,
        "name": engine.name,
        "generation": engine.generation,
        "atom_types": atom_types,
        "link_types": link_types,
        "structure_indexes": sorted(engine._structure_indexes.registered()),
        # Built, non-stale interval encodings travel with the image so
        # recovery restores them directly instead of re-deriving each from a
        # full occurrence pass on first use (absent in older images — those
        # simply keep the lazy-rebuild behaviour).
        "structure_encodings": engine._structure_indexes.encoded_states(),
    }


def write_checkpoint(engine: "PrimaEngine", config: DurabilityConfig) -> Path:
    """Write the checkpoint image atomically (tmp file + fsync + rename)."""
    path = config.checkpoint_path
    path.parent.mkdir(parents=True, exist_ok=True)
    image = checkpoint_image(engine)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(image, handle, separators=(",", ":"), sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)
    return path


def load_checkpoint(config: DurabilityConfig) -> Optional[Dict[str, object]]:
    """Read the checkpoint image, or ``None`` when none has been written."""
    path = config.checkpoint_path
    if not path.exists():
        return None
    image = json.loads(path.read_text(encoding="utf-8"))
    if image.get("format") != CHECKPOINT_FORMAT:
        raise WalError(
            f"unsupported checkpoint format {image.get('format')!r} in {path}"
        )
    return image


def _fsync_directory(directory: Path) -> None:
    """Persist a rename by fsyncing its directory (best effort off-POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX platforms
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# -------------------------------------------------------------------- replay


def apply_checkpoint(engine: "PrimaEngine", image: Dict[str, object]) -> int:
    """Bulk-load catalog and occurrences from a checkpoint image and move the
    engine to the image's generation; returns the highest surrogate ordinal
    seen."""
    highest = 0
    for entry in image.get("atom_types", ()):
        name = entry["name"]
        atoms = [
            Atom(name, decode_value(record["v"]), identifier=record["id"])
            for record in entry.get("atoms", ())
        ]
        engine._add_atom_type(AtomType(name, restore_attributes(entry["attributes"]), atoms))
        for atom in atoms:
            highest = max(highest, _surrogate_ordinal(atom.identifier))
        for attribute in entry.get("indexes", ()):
            engine.create_index(name, attribute)
    for entry in image.get("link_types", ()):
        name, first_type, second_type = entry["name"], entry["first"], entry["second"]
        links = [
            Link(name, first, second, first_type, second_type)
            for first, second in entry.get("links", ())
        ]
        engine._add_link_type(
            LinkType(
                name,
                first_type,
                second_type,
                links,
                cardinality=Cardinality(
                    entry.get("cardinality", Cardinality.MANY_TO_MANY.value)
                ),
            )
        )
    for atom_type, link_type, direction in image.get("structure_indexes", ()):
        engine.create_structure_index(atom_type, link_type, direction)
    engine._structure_indexes.restore_states(image.get("structure_encodings", ()))
    engine._advance_generation(int(image.get("generation", 0)))
    return highest


def apply_ddl_record(engine: "PrimaEngine", record: Dict[str, object]) -> None:
    """Replay one DDL record (atom type / link type / index creation).

    Replay is create-if-absent: after a crash *between* the checkpoint image
    write and the WAL truncate, the next recovery loads an image that
    already contains the types the un-truncated log re-creates — like event
    replay, DDL replay must be idempotent for that window to be safe.
    """
    op = record.get("op")
    database = engine.to_database()
    if op == "atom_type":
        if not database.has_atom_type(record["name"]):
            engine.create_atom_type(record["name"], restore_attributes(record["attributes"]))
    elif op == "link_type":
        if not database.has_link_type(record["name"]):
            engine.create_link_type(
                record["name"],
                record["first"],
                record["second"],
                cardinality=Cardinality(
                    record.get("cardinality", Cardinality.MANY_TO_MANY.value)
                ),
            )
    elif op == "index":
        engine.create_index(record["type"], record["attribute"])
    elif op == "structure_index":
        engine.create_structure_index(
            record["type"], record["link"], record.get("direction", "down")
        )
    else:
        raise WalError(f"unknown DDL operation {op!r} in WAL record")


def replay_records(
    engine: "PrimaEngine", records: Iterable[Dict[str, object]], target_generation: int = 0
) -> int:
    """Replay WAL/feed records on *engine*, then fast-forward it to
    *target_generation*; returns the generation reached.

    The one replay routine of recovery, follower seeding, hub catch-up, file
    polling and process-pool catch-up.  Every commit event replays as the
    matching mutation on the engine's database, and the engine's change
    listener folds it into every derived structure exactly as it folds a
    live write.  Events the state already reflects are skipped, so
    double-applied slices are harmless.  The surrogate counter moves past
    every replayed atom.
    """
    generation = int(target_generation)
    highest_surrogate = 0
    database = engine.to_database()
    for record in records:
        kind = record.get("r")
        if kind == "ddl":
            apply_ddl_record(engine, record)
        elif kind == "commit":
            for event in record.get("events", ()):
                ordinal = _replay_event(database, event)
                highest_surrogate = max(highest_surrogate, ordinal)
            generation = max(generation, int(record.get("gen", 0)))
        else:
            raise WalError(f"unknown WAL record kind {kind!r}")
    ensure_surrogate_counter(highest_surrogate)
    engine._advance_generation(generation)
    return generation


def _replay_event(database: "Database", event: Dict[str, object]) -> int:
    """Replay one serialized event as a mutation on *database*; returns the
    surrogate ordinal it introduced (0 for deletes and links)."""
    tag = event.get("e")
    type_name = event["t"]
    if tag in ("ai", "am"):
        atom_type = database.atyp(type_name)
        atom = Atom(type_name, decode_value(event["v"]), identifier=event["id"])
        current = atom_type.get(atom.identifier)
        if current is None:
            atom_type.add(atom)
        elif current.values != atom.values:
            atom_type.replace(atom)
        return _surrogate_ordinal(atom.identifier)
    if tag == "ad":
        atom_type = database.atyp(type_name)
        if atom_type.get(event["id"]) is not None:
            atom_type.remove(event["id"])
        return 0
    if tag in ("lc", "ld"):
        link_type = database.ltyp(type_name)
        first_type, second_type = link_type.atom_type_names
        link = Link(type_name, event["f"], event["s"], first_type, second_type)
        if tag == "ld":
            link_type.remove(link)  # no-op when absent
        elif link not in link_type:
            try:
                link_type.add(link)
            except CardinalityError:
                # The primary validated this connect when it committed; an
                # incumbent link that clashes with it is older in the feed
                # than the primary's state — a double-applied slice, or a
                # disconnect whose transaction committed after this
                # connect's.  The newest event wins: the incumbent goes.
                for incumbent in _clashing_links(link_type, link):
                    link_type.remove(incumbent)
                link_type.add(link)
        return 0
    raise WalError(f"unknown event tag {tag!r} in commit record")


def _clashing_links(link_type: LinkType, link: Link) -> List[Link]:
    """The links of *link_type* that forbid *link* under its cardinality
    (the rule :meth:`~repro.core.link.LinkType.add` enforces)."""
    clashing: List[Link] = []
    for endpoint_type, identifier in link.endpoints:
        if (
            link_type.cardinality is Cardinality.ONE_TO_ONE
            or endpoint_type == link_type.atom_type_names[1]
        ):
            clashing.extend(link_type.links_of(identifier))
    return clashing


def _surrogate_ordinal(identifier: object) -> int:
    """The numeric suffix of a ``<type>#<n>`` surrogate identifier, or 0."""
    if not isinstance(identifier, str):
        return 0
    match = _SURROGATE.search(identifier)
    return int(match.group(1)) if match else 0


def recover(engine: "PrimaEngine", config: DurabilityConfig) -> RecoveryResult:
    """Rebuild *engine* from its durability directory (checkpoint + WAL).

    Called by :class:`~repro.storage.engine.PrimaEngine` during construction,
    before the WAL is opened for appending — nothing replayed here is ever
    re-logged.  Returns the telemetry ``maintenance_report()`` exposes.
    """
    Path(config.directory).mkdir(parents=True, exist_ok=True)
    result = RecoveryResult()
    image = load_checkpoint(config)
    if image is not None:
        ensure_surrogate_counter(apply_checkpoint(engine, image))
        result.checkpoint_loaded = True
        result.generation = int(image.get("generation", 0))
    scan: WalScan = read_wal(config.wal_path)
    result.discarded_bytes = scan.discarded_bytes
    if scan.discarded_bytes:
        # The torn/corrupt tail is dead bytes: physically truncate it now,
        # before the engine reopens the log in append mode — otherwise the
        # records committed after this recovery would sit *behind* the
        # invalid bytes and be discarded by the next recovery.
        with open(config.wal_path, "r+b") as handle:
            handle.truncate(scan.valid_bytes)
            handle.flush()
            os.fsync(handle.fileno())
    result.generation = replay_records(engine, scan.records, result.generation)
    result.records_replayed = len(scan.records)
    for record in scan.records:
        if record.get("r") == "ddl":
            result.ddl_replayed += 1
        else:
            result.events_replayed += len(record.get("events", ()))
    return result
