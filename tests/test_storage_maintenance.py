"""Incremental cache maintenance: change events, deltas, and coherence.

The storage engine subscribes to its snapshot's change events and folds
every write into the cached snapshot, the hash-index pool, the atom network
and the planner statistics — instead of invalidating and rebuilding them.
These tests assert:

* the core emits the five event kinds in mutation order;
* an incrementally maintained atom network is indistinguishable from a
  freshly rebuilt one after arbitrary write sequences;
* the executor's index pool answers correctly across writes without being
  rebuilt, and its generation stamp tracks the engine's;
* ``rebuild`` mode still behaves like the historical invalidate-everything
  engine, while ``incremental`` mode keeps build counters at 1 in steady
  state.
"""

from __future__ import annotations

import pytest

from repro.core.database import Database
from repro.core.events import (
    ATOM_DELETED,
    ATOM_INSERTED,
    ATOM_MODIFIED,
    LINK_CONNECTED,
    LINK_DISCONNECTED,
)
from repro.datasets.geography import load_geography
from repro.storage.engine import PrimaEngine
from repro.storage.network import AtomNetwork


def build_tiny() -> Database:
    db = Database("tiny")
    db.define_atom_type("author", {"name": "string", "country": "string"})
    db.define_atom_type("book", {"title": "string", "year": "integer"})
    db.define_link_type("wrote", "author", "book")
    return db


class TestChangeEvents:
    def test_event_kinds_in_mutation_order(self):
        db = build_tiny()
        events = []
        db.subscribe(events.append)
        author = db.insert_atom("author", identifier="a1", name="Codd", country="UK")
        book = db.insert_atom("book", identifier="b1", title="RM", year=1970)
        db.connect("wrote", author, book)
        db.atyp("author").replace(author.with_values(country="US"))
        db.ltyp("wrote").remove_atom("b1")
        db.atyp("book").remove("b1")
        assert [event.kind for event in events] == [
            ATOM_INSERTED,
            ATOM_INSERTED,
            LINK_CONNECTED,
            ATOM_MODIFIED,
            LINK_DISCONNECTED,
            ATOM_DELETED,
        ]
        assert events[3].previous["country"] == "UK"
        assert events[3].atom["country"] == "US"

    def test_unsubscribe_stops_delivery(self):
        db = build_tiny()
        events = []
        db.subscribe(events.append)
        db.unsubscribe(events.append)
        db.insert_atom("author", name="X", country="Y")
        assert events == []

    def test_types_added_after_subscription_are_covered(self):
        db = build_tiny()
        events = []
        db.subscribe(events.append)
        db.define_atom_type("publisher", {"name": "string"})
        db.insert_atom("publisher", name="ACM")
        assert [event.kind for event in events] == [ATOM_INSERTED]
        assert events[0].type_name == "publisher"


def assert_networks_equal(maintained: AtomNetwork, rebuilt: AtomNetwork) -> None:
    assert len(maintained) == len(rebuilt)
    for atom_type in rebuilt.database.atom_types:
        for atom in atom_type:
            identifier = atom.identifier
            assert maintained.neighbours(identifier) == rebuilt.neighbours(identifier)
            assert maintained.atom_type_of(identifier) == rebuilt.atom_type_of(identifier)
            for link_type in rebuilt.database.link_types:
                assert maintained.neighbours_via(
                    link_type.name, identifier
                ) == rebuilt.neighbours_via(link_type.name, identifier)


class TestIncrementalNetwork:
    def test_maintained_network_matches_rebuilt(self):
        db = load_geography()
        network = AtomNetwork(db)
        db.subscribe(network.apply_event)
        # A write burst touching every event kind.
        to = db.insert_atom("state", identifier="TO", name="Tocantins", code="TO", hectare=500)
        area = db.insert_atom("area", identifier="a_to", area_id="a_to", kind="state-border")
        db.connect("state-area", to, area)
        db.atyp("state").replace(to.with_values(hectare=900))
        for link_type in db.link_types_of("state"):
            link_type.remove_atom("RJ")
        db.atyp("state").remove("RJ")
        assert_networks_equal(network, AtomNetwork(db))
        assert network.rebuilds == 1  # only the constructor pass

    def test_multi_link_type_pair_survives_single_disconnect(self):
        """The untyped adjacency keeps a pair connected while any link remains."""
        db = Database("multi")
        db.define_atom_type("a", {"x": "integer"})
        db.define_atom_type("b", {"x": "integer"})
        db.define_link_type("l1", "a", "b")
        db.define_link_type("l2", "a", "b")
        first = db.insert_atom("a", identifier="a1", x=1)
        second = db.insert_atom("b", identifier="b1", x=2)
        link1 = db.connect("l1", first, second)
        db.connect("l2", first, second)
        network = AtomNetwork(db)
        db.subscribe(network.apply_event)
        db.ltyp("l1").remove(link1)
        assert network.neighbours("a1") == frozenset({"b1"})
        db.ltyp("l2").remove_atom("a1")
        assert network.neighbours("a1") == frozenset()
        assert_networks_equal(network, AtomNetwork(db))


class TestEngineMaintenance:
    @pytest.fixture()
    def prima(self):
        return PrimaEngine.from_database(load_geography())

    def test_steady_state_has_no_rebuilds(self, prima):
        prima.query("SELECT ALL FROM state-area WHERE state.code = 'SP';")  # warm caches
        for i in range(5):
            prima.store_atom("state", identifier=f"S{i}", name=f"S{i}", code=f"S{i}", hectare=i)
            prima.query("SELECT ALL FROM state-area WHERE state.code = 'SP';")
            prima.delete_atom("state", f"S{i}")
        report = prima.maintenance_statistics()
        assert report["snapshot_builds"] == 1
        assert report["network_builds"] == 1
        assert report["interpreter_builds"] == 1
        assert report["network_rebuilds"] == 1  # the constructor pass only
        assert report["events_applied"] == 10
        assert report["index_generation"] == report["generation"]

    def test_rebuild_mode_invalidates_on_every_write(self):
        prima = PrimaEngine.from_database(load_geography(), maintenance="rebuild")
        prima.query("SELECT ALL FROM state-area WHERE state.code = 'SP';")
        for i in range(3):
            prima.store_atom("state", identifier=f"S{i}", name=f"S{i}", code=f"S{i}", hectare=i)
            prima.query("SELECT ALL FROM state-area WHERE state.code = 'SP';")
        report = prima.maintenance_statistics()
        assert report["interpreter_builds"] == 4
        assert report["network_builds"] == 4

    def test_modes_agree_on_query_results(self):
        statements = [
            "INSERT state - area VALUES {name: 'T', code: 'TO', hectare: 500, "
            "area: {area_id: 'a_to', kind: 'state-border'}};",
            "MODIFY state FROM state - area SET hectare = 901 WHERE state.code = 'TO';",
            "SELECT ALL FROM state-area WHERE state.hectare > 800;",
            "DELETE FROM state - area WHERE state.code = 'TO';",
            "SELECT ALL FROM state-area;",
        ]
        results = {}
        for mode in ("incremental", "rebuild"):
            engine = PrimaEngine.from_database(load_geography(), maintenance=mode)
            sizes = []
            for statement in statements:
                sizes.append(len(engine.query(statement)))
            results[mode] = (sizes, engine.statistics()["atoms"], engine.statistics()["links"])
        assert results["incremental"] == results["rebuild"]

    def test_index_pool_maintained_across_writes(self, prima):
        prima.query("SELECT ALL FROM state-area WHERE state.code = 'SP';")  # builds index
        builds_before = prima.maintenance_statistics()["index_builds"]
        prima.store_atom("state", identifier="ZZ", name="Z", code="ZZ", hectare=1)
        prima.store_atom("area", identifier="a_zz", area_id="a_zz", kind="state-border")
        prima.connect("state-area", "ZZ", "a_zz")
        hit = prima.query("SELECT ALL FROM state-area WHERE state.code = 'ZZ';")
        assert len(hit) == 1
        assert hit.counters.index_lookups == 1
        prima.delete_atom("state", "ZZ")
        miss = prima.query("SELECT ALL FROM state-area WHERE state.code = 'ZZ';")
        assert len(miss) == 0
        assert prima.maintenance_statistics()["index_builds"] == builds_before

    def test_dml_mirrors_into_stores_and_network(self, prima):
        prima.network()  # warm the network cache
        prima.query(
            "INSERT state - area VALUES {name: 'T', code: 'TO', hectare: 500, "
            "area: {area_id: 'a_to', kind: 'state-border'}};"
        )
        state = prima.lookup("state", "code", "TO")[0]
        assert prima.neighbours("state-area", state.identifier)
        assert_networks_equal(prima.network(), AtomNetwork(prima.to_database()))
        prima.query("DELETE FROM state - area WHERE state.code = 'TO';")
        assert prima.lookup("state", "code", "TO") == ()
        assert_networks_equal(prima.network(), AtomNetwork(prima.to_database()))

    def test_planner_statistics_follow_writes(self, prima):
        # Force statistics collection (a rewrite fires for this statement).
        prima.plan("SELECT ALL FROM state-area WHERE state.code = 'SP';")
        planner = prima.interpreter().planner
        before = planner.statistics.atom_counts["state"]
        prima.store_atom("state", identifier="Q1", name="Q", code="Q1", hectare=5)
        assert planner.statistics.atom_counts["state"] == before + 1
        prima.delete_atom("state", "Q1")
        assert planner.statistics.atom_counts["state"] == before

    def test_generation_advances_without_caches(self):
        engine = PrimaEngine("fresh")
        engine.create_atom_type("a", {"x": "integer"})
        generation = engine.generation
        engine.store_atom("a", x=1)
        assert engine.generation == generation + 1

    def test_rejected_link_leaves_store_and_snapshot_agreeing(self):
        """Regression: a cardinality rejection leaves no link behind."""
        from repro.core.link import Cardinality
        from repro.exceptions import CardinalityError

        engine = PrimaEngine("c")
        engine.create_atom_type("a", {"x": "integer"})
        engine.create_atom_type("b", {"x": "integer"})
        engine.create_link_type("ab", "a", "b", cardinality=Cardinality.ONE_TO_ONE)
        first = engine.store_atom("a", x=1)
        one = engine.store_atom("b", x=1)
        other = engine.store_atom("b", x=2)
        engine.to_database()  # a warm engine (the cold one has its own test)
        engine.connect("ab", first, one)
        with pytest.raises(CardinalityError):
            engine.connect("ab", first, other)
        assert engine.neighbours("ab", first.identifier) == (one.identifier,)
        assert len(engine.to_database().ltyp("ab")) == 1

    def test_cardinality_enforced_before_any_query(self):
        """Regression: a clashing 1:1 connect on an engine that has run no
        query yet is rejected, and the engine keeps answering afterwards."""
        from repro.core.link import Cardinality
        from repro.exceptions import CardinalityError

        engine = PrimaEngine("fresh")
        engine.create_atom_type("a", {"x": "integer"})
        engine.create_atom_type("b", {"x": "integer"})
        engine.create_link_type("ab", "a", "b", cardinality=Cardinality.ONE_TO_ONE)
        first = engine.store_atom("a", x=1)
        one = engine.store_atom("b", x=1)
        other = engine.store_atom("b", x=2)
        engine.connect("ab", first, one)
        with pytest.raises(CardinalityError):
            engine.connect("ab", first, other)
        assert engine.neighbours("ab", first.identifier) == (one.identifier,)
        result = engine.query("SELECT ALL FROM a - b;")
        assert [sorted(molecule.atom_identifiers) for molecule in result] == [
            sorted((first.identifier, one.identifier))
        ]
        assert len(engine.to_database().ltyp("ab")) == 1

    def test_write_through_stale_handle_reaches_the_stores(self, prima):
        """Regression: DML through an interpreter dropped by DDL must not be
        lost — it still writes the engine's one database."""
        held = prima.interpreter()
        prima.create_atom_type("annotation", {"text": "string"})  # DDL invalidates
        held.execute(
            "INSERT state - area VALUES {name: 'Late', code: 'LL', hectare: 7, "
            "area: {area_id: 'a_ll', kind: 'k'}};"
        )
        assert len(prima.lookup("state", "code", "LL")) == 1
        fresh = prima.query("SELECT ALL FROM state-area WHERE state.code = 'LL';")
        assert len(fresh) == 1
