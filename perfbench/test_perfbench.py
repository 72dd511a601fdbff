"""Self-tests of the benchmark: span arithmetic, statistics, streams and checks.

Run from the root of the repository::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import benchstats  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# ------------------------------------------------------------ span arithmetic


def span(span_id, parent, layer, start, end, statement=1):
    return (span_id, parent, statement, layer, layer, start, end)


def test_self_time_of_nested_spans():
    spans = [
        span(1, None, "statement", 0.0, 10.0),
        span(2, 1, "parser", 1.0, 5.0),
        span(3, 2, "lexer", 2.0, 3.0),
        span(4, 1, "executor", 6.0, 8.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 4.0, 2: 3.0, 3: 1.0, 4: 2.0}
    assert sum(selfs.values()) == 10.0


def test_overlapping_children_are_counted_once():
    # Two children on different threads overlap by one unit.
    spans = [
        span(1, None, "statement", 0.0, 10.0),
        span(2, 1, "follower", 2.0, 6.0),
        span(3, 1, "follower", 5.0, 7.0),
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(5.0)
    assert tracing.covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_layer_totals_add_up_to_the_statement():
    spans = [
        span(1, None, "statement", 0.0, 10.0),
        span(2, 1, "parser", 1.0, 5.0),
        span(3, 2, "lexer", 2.0, 3.0),
        span(4, None, "statement", 20.0, 22.0, statement=2),
        span(5, 4, "lexer", 20.5, 21.0, statement=2),
    ]
    totals = tracing.layer_totals(spans)
    assert totals["statement"]["total"] == pytest.approx(12.0)
    assert sum(totals[layer]["self"] for layer in ("statement", "parser", "lexer")) == pytest.approx(12.0)
    assert totals["lexer"] == {"self": 1.5, "total": 1.5, "count": 2}


def test_tracer_wraps_and_restores_the_targets():
    import repro.mql.parser as parser_module

    original = parser_module.tokenize
    tracer = tracing.Tracer(targets=(("repro.mql.parser", "tokenize", "mql.lexer"),))
    with tracer.installed():
        assert parser_module.tokenize is not original
        with tracer.statement("point"):
            parser_module.parse("SELECT ALL FROM state;")
    assert parser_module.tokenize is original
    layers = [s[3] for s in tracer.spans]
    assert layers == ["mql.lexer", "statement"]
    lexer, root = tracer.spans
    assert lexer[1] == root[0] and lexer[2] == root[2] == 1
    selfs = tracing.self_times(tracer.spans)
    assert sum(selfs.values()) == pytest.approx(root[6] - root[5])


# ------------------------------------------------------------------ statistics


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 101))
    assert benchstats.percentile(values, 50) == pytest.approx(50.5)
    assert benchstats.percentile(values, 0) == 1
    assert benchstats.percentile(values, 100) == 100
    assert benchstats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        benchstats.percentile([], 50)


def test_percentile_needs_ten_samples_beyond_it():
    assert benchstats.samples_beyond(1000, 99) == 10
    assert benchstats.supported(1000, 99)
    assert not benchstats.supported(999, 99)
    assert benchstats.supported(100, 90)
    assert not benchstats.supported(99, 90)


def test_spread_reports_median_quartiles_and_count():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    summary = benchstats.spread(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summary == {"median": 3.0, "q1": q1, "q3": q3, "n": 5}
    assert benchstats.spread([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


def test_ratio_propagates_relative_errors_in_quadrature():
    result = benchstats.ratio(2.0, 4.0, 0.2, 0.4)
    assert result["value"] == pytest.approx(0.5)
    assert result["err"] == pytest.approx(0.5 * math.sqrt(0.1**2 + 0.1**2))
    assert (result["numerator"], result["denominator"]) == (2.0, 4.0)
    assert benchstats.ratio(1.0, 0.0)["value"] is None


def test_reference_speed_cancels_a_uniform_slowdown(monkeypatch):
    """A host twice as slow doubles statement and kernel times alike; the
    rescaled latencies read the same."""

    class Sleeper:
        def __init__(self, seconds):
            self.seconds = seconds

        def execute(self, stmt):
            time.sleep(self.seconds)

        def check(self, stmt, result):
            return True

    stmts = itertools.repeat(workloads.Stmt("point", "SELECT;"))
    rescaled = {}
    for slowdown in (1, 2):
        monkeypatch.setattr(speed, "kernel", lambda: slowdown * speed.REFERENCE_S)
        wall, ref = run.run_block(Sleeper(0.002 * slowdown), stmts, 0.05, run.Tally())
        assert all(r == w / slowdown for w, r in zip(wall["point"], ref["point"]))
        rescaled[slowdown] = statistics.median(ref["point"])
    assert rescaled[2] == pytest.approx(rescaled[1], rel=0.5)
    assert speed.scale(2.0) == speed.REFERENCE_S / 2.0


# --------------------------------------------------------------------- streams


STREAMS = {
    "point_lookup": workloads.point_lookup_stream,
    "analytic_scan": workloads.analytic_scan_stream,
    "write_commit": workloads.write_commit_stream,
    "replica_mix": workloads.replica_mix_stream,
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_one_seed_gives_one_stream_and_two_seeds_two(name):
    def first(seed, count=3 * workloads.CHECKPOINT_EVERY + 100):
        return list(itertools.islice(STREAMS[name](seed), count))

    assert first(7) == first(7)
    assert first(7) != first(8)
    assert {stmt.cls for stmt in first(7)} == CLASSES[name]


CLASSES = {
    "point_lookup": {"point", "molecule"},
    "analytic_scan": {"range", "aggregate", "recursive"},
    "write_commit": {"insert", "modify", "delete", "checkpoint"},
    "replica_mix": {"insert", "modify", "delete", "replica_read", "pinned_read", "repin"},
}


def test_every_workload_has_a_stream():
    assert set(STREAMS) == set(workloads.WORKLOADS)


# ---------------------------------------------------------------------- checks


@pytest.fixture
def geography():
    from repro.datasets.geography import build_geography
    from repro.storage.engine import PrimaEngine

    database = build_geography(n_states=12, edges_per_state=2, n_rivers=2)
    truth = workloads.GeographyTruth(database)
    engine = PrimaEngine.from_database(database)
    engine.create_index("state", "code")
    return engine, truth


def test_molecule_check_catches_a_corrupted_read(geography):
    engine, truth = geography
    shape = "state-area-edge-point"
    result = engine.query(f"SELECT ALL FROM {shape} WHERE state.code = 'S3';")
    found = workloads.molecule_keys(result)
    assert workloads.check_molecules(found, truth.molecule(shape, "S3"))
    (root, atoms), = found
    missing = [(root, atoms - {next(iter(atoms - {root}))})]
    assert not workloads.check_molecules(missing, truth.molecule(shape, "S3"))
    assert not workloads.check_molecules([("S4", atoms)], truth.molecule(shape, "S3"))
    assert not workloads.check_molecules(found * 2, truth.molecule(shape, "S3"))
    assert not workloads.check_molecules(found, truth.molecule("state-area", "S3"))


def test_range_check_catches_a_missing_molecule(geography):
    engine, truth = geography
    threshold = sorted(truth.hectare.values())[5]
    result = engine.query(f"SELECT ALL FROM state-area-edge WHERE state.hectare > {threshold};")
    found = workloads.molecule_keys(result)
    assert len(found) == 6
    assert workloads.check_molecules(found, truth.range(threshold))
    assert not workloads.check_molecules(found[1:], truth.range(threshold))


def test_aggregate_check_catches_a_wrong_row(geography):
    engine, _ = geography
    result = engine.query(
        "SELECT state.code, COUNT(*), SUM(state.hectare), MAX(state.hectare) "
        "FROM state WHERE state.hectare > 300 GROUP BY state.code;"
    )
    expected = workloads.aggregate_fold(engine.scan("state"), 300)
    assert expected and workloads.check_rows(result.rows, expected)
    code, count, total, largest = result.rows[0]
    corrupted = [(code, count, total + 1, largest)] + list(result.rows[1:])
    assert not workloads.check_rows(corrupted, expected)
    assert not workloads.check_rows(result.rows[1:], expected)


def test_closure_check_catches_a_wrong_size():
    from repro.datasets.bill_of_materials import build_bill_of_materials
    from repro.storage.engine import PrimaEngine

    database = build_bill_of_materials(depth=3, fan_out=2, n_roots=2)
    truth = workloads.BomTruth(database, depth=3, fan_out=2)
    engine = PrimaEngine.from_database(database)
    engine.create_structure_index("part", "composition", "down")
    part = "P00005"  # a level-1 part under the second root
    result = engine.query(
        f"SELECT ALL FROM RECURSIVE part [composition] DOWN WHERE part.part_no = '{part}';"
    )
    found = [(m.root_atom.identifier, len(m)) for m in result.molecules]
    assert truth.closures(part) == {("P00002", 15), ("P00005", 7)}
    assert workloads.check_closures(found, truth.closures(part))
    root, size = found[0]
    assert not workloads.check_closures([(root, size - 1)] + found[1:], truth.closures(part))
    assert not workloads.check_closures(found[1:], truth.closures(part))


def test_summary_check_catches_a_wrong_count(geography):
    engine, _ = geography
    result = engine.query(
        "INSERT state - area VALUES {name: 'x', code: 'WX1', hectare: 5, "
        "area: {area_id: 'AWX1', kind: 'k'}};"
    )
    summary = result.write_summary
    assert workloads.check_summary("insert", summary)
    assert not workloads.check_summary("insert", replace(summary, atoms_inserted=1))
    assert not workloads.check_summary("delete", summary)
    assert not workloads.check_summary("insert", None)
    engine.query("DELETE FROM state-area WHERE state.code = 'WX1';")


def test_fingerprints_catch_a_changed_result_and_state(geography):
    engine, _ = geography
    before = engine.query("SELECT ALL FROM state-area WHERE state.code = 'S1';")
    state = workloads.engine_fingerprint(engine)
    engine.query("MODIFY state FROM state SET hectare = 1 WHERE state.code = 'S1';")
    after = engine.query("SELECT ALL FROM state-area WHERE state.code = 'S1';")
    assert workloads.result_fingerprint(before) != workloads.result_fingerprint(after)
    assert workloads.engine_fingerprint(engine) != state


# ----------------------------------------------------------------- the harness


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_without_the_engine_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "runs"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_lookup", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
