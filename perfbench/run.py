"""The repository's benchmark: MQL statements end to end, and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload point_lookup --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with the
program unmodified.  Their timings (``setup_s`` and the ``ref_*`` metrics)
are given at a reference machine speed (``speed.py``): a fixed kernel timed
between statements cancels the drift of a shared host, which otherwise
moves wall-clock figures by up to a factor of two from one run to the next.
The wall-clock figures (``throughput_stmt_s``, ``latency_p50_us``, the
per-class ``*_p50_us`` and so on) are printed beside them and kept in the
history.  ``--trace 1`` alternates untraced and traced blocks and
reports the per-layer metrics (spans around each layer's entry points, see
``tracing.py``) plus the tracing overhead.  One client sends statements in a
closed loop.  Every result is checked; a failed check or a raised error
counts in ``failed``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
appends an environment-stamped line to ``perfbench/history.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median at the reference speed.
SETUP_REPEATS = 7
#: Statements run (and checked) after each set-up, before timing starts.
WARMUP_STATEMENTS = 30
#: Timed blocks of an untraced run; every timing is also given per block.
REPEATS = 5
#: Untraced/traced block pairs of a traced run.
TRACE_PAIRS = 3
DML = ("insert", "modify", "delete")

#: End-to-end metrics every workload reports with ``--trace 0``; every
#: timing among them is at the reference speed.
END_TO_END = {
    "setup_s": "s",
    "ref_throughput_stmt_s": "1/s",
    "ref_latency_p50_us": "us",
    "ref_latency_p99_us": "us",
    "peak_rss_mb": "MB",
}
#: The same timings as measured (wall clock), printed and kept in the
#: history; ``setup_s`` keeps its contract name for the rescaled figure.
WALL_CLOCK = {
    "wall_setup_s": "s",
    "throughput_stmt_s": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
}

#: Layers that own spans; each reports its self time per statement.
SPAN_LAYERS = (
    "mql.lexer",
    "mql.parser",
    "mql.translator",
    "optimizer.planner",
    "engine.executor",
    "manipulation.transactions",
    "storage.wal",
    "core.versions",
    "storage.recovery",
    "storage.replication",
    tracing.ROOT,
)

#: Per-layer metrics every workload reports with ``--trace 1``.
PER_LAYER = {
    **{f"{layer}.self_us": "us" for layer in SPAN_LAYERS},
    "mql.lexer.tokens_per_stmt": "count",
    "optimizer.planner.rules_applied": "count",
    "engine.executor.atoms_touched_per_row": "count",
    "engine.executor.links_followed_per_row": "count",
    "engine.executor.index_lookups_per_stmt": "count",
    "storage.columnar.rows_scanned_per_stmt": "count",
    "storage.columnar.hit_ratio": "ratio",
    "storage.columnar.folds": "count",
    "storage.columnar.aggregates": "count",
    "storage.columnar.builds": "count",
    "storage.structure_index.builds": "count",
    "storage.structure_index.hit_ratio": "ratio",
    "storage.structure_index.interval_scans": "count",
    "storage.structure_index.recursive_stmts": "count",
    "manipulation.transactions.commit_us": "us",
    "manipulation.transactions.commits": "count",
    "storage.wal.append_us": "us",
    "storage.wal.sync_us": "us",
    "storage.wal.syncs_per_commit": "count",
    "storage.wal.bytes_per_commit": "B",
    "core.versions.collect_us_per_commit": "us",
    "core.versions.versions_live": "count",
    "core.versions.pinned_read_us": "us",
    "storage.engine.events_applied_per_commit": "count",
    "storage.engine.snapshot_builds": "count",
    "storage.engine.interpreter_builds": "count",
    "storage.recovery.checkpoint_us": "us",
    "storage.recovery.checkpoint_bytes": "B",
    "storage.recovery.reopen_s": "s",
    "storage.replication.ship_us": "us",
    "storage.replication.records_per_ship": "count",
    "storage.replication.apply_us": "us",
    "storage.replication.follower_query_us": "us",
    "storage.replication.follower_rebuilds_per_catchup": "count",
    "storage.replication.routed_ratio": "ratio",
    "storage.replication.routed": "count",
    "storage.replication.fallbacks": "count",
    "trace.stmt_us": "us",
    "trace.statements": "count",
    "trace.spans_per_stmt": "count",
    "trace.span_cost_us": "us",
    "trace.overhead_us_per_stmt": "us",
    "trace.overhead_ratio": "ratio",
    "trace.overhead_ratio_err": "ratio",
    "trace.untraced_stmt_s": "1/s",
    "trace.traced_stmt_s": "1/s",
}


# --------------------------------------------------------------- measuring


@dataclass
class Tally:
    """Statement records and work counters over the measured window."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    classes: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    work: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def observe(self, stmt, result, ok: bool) -> None:
        self.attempted += 1
        self.classes[stmt.cls] += 1
        if not ok:
            self.failed += 1
        if result is None:
            return
        counters = result.counters
        if counters is not None:
            self.work["counted_stmts"] += 1
            self.work["rows"] += len(result)
            self.work["atoms_touched"] += counters.atoms_touched
            self.work["links_followed"] += counters.links_followed
            self.work["index_lookups"] += counters.index_lookups
            self.work["columnar_rows_scanned"] += counters.columnar_rows_scanned
            if stmt.cls == "aggregate" and counters.columnar_rows_scanned > 0:
                self.work["columnar_folds"] += 1
        choice = result.plan_choice
        if stmt.cls == "recursive" and choice is not None and _uses(choice.best, "IntervalScanPlan"):
            self.work["interval_scans"] += 1


def _uses(plan, node_name: str) -> bool:
    if type(plan).__name__ == node_name:
        return True
    return any(
        _uses(getattr(plan, child), node_name)
        for child in ("child", "left", "right", "source")
        if getattr(plan, child, None) is not None
    )


def run_one(workload, stmt, tally: Tally, tracer=None) -> float:
    """Issue one statement, check its result; returns its latency in seconds."""
    result = error = None
    ok = False
    started = time.perf_counter()
    try:
        if tracer is None:
            result = workload.execute(stmt)
            latency = time.perf_counter() - started
        else:
            with tracer.statement(stmt.cls):
                started = time.perf_counter()
                result = workload.execute(stmt)
                latency = time.perf_counter() - started
        ok = workload.check(stmt, result)
    except Exception as exc:  # a failing statement is a result, not a crash
        latency = time.perf_counter() - started
        error = f"{type(exc).__name__}: {exc}"
    if not ok and len(tally.errors) < 5:
        tally.errors.append(f"{stmt.cls}: {error or 'wrong result'} for {stmt.text}")
    tally.observe(stmt, result, ok)
    return latency


#: One timed block: statement class -> latencies in seconds.  Arrays keep
#: the benchmark's own memory small and independent of the program's speed.
Block = Dict[str, "array[float]"]


def run_block(
    workload, stream: Iterator, seconds: float, tally: Tally, tracer=None
) -> Tuple[Block, Block]:
    """Closed loop for *seconds*; returns the latencies by statement class,
    as measured and at the reference speed.

    The reference kernel runs between statements, outside their timing.
    Each statement is rescaled by the slower of the two kernel runs on
    either side of it: the host's speed drifts within milliseconds, and a
    slowdown that reached the statement usually reaches one of them.
    """
    wall: Block = defaultdict(lambda: array("d"))
    ref: Block = defaultdict(lambda: array("d"))
    deadline = time.perf_counter() + seconds
    before = speed.kernel()
    while time.perf_counter() < deadline:
        stmt = next(stream)
        latency = run_one(workload, stmt, tally, tracer)
        after = speed.kernel()
        wall[stmt.cls].append(latency)
        ref[stmt.cls].append(latency * speed.scale(max(before, after)))
        before = after
    return dict(wall), dict(ref)


def rate(block: Block) -> float:
    """Statements per second of statement latency."""
    return sum(map(len, block.values())) / sum(map(sum, block.values()))


def set_up(name: str, seed: int, workdir: Path):
    """Set up SETUP_REPEATS times (build, engine, warm-up); keep the last.

    Returns the set-up times as measured and at the reference speed, the
    latter rescaled by kernel times taken right after the set-up (right
    after the previous set-up's teardown and collection, the kernel reads
    up to 60% slower than the machine is).
    """
    import workloads

    times: List[float] = []
    ref_times: List[float] = []
    workload = None
    tally = Tally()
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        tally = Tally()
        started = time.perf_counter()
        workload = workloads.build(name, workdir)
        stream = workload.stream(seed)
        for _ in range(WARMUP_STATEMENTS):
            run_one(workload, next(stream), tally)
        times.append(time.perf_counter() - started)
        ref_times.append(times[-1] * speed.scale(speed.bracket()))
    return workload, stream, times, ref_times, tally


def block_metrics(block: Block) -> Dict[str, float]:
    """Throughput, percentiles and per-class medians of one block."""
    latencies = [latency for values in block.values() for latency in values]
    metrics = {
        "throughput_stmt_s": rate(block),
        "latency_p50_us": benchstats.percentile(latencies, 50) * 1e6,
        "latency_p99_us": benchstats.percentile(latencies, 99) * 1e6,
    }
    for cls, values in block.items():
        metrics[f"{cls}_p50_us"] = benchstats.percentile(values, 50) * 1e6
    return metrics


def summarise(blocks: List[Block]) -> Dict[str, Dict[str, float]]:
    """Every block metric over the whole window, with its spread over blocks.

    ``value`` pools the samples of all blocks: on a shared machine the
    processor speed drifts on a scale of seconds, and a statistic over the
    whole window averages that drift where a median over blocks would pick
    one speed.  ``median``/``q1``/``q3``/``n`` summarise the same metric per
    block.
    """
    pooled: Block = defaultdict(lambda: array("d"))
    for block in blocks:
        for cls, values in block.items():
            pooled[cls].extend(values)
    per_block = [block_metrics(block) for block in blocks]
    summary = {}
    for name, value in block_metrics(pooled).items():
        summary[name] = benchstats.spread([m[name] for m in per_block if name in m])
        summary[name]["value"] = value
    return summary


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def delta(before: Dict, after: Dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


# ------------------------------------------------------------- per layer


def layer_metrics(window: Window, extra: Dict[str, float]) -> Dict[str, float]:
    """Every PER_LAYER metric from the spans and the counter deltas."""
    spans = window.tracer.spans
    before, after, traced, tally = window.before, window.after, window.traced, window.tally
    totals = tracing.layer_totals(spans)
    statements = max(1, int(totals.get(tracing.ROOT, {}).get("count", 0)))

    def total(key: str, what: str = "total") -> float:
        return totals.get(key, {}).get(what, 0.0)

    def mean_us(name: str) -> float:
        return benchstats.per(total("name:" + name), total("name:" + name, "count")) * 1e6

    work = tally.work
    commits = sum(tally.classes.get(cls, 0) for cls in DML)
    aggregates = tally.classes.get("aggregate", 0)
    recursive = tally.classes.get("recursive", 0)
    ships = delta(before, after, "replication_ships")
    routed = delta(before, after, "replication_routed")
    fallbacks = delta(before, after, "replication_fallbacks")
    pinned_roots = {s[0] for s in spans if s[3] == tracing.ROOT and s[4] == "pinned_read"}
    pinned = [s[6] - s[5] for s in spans if s[4] == "SnapshotHandle.query" and s[1] in pinned_roots]

    metrics = {f"{layer}.self_us": total(layer, "self") / statements * 1e6 for layer in SPAN_LAYERS}
    # Both at the reference speed, so the host's drift between the blocks
    # does not read as tracing overhead.
    untraced_rates = [rate(block) for block in window.ref_blocks]
    traced_rates = [rate(block) for block in window.traced_blocks]
    untraced_rate = benchstats.spread(untraced_rates)["median"]
    traced_rate = benchstats.spread(traced_rates)["median"]
    overhead = benchstats.ratio(
        traced_rate,
        untraced_rate,
        benchstats.sigma(traced_rates),
        benchstats.sigma(untraced_rates),
    )
    span_cost = tracing.calibrate()
    spans_per_stmt = (len(spans) - statements) / statements
    metrics.update(
        {
            "mql.lexer.tokens_per_stmt": traced["tokens"] / statements,
            "optimizer.planner.rules_applied": benchstats.per(
                traced["rules"], total("name:Planner.optimize", "count")
            ),
            "engine.executor.atoms_touched_per_row": benchstats.per(work["atoms_touched"], work["rows"]),
            "engine.executor.links_followed_per_row": benchstats.per(work["links_followed"], work["rows"]),
            "engine.executor.index_lookups_per_stmt": benchstats.per(
                work["index_lookups"], work["counted_stmts"]
            ),
            "storage.columnar.rows_scanned_per_stmt": benchstats.per(
                work["columnar_rows_scanned"], aggregates
            ),
            "storage.columnar.hit_ratio": benchstats.per(work["columnar_folds"], aggregates),
            "storage.columnar.folds": work["columnar_folds"],
            "storage.columnar.aggregates": aggregates,
            "storage.columnar.builds": delta(before, after, "columnar_builds"),
            "storage.structure_index.builds": delta(before, after, "structure_builds"),
            "storage.structure_index.hit_ratio": benchstats.per(work["interval_scans"], recursive),
            "storage.structure_index.interval_scans": work["interval_scans"],
            "storage.structure_index.recursive_stmts": recursive,
            "manipulation.transactions.commit_us": mean_us("Transaction.commit"),
            "manipulation.transactions.commits": commits,
            "storage.wal.append_us": mean_us("WriteAheadLog.append"),
            "storage.wal.sync_us": mean_us("WriteAheadLog._fsync"),
            "storage.wal.syncs_per_commit": benchstats.per(
                delta(before, after, "wal_syncs"), delta(before, after, "wal_commits")
            ),
            "storage.wal.bytes_per_commit": benchstats.per(
                delta(before, after, "wal_lifetime_bytes"), delta(before, after, "wal_commits")
            ),
            "core.versions.collect_us_per_commit": benchstats.per(
                total("name:Database.collect_versions"), traced["commits"]
            )
            * 1e6,
            "core.versions.versions_live": after.get("versions_live", 0),
            "core.versions.pinned_read_us": benchstats.per(sum(pinned), len(pinned)) * 1e6,
            "storage.engine.events_applied_per_commit": benchstats.per(
                delta(before, after, "events_applied"), commits
            ),
            "storage.engine.snapshot_builds": delta(before, after, "snapshot_builds"),
            "storage.engine.interpreter_builds": delta(before, after, "interpreter_builds"),
            "storage.recovery.checkpoint_us": mean_us("write_checkpoint"),
            "storage.recovery.checkpoint_bytes": extra.get("storage.recovery.checkpoint_bytes", 0),
            "storage.recovery.reopen_s": extra.get("storage.recovery.reopen_s", 0),
            "storage.replication.ship_us": mean_us("ReplicationHub.ship"),
            "storage.replication.records_per_ship": benchstats.per(
                delta(before, after, "replication_records_shipped"), ships
            ),
            "storage.replication.apply_us": mean_us("FollowerEngine.apply_records"),
            "storage.replication.follower_query_us": mean_us("FollowerEngine.query"),
            "storage.replication.follower_rebuilds_per_catchup": benchstats.per(
                delta(before, after, "follower_snapshot_builds"), ships
            ),
            "storage.replication.routed_ratio": benchstats.per(routed, routed + fallbacks),
            "storage.replication.routed": routed,
            "storage.replication.fallbacks": fallbacks,
            "trace.stmt_us": total(tracing.ROOT) / statements * 1e6,
            "trace.statements": statements,
            "trace.spans_per_stmt": spans_per_stmt,
            "trace.span_cost_us": span_cost * 1e6,
            "trace.overhead_us_per_stmt": spans_per_stmt * span_cost * 1e6,
            "trace.overhead_ratio": overhead["value"] or 0.0,
            "trace.overhead_ratio_err": overhead["err"] or 0.0,
            "trace.untraced_stmt_s": untraced_rate,
            "trace.traced_stmt_s": traced_rate,
        }
    )
    return metrics


# ---------------------------------------------------------------- output


def environment(args, workload) -> Dict[str, object]:
    """The environment stamp recorded with every run."""
    import workloads

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fsync": workloads.FSYNC if workload.durable else None,
        "group_commit": workloads.GROUP_COMMIT if workload.durable else None,
        "dataset": workload.dataset(),
    }


def git_sha() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def describe(name: str, unit: str, summary) -> str:
    """One human-readable line: value, unit and, for timings, the block spread."""
    if isinstance(summary, dict):
        return (
            f"{name:<48} {summary['value']:>14.4f} {unit:<6} "
            f"(median {summary['median']:.4f}, q1 {summary['q1']:.4f}, "
            f"q3 {summary['q3']:.4f} over n={summary['n']})"
        )
    return f"{name:<48} {summary:>14.4f} {unit}"


def append_history(entry: Dict[str, object]) -> None:
    with open(HERE / "history.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


# ------------------------------------------------------------------ runs


@dataclass
class Window:
    """What one measured window produced."""

    blocks: List[Block]
    ref_blocks: List[Block]
    tally: Tally
    before: Dict[str, float]
    after: Dict[str, float]
    rss_mb: float
    tracer: Optional[tracing.Tracer] = None
    #: Traced blocks, at the reference speed.
    traced_blocks: List[Block] = field(default_factory=list)
    traced: Counter = field(default_factory=Counter)


def measure(workload, stream, seconds: float, trace: bool) -> Window:
    """Run the timed window: REPEATS untraced blocks, or TRACE_PAIRS
    untraced/traced pairs when *trace* is set."""
    tally = Tally()
    before = workload.counters()
    if not trace:
        timed = [run_block(workload, stream, seconds / REPEATS, tally) for _ in range(REPEATS)]
        blocks, ref_blocks = [wall for wall, _ in timed], [ref for _, ref in timed]
        return Window(blocks, ref_blocks, tally, before, workload.counters(), peak_rss_mb())
    traced: Counter = Counter()
    tracer = tracing.Tracer()
    tracer.observers["tokenize"] = lambda tokens: traced.update(tokens=len(tokens))
    tracer.observers["Planner.optimize"] = lambda choice: traced.update(
        rules=len(choice.applied_rules)
    )
    blocks, ref_blocks, traced_blocks = [], [], []
    block = seconds / (2 * TRACE_PAIRS)
    for _ in range(TRACE_PAIRS):
        wall, ref = run_block(workload, stream, block, tally)
        blocks.append(wall)
        ref_blocks.append(ref)
        commits_before = sum(tally.classes.get(cls, 0) for cls in DML)
        with tracer.installed():
            traced_blocks.append(run_block(workload, stream, block, tally, tracer)[1])
        traced["commits"] += sum(tally.classes.get(cls, 0) for cls in DML) - commits_before
    return Window(
        blocks, ref_blocks, tally, before, workload.counters(), peak_rss_mb(),
        tracer, traced_blocks, traced,
    )


def run_workload(args) -> int:
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    workload, stream, setup_times, ref_setup_times, warmup = set_up(
        args.workload, args.seed, workdir
    )
    try:
        window = measure(workload, stream, args.seconds, bool(args.trace))
        env = environment(args, workload)
        checks, failed_after, extra = workload.finish()
    finally:
        workload.close()
    tally = window.tally
    attempted = warmup.attempted + tally.attempted + checks
    failed = warmup.failed + tally.failed + failed_after
    errors = warmup.errors + tally.errors
    if failed_after:
        errors.append("reopened state differs from the live engine")

    summary = summarise(window.blocks)
    ref_summary = summarise(window.ref_blocks)
    setup = benchstats.spread(setup_times)
    ref_setup = benchstats.spread(ref_setup_times)
    end_to_end = {
        "setup_s": {**ref_setup, "value": ref_setup["median"]},
        "ref_throughput_stmt_s": ref_summary["throughput_stmt_s"],
        "ref_latency_p50_us": ref_summary["latency_p50_us"],
        "ref_latency_p99_us": ref_summary["latency_p99_us"],
        "peak_rss_mb": window.rss_mb,
    }
    wall_clock = {
        "wall_setup_s": {**setup, "value": setup["median"]},
        "throughput_stmt_s": summary["throughput_stmt_s"],
        "latency_p50_us": summary["latency_p50_us"],
        "latency_p99_us": summary["latency_p99_us"],
    }
    writes = sum(tally.classes.get(cls, 0) for cls in DML)
    wal_bytes_per_write = (
        benchstats.per(delta(window.before, window.after, "wal_lifetime_bytes"), writes)
        if workload.durable
        else None
    )
    samples = sum(len(values) for block in window.blocks for values in block.values())
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print(f"# {samples} timed statements in {len(window.blocks)} blocks; classes {dict(tally.classes)}")
    if not benchstats.supported(samples, 99):
        print(f"# latency_p99_us: {benchstats.samples_beyond(samples, 99)} samples beyond p99, fewer than 10")
    for name, value in end_to_end.items():
        print(describe(name, END_TO_END[name], value))
    for name, value in wall_clock.items():
        print(describe(name, WALL_CLOCK[name], value))
    classes = {k: v for k, v in summary.items() if k.endswith("_p50_us") and k != "latency_p50_us"}
    classes.update(
        {f"ref_{k}": v for k, v in ref_summary.items() if k.endswith("_p50_us") and k != "latency_p50_us"}
    )
    for name in sorted(classes):
        print(describe(name, "us", classes[name]))
    if wal_bytes_per_write is not None:
        print(describe("wal_bytes_per_write", "B", wal_bytes_per_write))
    print(describe("failed_ratio", "ratio", benchstats.per(failed, attempted)))
    for error in errors:
        print(f"# failure: {error}")

    if args.trace:
        metrics = layer_metrics(window, extra)
        self_sum = sum(metrics[f"{layer}.self_us"] for layer in SPAN_LAYERS)
        print(
            f"# traced statement {metrics['trace.stmt_us']:.2f} us = sum of layer self times "
            f"{self_sum:.2f} us, of which about {metrics['trace.overhead_us_per_stmt']:.2f} us "
            "is span recording"
        )
        for name, unit in PER_LAYER.items():
            print(describe(name, unit, metrics[name]))
        (HERE / "runs").mkdir(exist_ok=True)
        window.tracer.write(HERE / "runs" / f"{args.workload}.spans.jsonl.gz")
        reported = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        reported = {
            name: {"value": value["value"] if isinstance(value, dict) else value, "unit": END_TO_END[name]}
            for name, value in end_to_end.items()
        }

    append_history(
        {
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "workload": args.workload,
            "environment": env,
            "attempted": attempted,
            "failed": failed,
            "classes": dict(tally.classes),
            "end_to_end": end_to_end,
            "wall_clock": wall_clock,
            "statement_classes": classes,
            "wal_bytes_per_write": wal_bytes_per_write,
            "metrics": reported,
        }
    )
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}
        )
    )
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    import workloads

    combined: Dict[str, Dict[str, object]] = {}
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {completed.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            combined[f"{name}.{metric}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no engine sources at {ROOT / 'src' / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
