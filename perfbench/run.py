"""Benchmark the REncoder serving stack end to end, or trace it layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload range-bulk --seed 1 --seconds 20 --trace 0

One process pinned to one CPU, one client thread, closed loop, against a
2-shard x 3-replica :class:`~repro.cluster.FilterCluster` (one service
worker per replica, REncoder at 10 bits/key per SSTable, default router
with hedging).  Every input comes from ``--seed`` and is drawn before
timing starts.  Every routed verdict is checked against the true
emptiness of its range.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run, the rung ladder and the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with metric names and
units as declared in ``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
if not (_SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: program source not found at {_SRC / 'repro'}")
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from ladder import RUNGS, run_ladder  # noqa: E402
from spans import Instrumentation, Tracer, summarize  # noqa: E402
from workloads import PUT_BATCH, WORKLOADS, Inputs, Workload, make_inputs  # noqa: E402

from repro.cluster import FilterCluster  # noqa: E402
from repro.core.rencoder import REncoder  # noqa: E402
from repro.telemetry.registry import percentile  # noqa: E402

SHARDS, REPLICAS = 2, 3
BITS_PER_KEY = 10
#: Ring seed of every cluster, fixed so that ``--seed`` varies only the
#: inputs.  It splits the 64 segments 28/36 between the shards, which
#: puts each shard's preload mid-way between memtable flushes: with a
#: split landing on a flush boundary, the tiered LSM's table count (and
#: with it every read cost) would jump between seeds.
CLUSTER_SEED = 17
#: Full set-ups per end-to-end run; ``setup_s`` is their median.  Two,
#: not more, so that every run of the benchmark fits its time budget.
SETUP_REPEATS = 2
#: Writes per replica between automatic checkpoints (durable runs).
CHECKPOINT_EVERY = 20_000
#: Samples a reported tail percentile must leave beyond it: ten, so that
#: it is not one stray sample.  For put batches, which fall into classes
#: (plain, flush, compaction), ten also keeps the tail inside the ~17
#: compactions of a window rather than on the boundary with the flushes
#: below them.
TAIL_BEYOND = 10
#: A traced run alternates this many untraced and traced blocks.
TRACE_BLOCKS = 10
LADDER_REPEATS = 9


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def tail(samples, beyond: int) -> tuple[float, float]:
    """``(value, percentile)``: p99 by nearest rank, or, when that leaves
    fewer than ``beyond`` samples beyond it, the highest percentile that
    does not.

    A p99 of a few hundred samples is one of the last handful, which
    swings with whether one more stall (a compaction, a slow core) fell
    inside the window.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, min(math.ceil(0.99 * n), n - beyond))
    return ordered[rank - 1], 100 * rank / n


def pin_to_one_cpu() -> None:
    """Run this process, and every thread it starts later, on one CPU.

    The stack's threads (client, replica workers) take turns on the GIL
    and gain nothing from a second core; spread over two, every GIL
    hand-off and future wake-up crosses CPUs, and its cost swings with
    whatever else the host runs.  The highest-numbered CPU is chosen,
    as the one least likely to take the interrupts.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def freeze_heap() -> None:
    """Move everything alive now out of the cyclic collector's reach.

    Called after set-up and warm-up, so that the collector's full
    passes scan only what the window allocates, not the ~1.5M stored
    keys of a 500k-key cluster: otherwise a 15-25 ms full pass lands on
    one range-bulk request in twenty-five and sets the tail.
    """
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class FilterFactory:
    """Per-SSTable REncoder factory; records a span per build while traced."""

    def __init__(self) -> None:
        self.tracer: "Tracer | None" = None

    def __call__(self, keys):
        tracer = self.tracer
        if tracer is None:
            return REncoder(keys, bits_per_key=BITS_PER_KEY)
        h = tracer.enter("core.filter.build")
        try:
            return REncoder(keys, bits_per_key=BITS_PER_KEY)
        finally:
            tracer.exit(h)


def build_cluster(w: Workload, inputs: Inputs, factory):
    """Build, load, flush and start the cluster.

    Returns ``(cluster, seconds, put_batch_seconds)``; the preload goes
    through :meth:`FilterCluster.load` in ``PUT_BATCH``-key batches,
    each timed.
    """
    keys = inputs.preload.tolist()
    t0 = time.perf_counter()
    cluster = FilterCluster(
        SHARDS,
        REPLICAS,
        factory,
        seed=CLUSTER_SEED,
        durability=w.durable,
        checkpoint_every=CHECKPOINT_EVERY if w.durable else 0,
        workers=1,
    )
    put_s = []
    for i in range(0, len(keys), PUT_BATCH):
        t1 = time.perf_counter()
        cluster.load(keys[i:i + PUT_BATCH])
        put_s.append(time.perf_counter() - t1)
    cluster.flush()
    cluster.start()
    return cluster, time.perf_counter() - t0, put_s


def snapshot(cluster) -> dict[str, int]:
    """Router, service and storage counters summed over the cluster."""
    out = dict(cluster.router.health()["counters"])
    for reps in cluster.replicas.values():
        for rep in reps:
            stats = rep.env.stats.as_dict()
            for name, value in stats.items():
                out["io_" + name] = out.get("io_" + name, 0) + value
            out["sim_io_ns"] = out.get("sim_io_ns", 0) + (
                stats["reads"] * rep.env.io_cost_ns
                + stats["backoff_ns"]
                + stats["slow_read_ns"]
            )
            for name in ("completed", "degraded", "shed"):
                key = "service_" + name
                out[key] = out.get(key, 0) + getattr(rep.service.stats, name)
    return out


def delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


class Runner:
    """The closed-loop client: one request in flight, answers kept for checking."""

    def __init__(self, w: Workload, cluster, inputs: Inputs) -> None:
        self.w = w
        self.cluster = cluster
        self.inputs = inputs
        self.next = 0
        self.latencies: list[float] = []
        self.put_latencies: list[float] = []
        #: (ranges, put batches acknowledged before it, positives, degraded shards)
        self.answers: list[tuple] = []
        self.ranges = 0
        self.puts = 0
        self.failed = 0
        self.put_error: "Exception | None" = None

    def exhausted(self) -> bool:
        return self.w.writes and (
            self.next >= len(self.inputs.requests) or self.put_error is not None
        )

    def query(self, ranges: np.ndarray, acked: int) -> float:
        """Send one routed request; returns its wall seconds."""
        pairs = ranges.tolist()
        t0 = time.perf_counter()
        try:
            resp = self.cluster.query_range_many(pairs)
        except Exception:  # a raised request counts as failed, the run goes on
            self.failed += len(pairs)
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        degraded = {o.shard_id for o in resp.shards if o.degraded}
        # Kept as an array, not the response's list: with lists, every
        # full collection in the window walks one pointer per verdict
        # so far, up to 4 ms a pass by the end of a 20 s range-bulk run.
        positives = np.array(resp.positives, dtype=bool)
        self.answers.append((ranges, acked, positives, degraded))
        return elapsed

    def step(self) -> None:
        """One cycle: (put batch, then) one query request."""
        i = self.next
        self.next += 1
        acked = 0
        if self.w.writes:
            keys = self.inputs.put_batches[i].tolist()
            t0 = time.perf_counter()
            try:
                self.cluster.load(keys)
            except Exception as exc:  # the timeline can no longer say what is stored
                self.put_error = exc
                self.failed += len(keys)
                return
            self.put_latencies.append(time.perf_counter() - t0)
            self.puts += len(keys)
            acked = i + 1
        ranges = self.inputs.requests[i % len(self.inputs.requests)]
        self.latencies.append(self.query(ranges, acked))
        self.ranges += len(ranges)

    def run_for(self, seconds: float) -> float:
        """Run cycles until ``seconds`` pass; returns the wall time taken."""
        t0 = time.perf_counter()
        end = t0 + seconds
        while time.perf_counter() < end and not self.exhausted():
            self.step()
        return time.perf_counter() - t0

    def warm_up(self) -> None:
        """Fill kernel arenas and the router's hedge-delay reservoir."""
        for ranges in self.inputs.warmup:
            self.query(ranges, 0)


def verify(cluster, inputs: Inputs, answers) -> dict[str, int]:
    """Check every routed verdict against the keys acknowledged before it.

    A range owned by a shard that answered degraded must read positive;
    every other range must read exactly its true emptiness.
    """
    out = {"false_negatives": 0, "mismatches": 0, "degraded_ranges": 0}
    for ranges, acked, got, degraded in answers:
        truth = inputs.timeline.nonempty(ranges[:, 0], ranges[:, 1], acked)
        deg = np.zeros(len(got), dtype=bool)
        if degraded:
            for q, (lo, hi) in enumerate(ranges.tolist()):
                deg[q] = any(
                    shard in degraded
                    for segment, _, _ in cluster.map.split_range(lo, hi)
                    for shard in cluster.map.owners(segment)
                )
        out["false_negatives"] += int(np.count_nonzero(truth & ~got))
        out["mismatches"] += int(np.count_nonzero((got != truth) & ~deg))
        out["mismatches"] += int(np.count_nonzero(deg & ~got))
        out["degraded_ranges"] += int(np.count_nonzero(deg))
    return out


def filter_bits_per_key(cluster) -> float:
    """Filter bits on replica 0 of each shard / keys the cluster stores."""
    bits = sum(reps[0].lsm.filter_bits() for reps in cluster.replicas.values())
    return bits / cluster.keys_accepted


# ----------------------------------------------------------------------
# end-to-end run
# ----------------------------------------------------------------------
def end_to_end(w: Workload, seed: int, seconds: float):
    """Set up ``SETUP_REPEATS`` times, measure one window; returns the result."""
    inputs = make_inputs(w, seed)
    setups, load_rates, load_put_s = [], [], []
    for rep in range(SETUP_REPEATS):
        cluster, setup_s, put_s = build_cluster(w, inputs, FilterFactory())
        setups.append(setup_s)
        load_rates.append(len(inputs.preload) / sum(put_s))
        load_put_s.extend(put_s)
        if rep < SETUP_REPEATS - 1:
            cluster.stop()
            del cluster
            gc.collect()
    try:
        runner = Runner(w, cluster, inputs)
        runner.warm_up()
        warm_answers = len(runner.answers)
        freeze_heap()
        before = snapshot(cluster)
        elapsed = runner.run_for(seconds)
        d = delta(snapshot(cluster), before)
        checks = verify(cluster, inputs, runner.answers)
        lat = runner.latencies
        if w.writes:
            put_kops = runner.puts / elapsed / 1e3
            put_s = runner.put_latencies
        else:
            put_kops = statistics.median(load_rates) / 1e3
            put_s = load_put_s
        ranges = runner.ranges
        batch_tail, batch_pct = tail(lat, TAIL_BEYOND)
        put_tail, put_pct = tail(put_s, TAIL_BEYOND)
        values = {
            "setup_s": statistics.median(setups),
            "range_kqps": ranges / elapsed / 1e3,
            "batch_p50_ms": percentile(lat, 50) * 1e3,
            "overall_us_per_range": (elapsed + d["sim_io_ns"] / 1e9) / ranges * 1e6,
            "wasted_reads_per_range": d["io_wasted_reads"] / ranges,
            "bits_per_key": filter_bits_per_key(cluster),
            "put_kops": put_kops,
            "put_p99_ms": put_tail * 1e3,
            "rss_mb": peak_rss_mb(),
        }
        attempted = ranges + runner.puts
        failed = runner.failed + checks["degraded_ranges"]
        notes = [
            # Not a metric: bursts of load elsewhere on a shared host,
            # which halve the speed of every request for a second or so,
            # decide which requests form the last percent.
            f"batch_p99_ms {batch_tail * 1e3:.6g} ms (p{batch_pct:.2f} of "
            f"{len(lat)} requests)",
            f"put batches {len(put_s)} (put_p99_ms is p{put_pct:.2f}), "
            f"setups {', '.join(f'{s:.2f}' for s in setups)} s, "
            f"warm-up requests {warm_answers}, hedges {d['cluster_hedges']}",
            f"failed_frac {failed / attempted:.6f} ratio "
            f"({failed} of {attempted} ranges and puts)",
            f"verification: {checks['false_negatives']} false negatives, "
            f"{checks['mismatches']} mismatches",
        ]
        if runner.put_error is not None:
            notes.append(f"a put batch raised: {runner.put_error!r}")
        correct = (
            checks["false_negatives"] == 0
            and checks["mismatches"] == 0
            and runner.put_error is None
        )
        return correct, attempted, failed, values, notes
    finally:
        cluster.stop()


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def filter_shape(cluster) -> tuple[float, float]:
    """Key-weighted mean P1 and stored-level count over replica 0's tables."""
    weight = p1 = levels = 0.0
    for reps in cluster.replicas.values():
        for table in reps[0].lsm.read_view().tables:
            f = table.filter
            if f is None:
                continue
            weight += len(table)
            p1 += f.final_p1 * len(table)
            levels += f.stored_level_count * len(table)
    return _per(p1, weight), _per(levels, weight)


def layer_metrics(
    reads: dict,
    counts: dict,
    d: dict,
    writes: dict,
    wcounts: dict,
    wd: dict,
    puts: int,
    requests: int,
    ranges: int,
    cluster,
) -> dict[str, float]:
    """Per-layer values from span summaries and counter deltas.

    ``reads``/``counts``/``d`` cover the traced query blocks;
    ``writes``/``wcounts``/``wd`` cover the phase in which the
    workload writes (the preload for read-only workloads, the traced
    blocks for ingest-mixed), with ``puts`` keys put in it.
    """

    def span(summary, name, field):
        return summary.get(name, {}).get(field, 0.0)

    def mean_us(summary, name, field="self_ns"):
        return _per(span(summary, name, field), span(summary, name, "count")) / 1e3

    def per_range_us(name):
        return _per(span(reads, name, "self_ns"), ranges) / 1e3

    consulted = counts.get("filter_consulted", 0)
    positives = counts.get("filter_positives", 0)
    nonempty = counts.get("sstable_nonempty", 0)
    p1, stored_levels = filter_shape(cluster)
    return {
        "cluster.route_us": mean_us(reads, "cluster"),
        "cluster.subqueries_per_request": _per(d["cluster_subqueries"], requests),
        "cluster.pieces_per_range": _per(counts.get("pieces", 0), ranges),
        "cluster.hedges": d["cluster_hedges"],
        "cluster.failovers": d["cluster_failovers"],
        "cluster.degraded_merges": d["cluster_degraded_merges"],
        "cluster.put_us": mean_us(writes, "cluster.put"),
        "service.queue_wait_us": mean_us(reads, "service.queue_wait", "total_ns"),
        "service.self_us": mean_us(reads, "service"),
        "service.requests": d["service_completed"],
        "service.degraded": d["service_degraded"],
        "service.shed": d["service_shed"],
        "storage.lsm.read_self_us": mean_us(reads, "storage.lsm"),
        "storage.lsm.tables_per_range": _per(
            counts.get("lsm_table_ranges", 0), counts.get("lsm_ranges", 0)
        ),
        "storage.lsm.put_us": mean_us(writes, "storage.lsm.put"),
        "storage.lsm.flushes": span(writes, "storage.lsm.flush", "count"),
        "storage.lsm.flush_ms": mean_us(writes, "storage.lsm.flush", "total_ns") / 1e3,
        "storage.lsm.write_amp": _per(wd["io_entries_written"], puts * REPLICAS),
        "storage.sstable.self_us_per_range": per_range_us("storage.sstable"),
        "storage.sstable.fence_pass_frac": _per(
            consulted, counts.get("sstable_pairs", 0)
        ),
        "storage.sstable.filter_pass_frac": _per(positives, consulted),
        "storage.memtable.scan_us_per_range": per_range_us("storage.memtable"),
        "storage.env.reads": d["io_reads"],
        "storage.env.useful_frac": _per(d["io_useful_reads"], d["io_reads"]),
        "storage.env.sim_io_ms": d["sim_io_ns"] / 1e6,
        "storage.env.read_us": mean_us(reads, "storage.env.read", "total_ns"),
        "core.filter.query_us_per_range": per_range_us("core.filter"),
        "core.filter.probes_per_range": _per(counts.get("filter_probes", 0), ranges),
        "core.filter.fpr": _per(positives - nonempty, consulted - nonempty),
        "core.filter.p1": p1,
        "core.filter.stored_levels": stored_levels,
        "core.filter.builds": span(writes, "core.filter.build", "count"),
        "core.filter.build_ms": mean_us(writes, "core.filter.build", "total_ns") / 1e3,
        "core.kernels.range_us_per_range": per_range_us("core.kernels"),
        "durability.wal.appends": span(writes, "durability.wal.append", "count"),
        "durability.wal.append_us": mean_us(
            writes, "durability.wal.append", "total_ns"
        ),
        "durability.wal.bytes_per_put": _per(wcounts.get("wal_bytes", 0), puts),
        "durability.checkpoints": span(writes, "durability.checkpoint", "count"),
        "durability.checkpoint.ms": mean_us(
            writes, "durability.checkpoint", "total_ns"
        ) / 1e3,
    }


def traced(w: Workload, seed: int, seconds: float):
    """One set-up traced coarsely, the ladder, then alternating blocks."""
    inputs = make_inputs(w, seed)
    factory = FilterFactory()
    setup_tracer = Tracer()
    factory.tracer = setup_tracer
    with Instrumentation(setup_tracer, reads=False, per_put=False):
        cluster, _, _ = build_cluster(w, inputs, factory)
    factory.tracer = None
    try:
        setup_d = snapshot(cluster)
        ladder, problems = run_ladder(cluster, inputs.ladder, LADDER_REPEATS)
        runner = Runner(w, cluster, inputs)
        runner.warm_up()
        freeze_heap()
        tracer = Tracer()
        tree_cls = type(cluster.replicas[0][0].lsm)
        block = seconds / TRACE_BLOCKS
        totals = {True: [0.0, 0], False: [0.0, 0]}  # traced? -> [seconds, ranges]
        d: dict[str, int] = {}
        traced_puts = traced_requests = 0
        for b in range(TRACE_BLOCKS):
            on = b % 2 == 1
            ranges0, puts0, req0 = runner.ranges, runner.puts, len(runner.latencies)
            if on:
                before = snapshot(cluster)
                factory.tracer = tracer
                with Instrumentation(tracer, tree_cls=tree_cls):
                    elapsed = runner.run_for(block)
                factory.tracer = None
                for k, v in delta(snapshot(cluster), before).items():
                    d[k] = d.get(k, 0) + v
                traced_puts += runner.puts - puts0
                traced_requests += len(runner.latencies) - req0
            else:
                elapsed = runner.run_for(block)
            totals[on][0] += elapsed
            totals[on][1] += runner.ranges - ranges0
        checks = verify(cluster, inputs, runner.answers)
        reads = summarize(tracer)
        kqps = {on: _per(r, s) for on, (s, r) in totals.items()}
        if w.writes:
            writes, wcounts, wd, puts = reads, tracer.counts, d, traced_puts
        else:
            writes, wcounts, wd = summarize(setup_tracer), setup_tracer.counts, setup_d
            puts = len(inputs.preload)
        values = layer_metrics(
            reads, tracer.counts, d, writes, wcounts, wd, puts,
            traced_requests, totals[True][1], cluster,
        )
        values["telemetry.trace_overhead_frac"] = 1 - _per(kqps[True], kqps[False])
        for rung in RUNGS:
            values[f"ladder.{rung}_ns"] = ladder[rung]
        values.update(
            {
                "trace.requests": traced_requests,
                "trace.ranges": totals[True][1],
                "trace.puts": traced_puts,
                "trace.spans": len(tracer),
            }
        )
        attempted = runner.ranges + runner.puts
        failed = runner.failed + checks["degraded_ranges"]
        notes = [
            f"untraced {kqps[False] / 1e3:.3f} kqps, traced {kqps[True] / 1e3:.3f} kqps",
            f"verification: {checks['false_negatives']} false negatives, "
            f"{checks['mismatches']} mismatches",
        ] + [f"ladder: {p}" for p in problems]
        correct = (
            checks["false_negatives"] == 0
            and checks["mismatches"] == 0
            and not problems
            and runner.put_error is None
        )
        return correct, attempted, failed, values, notes
    finally:
        cluster.stop()


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object the command prints last."""
    w = WORKLOADS[workload]
    correct, attempted, failed, values, notes = (traced if trace else end_to_end)(
        w, seed, seconds
    )
    units = declared_metrics(trace)
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} are not both "
            "measured and declared in BENCHMARK.json"
        )
    for line in notes:
        print(f"# {line}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
