"""The rung ladder: one 1024-range batch answered at every layer.

Each rung answers the same seeded batch of empty width-64 ranges one
layer higher than the rung below, so the difference between adjacent
rungs is the cost that layer adds per range:

=========  ============================================================
kernel     ``get_kernel(f).range_many`` per SSTable filter of replica 0
filter     ``REncoder.query_range_many`` per SSTable filter of replica 0
sstable    ``SSTable.query_range_many`` per SSTable of replica 0
lsm        ``LSMTree.range_query_many`` on replica 0 of each shard
service    ``FilterService.query_range_batch`` on replica 0 of each shard
router     ``ClusterRouter.query_range_many`` over the whole cluster
=========  ============================================================

The shard-level rungs get each shard's pieces of the batch, as the
router would send them.  Kernel and filter verdicts must match table by
table, and the LSM, service and router answers must match range by
range (and be empty); any difference fails the run.
"""

from __future__ import annotations

import statistics
import time
from typing import NamedTuple

import numpy as np

from repro.core.kernels import get_kernel

RUNGS = ("kernel", "filter", "sstable", "lsm", "service", "router")


class _Shard(NamedTuple):
    """One shard's share of the ladder batch, ready for every rung."""

    idxs: np.ndarray  # batch index of each piece
    pieces: np.ndarray  # (n, 2) uint64
    los: np.ndarray
    his: np.ndarray
    pairs: list
    rep: object  # replica 0 of the shard
    tables: list
    deadline_ns: int


def _shards(cluster, ranges: np.ndarray) -> list[_Shard]:
    """Each shard's pieces of ``ranges``, split as the router splits them."""
    plan: dict[int, tuple[list, list]] = {}
    for idx, (lo, hi) in enumerate(ranges.tolist()):
        for segment, plo, phi in cluster.map.split_range(lo, hi):
            for shard in cluster.map.owners(segment):
                idxs, pieces = plan.setdefault(shard, ([], []))
                idxs.append(idx)
                pieces.append((plo, phi))
    router = cluster.router
    out = []
    for shard, (idxs, pieces) in sorted(plan.items()):
        rep = cluster.replicas[shard][0]
        arr = np.array(pieces, dtype=np.uint64)
        out.append(
            _Shard(
                np.array(idxs),
                arr,
                arr[:, 0].copy(),
                arr[:, 1].copy(),
                pieces,
                rep,
                [t for t in rep.lsm.read_view().tables if t.filter is not None],
                router.base_deadline_ns
                + router.per_range_deadline_ns * len(pieces),
            )
        )
    return out


def run_ladder(cluster, ranges: np.ndarray, repeats: int = 5):
    """Time every rung on ``ranges``; returns ``(ns_per_range, problems)``.

    ``ns_per_range`` maps each rung to the median over ``repeats`` of
    the rung's wall time divided by the batch size.  ``problems`` lists
    every verdict disagreement found (empty when the rungs agree).
    """
    shards = _shards(cluster, ranges)
    ranges_list = ranges.tolist()

    def kernel():
        return [
            get_kernel(t.filter).range_many(s.los, s.his)
            for s in shards
            for t in s.tables
        ]

    def filt():
        return [
            t.filter.query_range_many(s.pieces) for s in shards for t in s.tables
        ]

    def sstable():
        return [t.query_range_many(s.pairs) for s in shards for t in s.tables]

    def lsm():
        return [s.rep.lsm.range_query_many(s.pairs) for s in shards]

    def service():
        return [
            s.rep.service.query_range_batch(s.pairs, deadline_ns=s.deadline_ns)
            for s in shards
        ]

    def route():
        return cluster.router.query_range_many(ranges_list)

    calls = dict(
        kernel=kernel, filter=filt, sstable=sstable, lsm=lsm,
        service=service, router=route,
    )
    times: dict[str, list[int]] = {rung: [] for rung in RUNGS}
    answers: dict[str, object] = {}
    for _ in range(repeats):
        for rung in RUNGS:
            t0 = time.perf_counter_ns()
            answers[rung] = calls[rung]()
            times[rung].append(time.perf_counter_ns() - t0)
    ns_per_range = {
        rung: statistics.median(times[rung]) / len(ranges) for rung in RUNGS
    }
    return ns_per_range, _disagreements(shards, answers, len(ranges))


def _disagreements(shards, answers, n: int) -> list[str]:
    problems = []
    for i, (k, f) in enumerate(zip(answers["kernel"], answers["filter"])):
        if not np.array_equal(k, f):
            problems.append(f"kernel and filter verdicts differ on table {i}")
    lsm = np.zeros(n, dtype=bool)
    svc = np.zeros(n, dtype=bool)
    for s, rows, resp in zip(shards, answers["lsm"], answers["service"]):
        if resp.degraded:
            problems.append(f"service answered degraded ({resp.reason})")
        lsm[s.idxs] |= np.array([bool(items) for items in rows])
        svc[s.idxs] |= np.array(resp.positive, dtype=bool)
    route = answers["router"]
    if route.degraded:
        problems.append("router answered degraded")
    routed = np.array(route.positives, dtype=bool)
    if not (np.array_equal(lsm, svc) and np.array_equal(svc, routed)):
        problems.append("lsm, service and router answers differ")
    if lsm.any():
        problems.append("an empty ladder range read as non-empty")
    return problems
