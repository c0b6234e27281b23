"""Workload definitions and seeded input generation.

Every input a run uses — stored keys, their insertion order, put
batches and query ranges — is drawn here from the run's seed before any
timing starts.  Ground truth is kept beside the inputs as a
:class:`Timeline`: every key the run will ever store, tagged with the
put batch that makes it visible, so a verdict can be checked against
exactly the keys acknowledged before its request went out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.datasets import generate_keys

TOP = (1 << 64) - 1

#: Width of the paper's Fig. 6 empty range queries.
UNIFORM_WIDTH = 64
#: Correlated ranges start this far above a stored key (paper Fig. 9).
CORRELATED_GAP = 32
#: Width bounds of correlated and key-covering ranges.
MIN_WIDTH, MAX_WIDTH = 2, 64
#: Keys per put batch, in every preload and in ingest-mixed.
PUT_BATCH = 512


@dataclass(frozen=True)
class Workload:
    """One named traffic mix against the 2x3 cluster."""

    name: str
    why: str
    #: Keys loaded (and flushed) before timing starts.
    n_keys: int
    #: Ranges per routed query request.
    batch: int
    #: Query shape: "uniform" (empty, width 64), "serve" (7/8
    #: correlated empty, 1/8 covering a key) or "ingest" (half cover
    #: keys of the latest put batch, half uniform empty).
    mix: str
    #: Replicas log writes and checkpoint (``FilterCluster(durability=True)``).
    durable: bool = False
    #: Distinct query requests drawn per run.  A read-only run that
    #: answers more cycles through them again; an ingest run stops when
    #: its put batches (one per request) run out.
    pool: int = 1024
    #: Query requests answered before timing starts (hedge warm-up).
    warmup: int = 40

    @property
    def writes(self) -> bool:
        """Whether a put batch precedes every query request."""
        return self.mix == "ingest"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="range-bulk",
            why=(
                "1024 uniform empty ranges per request on 500k keys: "
                "per-range storage and kernel work dominate, per-request "
                "router and service costs are amortised"
            ),
            n_keys=500_000,
            batch=1024,
            mix="uniform",
            pool=1024,
        ),
        Workload(
            name="range-serve",
            why=(
                "16 ranges per request, 7/8 correlated empty and 1/8 "
                "non-empty: per-request cluster and service costs "
                "dominate and the useful-read path runs"
            ),
            n_keys=500_000,
            batch=16,
            mix="serve",
            pool=16_384,
        ),
        Workload(
            name="ingest-mixed",
            why=(
                "durable cluster, 512-key put batches alternate with "
                "64-range queries: WAL, flush, compaction and filter "
                "builds run beside reads"
            ),
            n_keys=100_000,
            batch=64,
            mix="ingest",
            durable=True,
            pool=2048,
        ),
    )
}


class Timeline:
    """Every key a run stores, with the put batch that acknowledges it.

    ``times[i]`` is 0 for preloaded keys and ``b + 1`` for keys of put
    batch ``b``; a request issued after ``acked`` put batches sees
    exactly the keys with ``time <= acked``.
    """

    def __init__(self, keys: np.ndarray, times: np.ndarray) -> None:
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.times = times[order]

    def contains_any(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Whether any key, acknowledged or not, lies in each range."""
        left = np.searchsorted(self.keys, los, side="left")
        right = np.searchsorted(self.keys, his, side="right")
        return right > left

    def nonempty(
        self, los: np.ndarray, his: np.ndarray, acked: int
    ) -> np.ndarray:
        """True emptiness of each range after ``acked`` put batches."""
        left = np.searchsorted(self.keys, los, side="left")
        right = np.searchsorted(self.keys, his, side="right")
        out = right > left
        for i in np.flatnonzero(out):
            out[i] = bool(self.times[left[i]:right[i]].min() <= acked)
        return out


@dataclass
class Inputs:
    """Everything one run sends, generated before timing starts."""

    #: Preloaded keys in insertion order (uint64).
    preload: np.ndarray
    #: ``(n_batches, PUT_BATCH)`` uint64 keys; empty for read-only runs.
    put_batches: np.ndarray
    #: ``(pool, batch, 2)`` uint64 inclusive ranges.
    requests: np.ndarray
    #: ``(warmup, batch, 2)`` uint64 ranges answered before timing.
    warmup: np.ndarray
    #: 1024 uniform empty ranges for the rung ladder, ``(1024, 2)``.
    ladder: np.ndarray
    timeline: Timeline


def _empty_uniform(rng, n: int, timeline: Timeline) -> np.ndarray:
    """``n`` width-64 ranges with uniform left bounds, empty of every key."""
    out = np.empty((0, 2), dtype=np.uint64)
    while len(out) < n:
        los = rng.integers(0, TOP - UNIFORM_WIDTH, 2 * n, dtype=np.uint64)
        his = los + np.uint64(UNIFORM_WIDTH - 1)
        keep = ~timeline.contains_any(los, his)
        out = np.concatenate([out, np.stack([los[keep], his[keep]], axis=1)])
    return out[:n]


def _empty_correlated(rng, n: int, stored: np.ndarray, timeline) -> np.ndarray:
    """``n`` empty ranges starting 32 above a stored key, width 2-64."""
    out = np.empty((0, 2), dtype=np.uint64)
    while len(out) < n:
        base = rng.choice(stored, 2 * n)
        widths = rng.integers(MIN_WIDTH, MAX_WIDTH + 1, 2 * n, dtype=np.uint64)
        fits = base < np.uint64(TOP - CORRELATED_GAP - MAX_WIDTH)
        los = base[fits] + np.uint64(CORRELATED_GAP)
        his = los + widths[fits] - np.uint64(1)
        keep = ~timeline.contains_any(los, his)
        out = np.concatenate([out, np.stack([los[keep], his[keep]], axis=1)])
    return out[:n]


def _covering(rng, n: int, keys: np.ndarray) -> np.ndarray:
    """``n`` ranges of width 2-64, each containing a key drawn from ``keys``."""
    picked = rng.choice(keys, n)
    widths = rng.integers(MIN_WIDTH, MAX_WIDTH + 1, n, dtype=np.uint64)
    offsets = (rng.random(n) * widths).astype(np.uint64)
    los = np.where(picked >= offsets, picked - offsets, np.uint64(0))
    room = np.uint64(TOP) - los
    his = los + np.minimum(widths - np.uint64(1), room)
    return np.stack([los, his], axis=1)


def _shuffle_rows(rng, rows: np.ndarray) -> np.ndarray:
    return rows[rng.permutation(len(rows))]


def _serve_requests(rng, count: int, w: Workload, preload, timeline):
    """range-serve: per request, 7/8 correlated empty and 1/8 covering."""
    n_full = w.batch // 8
    n_empty = w.batch - n_full
    empties = _empty_correlated(rng, count * n_empty, preload, timeline)
    fulls = _covering(rng, count * n_full, preload)
    reqs = np.concatenate(
        [
            empties.reshape(count, n_empty, 2),
            fulls.reshape(count, n_full, 2),
        ],
        axis=1,
    )
    return np.stack([_shuffle_rows(rng, r) for r in reqs])


def _ingest_requests(rng, count: int, w: Workload, sources, timeline):
    """ingest-mixed: half cover keys of the latest batch, half uniform empty.

    ``sources[j]`` holds the keys request ``j`` covers — the put batch
    acknowledged just before it (the preload's tail for warm-up).
    """
    half = w.batch // 2
    empties = _empty_uniform(rng, count * (w.batch - half), timeline)
    empties = empties.reshape(count, w.batch - half, 2)
    reqs = [
        _shuffle_rows(
            rng, np.concatenate([_covering(rng, half, sources[j]), empties[j]])
        )
        for j in range(count)
    ]
    return np.stack(reqs)


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Draw every input of one run of ``w`` from ``seed``."""
    rng = np.random.default_rng([seed, 0x5EED])
    put_batches = w.pool if w.writes else 0
    n_put = put_batches * PUT_BATCH
    universe = generate_keys(w.n_keys + n_put, "uniform", seed=seed)
    # Keys arrive in random order, as a live stream would; loading them
    # sorted would give every SSTable a disjoint fence range.
    universe = universe[rng.permutation(len(universe))]
    preload = universe[: w.n_keys]
    puts = universe[w.n_keys:].reshape(put_batches, PUT_BATCH)
    times = np.concatenate(
        [
            np.zeros(w.n_keys, dtype=np.int64),
            np.repeat(np.arange(1, put_batches + 1), PUT_BATCH),
        ]
    )
    timeline = Timeline(universe, times)
    if w.mix == "ingest":
        tail = preload[-PUT_BATCH:]
        requests = _ingest_requests(rng, w.pool, w, puts, timeline)
        warmup = _ingest_requests(rng, w.warmup, w, [tail] * w.warmup, timeline)
    elif w.mix == "serve":
        requests = _serve_requests(rng, w.pool, w, preload, timeline)
        warmup = _serve_requests(rng, w.warmup, w, preload, timeline)
    else:
        requests = _empty_uniform(rng, w.pool * w.batch, timeline).reshape(
            w.pool, w.batch, 2
        )
        warmup = _empty_uniform(rng, w.warmup * w.batch, timeline).reshape(
            w.warmup, w.batch, 2
        )
    ladder = _empty_uniform(rng, 1024, timeline)
    return Inputs(preload, puts, requests, warmup, ladder, timeline)
