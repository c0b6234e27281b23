"""In-memory span tracing around each layer's public entry points.

The program itself is not modified: :class:`Instrumentation` swaps
wrapped versions of the layer entry points onto their classes for the
duration of a ``with`` block and puts the originals back on exit.  Each
wrapper records one span — name, start, end, parent span, request id —
into a :class:`Tracer`, plus counts taken at the same boundary
(ranges in, positives out, bytes logged).

A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).  Children on the
calling thread nest; children on a service worker thread may overlap
each other (a hedged request) or outlive the parent (a losing hedge),
so coverage is the union of the child intervals clipped to the parent.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import deque
from typing import NamedTuple

import numpy as np

from repro.cluster.cluster import FilterCluster
from repro.cluster.router import ClusterRouter
from repro.core.kernels.fused import NumpyKernel
from repro.core.rencoder import REncoder
from repro.durability.durable_lsm import DurableLSM
from repro.durability.wal import WriteAheadLog
from repro.service.service import FilterService
from repro.storage.env import StorageEnv
from repro.storage.lsm import LSMTree
from repro.storage.memtable import MemTable
from repro.storage.sstable import SSTable

_now = time.perf_counter_ns

_COLUMNS = ("id", "name", "start", "end", "parent", "rid")


class Handle(NamedTuple):
    """An open span: closed by :meth:`Tracer.close`, possibly on another thread."""

    sid: int
    name: int
    parent: int
    rid: int
    start: int


class Tracer:
    """Thread-safe in-memory span and count recorder.

    Spans are stored column-wise in ``array('q')`` buffers (48 bytes a
    span) when they close; an open span lives only in its
    :class:`Handle`.  Each thread keeps a stack of the spans it has
    entered, which supplies the parent of the next span it opens.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_sid = 0
        self._next_rid = 0
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.columns = {c: array("q") for c in _COLUMNS}
        self.counts: dict[str, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> "Handle | None":
        """The innermost span entered on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(
        self,
        name: str,
        parent: "Handle | None" = None,
        *,
        new_request: bool = False,
        start: "int | None" = None,
    ) -> Handle:
        """Start a span; its parent defaults to this thread's innermost."""
        if parent is None and not new_request:
            parent = self.current()
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
            if parent is None:
                rid = self._next_rid
                self._next_rid += 1
            else:
                rid = parent.rid
            ix = self._name_ix.get(name)
            if ix is None:
                ix = self._name_ix[name] = len(self.names)
                self.names.append(name)
        return Handle(
            sid,
            ix,
            -1 if parent is None else parent.sid,
            rid,
            _now() if start is None else start,
        )

    def close(self, h: Handle, end: "int | None" = None) -> None:
        """Record ``h`` as finished (at ``end``, default now)."""
        end = _now() if end is None else end
        with self._lock:
            cols = self.columns
            cols["id"].append(h.sid)
            cols["name"].append(h.name)
            cols["start"].append(h.start)
            cols["end"].append(end)
            cols["parent"].append(h.parent)
            cols["rid"].append(h.rid)

    def enter(self, name: str, parent: "Handle | None" = None, **kw) -> Handle:
        """:meth:`open` and push onto this thread's stack."""
        h = self.open(name, parent, **kw)
        self._stack().append(h)
        return h

    def exit(self, h: Handle) -> None:
        """Pop ``h`` from this thread's stack and close it."""
        self._stack().pop()
        self.close(h)

    def add(self, **deltas: float) -> None:
        """Add to named counts (thread-safe)."""
        with self._lock:
            for key, value in deltas.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def __len__(self) -> int:
        return len(self.columns["id"])

    def arrays(self) -> dict[str, np.ndarray]:
        """The closed spans as int64 numpy columns."""
        with self._lock:
            return {
                c: np.frombuffer(buf, dtype=np.int64).copy()
                for c, buf in self.columns.items()
            }


def _covered(
    lo: int, hi: int, starts: np.ndarray, ends: np.ndarray
) -> int:
    """Length of the union of ``[starts, ends)`` clipped to ``[lo, hi)``."""
    total = 0
    cur_lo = cur_hi = None
    for s, e in sorted(zip(starts.tolist(), ends.tolist())):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        elif e > cur_hi:
            cur_hi = e
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span self time: duration minus the union its children cover.

    ``cols`` is :meth:`Tracer.arrays` output; the result is aligned with
    it.  Children whose parent never closed are ignored.
    """
    ids, parents = cols["id"], cols["parent"]
    starts, ends = cols["start"], cols["end"]
    out = ends - starts
    if not len(ids):
        return out
    pos = {sid: i for i, sid in enumerate(ids.tolist())}
    child = np.flatnonzero(parents >= 0)
    order = child[np.argsort(parents[child], kind="stable")]
    grouped = parents[order]
    cuts = np.flatnonzero(np.diff(grouped)) + 1
    for group in np.split(order, cuts):
        i = pos.get(int(parents[group[0]]))
        if i is None:
            continue
        out[i] -= _covered(
            int(starts[i]), int(ends[i]), starts[group], ends[group]
        )
    return out


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, ``total_ns`` and ``self_ns``."""
    cols = tracer.arrays()
    selfs = self_times(cols)
    durs = cols["end"] - cols["start"]
    out = {}
    for ix, name in enumerate(tracer.names):
        sel = cols["name"] == ix
        out[name] = {
            "count": int(sel.sum()),
            "total_ns": float(durs[sel].sum()),
            "self_ns": float(selfs[sel].sum()),
        }
    return out


class Instrumentation:
    """Context manager that wraps layer entry points with spans.

    Flushes are always spanned.  ``reads`` adds the query path (router
    → service → LSM → SSTable/memtable → filter → kernel, plus
    second-level reads); ``per_put`` adds a span per put (cluster put,
    replica tree put of class ``tree_cls``, WAL append) and checkpoints
    — off, a bulk load can be traced without a span per key.  Filter
    builds are timed by the benchmark's own filter factory, which holds
    a tracer reference while tracing is on.
    """

    def __init__(
        self,
        tracer: Tracer,
        *,
        reads: bool = True,
        per_put: bool = True,
        tree_cls: type = LSMTree,
    ) -> None:
        self.tracer = tracer
        self._patches: list[tuple[type, str, object]] = []
        # service span per tree, in submit order, awaiting its storage call.
        self._pending: dict[int, deque] = {}
        self._pending_lock = threading.Lock()
        self._reads = reads
        self._per_put = per_put
        self._tree_cls = tree_cls

    def __enter__(self) -> "Instrumentation":
        self._patch(LSMTree, "flush", self._spanned("storage.lsm.flush"))
        if self._reads:
            self._patch_reads()
        if self._per_put:
            self._patch_writes()
        return self

    def __exit__(self, *exc) -> None:
        for cls, attr, orig in reversed(self._patches):
            setattr(cls, attr, orig)
        self._patches.clear()

    def _patch(self, cls: type, attr: str, make) -> None:
        orig = cls.__dict__[attr]
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, make(orig))

    def _spanned(self, name: str, *, new_request: bool = False):
        tracer = self.tracer

        def make(orig):
            def wrapper(*args, **kw):
                h = tracer.enter(name, new_request=new_request)
                try:
                    return orig(*args, **kw)
                finally:
                    tracer.exit(h)

            return wrapper

        return make

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def _patch_reads(self) -> None:
        tracer = self.tracer
        pending = self._pending
        lock = self._pending_lock
        self._patch(
            ClusterRouter,
            "query_range_many",
            self._spanned("cluster", new_request=True),
        )

        def make_submit(orig):
            def submit_range_batch(svc, ranges, **kw):
                # Queued before the call: the worker may reach storage
                # before ``orig`` returns to this thread.
                h = tracer.open("service")
                with lock:
                    queue = pending.setdefault(id(svc.lsm), deque())
                    queue.append(h)

                def settled(_fut=None):
                    # A request answered without a storage call (degraded
                    # before dispatch, or refused) leaves the queue here.
                    with lock:
                        if h in queue:
                            queue.remove(h)
                    tracer.close(h)

                try:
                    fut = orig(svc, ranges, **kw)
                except BaseException:
                    settled()
                    raise
                tracer.add(pieces=len(ranges))
                fut.add_done_callback(settled)
                return fut

            return submit_range_batch

        self._patch(FilterService, "submit_range_batch", make_submit)

        def make_lsm(orig):
            def range_query_many(tree, ranges, *, view=None, **kw):
                parent = None
                if tracer.current() is None:
                    with lock:
                        queue = pending.get(id(tree))
                        parent = queue.popleft() if queue else None
                    if parent is not None:
                        tracer.close(
                            tracer.open(
                                "service.queue_wait", parent, start=parent.start
                            )
                        )
                h = tracer.enter("storage.lsm", parent)
                try:
                    rows = orig(tree, ranges, view=view, **kw)
                finally:
                    tracer.exit(h)
                tables = len(view.tables) if view is not None else tree.table_count()
                tracer.add(lsm_ranges=len(rows), lsm_table_ranges=len(rows) * tables)
                return rows

            return range_query_many

        self._patch(LSMTree, "range_query_many", make_lsm)
        self._patch(MemTable, "range_items", self._spanned("storage.memtable"))

        def make_sstable(orig):
            def query_range_many(table, ranges, **kw):
                h = tracer.enter("storage.sstable")
                try:
                    out = orig(table, ranges, **kw)
                finally:
                    tracer.exit(h)
                tracer.add(
                    sstable_pairs=len(out),
                    sstable_nonempty=sum(1 for items in out if items),
                )
                return out

            return query_range_many

        self._patch(SSTable, "query_range_many", make_sstable)

        def make_filter(orig):
            def query_range_many(filt, ranges, **kw):
                before = filt.probe_count
                h = tracer.enter("core.filter")
                try:
                    answers = orig(filt, ranges, **kw)
                finally:
                    tracer.exit(h)
                tracer.add(
                    filter_consulted=len(answers),
                    filter_positives=int(np.count_nonzero(answers)),
                    filter_probes=(filt.probe_count - before) / filt.rbf.k,
                )
                return answers

            return query_range_many

        self._patch(REncoder, "query_range_many", make_filter)
        self._patch(NumpyKernel, "range_many", self._spanned("core.kernels"))
        self._patch(
            StorageEnv, "read_with_retry", self._spanned("storage.env.read")
        )

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _patch_writes(self) -> None:
        tracer = self.tracer
        self._patch(
            FilterCluster, "put", self._spanned("cluster.put", new_request=True)
        )
        self._patch(self._tree_cls, "put", self._spanned("storage.lsm.put"))
        self._patch(
            WriteAheadLog, "append_many", self._spanned("durability.wal.append")
        )
        self._patch(
            DurableLSM, "checkpoint", self._spanned("durability.checkpoint")
        )

        def make_append(orig):
            def append_blob(env, name, suffix):
                if name.startswith("wal:"):
                    tracer.add(wal_bytes=len(suffix))
                return orig(env, name, suffix)

            return append_blob

        self._patch(StorageEnv, "append_blob", make_append)
