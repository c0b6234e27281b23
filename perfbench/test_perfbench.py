"""Tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import threading

import numpy as np
import pytest

import run  # puts the program source on sys.path
import spans
import workloads
from spans import Instrumentation, Tracer, self_times, summarize


def _span(tracer, name, start, end, parent=None):
    h = tracer.open(name, parent, start=start, new_request=parent is None)
    return h, lambda: tracer.close(h, end=end)


def test_self_time_nested_sibling_and_cross_thread_children():
    tracer = Tracer()
    root, close_root = _span(tracer, "root", 0, 100)
    nested, close_nested = _span(tracer, "nested", 10, 30, root)
    grand, close_grand = _span(tracer, "grand", 15, 20, nested)
    sibling, close_sibling = _span(tracer, "sibling", 40, 50, root)
    closers = [close_grand, close_nested, close_sibling]

    def worker():
        # Children opened on another thread: one overlaps the sibling,
        # one outlives the parent (a losing hedge).
        for name, start, end in (("cross", 45, 60), ("late", 90, 120)):
            h, close = _span(tracer, name, start, end, root)
            closers.append(close)

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    for close in closers + [close_root]:
        close()

    summary = summarize(tracer)
    # root covers [10,30] u [40,60] u [90,100] = 50 of its 100.
    assert summary["root"]["self_ns"] == 50
    assert summary["nested"]["self_ns"] == 15
    assert summary["sibling"]["self_ns"] == 10
    assert summary["cross"]["self_ns"] == 15
    assert summary["late"]["self_ns"] == 30
    assert summary["late"]["total_ns"] == 30
    cols = tracer.arrays()
    assert set(cols["rid"].tolist()) == {root.rid}


def test_children_of_an_unclosed_parent_are_ignored():
    tracer = Tracer()
    orphan_parent = tracer.open("never-closed", new_request=True, start=0)
    child = tracer.open("child", orphan_parent, start=5)
    tracer.close(child, end=9)
    cols = tracer.arrays()
    assert self_times(cols).tolist() == [4]


def test_thread_stack_supplies_the_parent():
    tracer = Tracer()
    outer = tracer.enter("outer", new_request=True)
    inner = tracer.enter("inner")
    assert inner.parent == outer.sid and inner.rid == outer.rid
    tracer.exit(inner)
    tracer.exit(outer)
    assert tracer.current() is None
    assert summarize(tracer)["outer"]["count"] == 1


def test_instrumentation_restores_every_entry_point():
    before = {
        (cls, name): cls.__dict__[name]
        for cls, name in (
            (spans.ClusterRouter, "query_range_many"),
            (spans.FilterService, "submit_range_batch"),
            (spans.LSMTree, "range_query_many"),
            (spans.LSMTree, "flush"),
            (spans.FilterCluster, "put"),
            (spans.StorageEnv, "append_blob"),
        )
    }
    with Instrumentation(Tracer()):
        assert spans.LSMTree.__dict__["flush"] is not before[(spans.LSMTree, "flush")]
    for (cls, name), fn in before.items():
        assert cls.__dict__[name] is fn


def test_tail_keeps_samples_beyond_it():
    assert run.tail(list(range(1, 2001)), 10) == (1980, 99.0)
    assert run.tail(list(range(1, 1001)), 10) == (990, 99.0)
    assert run.tail(list(range(1, 401)), 10) == (390, 97.5)
    assert run.tail(list(range(1, 401)), 20) == (380, 95.0)
    assert run.tail([5.0], 10) == (5.0, 100.0)


def test_timeline_sees_only_acknowledged_keys():
    keys = np.array([10, 20, 30], dtype=np.uint64)
    timeline = workloads.Timeline(keys, np.array([0, 2, 1]))
    los = np.array([5, 15, 25, 40], dtype=np.uint64)
    his = np.array([12, 22, 35, 50], dtype=np.uint64)
    assert timeline.nonempty(los, his, 0).tolist() == [True, False, False, False]
    assert timeline.nonempty(los, his, 2).tolist() == [True, True, True, False]
    assert timeline.contains_any(los, his).tolist() == [True, True, True, False]


def _small(w):
    return dataclasses.replace(w, n_keys=12_000, pool=60, warmup=4)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_printed_metrics_match_benchmark_json(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, name, _small(run.WORKLOADS[name]))
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    result = run.run(name, seed=7, seconds=0.4, trace=trace)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = capsys.readouterr().out.splitlines()
    for name_ in declared:
        assert any(line.split()[0] == name_ for line in printed)


def test_workloads_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
