"""Tests for the fused batch kernel's lifecycle (DESIGN.md §11).

Kernel ≡ scalar on arbitrary inputs is the property suite in
``tests/test_batch_query.py``; this file pins what that suite cannot
see: the no-false-negative invariant at the sub-word geometries, the
per-filter kernel cache (reused across batches and across inserts,
rebuilt when the level plan changes), union results, and probe
accounting on the kernel path.
"""

import numpy as np
import pytest

from repro.core.kernels import get_kernel
from repro.core.rencoder import REncoder

KEY_BITS = 24
TOP = (1 << KEY_BITS) - 1


def _build(keys, group_bits=8, **extra):
    return REncoder(
        np.array(sorted(keys), dtype=np.uint64),
        12 * len(keys),
        key_bits=KEY_BITS,
        group_bits=group_bits,
        **extra,
    )


def _scalar(filt, ranges):
    return [filt.query_range(lo, hi) for lo, hi in ranges]


@pytest.mark.parametrize("group_bits", [3, 4, 8])
def test_no_false_negatives(group_bits):
    rng = np.random.default_rng(7)
    keys = rng.integers(0, TOP, size=500, dtype=np.uint64)
    filt = _build(set(map(int, keys)), group_bits=group_bits)
    ranges = [(int(k), min(int(k) + 8, TOP)) for k in keys]
    assert filt.query_range_many(ranges).all()
    assert filt.query_point_many(keys).all()


def test_kernel_cache_reused_and_invalidated():
    filt = _build(set(range(64)))
    filt.query_range_many([(1, 2)])
    cached = filt._kernel_cache
    assert cached is not None
    filt.query_range_many([(3, 4)])
    assert filt._kernel_cache is cached  # same kernel object
    filt._finalise_levels()  # the only operation that changes the plan
    assert filt._kernel_cache is None
    # and a rebuilt kernel still agrees with the scalar oracle
    ranges = [(i, i + 3) for i in range(0, 120, 7)]
    fused = filt.query_range_many(ranges)
    assert filt._kernel_cache is not cached
    assert [bool(a) for a in fused] == _scalar(filt, ranges)


def test_reused_kernel_sees_post_insert_keys():
    """A kernel reused across an insert reads the live RBF array, so a
    freshly inserted key is found (a stale view of the filter would be
    a false negative — the one error class this codebase forbids)."""
    filt = REncoder(
        np.array([100], dtype=np.uint64), 64, key_bits=KEY_BITS
    )
    assert not filt.query_range_many([(200, 200)])[0]
    assert not filt.query_point_many([200])[0]
    kernel = get_kernel(filt)
    filt.insert(200)
    assert filt.query_range_many([(200, 200)])[0], (
        "kernel missed a key inserted after it was built"
    )
    assert filt.query_point_many([200])[0]
    assert get_kernel(filt) is kernel  # reused, not rebuilt


def test_union_result_answers_identically_across_engines():
    a = _build(set(range(0, 50)))
    b = _build(set(range(1000, 1050)))
    merged = a.union(b)
    assert merged._kernel_cache is None
    ranges = [(i, i + 1) for i in range(0, 1100, 13)]
    ranges += [(0, 0), (TOP, TOP), (0, TOP), (TOP - 63, TOP)]
    batch = merged.query_range_many(ranges)
    assert [bool(x) for x in batch] == _scalar(merged, ranges)


def test_fetch_count_accounting_on_kernel_path():
    filt = _build(set(range(256)))
    filt.reset_counters()
    filt.query_range_many([(i, i + 7) for i in range(0, 256, 5)])
    # one fetch per (hash seed, probe); the kernel books k per probe
    assert filt.rbf.fetch_count > 0
    assert filt.rbf.fetch_count % filt.rbf.k == 0
