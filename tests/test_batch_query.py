"""Property tests for the batch query engine (the fused kernel).

The batch engine's contract is *bit-identical answers*: for every
REncoder variant, geometry (``group_bits`` 4 and 8, sub-word
``block_bits``) and workload, ``query_range_many`` must return exactly
what a sequential ``query_range`` loop — the scalar oracle — would, and
likewise for the point paths.  Hypothesis searches key sets and query
batches; every batch also carries the edge ranges (width 1 at both ends
of the domain, the whole domain, a window butting the top), and an
empty filter is an explicit example.  Dedicated tests pin the
no-false-negative invariant on the batch path, the ``decompose_batch``
≡ ``decompose`` equivalence, the batch entry points' input validation,
and the LSM batch reads (results *and* I/O accounting).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.decompose import decompose, decompose_batch
from repro.core.rencoder import REncoder
from repro.core.variants import REncoderPO, REncoderSE, REncoderSS
from repro.storage.env import StorageEnv
from repro.storage.lsm import LSMTree

KEY_BITS = 24
TOP = (1 << KEY_BITS) - 1

VARIANTS = [REncoder, REncoderSS, REncoderSE, REncoderPO]

#: Deterministic edge ranges appended to every hypothesis batch.
EDGE_RANGES = [
    (0, 0),            # width-1 at the bottom
    (TOP, TOP),        # width-1 at the very top
    (0, TOP),          # the whole domain
    (TOP - 63, TOP),   # window butting the top
]


def _build(cls, keys, group_bits):
    kwargs = dict(key_bits=KEY_BITS, group_bits=group_bits)
    if cls is REncoderSE:
        kwargs["sample_queries"] = [(1, 2), (100, 200)]
    # An empty key set still needs a non-empty bit array.
    total_bits = 12 * len(keys) or 2048
    return cls(np.array(sorted(keys), dtype=np.uint64), total_bits, **kwargs)


ranges_strategy = st.lists(
    st.tuples(st.integers(0, TOP), st.integers(0, 400)).map(
        lambda t: (t[0], min(t[0] + t[1], TOP))
    ),
    min_size=1,
    max_size=30,
)


@pytest.mark.parametrize("cls", VARIANTS)
@pytest.mark.parametrize("group_bits", [4, 8])
@given(
    keys=st.sets(st.integers(0, TOP), min_size=1, max_size=50),
    ranges=ranges_strategy,
)
@settings(max_examples=25, deadline=None)
@example(keys=set(), ranges=[(5, 500)])
def test_query_range_many_matches_scalar(cls, group_bits, keys, ranges):
    filt = _build(cls, keys, group_bits)
    ranges = ranges + EDGE_RANGES
    batch = filt.query_range_many(ranges)
    scalar = [filt.query_range(lo, hi) for lo, hi in ranges]
    assert [bool(a) for a in batch] == scalar


@pytest.mark.parametrize("cls", VARIANTS)
@given(
    keys=st.sets(st.integers(0, TOP), min_size=1, max_size=50),
    points=st.lists(st.integers(0, TOP), min_size=1, max_size=30),
)
@settings(max_examples=25, deadline=None)
@example(keys=set(), points=[5])
def test_query_point_many_matches_scalar(cls, keys, points):
    filt = _build(cls, keys, 8)
    points = points + sorted(keys)[:5] + [0, TOP]
    batch = filt.query_point_many(np.array(points, dtype=np.uint64))
    scalar = [filt.query_point(p) for p in points]
    assert [bool(a) for a in batch] == scalar


@given(keys=st.sets(st.integers(0, TOP), min_size=1, max_size=60))
@settings(max_examples=25, deadline=None)
def test_batch_path_has_no_false_negatives(keys):
    filt = _build(REncoder, keys, 8)
    arr = np.array(sorted(keys), dtype=np.uint64)
    assert all(filt.query_point_many(arr))
    ranges = [(int(k), min(int(k) + 7, TOP)) for k in arr]
    assert all(filt.query_range_many(ranges))


@pytest.mark.parametrize("group_bits", [3, 4, 5])
def test_subword_block_bits_batch_matches_scalar(group_bits):
    # group_bits <= 5 gives sub-word (<= 64-bit) Bitmap Tree blocks.
    rng = np.random.default_rng(group_bits)
    keys = np.unique(rng.integers(0, TOP, 200, dtype=np.uint64))
    filt = _build(REncoder, keys.tolist(), group_bits)
    assert filt.rbf.block_bits <= 64
    los = rng.integers(0, TOP - 500, 300, dtype=np.uint64)
    ranges = [(int(lo), int(lo) + int(w)) for lo, w in
              zip(los, rng.integers(0, 500, 300))]
    batch = filt.query_range_many(ranges)
    assert [bool(a) for a in batch] == [
        filt.query_range(lo, hi) for lo, hi in ranges
    ]


@given(
    spans=st.lists(
        st.tuples(st.integers(0, TOP), st.integers(0, TOP)).map(
            lambda t: (min(t), max(t))
        ),
        min_size=1,
        max_size=20,
    ),
)
@settings(max_examples=50, deadline=None)
def test_decompose_batch_matches_scalar(spans):
    los = np.array([lo for lo, _ in spans], dtype=np.uint64)
    his = np.array([hi for _, hi in spans], dtype=np.uint64)
    qidx, prefixes, lengths = decompose_batch(los, his, KEY_BITS)
    for q, (lo, hi) in enumerate(spans):
        mine = [
            (int(p), int(l))
            for p, l in zip(prefixes[qidx == q], lengths[qidx == q])
        ]
        assert mine == decompose(lo, hi, KEY_BITS)


def test_decompose_batch_full_64bit_domain():
    qidx, prefixes, lengths = decompose_batch(
        np.array([0], dtype=np.uint64),
        np.array([(1 << 64) - 1], dtype=np.uint64),
        64,
    )
    assert list(zip(prefixes.tolist(), lengths.tolist())) == [(0, 0)]


#: Bounds outside every key domain: negative, and at or above 2**64.
BAD_RANGES = [(-1, 5), (0, 1 << 64), (0, 1 << 70), (-5, -1)]


@pytest.mark.parametrize("key_bits", [24, 64])
@pytest.mark.parametrize(
    "lo,hi", BAD_RANGES, ids=["lo<0", "hi=2^64", "hi=2^70", "both<0"]
)
def test_out_of_domain_bounds_raise_value_error(key_bits, lo, hi):
    filt = REncoder(np.arange(0, 4000, 7, dtype=np.uint64), key_bits=key_bits)
    with pytest.raises(ValueError):
        filt.query_range(lo, hi)
    with pytest.raises(ValueError):
        filt.query_range_many([(lo, hi)])
    with pytest.raises(ValueError):
        filt.query_many([(lo, hi)])
    bad_key = lo if lo < 0 else hi
    with pytest.raises(ValueError):
        filt.query_point(bad_key)
    with pytest.raises(ValueError):
        filt.query_point_many([bad_key])


def test_negative_bounds_in_signed_arrays_raise_value_error():
    filt = REncoder(np.arange(0, 4000, 7, dtype=np.uint64), key_bits=64)
    with pytest.raises(ValueError):
        filt.query_range_many(np.array([[-1, 5]], dtype=np.int64))
    with pytest.raises(ValueError):
        filt.query_point_many(np.array([-1], dtype=np.int64))


def _fresh_tree(seed=11):
    env = StorageEnv()
    tree = LSMTree(
        lambda ks: REncoder(ks, 12 * len(ks), key_bits=KEY_BITS),
        memtable_capacity=128,
        env=env,
    )
    rng = np.random.default_rng(seed)
    for k in rng.integers(0, TOP, 1200, dtype=np.uint64):
        tree.put(int(k), int(k) + 1)
    for k in rng.integers(0, TOP, 30, dtype=np.uint64):
        tree.delete(int(k))
    return tree, env


def test_lsm_get_many_matches_scalar_with_identical_io():
    t1, e1 = _fresh_tree()
    t2, e2 = _fresh_tree()
    rng = np.random.default_rng(5)
    queries = [int(k) for k in rng.integers(0, TOP, 300, dtype=np.uint64)]
    queries += [int(k) for k, _ in t1.range_query(0, TOP)[:100]]
    e1.reset(); e2.reset()
    scalar = [t1.get(k) for k in queries]
    assert t2.get_many(queries) == scalar
    assert e1.stats == e2.stats


def test_lsm_range_query_many_matches_scalar_with_identical_io():
    t1, e1 = _fresh_tree()
    t2, e2 = _fresh_tree()
    rng = np.random.default_rng(6)
    ranges = []
    for _ in range(120):
        lo = int(rng.integers(0, TOP - 2000))
        ranges.append((lo, lo + int(rng.integers(0, 2000))))
    e1.reset(); e2.reset()
    scalar = [t1.range_query(lo, hi) for lo, hi in ranges]
    assert t2.range_query_many(ranges) == scalar
    assert e1.stats == e2.stats
