"""Dyadic range decomposition — the paper's Decomposition stage.

A range query ``[lo, hi]`` over ``L``-bit keys is split into the minimal set
of *dyadic* sub-ranges, each exactly the span of one key prefix, so that the
range query becomes at most ``2L`` (and for ranges of size ``R``, at most
``2 log2 R``) prefix membership probes (Section III-B).

Three equivalent algorithms are provided and cross-checked by tests:

* :func:`decompose` — the fast iterative greedy walk: repeatedly peel off
  the largest aligned power-of-two block starting at ``lo``;
* :func:`decompose_recursive` — the paper's top-down formulation
  (compare the prefix range ``Rp`` against the target ``Rt``; recurse on
  intersection, emit on containment);
* :func:`decompose_batch` — the greedy walk run in lockstep over a whole
  query batch with numpy, emitting flat ``(query, prefix, length)``
  arrays for the batch query engine.

All return ``(prefix_value, prefix_len)`` pairs ordered left to right
(per query, for the batch form).  A prefix ``(p, l)`` covers keys ``[p << (L-l), ((p+1) << (L-l)) - 1]``.
The empty prefix is returned as ``(0, 0)`` when the query covers the whole
domain.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "decompose",
    "decompose_batch",
    "decompose_recursive",
    "prefix_range",
    "covering_prefix",
]


def prefix_range(prefix: int, length: int, key_bits: int) -> tuple[int, int]:
    """The inclusive key range ``[lo, hi]`` covered by a prefix.

    >>> prefix_range(0b001, 3, 4)
    (2, 3)
    """
    if not 0 <= length <= key_bits:
        raise ValueError(f"prefix length {length} outside [0, {key_bits}]")
    span = key_bits - length
    lo = prefix << span
    return lo, lo + (1 << span) - 1


def covering_prefix(lo: int, hi: int, key_bits: int) -> tuple[int, int]:
    """The shortest single prefix whose range contains ``[lo, hi]``.

    Used by tests and by SuRF-style filters; unlike :func:`decompose` the
    result may cover keys outside the query.
    """
    _check(lo, hi, key_bits)
    length = key_bits
    while length > 0 and (lo >> (key_bits - length)) != (hi >> (key_bits - length)):
        length -= 1
    return (lo >> (key_bits - length)) if length else 0, length


def _check(lo: int, hi: int, key_bits: int) -> None:
    if key_bits < 1:
        raise ValueError(f"key_bits must be positive, got {key_bits}")
    top = (1 << key_bits) - 1
    if not 0 <= lo <= hi <= top:
        raise ValueError(
            f"invalid range [{lo}, {hi}] for {key_bits}-bit keys"
        )


def decompose(lo: int, hi: int, key_bits: int) -> list[tuple[int, int]]:
    """Minimal dyadic cover of ``[lo, hi]``, left to right (iterative).

    Greedy walk: at position ``cur`` the largest usable block is the largest
    power of two that both divides ``cur`` (alignment) and fits in the
    remaining span ``hi - cur + 1``.

    >>> decompose(0, 4, 4)
    [(0, 2), (4, 4)]
    >>> decompose(2, 15, 4)
    [(1, 3), (1, 2), (1, 1)]
    """
    _check(lo, hi, key_bits)
    domain = 1 << key_bits
    out: list[tuple[int, int]] = []
    cur = lo
    remaining = hi - lo + 1
    while remaining > 0:
        align = cur & -cur if cur else domain
        size = min(align, 1 << (remaining.bit_length() - 1))
        length = key_bits - size.bit_length() + 1
        out.append((cur >> (key_bits - length) if length else 0, length))
        cur += size
        remaining -= size
    return out


def decompose_recursive(lo: int, hi: int, key_bits: int) -> list[tuple[int, int]]:
    """Minimal dyadic cover of ``[lo, hi]`` — the paper's top-down algorithm.

    Starts from the empty prefix (``Rp = [0, maxkey]``) and compares each
    candidate prefix range against the target: disjoint → drop, contained →
    emit, intersecting → recurse into both children.
    """
    _check(lo, hi, key_bits)
    out: list[tuple[int, int]] = []

    def visit(prefix: int, length: int) -> None:
        p_lo, p_hi = prefix_range(prefix, length, key_bits)
        if p_hi < lo or p_lo > hi:
            return
        if lo <= p_lo and p_hi <= hi:
            out.append((prefix, length))
            return
        visit(prefix << 1, length + 1)
        visit((prefix << 1) | 1, length + 1)

    visit(0, 0)
    return out


def decompose_batch(
    los: np.ndarray, his: np.ndarray, key_bits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dyadic cover of a whole query batch, vectorised.

    Runs the greedy walk of :func:`decompose` in lockstep over every query
    with numpy: each iteration peels the largest aligned power-of-two block
    off every still-unfinished query, so the loop runs ``max pieces per
    query`` times (at most ``2 L``) regardless of batch size.

    Returns three equal-length flat arrays ``(qidx, prefixes, lengths)``:
    piece ``j`` belongs to query ``qidx[j]`` and is the prefix
    ``(prefixes[j], lengths[j])``.  Pieces come out in walk-round order —
    every query's first piece, then every second piece, and so on — so
    the pieces of one query appear in the same left-to-right order
    :func:`decompose` emits, but the queries are interleaved, not
    grouped.  A whole-domain query yields one ``(0, 0)`` piece, exactly
    like the scalar walk.
    """
    if key_bits < 1:
        raise ValueError(f"key_bits must be positive, got {key_bits}")
    los = np.atleast_1d(np.asarray(los, dtype=np.uint64))
    his = np.atleast_1d(np.asarray(his, dtype=np.uint64))
    if los.shape != his.shape:
        raise ValueError("los and his must have equal length")
    top = np.uint64((1 << key_bits) - 1)
    if los.size and (
        (los > his).any() or int(his.max()) > int(top)
    ):
        raise ValueError(f"invalid range in batch for {key_bits}-bit keys")

    out_q: list[np.ndarray] = []
    out_p: list[np.ndarray] = []
    out_l: list[np.ndarray] = []

    qidx = np.arange(los.size, dtype=np.int64)
    if key_bits == 64:
        # ``hi - lo + 1`` wraps to 0 for the full 64-bit domain; emit the
        # empty prefix directly, as the scalar walk's python ints would.
        full = (los == np.uint64(0)) & (his == top)
        if full.any():
            sel = qidx[full]
            out_q.append(sel)
            out_p.append(np.zeros(sel.size, dtype=np.uint64))
            out_l.append(np.zeros(sel.size, dtype=np.int64))
            qidx = qidx[~full]
            los, his = los[~full], his[~full]

    cur = los.copy()
    remaining = his - los + np.uint64(1)
    q = qidx
    one = np.uint64(1)
    while cur.size:
        # Largest aligned block at ``cur``: min(lowest set bit of cur,
        # highest power of two <= remaining).  ``cur == 0`` means alignment
        # is unbounded; 2^63 is always >= the msb of a uint64 remaining.
        align = np.where(
            cur == 0, one << np.uint64(63), cur & (~cur + one)
        )
        m = remaining.copy()
        for s in (1, 2, 4, 8, 16, 32):
            m |= m >> np.uint64(s)
        msb = m - (m >> one)
        size = np.minimum(align, msb)
        log_size = np.bitwise_count(size - one).astype(np.uint64)
        out_q.append(q)
        out_p.append(cur >> log_size)
        out_l.append(np.int64(key_bits) - log_size.astype(np.int64))
        cur = cur + size  # may wrap at the domain end; remaining hits 0 too
        remaining = remaining - size
        keep = remaining > 0
        if not keep.all():
            cur, remaining, q = cur[keep], remaining[keep], q[keep]

    if not out_q:
        empty = np.zeros(0, dtype=np.int64)
        return empty, np.zeros(0, dtype=np.uint64), empty
    return np.concatenate(out_q), np.concatenate(out_p), np.concatenate(out_l)
