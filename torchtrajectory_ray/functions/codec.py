"""Posting-list compression codec: delta encoding + LEB128 varint.

Parity target: the reference compresses each posting list with delta +
integer compression before persisting — sorted trajIds through
``IntegratedIntCompressor`` (delta + FastPFOR) and positions through
``IntCompressor`` (FastPFOR), /root/reference/src/main/java/au/edu/rmit/bdm/
Torch/base/invertedIndex/InvertedIndex.java:26-27,89-136.  Here the same
shapes are a sorted-doc_id **delta + varint** stream and a plain varint
stream for small ints (tf, doclen), both encoded/decoded with fully
vectorized numpy (no per-value Python loop; encode is <= 10 masked passes,
one per varint byte position, decode is a single reduceat pass).  Varint
is the one codec: posting runs are often short (tail terms, per-batch
partials), where it needs no per-block header or length framing, and a
searcher decodes a term's id, tf and doclen streams in one pass.

All values must be non-negative int64 (doc ids, tfs, doclens, positions).
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_MAX_VARINT_BYTES = 10


def varint_encode(values: np.ndarray) -> bytes:
    """Vectorized LEB128 encode of a non-negative integer array.
    Single-run facade over :func:`varint_encode_multi` (one encoder, one
    on-disk byte format — the two copies this replaces had already begun
    to drift)."""
    v = np.ascontiguousarray(values, dtype=np.int64)
    if v.size == 0:
        return b""
    return varint_encode_multi(v, np.array([v.size], dtype=np.int64))[0]


def varint_decode(blob: bytes, count: int | None = None) -> np.ndarray:
    """Vectorized LEB128 decode → int64 array."""
    if len(blob) == 0:
        return np.empty(0, dtype=np.int64)
    b = np.frombuffer(blob, dtype=np.uint8)
    terminal = (b & 0x80) == 0
    ends = np.nonzero(terminal)[0]
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    # position of each byte within its value
    pos = np.arange(len(b), dtype=np.int64) - np.repeat(starts, lengths)
    contrib = (b.astype(_U64) & _U64(0x7F)) << (_U64(7) * pos.astype(_U64))
    vals = np.add.reduceat(contrib, starts).astype(np.int64)
    if count is not None and len(vals) != count:
        raise ValueError(f"decoded {len(vals)} values, expected {count}")
    return vals


def delta_encode(sorted_values: np.ndarray) -> bytes:
    """Delta + varint encode a sorted non-decreasing int64 array
    (single-run facade over :func:`delta_encode_multi`).

    Precondition mirrors the reference: posting lists are sorted by id
    ascending before compression (InvertedIndex.java:63-67,102-105).
    """
    v = np.ascontiguousarray(sorted_values, dtype=np.int64)
    if v.size == 0:
        return b""
    return delta_encode_multi(v, np.array([v.size], dtype=np.int64))[0]


def delta_decode(blob: bytes, count: int | None = None) -> np.ndarray:
    deltas = varint_decode(blob, count)
    return np.cumsum(deltas, dtype=np.int64)


# --- multi-run variants ------------------------------------------------------
# A tokenize batch (or a segment merge group) holds MANY posting runs; at
# web scale that is ~10^5-10^6 runs per batch, so per-run codec calls are
# a Python-loop bottleneck.  These encode/decode every run in ONE
# vectorized pass over the concatenation; per-run work is a buffer slice.
# All runs must be non-empty (posting runs always have df >= 1).


def _run_starts(lengths: np.ndarray) -> np.ndarray:
    starts = np.empty(len(lengths), dtype=np.int64)
    if len(lengths):
        starts[0] = 0
        np.cumsum(lengths[:-1], out=starts[1:])
    return starts


def varint_encode_multi(
    values: np.ndarray, lengths: np.ndarray
) -> list[bytes]:
    """LEB128-encode consecutive runs (sizes in ``lengths``, all >= 1) in
    one pass; returns one blob per run."""
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    if len(lengths) == 0:
        return []
    v = np.ascontiguousarray(values, dtype=np.int64)
    if v.size == 0 or lengths.min() < 1:
        raise ValueError("all runs must be non-empty")
    if v.min() < 0:
        raise ValueError("varint_encode requires non-negative values")
    u = v.astype(_U64)
    nbytes = np.ones(u.shape, dtype=np.int64)
    thresh = _U64(1 << 7)
    shifted = u >> _U64(7)
    for _ in range(_MAX_VARINT_BYTES - 1):
        more = shifted > 0
        if not more.any():
            break
        nbytes += more
        shifted = shifted >> _U64(7)
    total = int(nbytes.sum())
    out = np.zeros(total, dtype=np.uint8)
    offsets = np.concatenate(([0], np.cumsum(nbytes)[:-1]))
    for j in range(int(nbytes.max())):
        mask = nbytes > j
        chunk = ((u[mask] >> _U64(7 * j)) & _U64(0x7F)).astype(np.uint8)
        cont = (nbytes[mask] - 1 > j).astype(np.uint8) << np.uint8(7)
        out[offsets[mask] + j] = chunk | cont
    run_starts = _run_starts(lengths)
    run_nbytes = np.add.reduceat(nbytes, run_starts)
    ends = np.cumsum(run_nbytes)
    begins = ends - run_nbytes
    buf = out.tobytes()
    return [buf[b:e] for b, e in zip(begins, ends)]


def delta_encode_multi(
    sorted_values: np.ndarray, lengths: np.ndarray
) -> list[bytes]:
    """Delta+varint encode runs that are each sorted non-decreasing."""
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    if len(lengths) == 0:
        return []
    v = np.ascontiguousarray(sorted_values, dtype=np.int64)
    deltas = np.empty_like(v)
    deltas[1:] = v[1:] - v[:-1]
    starts = _run_starts(lengths)
    deltas[starts] = v[starts]
    if deltas.min() < 0:
        raise ValueError("delta_encode_multi requires per-run sorted input")
    return varint_encode_multi(deltas, lengths)


def varint_decode_concat(blobs, total: int) -> np.ndarray:
    """Decode the concatenation of many varint blobs in one pass."""
    return varint_decode(b"".join(blobs), total)


def delta_decode_concat(blobs, lengths: np.ndarray) -> np.ndarray:
    """Decode many delta+varint runs in one pass (run sizes in ``lengths``)."""
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    if len(lengths) == 0:
        return np.empty(0, dtype=np.int64)
    total = int(lengths.sum())
    deltas = varint_decode_concat(blobs, total)
    cs = np.cumsum(deltas, dtype=np.int64)
    starts = _run_starts(lengths)
    base = np.zeros(len(lengths), dtype=np.int64)
    base[1:] = cs[starts[1:] - 1]
    return cs - np.repeat(base, lengths)


def concat_aranges(counts: np.ndarray) -> np.ndarray:
    """[arange(c) for c in counts] concatenated, vectorized."""
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = _run_starts(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
