"""Salt-bucket segment searcher: the stateful query-serving unit.

Analog of the reference's in-memory compressed index + per-query decode
(``InvertedIndex.build`` keeps lists compressed, ``getPairs`` decodes on
access — /root/reference/src/main/java/au/edu/rmit/bdm/Torch/base/
invertedIndex/InvertedIndex.java:170-209,138-161) and of its LORS top-k
(EdgeInvertedIndex.java:102-177), which stops before the work: the
pruned top-k is **MaxScore** — a per-term upper bound from the segments'
block-max metadata, a threshold from the rarest lists, and candidates
drawn only from the lists that can still lift a doc above it.

One searcher owns one **salt bucket** (a disjoint doc_id range) and loads
that bucket's posting runs from every term shard.  Because all of a doc's
postings share its salt, BM25 scores are bucket-local and exact; the
cross-bucket merge is a simple top-k heap merge (QueryEngine).  Wrapped
in ``ray.remote`` by the engine for distributed serving; usable directly
in-process for tests.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from torchtrajectory_ray.functions.codec import (
    concat_aranges,
    delta_decode_concat,
    varint_decode,
)
from torchtrajectory_ray.functions.scoring import make_scorer

# compressed payloads (bytes) and per-128-posting block bounds (int lists)
_BLOBS = ("doc_ids_blob", "tfs_blob", "doclens_blob", "pos_blob")
_BLOCKS = ("blk_last", "blk_max_tf", "blk_min_dl")
_COLS = ["term_id", "df", *_BLOBS, *_BLOCKS]
# forward-index columns a doc store holds; resolve() returns the first four
_DOC_COLS = ["doc_id", "url", "lang", "doclen", "warc_ts"]
_RESOLVED = _DOC_COLS[:4]


def live_mask(deleted: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Which of ``ids`` are not in the sorted tombstone array ``deleted``
    — one searchsorted, no Python set."""
    if not deleted.size:
        return np.ones(len(ids), dtype=bool)
    pos = np.minimum(np.searchsorted(deleted, ids), deleted.size - 1)
    return deleted[pos] != ids


class _LRU:
    """A cache of at most ``size`` entries that evicts the least recently
    used one — every per-term cache of a searcher.  ``get`` counts as a
    use; ``in`` and ``[]`` only look."""

    def __init__(self, size: int):
        self.size = size
        self._d: OrderedDict = OrderedDict()

    def __contains__(self, key) -> bool:
        return key in self._d

    def __getitem__(self, key):
        return self._d[key]

    def get(self, key):
        """The entry at ``key``, now the most recent, or None."""
        hit = self._d.get(key)
        if hit is not None:
            self._d.move_to_end(key)
        return hit

    def put(self, key, value) -> None:
        self._d[key] = value
        if len(self._d) > self.size:
            self._d.popitem(last=False)


class _DocStore:
    """Forward-index columns ``(doc_id, url, lang, doclen, warc_ts)`` of
    one salt bucket as one Arrow table sorted by ``doc_id`` — the doc
    store that every metadata read of the engine uses: hydration, the
    lang / warc_ts filters, ``collapse_topk``, ``find_in_range``,
    ``facet_counts`` and ``sort_by``, each a searchsorted + take or a
    filter (the reference keeps its forward index resident the same
    way: TrajectoryPool.java:59-75).  It costs about 61 B/doc
    (487,710 B for 8,000 minimal pages; the url dominates), so 10^6 docs
    is about 61 MB per engine; ``load_mode="lazy"`` keeps no store and
    builds a small one per call from a ``doc_id`` pushdown read."""

    def __init__(self, table: pa.Table):
        self.table = table  # sorted by doc_id
        self.ids = table["doc_id"].to_numpy()

    @classmethod
    def load(
        cls,
        paths: list[str],
        shift: int = 0,
        num_salts: int = 1,
        ids: np.ndarray | None = None,
    ) -> list[_DocStore]:
        """One store per salt bucket over the docs shards ``paths``, cut
        at ``s << shift`` (the tail bucket is open-ended, like the
        build's clamp).  ``ids`` (sorted) reads only those docs, with a
        ``doc_id`` pushdown; otherwise every row is read, unfiltered."""
        if ids is None:
            tables = [pq.ParquetFile(p).read(columns=_DOC_COLS) for p in paths]
        else:
            where = pc.field("doc_id").isin(pa.array(ids, pa.int64()))
            tables = [
                pq.read_table(p, columns=_DOC_COLS, filters=where) for p in paths
            ]
        tbl = pa.concat_tables(tables, promote_options="permissive")
        dids = tbl["doc_id"].to_numpy()
        order = np.argsort(dids, kind="stable")
        cuts = np.searchsorted(
            dids[order], [s << shift for s in range(1, num_salts)]
        )
        bounds = [0, *cuts.tolist(), len(order)]
        return [cls(tbl.take(order[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]

    def _find(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row of each sorted id, whether the store holds it)."""
        if not self.ids.size:
            return np.zeros(len(ids), np.int64), np.zeros(len(ids), bool)
        pos = np.minimum(np.searchsorted(self.ids, ids), self.ids.size - 1)
        return pos, self.ids[pos] == ids

    def take(self, ids: np.ndarray) -> pa.Table:
        """``(doc_id, url, lang, doclen)`` rows of the sorted, unique
        ``ids`` the store holds, in doc_id order."""
        lo = np.searchsorted(self.ids, ids, "left")
        n = np.searchsorted(self.ids, ids, "right") - lo
        rows = np.repeat(lo, n) + concat_aranges(n)
        return self.table.select(_RESOLVED).take(rows)

    def values(self, col: str, ids: np.ndarray) -> np.ndarray:
        """``col`` at each of the sorted ``ids`` as numpy.  Every id must
        be held: one the postings know but the docs shards do not fails
        loud instead of reading a neighbour's row."""
        pos, held = self._find(ids)
        if not held.all():
            raise ValueError(
                f"{int((~held).sum())} doc ids are in the postings but not "
                "in the docs shards; the index is inconsistent — run check_index"
            )
        return self.table[col].take(pos).to_numpy(zero_copy_only=False)

    def mask(self, ids: np.ndarray, lang, ts_lo, ts_hi) -> np.ndarray:
        """Which of the sorted ``ids`` the store holds with ``lang`` and
        a warc_ts in [ts_lo, ts_hi] (int64 µs; a null never passes)."""
        pos, ok = self._find(ids)
        if lang is not None:
            eq = pc.equal(self.table["lang"].take(pos), lang)
            ok &= eq.fill_null(False).to_numpy()
        if ts_lo is not None or ts_hi is not None:
            ts = self.table["warc_ts"].take(pos).cast(pa.int64())
            ts = ts.to_numpy(zero_copy_only=False)  # float NaN where null
            if ts_lo is not None:
                ok &= ts >= ts_lo
            if ts_hi is not None:
                ok &= ts <= ts_hi
        return ok


class _RunStore:
    """Posting runs as columns: segment rows joined in manifest order,
    ``df`` a numpy array and every ``*_blob`` / ``blk_*`` column an
    ``(offsets, values)`` pair of numpy views over its Arrow buffers.  One
    stable argsort over ``term_id`` makes a term's runs one contiguous
    range in manifest order (base build, then generations)."""

    def __init__(self, tables: list[pa.Table]):
        self.cols: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        if not tables:  # a bucket with no segments
            self.order = self.tids = self.df = np.empty(0, dtype=np.int64)
            return
        tbl = pa.concat_tables(tables)
        tid = tbl["term_id"].to_numpy()
        self.order = np.argsort(tid, kind="stable")
        self.tids = tid[self.order]
        self.df = tbl["df"].to_numpy()
        for c in _BLOBS + _BLOCKS:  # 64-bit offsets: no 2 GB cap on a bucket
            wide = pa.large_binary() if c in _BLOBS else pa.large_list(pa.int64())
            arr = tbl[c].cast(wide).combine_chunks()
            off = np.frombuffer(arr.buffers()[1], np.int64)
            vals = (
                np.frombuffer(arr.buffers()[2] or b"", np.uint8)
                if c in _BLOBS
                else arr.values.to_numpy()
            )
            self.cols[c] = (off[arr.offset : arr.offset + len(arr) + 1], vals)

    def rows(self, term_id: int) -> list[int]:
        """Row indices of ``term_id``'s runs, in manifest order."""
        lo = np.searchsorted(self.tids, term_id, "left")
        hi = np.searchsorted(self.tids, term_id, "right")
        return self.order[lo:hi].tolist()

    def cells(self, col: str, rows: list[int]) -> list[np.ndarray]:
        """Zero-copy views of ``col`` at ``rows``."""
        off, vals = self.cols[col]
        return [vals[off[r] : off[r + 1]] for r in rows]


class SaltSearcher:
    """One salt bucket's posting runs, held compressed as a
    :class:`_RunStore` and decoded per probe (the reference's
    compressedIndex, InvertedIndex.java:170-209).  Every probe reaches
    them through :meth:`_runs` and slices the store's numpy views; no
    segment row becomes a Python object."""

    def __init__(
        self,
        salt: int,
        avgdl: float,
        seg_paths: list[str],
        docs_paths: list[str],
        k1: float = 1.2,
        b: float = 0.75,
        load_mode: str = "memory",
        scorer: str = "bm25",
        deleted: np.ndarray | None = None,
        positions: bool = False,
        docs: _DocStore | None = None,
    ):
        """``seg_paths`` / ``docs_paths``: this bucket's segments and the
        index's docs shards, from the MANIFEST (base first, then
        generations), so a crashed extend's orphan files are never
        served.  ``docs`` is this bucket's resident :class:`_DocStore`
        (the lang / warc_ts filters and ``collapse_topk`` read it); None
        reads a small store per call from ``docs_paths``.  ``load_mode``
        picks where the :class:`_RunStore` comes from; the probes are
        the same:

        - "memory" — one store over all of this bucket's segments, built
          at open from ``read_table`` with no per-row work.  Right when a
          bucket's segments fit a serving node.
        - "lazy" — one small store per probed term, read via term_id
          row-group-statistics pushdown (segments are written sorted by
          term_id with small row groups) and cached.  The 10^12-doc
          path: actor memory stays O(hot terms), storage does lookups.
        """
        self.salt = salt
        self.docs = docs
        self.docs_paths = list(docs_paths)
        self.avgdl = avgdl
        self.k1, self.b = k1, b
        # this bucket's tombstoned doc ids (sorted int64; Lucene-style
        # soft deletes): every query path masks them in _allowed_mask,
        # segments stay immutable, compaction purges them physically
        self.deleted = np.asarray(
            deleted if deleted is not None else [], dtype=np.int64
        )
        # pluggable similarity measure (scoring.SCORERS); bounds are
        # (max_tf, min_dl) so any registered scorer works on any index
        self.scorer = make_scorer(scorer, k1=k1, b=b)
        # pos_blob holds every occurrence position (the Lucene layout) —
        # from the build manifest via the engine
        self.positions = positions
        self._term_stores = _LRU(self._LAZY_CACHE_MAX)  # lazy mode only
        self._decoded_cache = _LRU(self._DECODED_CACHE_MAX)
        self._posfull_cache = _LRU(self._DECODED_CACHE_MAX)
        self.seg_paths = list(seg_paths)
        self._store = (
            _RunStore([pq.read_table(p, columns=_COLS) for p in self.seg_paths])
            if load_mode == "memory"
            else None
        )

    def set_params(
        self,
        k1: float | None = None,
        b: float | None = None,
        scorer: str | None = None,
        avgdl: float | None = None,
    ) -> bool:
        """Runtime scoring swap (params AND measure) — valid because
        segment bound metadata is (max_tf, min_dl), independent of any
        scorer; nothing cached depends on the measure (decoded postings
        are raw tf/doclen).  ``avgdl`` overrides the corpus statistic —
        the global-statistics hook for federated search across indexes
        (bounds stay valid: block metadata is avgdl-independent and the
        serving bound is recomputed under the override)."""
        if k1 is not None:
            self.k1 = float(k1)
        if b is not None:
            self.b = float(b)
        if avgdl is not None:
            self.avgdl = float(avgdl)
        if scorer is not None:
            self.scorer = make_scorer(scorer, k1=self.k1, b=self.b)
        else:
            self.scorer.set_params(k1=k1, b=b)
        return True

    _LAZY_CACHE_MAX = 4096

    def _runs(self, term_id: int) -> tuple[_RunStore, list[int]]:
        """(store, row indices) of ``term_id``'s runs — the one access
        path of every probe, in both load modes."""
        st = self._store or self._term_stores.get(term_id)
        if st is None:  # lazy miss: pushdown-read only this term's rows
            where = [("term_id", "==", term_id)]
            st = _RunStore(
                [pq.read_table(p, columns=_COLS, filters=where) for p in self.seg_paths]
            )
            self._term_stores.put(term_id, st)
        return st, st.rows(term_id)

    def _rows(self, term_id: int) -> list[dict]:
        """One mapping per run: its ``df`` and views of its block-bound
        lists."""
        st, rows = self._runs(term_id)
        blocks = zip(*(st.cells(c, rows) for c in _BLOCKS))
        return [
            {"df": int(st.df[r]), **dict(zip(_BLOCKS, b))}
            for r, b in zip(rows, blocks)
        ]

    # --- posting access (J1: the fundamental probe) ---

    _DECODED_CACHE_MAX = 128

    def postings(self, term_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decoded (doc_ids, tfs, doclens) for a term in this bucket,
        runs concatenated in manifest order (base, then generations).
        Hot terms stay decoded in a small LRU cache — the reference
        decodes per probe (InvertedIndex.java:138-148); with 10^6-posting
        head terms the decode dominates query latency, so serving caches
        it."""
        hit = self._decoded_cache.get(term_id)
        if hit is not None:
            return hit
        st, rows = self._runs(term_id)
        if not rows:
            e = np.empty(0, dtype=np.int64)
            return e, e, e
        out = tuple(self._decode(st, rows, "tfs_blob", "doclens_blob"))
        self._decoded_cache.put(term_id, out)
        return out

    @staticmethod
    def _decode(st: _RunStore, rows: list[int], *cols: str) -> list[np.ndarray]:
        """Doc ids and one int per posting from each of ``cols`` of
        ``rows``, runs concatenated — one varint pass over the joined
        cells (per-call numpy overhead, not bytes, dominates a short
        term's decode).  The id deltas restart at every run, as in
        ``delta_decode_concat``."""
        cols = ("doc_ids_blob", *cols)
        df = st.df[rows]
        n = int(df.sum())
        blob = b"".join([c for col in cols for c in st.cells(col, rows)])
        vals = varint_decode(blob, n * len(cols))
        ids = np.cumsum(vals[:n], out=vals[:n])  # in place: no extra copy
        if len(rows) > 1:
            ends = np.cumsum(df)[:-1]
            ids -= np.repeat(np.concatenate(([0], ids[ends - 1])), df)
        return [ids, *(vals[i * n : (i + 1) * n] for i in range(1, len(cols)))]

    def term_doc_stats(
        self, term_id: int, want: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(doc_ids, tfs, doclens) of this bucket's postings restricted
        to the SORTED ``want`` doc-id array — the per-doc raw statistics
        behind a score explanation (Lucene Explanation.describe shape);
        cost is one postings decode + a searchsorted mask."""
        ids, tfs, dls = self.postings(term_id)
        if ids.size == 0 or want.size == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e, e
        j = np.clip(np.searchsorted(want, ids), 0, want.size - 1)
        m = want[j] == ids
        return ids[m], tfs[m], dls[m]

    def positions_full(
        self, term_id: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(doc_ids, offsets, pos_flat) — EVERY occurrence position of the
        term in this bucket (``store_positions=True`` indexes only).
        ``pos_flat[offsets[i]:offsets[i+1]]`` is doc ``doc_ids[i]``'s
        ascending position list.  Generations concatenate transparently:
        the delta coding restarts at every posting, so joined blobs
        decode in one pass segmented by the tf array."""
        if not self.positions:
            raise ValueError(
                "positions_full requires an index built with "
                "store_positions=True; use the forward-index "
                "verification path instead"
            )
        hit = self._posfull_cache.get(term_id)
        if hit is not None:
            return hit
        st, rows = self._runs(term_id)
        if not rows:
            e = np.empty(0, dtype=np.int64)
            return e, np.zeros(1, dtype=np.int64), e
        ids, tfs = self._decode(st, rows, "tfs_blob")
        pos_flat = delta_decode_concat(st.cells("pos_blob", rows), tfs)
        offsets = np.concatenate(([0], np.cumsum(tfs)))
        self._posfull_cache.put(term_id, (ids, offsets, pos_flat))
        return ids, offsets, pos_flat

    _ORD_SHIFT = 32  # composite verify key = candidate ordinal << 32 | pos

    def _cand_positions(
        self, per: dict[int, tuple], cand: np.ndarray
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per term: (tf per candidate doc, flat positions of the
        candidates only), candidates in ``cand``'s (sorted) order."""
        out = {}
        for tid, (ids, offsets, pos_flat) in per.items():
            sel = np.searchsorted(ids, cand)  # every cand is present
            tf_sel = (offsets[sel + 1] - offsets[sel]).astype(np.int64)
            gather = np.repeat(offsets[sel], tf_sel) + concat_aranges(tf_sel)
            out[tid] = (tf_sel, pos_flat[gather])
        return out

    def _pos_candidates(self, term_ids: list[int]) -> tuple:
        """(unique ids, per-term positions_full, sorted candidate array =
        docs containing ALL unique terms) — shared entry of the three
        positional verifiers."""
        uniq = list(dict.fromkeys(term_ids))
        per = {t: self.positions_full(t) for t in uniq}
        empty = np.empty(0, dtype=np.int64)
        if any(per[t][0].size == 0 for t in uniq):
            return uniq, per, empty
        cand = per[uniq[0]][0]
        for t in uniq[1:]:
            cand = cand[
                np.isin(cand, per[t][0], assume_unique=True)
            ]
            if cand.size == 0:
                return uniq, per, empty
        return uniq, per, cand

    def phrase_pos(
        self, term_ids: list[int], lang=None, ts_lo=None, ts_hi=None
    ) -> np.ndarray:
        """EXACT index-only phrase matching over full positional postings
        (repeated terms and non-first occurrences included — the Lucene
        PhraseQuery semantics, no forward-index read).  Candidates =
        docs containing all unique terms; verification is one vectorized
        composite-key membership pass per query term: an occurrence key
        is ``ordinal<<32 | position``, and a phrase start survives iff
        ``key + j`` exists in term j's key set for every j."""
        cand, keys = self._occ_keys(term_ids)
        if cand.size == 0:
            return cand
        k0 = keys[term_ids[0]]
        # the chain adds up to len-1 to the position field; a position
        # within len-1 of 2^32 would carry into the ordinal field and
        # could match the NEXT candidate doc's first occurrence
        # (_occ_keys guards raw positions; this guards the arithmetic)
        if k0.size and int(
            (k0 & ((1 << self._ORD_SHIFT) - 1)).max()
        ) >= (1 << self._ORD_SHIFT) - len(term_ids):
            raise ValueError("document position too large for phrase keys")
        alive = np.ones(k0.size, dtype=bool)
        for j, tid in enumerate(term_ids[1:], 1):
            kj = keys[tid]
            idx = np.searchsorted(kj, k0 + j)
            inb = idx < kj.size
            idx = np.minimum(idx, kj.size - 1)
            alive &= inb & (kj[idx] == k0 + j)
        hits = cand[np.unique(k0[alive] >> self._ORD_SHIFT)]
        return hits[self._allowed_mask(hits, lang, ts_lo, ts_hi)]

    def _occ_keys(self, term_ids: list[int]) -> tuple:
        """Shared verifier entry: (candidate array, composite occurrence
        keys ``ordinal<<32 | position`` per unique term — sorted, since
        ordinals ascend and positions ascend within a doc)."""
        uniq, per, cand = self._pos_candidates(term_ids)
        if cand.size == 0:
            return cand, {}
        cp = self._cand_positions(per, cand)
        ords = np.arange(cand.size, dtype=np.int64)
        keys = {}
        for t in set(term_ids):
            tf_sel, pos_sel = cp[t]
            if pos_sel.size and int(pos_sel.max()) >= (1 << self._ORD_SHIFT):
                raise ValueError("document position exceeds 2^32")
            keys[t] = (np.repeat(ords, tf_sel) << self._ORD_SHIFT) | pos_sel
        return cand, keys

    def span_pos(
        self, term_ids: list[int], window: int, lang=None, ts_lo=None, ts_hi=None
    ) -> np.ndarray:
        """Ordered proximity (span-near in-order) straight from full
        positional postings — the greedy earliest chain of the
        forward-index route (``functions.proximity.span_chain_ok``, the
        per-start greedy is optimal for a fixed start) vectorized across
        ALL candidate docs at once: occurrences become composite
        ``ordinal<<32|pos`` keys, each chain step is one searchsorted
        over the next term's key array, and staying inside the doc is
        one ordinal-equality mask (route identity is pytest- and
        driver-gated against the text route)."""
        cand, keys = self._occ_keys(term_ids)
        if cand.size == 0:
            return cand
        starts = keys[term_ids[0]]
        f = starts
        alive = np.ones(starts.size, dtype=bool)
        for tid in term_ids[1:]:
            kj = keys[tid]
            idx = np.searchsorted(kj, f, side="right")  # strictly after f
            inb = idx < kj.size
            idx = np.minimum(idx, kj.size - 1)
            nxt = kj[idx]
            alive &= inb & ((nxt >> self._ORD_SHIFT) == (f >> self._ORD_SHIFT))
            f = nxt
        ok = alive & ((f - starts) <= window - 1)  # same ord ⇒ key Δ = pos Δ
        hits = cand[np.unique(starts[ok] >> self._ORD_SHIFT)]
        return hits[self._allowed_mask(hits, lang, ts_lo, ts_hi)]

    def near_pos(
        self, term_ids: list[int], window: int, lang=None, ts_lo=None, ts_hi=None
    ) -> np.ndarray:
        """Unordered proximity (NEAR/WITHIN) from full positional
        postings, vectorized across all candidate docs.  A covering
        window exists iff some occurrence x0 (of ANY query term — the
        leftmost one inside the window) has every term's next occurrence
        ≥ x0 within x0 + window - 1, so each unique term costs ONE
        searchsorted over the merged start set (equivalence with the
        text route's minimal-cover sweep is pytest- and driver-gated)."""
        cand, keys = self._occ_keys(term_ids)
        if cand.size == 0:
            return cand
        uniq = list(dict.fromkeys(term_ids))
        starts = np.sort(np.concatenate([keys[t] for t in uniq]))
        ok = np.ones(starts.size, dtype=bool)
        for tid in uniq:
            kt = keys[tid]
            idx = np.searchsorted(kt, starts, side="left")  # first ≥ start
            inb = idx < kt.size
            idx = np.minimum(idx, kt.size - 1)
            nt = kt[idx]
            ok &= (
                inb
                & ((nt >> self._ORD_SHIFT) == (starts >> self._ORD_SHIFT))
                & ((nt - starts) <= window - 1)
            )
        hits = cand[np.unique(starts[ok] >> self._ORD_SHIFT)]
        return hits[self._allowed_mask(hits, lang, ts_lo, ts_hi)]

    def _doc_store(self, ids: np.ndarray) -> _DocStore:
        """The resident store, or (``docs=None``) one read for ``ids``."""
        if self.docs is not None:
            return self.docs
        return _DocStore.load(self.docs_paths, ids=ids)[0]

    def _allowed_mask(
        self, ids: np.ndarray, lang, ts_lo, ts_hi, docs: _DocStore | None = None
    ) -> np.ndarray:
        """Live (not tombstoned) ids passing the lang / warc_ts filters —
        bucket-local, the analog of the broadcast timeSpanLookup
        (TrajectoryResolver.java:250-276) but partitioned, not global.
        ``docs`` is a store holding ``ids`` (default: :meth:`_doc_store`)."""
        ok = live_mask(self.deleted, ids)
        if lang is None and ts_lo is None and ts_hi is None:
            return ok
        if docs is None:
            docs = self._doc_store(ids)
        return ok & docs.mask(ids, lang, ts_lo, ts_hi)

    # --- boolean algebra (findByPath:52-62 / findByStrictPath:65-89) ---

    def bool_or(self, term_ids: list[int], lang=None, ts_lo=None, ts_hi=None) -> np.ndarray:
        parts = [self.postings(t)[0] for t in term_ids]
        if not parts:
            return np.empty(0, dtype=np.int64)
        ids = np.unique(np.concatenate(parts))
        return ids[self._allowed_mask(ids, lang, ts_lo, ts_hi)]

    def bool_and(self, term_ids: list[int], lang=None, ts_lo=None, ts_hi=None) -> np.ndarray:
        """Intersection via counting, exactly the reference's shape:
        candidate count == number of distinct query terms."""
        uniq = sorted(set(term_ids))
        parts = [self.postings(t)[0] for t in uniq]
        if not parts or any(len(p) == 0 for p in parts):
            return np.empty(0, dtype=np.int64)
        allc = np.concatenate(parts)
        ids, counts = np.unique(allc, return_counts=True)
        ids = ids[counts == len(uniq)]
        return ids[self._allowed_mask(ids, lang, ts_lo, ts_hi)]

    def count_match(
        self, term_ids: list[int], mode: str, lang=None, ts_lo=None, ts_hi=None
    ) -> int:
        """Bucket-local match COUNT (OR/AND) — the hit-total collector:
        only one integer crosses the bucket boundary (buckets are
        disjoint doc ranges, so the engine's total is a plain sum)."""
        ids = (
            self.bool_or(term_ids, lang, ts_lo, ts_hi)
            if mode == "or"
            else self.bool_and(term_ids, lang, ts_lo, ts_hi)
        )
        return int(ids.size)

    def bool_min_match(
        self, term_ids: list[int], m: int, lang=None, ts_lo=None, ts_hi=None
    ) -> np.ndarray:
        """At-least-``m``-of-n boolean (Lucene minimum_should_match):
        the same counting intersection as ``bool_and`` with the count
        threshold relaxed from n to ``m`` — m=1 is OR, m=n is AND."""
        uniq = sorted(set(term_ids))
        parts = [p for t in uniq if len(p := self.postings(t)[0])]
        if len(parts) < m:
            return np.empty(0, dtype=np.int64)
        allc = np.concatenate(parts)
        ids, counts = np.unique(allc, return_counts=True)
        ids = ids[counts >= m]
        return ids[self._allowed_mask(ids, lang, ts_lo, ts_hi)]

    def bool_and_not(
        self,
        include_tids: list[int],
        exclude_tids: list[int],
        lang=None,
        ts_lo=None,
        ts_hi=None,
    ) -> np.ndarray:
        """AND of the includes minus the union of the excludes —
        bucket-local subtraction is globally correct because a doc's
        postings for every term live in its one salt bucket."""
        keep = self.bool_and(include_tids, lang, ts_lo, ts_hi)
        if keep.size == 0 or not exclude_tids:
            return keep
        parts = [self.postings(t)[0] for t in exclude_tids]
        excl = np.unique(np.concatenate(parts)) if parts else None
        if excl is None or excl.size == 0:
            return keep
        return keep[~np.isin(keep, excl)]

    # --- BM25 top-k ---

    def topk(
        self,
        term_ids: list[int],
        idfs: list[float],
        k: int,
        method: str = "wand",
        lang=None,
        ts_lo=None,
        ts_hi=None,
        require_all: bool = False,
        after: tuple | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bucket-local BM25 top-k → (doc_ids, scores), unsorted length ≤ k.

        ``method="wand"`` (the default; the name of the pruned path) runs
        exact MaxScore (:meth:`_topk_maxscore`); ``"exhaustive"`` scores
        every candidate.  Both add contributions in ascending term_id
        order, so they produce bit-identical ranks and scores.

        ``require_all`` scores ONLY docs containing every query term
        (ranked conjunctive retrieval) — valid bucket-locally because a
        doc's postings for all terms live in its one salt bucket.  Its
        candidates are already the intersection, so it scores them
        exhaustively.

        ``after=(doc_id, score)`` — a result row of a previous page —
        keeps only docs STRICTLY after the cursor in (score desc,
        doc_id asc) order — cursor pagination
        (Lucene searchAfter).  Exact because scoring is bit-deterministic,
        so a cursor from a previous page compares equal bitwise; forces
        exhaustive bucket scoring (a top-k threshold prunes from above,
        the wrong side of a cursor).
        """
        posts = self._posts(term_ids, idfs)
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        if not posts:
            return empty
        if require_all and len(posts) < len(set(term_ids)):
            return empty  # a term with no postings in this bucket
        if method == "exhaustive" or require_all or after is not None:
            return self._topk_exhaustive(
                posts, k, lang, ts_lo, ts_hi, require_all, after
            )
        return self._topk_maxscore(posts, k, lang, ts_lo, ts_hi)

    def _posts(self, term_ids: list[int], idfs: list[float]) -> list[tuple]:
        """(term_id, weight, ids, tfs, doclens) of each term with postings
        in this bucket, in ascending term_id order — the accumulation
        order that keeps every scoring path bit-identical."""
        order = np.argsort(np.asarray(term_ids, dtype=np.int64), kind="stable")
        posts = []
        for i in order:
            ids, tfs, dls = self.postings(term_ids[i])
            if len(ids):
                posts.append((term_ids[i], idfs[i], ids, tfs, dls))
        return posts

    def doc_term_stats(
        self, term_ids: list[int], doc_id: int
    ) -> list[tuple[int, int, int]]:
        """(term_id, tf, doclen) for each query term whose posting list
        in this bucket contains ``doc_id`` — the explain probe: one
        binary search per term, no scoring.  Tombstoned docs return
        nothing (they can't appear in any result, so they have no
        explanation)."""
        arr = np.asarray([doc_id], dtype=np.int64)
        if not self._allowed_mask(arr, None, None, None)[0]:
            return []
        out = []
        for tid in sorted(term_ids):
            ids, tfs, dls = self.postings(tid)
            if len(ids):
                i = int(np.searchsorted(ids, doc_id))
                if i < len(ids) and ids[i] == doc_id:
                    out.append((int(tid), int(tfs[i]), int(dls[i])))
        return out

    def topk_groups(
        self,
        group_tids: list[list[int]],
        weights: list[float],
        k: int,
        lang=None,
        ts_lo=None,
        ts_hi=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Synonym-group scoring (the Lucene SynonymQuery shape): each
        group scores as ONE pseudo-term — per-doc tf is the SUM of the
        member tfs, the group weight (idf of the max member df) comes in
        via ``weights``.  Exhaustive scoring on purpose: block metadata
        stores per-TERM bounds, and a summed-tf pseudo-term's bound is
        not derivable from them without over-pruning risk; the candidate
        set stays bucket-local.  A single-member group degenerates to
        the plain term."""
        posts = []
        for tids, w in zip(group_tids, weights):
            ids_parts, tf_parts, dl_parts = [], [], []
            for tid in sorted(tids):
                ids, tfs, dls = self.postings(tid)
                if len(ids):
                    ids_parts.append(ids)
                    tf_parts.append(tfs.astype(np.float64))
                    dl_parts.append(dls)
            if not ids_parts:
                continue
            allids = np.concatenate(ids_parts)
            uniq, inv = np.unique(allids, return_inverse=True)
            tfsum = np.zeros(len(uniq), dtype=np.float64)
            np.add.at(tfsum, inv, np.concatenate(tf_parts))
            dl = np.zeros(len(uniq), dtype=np.int64)
            dl[inv] = np.concatenate(dl_parts)  # doclen is per doc
            posts.append((None, w, uniq, tfsum, dl))
        if not posts:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        return self._topk_exhaustive(posts, k, lang, ts_lo, ts_hi)

    def collapse_topk(
        self,
        term_ids: list[int],
        idfs: list[float],
        lang=None,
        ts_lo=None,
        ts_hi=None,
    ) -> tuple[list, np.ndarray, np.ndarray]:
        """Bucket-local field collapsing: exhaustively score every OR
        candidate, then keep only the best-scoring doc per ``lang`` group
        — (6-dp-rounded score desc, doc_id asc) within the group, the
        same float-stable protocol as the topk gates.  Returns parallel
        (group values, doc_ids, scores); docs with a null group drop out.

        Exhaustive (not MaxScore) on purpose: a collapsed ranking needs each
        group's true maximum, and per-group upper bounds aren't tracked
        in the block metadata — the candidate set is bucket-local so the
        scan stays bounded."""
        posts = self._posts(term_ids, idfs)
        empty = ([], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        if not posts:
            return empty
        uniq = self._union([p[2] for p in posts])
        docs = self._doc_store(uniq)  # one store serves the filter and groups
        uniq = uniq[self._allowed_mask(uniq, lang, ts_lo, ts_hi, docs)]
        if not len(uniq):
            return empty
        scores = self._score(posts, uniq)
        groups = docs.values("lang", uniq)  # all are local
        valid = np.fromiter((g is not None for g in groups), bool, len(groups))
        uniq, scores, groups = uniq[valid], scores[valid], groups[valid]
        if not len(uniq):
            return empty
        scores = np.round(scores, 6)
        # best per group: sort (group asc, score desc, doc_id asc), take
        # the first row of each group run
        sel = np.lexsort((uniq, -scores, groups))
        g_sorted = groups[sel]
        first = np.ones(len(sel), dtype=bool)
        first[1:] = g_sorted[1:] != g_sorted[:-1]
        keep = sel[first]
        return groups[keep].tolist(), uniq[keep], scores[keep]

    @staticmethod
    def _union(lists: list[np.ndarray]) -> np.ndarray:
        """Sorted unique doc ids of the posting ``lists`` (each is already
        sorted and unique)."""
        return lists[0] if len(lists) == 1 else np.unique(np.concatenate(lists))

    @staticmethod
    def _conjunctive(posts) -> np.ndarray:
        """Docs present in EVERY posting list (the bool_and count
        intersection, reused by ranked-AND)."""
        ids, counts = np.unique(
            np.concatenate([p[2] for p in posts]), return_counts=True
        )
        return ids[counts == len(posts)]

    def _score(self, posts, cand: np.ndarray) -> np.ndarray:
        """Exact scores of the sorted, unique ``cand``: one searchsorted
        into every list, contributions added in ``posts`` order (ascending
        term_id) — the same float sum whichever lists ``cand`` came from."""
        scores = np.zeros(len(cand), dtype=np.float64)
        for _, w, ids, tfs, dls in posts:
            j = np.minimum(np.searchsorted(ids, cand), len(ids) - 1)
            hit = ids[j] == cand
            j = j[hit]
            scores[hit] += w * self.scorer.tf_norm(tfs[j], dls[j], self.avgdl)
        return scores

    @staticmethod
    def _best(ids: np.ndarray, scores: np.ndarray, k: int):
        """The top ``k`` of (ids, scores) by (score desc, doc_id asc)."""
        if len(ids) <= k:
            return ids, scores
        neg = -scores
        kth = np.partition(neg, k - 1)[k - 1]
        top = np.flatnonzero(~(neg > kth))  # k best + ties; NaN sorts last
        sel = top[np.lexsort((ids[top], neg[top]))[:k]]
        return ids[sel], scores[sel]

    def _topk_exhaustive(
        self, posts, k, lang, ts_lo, ts_hi, require_all=False, after=None
    ):
        """Score every allowed candidate — the union of the lists, or
        their intersection under ``require_all``."""
        cand = (
            self._conjunctive(posts)
            if require_all
            else self._union([p[2] for p in posts])
        )
        cand = cand[self._allowed_mask(cand, lang, ts_lo, ts_hi)]
        scores = self._score(posts, cand)
        if after is not None:
            d_a, s_a = int(after[0]), float(after[1])
            keep = (scores < s_a) | ((scores == s_a) & (cand > d_a))
            cand, scores = cand[keep], scores[keep]
        return self._best(cand, scores, k)

    def _term_bound(self, term_id: int) -> float:
        """The largest ``tf_norm`` any posting of ``term_id`` in this
        bucket can reach: the best (max_tf, min_dl) block bound over
        every block of every run (the scorer's monotonicity contract)."""
        st, rows = self._runs(term_id)
        max_tf = np.concatenate(st.cells("blk_max_tf", rows))
        min_dl = np.concatenate(st.cells("blk_min_dl", rows))
        return float(self.scorer.tf_norm(max_tf, min_dl, self.avgdl).max())

    def _topk_maxscore(self, posts, k, lang, ts_lo, ts_hi):
        """Exact MaxScore top-k: prune whole lists before any candidate
        is gathered from them (LORS stops before the work the same way,
        EdgeInvertedIndex.java:102-177).

        1. ``U_t = w_t · _term_bound(t)`` bounds any contribution of t.
        2. θ is the k-th best exact score among the allowed docs of the
           rarest lists, added in ascending length until k exist.
        3. The non-essential set N is the longest prefix of the lists in
           ascending-U order whose bound — the U's summed in ``posts``
           (ascending term_id) order — stays strictly below θ.
        4. Candidates are the union of the essential lists only; each is
           exact-scored against every list (:meth:`_score`).  When every
           essential list is a seed list, the scored seed holds them all.

        Exact: a doc found only in N lists scores at most bound(N) —
        float addition is monotone and both sums run in the same order —
        which is below θ, and θ is at most the final k-th score, so the
        doc cannot enter the top-k even on a (score desc, doc_id asc)
        tie.  The bounds need every ``w ≥ 0`` (an ``update(n_docs=…)``
        below a term's df makes its BM25 idf negative): otherwise, or
        when a bound is not finite, every candidate is scored."""
        w = np.array([p[1] for p in posts], dtype=np.float64)
        ub = w * np.array([self._term_bound(p[0]) for p in posts])
        valid = (w >= 0).all() and (ub >= 0).all() and np.isfinite(ub).all()
        if k < 1 or not valid:
            return self._topk_exhaustive(posts, k, lang, ts_lo, ts_hi)
        docs = self.docs
        if docs is None and not (lang is None and ts_lo is None and ts_hi is None):
            # lazy mode: one per-call store serves both masks below
            docs = self._doc_store(self._union([p[2] for p in posts]))
        rare = sorted(range(len(posts)), key=lambda i: len(posts[i][2]))
        for m in range(1, len(posts) + 1):
            lists = [posts[i][2] for i in rare[:m]]
            if m < len(posts) and sum(map(len, lists)) < k:
                continue
            seed = self._union(lists)
            seed = seed[self._allowed_mask(seed, lang, ts_lo, ts_hi, docs)]
            if len(seed) >= k:
                break
        else:  # fewer than k allowed candidates in all: nothing to prune
            return seed, self._score(posts, seed)
        scores = self._score(posts, seed)
        theta = np.partition(scores, len(scores) - k)[len(scores) - k]
        non = np.zeros(len(posts), dtype=bool)
        # θ is a real score, so bound(all lists) ≥ θ: one stays essential
        for i in np.argsort(ub, kind="stable")[:-1]:
            non[i] = True
            if not np.cumsum(ub[non])[-1] < theta:  # summed in posts order
                non[i] = False
                break
        if non[rare[m:]].all():  # the seed holds every essential candidate
            return self._best(seed, scores, k)
        cand = self._union([p[2] for p, n in zip(posts, non) if not n])
        cand = cand[self._allowed_mask(cand, lang, ts_lo, ts_hi, docs)]
        return self._best(cand, self._score(posts, cand), k)
