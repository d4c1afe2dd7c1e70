"""QueryEngine: driver-side wiring of the salt-bucket searcher pool.

Analog of the reference's ``Engine`` + ``QueryPool`` (/root/reference/src/
main/java/au/edu/rmit/bdm/Torch/queryEngine/Engine.java,
queryEngine/query/QueryPool.java:28-158): loads the manifest/stats/term
dictionary once, holds one searcher per salt bucket (in-process for
tests, a ``ray.remote`` actor pool for serving), tokenizes the query with
the same tokenizer as the build (query "prepare" = map-matching the query
itself, QueryImpl.java:21-32), fans out, and heap-merges bucket-local
results.  Result order is (score desc, doc_id asc) — fixed tie-break for
rank identity (SURVEY.md §7.5).
"""

from __future__ import annotations

import heapq
import json
import os
import warnings

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads

from torchtrajectory_ray.functions.proximity import near_cover_ok, span_chain_ok
from torchtrajectory_ray.functions.scoring import make_scorer
from torchtrajectory_ray.functions.text import get_tokenizer, term_hash
from torchtrajectory_ray.state.dictscan import DictScanIndex, TermDict
from torchtrajectory_ray.state.segment import SaltSearcher, _DocStore, live_mask


def _merge_topk(parts, k: int) -> list[tuple[int, float]]:
    """Heap-merge bucket-local ``(ids, scores)`` parts into the global
    top-``k`` in (score desc, doc_id asc) order (K5: heap drain,
    EdgeInvertedIndex.java:172-175) — the buckets are disjoint doc
    ranges."""
    merged = heapq.nlargest(
        k,
        (
            (float(s), -int(d))
            for ids, scores in parts
            for d, s in zip(ids, scores)
        ),
    )
    return [(-nd, s) for s, nd in merged]


def _distinct_term_doc_counts(texts, tokenize) -> pd.Series:
    """term → number of docs containing it, over ``texts`` — one
    flatten + factorize pass, (doc, term) pairs deduped via a composite
    key (no per-doc Python set building)."""
    import itertools

    tok_lists = [tokenize(t) for t in texts]
    n = len(tok_lists)
    counts = np.fromiter((len(t) for t in tok_lists), np.int64, n)
    total = int(counts.sum())
    if total == 0:
        return pd.Series(dtype=np.int64)
    flat = np.fromiter(itertools.chain.from_iterable(tok_lists), object, total)
    codes, uniq = pd.factorize(flat, sort=False)
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    ukey = np.unique(doc_idx * len(uniq) + codes)
    vc = np.bincount(ukey % len(uniq), minlength=len(uniq))
    return pd.Series(vc, index=uniq)


def _phrase_doc_hits(doc_ids, texts, terms: list[str], tokenize) -> list[int]:
    """Docs whose token stream contains ``terms`` consecutively —
    sliding-window equality vectorized per doc; shared by the driver and
    the distributed verification paths so they cannot diverge."""
    n = len(terms)
    hits: list[int] = []
    for d, text in zip(doc_ids, texts):
        toks = tokenize(text)
        if len(toks) < n:
            continue
        arr = np.asarray(toks, dtype=object)
        m = np.ones(len(toks) - n + 1, dtype=bool)
        for j, term in enumerate(terms):
            m &= arr[j : len(toks) - n + 1 + j] == term
            if not m.any():
                break
        if m.any():
            hits.append(int(d))
    return hits


def _span_doc_hits(
    doc_ids, texts, terms: list[str], window: int, tokenize
) -> list[int]:
    """Docs containing ``terms`` IN ORDER (strictly increasing
    positions — a repeated term needs distinct occurrences) inside a
    span of at most ``window`` tokens (ordered proximity / span-near).
    Positions come from re-tokenizing each text; the per-doc decision is
    ``functions.proximity.span_chain_ok`` — the SAME kernel the
    positional-postings route uses, so the two routes cannot diverge."""
    n = len(terms)
    hits: list[int] = []
    for d, text in zip(doc_ids, texts):
        toks = tokenize(text)
        if len(toks) < n:
            continue
        arr = np.asarray(toks, dtype=object)
        pos = [np.flatnonzero(arr == t) for t in terms]
        if span_chain_ok(pos, window):
            hits.append(int(d))
    return hits


def _near_doc_hits(
    doc_ids, texts, terms: list[str], window: int, tokenize
) -> list[int]:
    """Docs where every UNIQUE query term occurs inside some span of at
    most ``window`` consecutive tokens, any order (unordered proximity —
    the WITHIN/NEAR operator).  Positions from re-tokenized text, the
    decision from ``functions.proximity.near_cover_ok`` (shared with the
    positional-postings route)."""
    uniq = list(dict.fromkeys(terms))
    hits: list[int] = []
    for d, text in zip(doc_ids, texts):
        toks = tokenize(text)
        if len(toks) < len(uniq):
            continue
        arr = np.asarray(toks, dtype=object)
        pos = [np.flatnonzero(arr == t) for t in uniq]
        if near_cover_ok(pos, window):
            hits.append(int(d))
    return hits


def _read_texts(paths: list[str], ids) -> pa.Table:
    """``(doc_id, text)`` of the docs ``ids`` from the docs shards
    ``paths``: one ``doc_id`` pushdown read, rows in storage order.  The
    one way the engine reads ``text``, which is not resident."""
    return pads.dataset(paths, format="parquet").to_table(
        columns=["doc_id", "text"],
        filter=pads.field("doc_id").isin(pa.array(ids, pa.int64())),
    )


def _verify_docs(
    paths: list[str],
    ids,
    terms: list[str],
    window: int | None,
    ordered: bool,
    tokenize,
) -> np.ndarray:
    """The sorted ``ids`` whose text holds ``terms``: consecutively
    (``window=None``), else inside a ``window``-token span, in order when
    ``ordered`` — the one verification the driver and the distributed
    tasks share, so the two cannot diverge."""
    t = _read_texts(paths, ids)
    args = (t["doc_id"].to_pylist(), t["text"].to_pylist(), terms)
    if window is None:
        hits = _phrase_doc_hits(*args, tokenize)
    elif ordered:
        hits = _span_doc_hits(*args, window, tokenize)
    else:
        hits = _near_doc_hits(*args, window, tokenize)
    return np.asarray(sorted(hits), dtype=np.int64)


class _PhraseVerifyTask:
    """map_batches task for bulk phrase/proximity verification: one chunk
    of candidate doc ids in, the verified subset out.  Each task does its
    own predicate-pushdown read of ONLY its chunk's docs (the
    ``dedup._VerifyPairsTask`` shape) — candidate texts never touch the
    driver, task memory is bounded by the chunk.  ``window`` and
    ``ordered`` as in :func:`_verify_docs`."""

    def __init__(
        self,
        docs_paths: list[str],
        terms: list[str],
        tokenizer: str,
        window: int | None = None,
        ordered: bool = False,
    ):
        self.docs_paths = docs_paths
        self.terms = terms
        self.tokenizer = tokenizer
        self.window = window
        self.ordered = ordered

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        from torchtrajectory_ray.stages.postings import _pin_arrow_single_thread

        _pin_arrow_single_thread()
        hits = _verify_docs(
            self.docs_paths,
            g["doc_id"].to_numpy(),
            self.terms,
            self.window,
            self.ordered,
            get_tokenizer(self.tokenizer),
        )
        return pd.DataFrame({"doc_id": pd.array(hits, dtype="int64")})


class QueryEngine:
    def __init__(
        self,
        index_dir: str,
        *,
        distributed: bool = False,
        load_mode: str = "memory",
        scorer: str = "bm25",
    ):
        with open(os.path.join(index_dir, "manifest.json")) as f:
            self.manifest = json.load(f)
        self.stats = self.manifest["stats"]
        cfg = self.manifest["config"]
        self.num_salts = cfg["num_salts"]
        self.num_term_shards = cfg["num_term_shards"]
        self.k1 = self.stats["k1"]
        self.b = self.stats["b"]
        self.n_docs = self.stats["n_docs"]
        self.avgdl = self.stats["avgdl"]
        # pluggable measure + the BUILD's tokenizer (query prep must match
        # the index's mapper — the map-matching-the-query rule)
        self.scorer = make_scorer(scorer, k1=self.k1, b=self.b)
        self._tokenizer_name = cfg.get("tokenizer", "default")
        self._tokenize = get_tokenizer(self._tokenizer_name)
        # every occurrence position in the postings (store_positions=True)
        # routes phrase / span / NEAR through the index alone
        from torchtrajectory_ray.pipelines.build import (
            first_positions,
            manifest_abspath,
            read_dictionary,
        )

        legacy = first_positions(self.manifest)
        if legacy:
            warnings.warn(
                f"{index_dir} stores one position per posting (the retired "
                "position_mode='first'); it is served as an index without "
                "positions (phrase / near / span verify against the text). "
                "compact_index(index_dir, out_dir) rebuilds it with full "
                "positions.",
                stacklevel=2,
            )
        self._positions = bool(cfg.get("store_positions")) and not legacy

        # term dictionary: one term_id-sorted columnar table (term_id, df,
        # term) that every term lookup and dictionary scan reads.  At
        # 10^12-doc scale this table is itself term-sharded and probed
        # with parquet predicate pushdown per query; at bench scale it
        # fits the driver.
        self.term_dict = TermDict(read_dictionary(self.manifest, index_dir))
        self._dictscan = None  # lazy term-sorted scan index (dictscan.py)
        # forward-index shards from the MANIFEST (not os.walk): a stale
        # docs shard from a rebuild with a removed input, or a crashed
        # extend's orphan gen-* dir, would collide with live doc_id ranges
        # and silently corrupt resolve()/filtered queries
        self.docs_paths = [
            manifest_abspath(p, index_dir) for p in self.manifest["docs_paths"]
        ]

        # tombstones (Lucene-style soft deletes, pipelines.build.
        # delete_docs): a sorted id array masked out of every query path.
        # Partitioned per salt bucket with the build's own salt function,
        # so each searcher ships only its share — at 10^12 docs the
        # tombstone set is itself salt-sharded storage, not driver state.
        # Scoring keeps the PRE-delete stats (N/avgdl/df), exactly like
        # Lucene until a merge: compact_index purges physically and
        # recomputes them.
        self._deleted_all = np.empty(0, dtype=np.int64)
        tomb_path = os.path.join(index_dir, "tombstones.json")
        if os.path.exists(tomb_path):
            with open(tomb_path) as f:
                tomb = json.load(f)
            self._deleted_all = np.asarray(
                sorted(tomb["doc_ids"]), dtype=np.int64
            )

        self.distributed = distributed
        # segment files come from the MANIFEST (not directory globs) so a
        # crashed extend's orphan generation is never served before its
        # manifest/dictionary swap
        seg_by_salt: dict[int, list[str]] = {s: [] for s in range(self.num_salts)}
        for row in self.manifest["segments"]:
            seg_by_salt[int(row["segment"]) % self.num_salts].append(
                manifest_abspath(row["path"], index_dir)
            )
        if self.stats.get("salt_shift") is None:
            raise ValueError(
                "this index predates salt_shift bookkeeping, so its docs "
                "and tombstones cannot be routed to salt buckets — rebuild "
                "the index (build_index)"
            )
        self._salt_shift = int(self.stats["salt_shift"])
        # the forward index stays resident (TrajectoryPool.java:59-75):
        # one doc store per salt bucket, read once here, sorted by doc_id
        # — hydration and the lang/ts filters do no file I/O.  Lazy mode
        # keeps none and reads a small store per call instead.
        self._docs: list[_DocStore] | None = (
            _DocStore.load(self.docs_paths, self._salt_shift, self.num_salts)
            if load_mode == "memory"
            else None
        )
        dead_salt = self._salt_of(self._deleted_all)
        searcher = SaltSearcher
        if distributed:
            import ray

            searcher = ray.remote(num_cpus=1)(SaltSearcher).remote
        self.searchers = [
            searcher(
                salt=s,
                avgdl=self.avgdl,
                seg_paths=seg_by_salt[s],
                docs_paths=self.docs_paths,
                k1=self.k1,
                b=self.b,
                load_mode=load_mode,
                scorer=scorer,
                deleted=self._deleted_all[dead_salt == s],
                positions=self._positions,
                docs=self._docs[s] if self._docs is not None else None,
            )
            for s in range(self.num_salts)
        ]

    def _salt_of(self, ids: np.ndarray) -> np.ndarray:
        """Salt bucket of each doc id (the build's clamp: the tail bucket
        is open-ended)."""
        return np.clip(ids >> self._salt_shift, 0, self.num_salts - 1)

    def _stores(self, ids: np.ndarray) -> list[tuple[_DocStore, np.ndarray]]:
        """(store, ids) pairs that cover the sorted live ``ids``: each
        salt bucket's resident store with its share of them, or under
        ``load_mode="lazy"`` one store read for them all with a
        ``doc_id`` pushdown.  Always at least one pair."""
        if self._docs is None:
            return [(_DocStore.load(self.docs_paths, ids=ids)[0], ids)]
        salts = self._salt_of(ids)
        hit = np.unique(salts) if ids.size else [0]
        return [(self._docs[s], ids[salts == s]) for s in hit]

    def _live(self, doc_ids) -> np.ndarray:
        """Sorted unique ``doc_ids`` minus the tombstoned ones."""
        arr = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
        return arr[live_mask(self._deleted_all, arr)]

    def update(
        self,
        k1: float | None = None,
        b: float | None = None,
        scorer: str | None = None,
        avgdl: float | None = None,
        n_docs: int | None = None,
    ) -> None:
        """Runtime scoring swap — parameters AND measure (the analog of
        the reference's Engine.update / QueryPool.update,
        Torch/queryEngine/Engine.java:165-171) — no index rebuild needed:
        bound metadata stores (max_tf, min_dl) and exact scores are
        computed from raw tf/doclen under the engine's CURRENT scorer.
        ``avgdl`` / ``n_docs`` override the corpus statistics — the
        global-statistics hook federated search uses to score several
        independent indexes as one corpus (``pipelines.federated``)."""
        if k1 is not None:
            self.k1 = float(k1)
        if b is not None:
            self.b = float(b)
        if avgdl is not None:
            self.avgdl = float(avgdl)
        if n_docs is not None:
            self.n_docs = int(n_docs)
        if scorer is not None:
            self.scorer = make_scorer(scorer, k1=self.k1, b=self.b)
        else:
            self.scorer.set_params(k1=k1, b=b)
        self._fanout("set_params", k1, b, scorer, avgdl)

    # --- query prep (same tokenizer as the build) ---

    def resolve_terms(self, terms: list[str]) -> tuple[list[int], list[float]]:
        """Unique known term_ids + idf weights; unknown terms drop out
        (empty-posting edge case, InvertedIndex.java:150-153)."""
        tids, dfs = self.term_dict.lookup(sorted(set(terms)))
        return [t for t, df in zip(tids, dfs) if df], [
            float(self.scorer.idf(df, self.n_docs)) for df in dfs if df
        ]

    def _fanout(self, method: str, *args, **kwargs) -> list:
        if self.distributed:
            import ray

            return ray.get(
                [getattr(s, method).remote(*args, **kwargs) for s in self.searchers]
            )
        return [getattr(s, method)(*args, **kwargs) for s in self.searchers]

    # --- public query API (Engine.findTopK / findOnPath / findOnStrictPath) ---

    def topk(
        self,
        query: str | list[str],
        k: int = 10,
        method: str = "wand",
        lang: str | None = None,
        ts_lo: int | None = None,
        ts_hi: int | None = None,
        require_all: bool = False,
    ) -> list[tuple[int, float]]:
        terms = self._tokenize(query) if isinstance(query, str) else list(query)
        tids, idfs = self.resolve_terms(terms)
        if not tids:
            return []
        if require_all and len(tids) < len(set(terms)):
            return []  # a query term with no postings anywhere ⇒ empty AND
        parts = self._fanout(
            "topk", tids, idfs, k, method, lang, ts_lo, ts_hi, require_all
        )
        return _merge_topk(parts, k)

    def explain_docs(
        self, query: str | list[str], doc_ids
    ) -> list[dict]:
        """BATCHED per-(doc, term) score decomposition for a SET of docs
        (the multi-doc form of :meth:`explain`): one postings probe per
        unique query term masked to the requested ids, instead of one
        per-doc decode per term — the shape for explaining a whole top-k
        page at once.  Rows carry raw tf / doclen plus idf and the
        scorer's contribution; per-doc contributions sum to exactly the
        ``topk`` score (same scorer, same global stats; tested)."""
        terms = self._tokenize(query) if isinstance(query, str) else list(query)
        want = np.sort(np.asarray(list(doc_ids), dtype=np.int64))
        rows: list[dict] = []
        uniq = sorted(set(terms))
        tids, dfs = self.term_dict.lookup(uniq)
        indexed = self._term_indexed(tids)
        for t, tid, df, ok in zip(uniq, tids, dfs, indexed):
            if not ok:
                continue
            idf = float(self.scorer.idf(df, self.n_docs))
            parts = self._fanout("term_doc_stats", tid, want)
            for ids, tfs, dls in parts:
                if len(ids) == 0:
                    continue
                contrib = idf * self.scorer.tf_norm(
                    np.asarray(tfs, np.float64),
                    np.asarray(dls, np.float64),
                    self.avgdl,
                )
                for d, tf, dl, c in zip(ids, tfs, dls, contrib):
                    rows.append(
                        {
                            "doc_id": int(d),
                            "term": t,
                            "tf": int(tf),
                            "doclen": int(dl),
                            "df": int(df),
                            "idf": idf,
                            "contrib": float(c),
                        }
                    )
        rows.sort(key=lambda r: (r["doc_id"], r["term"]))
        return rows

    def search_after(
        self,
        query: str | list[str],
        after: tuple | None,
        k: int = 10,
        **kw,
    ) -> list[tuple[int, float]]:
        """Cursor pagination (the Lucene ``searchAfter`` shape): the next
        ``k`` results STRICTLY after ``after=(doc_id, score)`` in
        (score desc, doc_id asc) order — pass the previous page's last
        result row as-is.  Unlike offset pagination (:meth:`topk_page`, O(page·k) per
        bucket), the per-bucket work is one exhaustive scoring pass with
        a cursor filter regardless of depth, and only k rows cross each
        bucket boundary.  Exact at any depth because scoring is
        bit-deterministic — the cursor score compares equal bitwise.
        ``after=None`` is the first page (== :meth:`topk`, tested)."""
        terms = self._tokenize(query) if isinstance(query, str) else list(query)
        tids, idfs = self.resolve_terms(terms)
        if not tids:
            return []
        lang, ts_lo, ts_hi = self._filt3(kw)
        parts = self._fanout(
            "topk", tids, idfs, k, "wand", lang, ts_lo, ts_hi, False, after
        )
        return _merge_topk(parts, k)

    def topk_and(
        self, query: str | list[str], k: int = 10, **kw
    ) -> list[tuple[int, float]]:
        """Ranked conjunctive retrieval: BM25 top-k over ONLY the docs
        containing every query term (bool_and semantics + topk ranking
        in one pass — the candidate intersection happens inside each
        bucket before any scoring)."""
        return self.topk(query, k=k, require_all=True, **kw)

    def topk_boosted(
        self,
        boosts: dict[str, float] | list[tuple[str, float]],
        k: int = 10,
        method: str = "wand",
        **filt,
    ) -> list[tuple[int, float]]:
        """Per-term boosted retrieval (the ``term^boost`` query
        operator): each term's idf weight is scaled by its boost before
        scoring.  MaxScore upper bounds are computed from the same scaled
        weight, so pruning stays exact; a zero/negative boost fails loud
        (use bool_and_not for exclusion)."""
        items = sorted(boosts.items() if isinstance(boosts, dict) else boosts)
        for term, boost in items:
            if boost <= 0:
                raise ValueError(
                    f"topk_boosted: boost for {term!r} must be > 0 "
                    "(use bool_and_not to exclude terms)"
                )
        tids, dfs = self.term_dict.lookup([term for term, _ in items])
        idfs = [
            float(self.scorer.idf(df, self.n_docs)) * float(boost)
            for df, (_, boost) in zip(dfs, items)
            if df
        ]
        if not idfs:
            return []
        tids = [t for t, df in zip(tids, dfs) if df]
        parts = self._fanout("topk", tids, idfs, k, method, *self._filt3(filt))
        return _merge_topk(parts, k)

    def topk_synonyms(
        self, groups: list[list[str]], k: int = 10, **filt
    ) -> list[tuple[int, float]]:
        """Synonym-expanded retrieval with Lucene SynonymQuery
        semantics: each group of synonyms scores as ONE pseudo-term —
        per-doc tf is the sum of the member tfs, and the group's idf
        uses the MAX member df (the Lucene docFreq rule, which keeps a
        rare synonym from inflating the group).  Members with no
        postings drop out of their group; a group with no indexed member
        drops out entirely (OR semantics across groups)."""
        group_tids: list[list[int]] = []
        weights: list[float] = []
        for g in groups:
            tids, dfs = self.term_dict.lookup(sorted(set(g)))
            if any(dfs):
                group_tids.append([t for t, df in zip(tids, dfs) if df])
                weights.append(float(self.scorer.idf(max(dfs), self.n_docs)))
        if not group_tids:
            return []
        parts = self._fanout(
            "topk_groups", group_tids, weights, k, *self._filt3(filt)
        )
        return _merge_topk(parts, k)

    @staticmethod
    def _filt3(filt: dict) -> tuple:
        """(lang, ts_lo, ts_hi) positional filters from a kwargs dict,
        rejecting unknown keys loudly."""
        known = {"lang", "ts_lo", "ts_hi"}
        if set(filt) - known:
            raise TypeError(f"unknown filter kwargs: {sorted(set(filt) - known)}")
        return filt.get("lang"), filt.get("ts_lo"), filt.get("ts_hi")

    def bool_or(self, query: str | list[str], **filt) -> np.ndarray:
        terms = self._tokenize(query) if isinstance(query, str) else list(query)
        tids, _ = self.resolve_terms(terms)
        if not tids:
            return np.empty(0, dtype=np.int64)
        parts = self._fanout("bool_or", tids, **filt)
        return np.sort(np.concatenate(parts))

    def bool_and(self, query: str | list[str], **filt) -> np.ndarray:
        terms = self._tokenize(query) if isinstance(query, str) else list(query)
        uniq = sorted(set(terms))
        tids, _ = self.resolve_terms(uniq)
        if len(tids) < len(uniq):  # a term with no postings ⇒ empty AND
            return np.empty(0, dtype=np.int64)
        parts = self._fanout("bool_and", tids, **filt)
        return np.sort(np.concatenate(parts))

    def count(
        self, query: str | list[str], mode: str = "or", **filt
    ) -> int:
        """Total hit count (the Lucene TotalHitCountCollector shape):
        how many docs match the boolean query, WITHOUT shipping ids —
        each salt searcher returns one integer and buckets are disjoint,
        so the answer is a sum.  The id-free form of
        ``bool_or(...).size`` for corpus-scale match sets."""
        if mode not in ("or", "and"):
            raise ValueError("count: mode must be 'or' or 'and'")
        terms = self._tokenize(query) if isinstance(query, str) else list(query)
        uniq = sorted(set(terms))
        tids, _ = self.resolve_terms(uniq)
        if not tids or (mode == "and" and len(tids) < len(uniq)):
            return 0
        return int(
            sum(
                self._fanout(
                    "count_match", tids, mode, *self._filt3(filt)
                )
            )
        )

    def bool_min_match(
        self, query: str | list[str], m: int, **filt
    ) -> np.ndarray:
        """At-least-``m``-of-n boolean retrieval (the Lucene
        ``minimum_should_match`` operator): docs containing at least
        ``m`` DISTINCT query terms — ``m=1`` is exactly ``bool_or``,
        ``m=n`` exactly ``bool_and`` (tested identities).  Unindexed
        terms match nothing and simply cannot contribute to the count
        (Lucene's should-clause rule); fewer indexed terms than ``m``
        is provably empty."""
        terms = self._tokenize(query) if isinstance(query, str) else list(query)
        uniq = sorted(set(terms))
        if m < 1:
            raise ValueError("bool_min_match: m must be >= 1")
        tids, _ = self.resolve_terms(uniq)
        if len(tids) < m:
            return np.empty(0, dtype=np.int64)
        parts = self._fanout("bool_min_match", tids, int(m), **filt)
        return np.sort(np.concatenate(parts))

    def topk_min_match(
        self, query: str | list[str], m: int, k: int = 10, **filt
    ) -> list[tuple[int, float]]:
        """Ranked minimum_should_match: BM25 top-``k`` restricted to
        docs matching at least ``m`` distinct query terms — the way
        Lucene applies msm to a scored boolean query.  Candidates come
        from the counting intersection; the post-scoring mask is the
        ``search()``/``topk_purged`` protocol (exact, bounded by the
        scored candidate count)."""
        terms = self._tokenize(query) if isinstance(query, str) else list(query)
        cand = self.bool_min_match(terms, m, **filt)
        if cand.size == 0:
            return []
        ranked = self.topk(sorted(set(terms)), k=10**9, **filt)
        cset = set(cand.tolist())
        out = [(d, s) for d, s in ranked if d in cset]
        return out[:k]

    def bool_and_not(
        self,
        include: str | list[str],
        exclude: str | list[str],
        **filt,
    ) -> np.ndarray:
        """Negated boolean retrieval: docs containing every ``include``
        term and NONE of the ``exclude`` terms.  Exclusion happens
        bucket-locally inside each salt searcher (doc ids are
        salt-partitioned, so the subtraction never leaves the bucket);
        exclude terms with no postings are no-ops, an include term with
        no postings empties the result (AND semantics)."""
        inc = self._tokenize(include) if isinstance(include, str) else list(include)
        exc = self._tokenize(exclude) if isinstance(exclude, str) else list(exclude)
        uniq = sorted(set(inc))
        tids, _ = self.resolve_terms(uniq)
        if len(tids) < len(uniq):
            return np.empty(0, dtype=np.int64)
        exc_tids, _ = self.resolve_terms(sorted(set(exc)))
        parts = self._fanout("bool_and_not", tids, exc_tids, **filt)
        return np.sort(np.concatenate(parts))

    def resolve(self, doc_ids) -> pd.DataFrame:
        """Hydrate doc ids → (doc_id, url, lang, doclen) rows sorted by
        doc_id (result resolution, the analog of
        TrajectoryResolver.resolveRet, Torch/queryEngine/query/
        TrajectoryResolver.java:151-223).  Duplicates collapse; unknown
        and tombstoned ids don't resolve.  Each live id is routed to its
        salt bucket's resident :class:`_DocStore` (about 61 B/doc, read
        at open) and taken from it — no file I/O per call.  Under
        ``load_mode="lazy"`` one small store is read per call instead,
        with a ``doc_id`` pushdown of just these ids."""
        parts = [st.take(ids) for st, ids in self._stores(self._live(doc_ids))]
        return pa.concat_tables(parts).to_pandas()

    def term_vector(self, doc_ids) -> pd.DataFrame:
        """Per-document term vectors WITH positions (the Lucene
        ``Fields/TermVectors`` API shape): ``(doc_id, term, pos)`` rows
        in position order, from ONE predicate-pushdown read of the
        requested docs re-tokenized with the build's tokenizer — cost
        bounded by the requested ids, never corpus size.  Aggregate
        ``tf`` is ``groupby(term).size()`` on the result; deleted docs
        don't resolve (same rule as :meth:`resolve`)."""
        t = _read_texts(self.docs_paths, self._live(doc_ids))
        out_ids, out_terms, out_pos = [], [], []
        for d, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = self._tokenize(text)
            out_ids.extend([int(d)] * len(toks))
            out_terms.extend(toks)
            out_pos.extend(range(len(toks)))
        return (
            pd.DataFrame(
                {"doc_id": out_ids, "term": out_terms, "pos": out_pos}
            )
            .astype({"doc_id": "int64", "pos": "int64"})
            .sort_values(["doc_id", "pos"])
            .reset_index(drop=True)
        )

    def find_in_range(
        self,
        ts_lo: int | None = None,
        ts_hi: int | None = None,
        lang: str | None = None,
        doclen_lo: int | None = None,
        doclen_hi: int | None = None,
    ) -> np.ndarray:
        """Terms-free metadata range query: all live doc ids whose
        warc_ts / lang / doclen fall in the given window, sorted — no
        posting probe at all (the analog of the reference's pure range
        search, Torch/base/spatialIndex/LEVI.java:73-92 findInRange and
        queryEngine/query/WindowQuery.java:21-31).

        The predicate is :meth:`_range_filter`, the one
        :meth:`find_in_range_ds` (the distributed bulk form for
        10^12-doc scans) pushes into its read.  In memory mode it
        filters each resident :class:`_DocStore` table, with no file
        I/O; under ``load_mode="lazy"`` it is pushed into one scan of
        the manifest's docs shards, where row-group statistics prune doc
        ranges.  Timestamps are int64 microseconds (same unit as
        ``topk``'s ts filters)."""
        f = self._range_filter(ts_lo, ts_hi, lang, doclen_lo, doclen_hi)
        if self._docs is None:
            tables = [
                pads.dataset(self.docs_paths, format="parquet").to_table(
                    columns=["doc_id"], filter=f
                )
            ]
        else:
            tables = [st.table if f is None else st.table.filter(f) for st in self._docs]
        ids = [t["doc_id"].to_numpy() for t in tables]
        return np.sort(np.concatenate(ids).astype(np.int64))

    def _range_filter(self, ts_lo, ts_hi, lang, doclen_lo, doclen_hi):
        """One pyarrow dataset filter expression shared by the serving
        and the distributed range scans so their semantics cannot
        diverge (None for no predicate).  Tombstoned docs are excluded
        here too, so the terms-free paths agree with the posting
        paths."""
        f = None

        def conj(a, b):
            return b if a is None else a & b

        if self._deleted_all.size:
            f = conj(
                f,
                ~pads.field("doc_id").isin(
                    pa.array(self._deleted_all, pa.int64())
                ),
            )
        if ts_lo is not None:
            f = conj(f, pads.field("warc_ts") >= pa.scalar(
                int(ts_lo), pa.timestamp("us")))
        if ts_hi is not None:
            f = conj(f, pads.field("warc_ts") <= pa.scalar(
                int(ts_hi), pa.timestamp("us")))
        if lang is not None:
            f = conj(f, pads.field("lang") == lang)
        if doclen_lo is not None:
            f = conj(f, pads.field("doclen") >= int(doclen_lo))
        if doclen_hi is not None:
            f = conj(f, pads.field("doclen") <= int(doclen_hi))
        return f

    def find_in_range_ds(
        self,
        ts_lo: int | None = None,
        ts_hi: int | None = None,
        lang: str | None = None,
        doclen_lo: int | None = None,
        doclen_hi: int | None = None,
        columns: list[str] | None = None,
    ):
        """Distributed BULK form of :meth:`find_in_range`: the same
        predicate pushed into ``ray.data.read_parquet`` over the
        manifest's forward-index shards, returned as a streaming
        ``Dataset`` (never materialized on the driver) — consume with
        ``write_parquet`` / ``iter_batches`` / an aggregate.  Row-group
        statistics prune IO inside each read task exactly as in the
        serving path."""
        import ray.data

        return ray.data.read_parquet(
            self.docs_paths,
            columns=columns or ["doc_id"],
            filter=self._range_filter(ts_lo, ts_hi, lang, doclen_lo, doclen_hi),
        )

    def phrase_and(
        self,
        terms: list[str],
        *,
        distribute_over: int = 4096,
        max_candidates: int = 5_000_000,
        **filt,
    ) -> np.ndarray:
        """EXACT phrase matching on any index, repeated terms and matches
        at later occurrences included — which the reference, storing one
        position per (term, doc) (InvertedIndex.java:23-25), cannot
        verify.  The route follows the index (:meth:`_verify`):

        - ``store_positions=True``: index-only.  Every salt searcher
          verifies its own docs from the positions in its decoded
          postings (``SaltSearcher.phrase_pos``); no docs shard is read,
          and ``distribute_over`` / ``max_candidates`` do not apply.
        - otherwise: candidates are the boolean AND of the phrase's
          unique terms, each VERIFIED against the forward index — a
          pushdown read of only the candidate docs, re-tokenized with
          the build's tokenizer, sliding-window equality per doc.  Up to
          ``distribute_over`` candidates verify on the driver; larger
          sets fan out as chunked ``map_batches`` tasks, each doing its
          OWN pushdown read of its chunk (the ``dedup._VerifyPairsTask``
          shape), so candidate texts never reach the driver.  An AND
          larger than ``max_candidates`` (a stopword phrase) fails loud
          instead of grinding a corpus-sized verification."""
        return self._verify(
            terms, None, False, distribute_over, max_candidates, filt
        )

    def near_and(
        self,
        terms: list[str],
        window: int,
        *,
        distribute_over: int = 4096,
        max_candidates: int = 5_000_000,
        **filt,
    ) -> np.ndarray:
        """Unordered proximity (NEAR/WITHIN): docs where every unique
        query term occurs inside some span of ≤ ``window`` consecutive
        tokens, any order.  Routed like :meth:`phrase_and` — from the
        postings' positions (``SaltSearcher.near_pos``; ``distribute_over``
        / ``max_candidates`` do not apply) or by forward-index
        verification (two-pointer minimal cover per doc).
        ``phrase_and(t)`` ⊆ ``near_and(t, len(t))`` always; equality
        when terms are distinct and order-free."""
        n = len(set(terms))
        if window < n:
            raise ValueError(
                f"near_and: window={window} can never cover {n} distinct "
                f"terms (positions are distinct); use window >= {n}"
            )
        return self._verify(
            terms, window, False, distribute_over, max_candidates, filt
        )

    def span_near(
        self,
        terms: list[str],
        window: int,
        *,
        distribute_over: int = 4096,
        max_candidates: int = 5_000_000,
        **filt,
    ) -> np.ndarray:
        """ORDERED proximity (span-near in-order, the Lucene SpanNear
        inOrder=true shape): docs where the query terms appear in the
        given order at strictly increasing positions inside a span of
        ≤ ``window`` tokens.  A repeated query term needs distinct
        occurrences.  Routed like :meth:`phrase_and` — from the postings'
        positions (``SaltSearcher.span_pos``; ``distribute_over`` /
        ``max_candidates`` do not apply) or by forward-index
        verification.  ``phrase_and(t) == span_near(t, len(t))`` when
        every in-window ordered placement is consecutive, and
        ``span_near(t, w)`` ⊆ ``near_and(t, w)`` always."""
        if window < len(terms):
            raise ValueError(
                f"span_near: window={window} can never hold "
                f"{len(terms)} in-order occurrences (positions are "
                f"strictly increasing); use window >= {len(terms)}"
            )
        return self._verify(
            terms, window, True, distribute_over, max_candidates, filt
        )

    def _verify(
        self,
        terms: list[str],
        window: int | None,
        ordered: bool,
        distribute_over: int,
        max_candidates: int,
        filt: dict,
    ) -> np.ndarray:
        """The shared tail of :meth:`phrase_and`, :meth:`near_and` and
        :meth:`span_near`: no terms, or an unindexed term, match nothing;
        an index with positions answers from them (:meth:`_pos_match`);
        otherwise the candidates are the AND of the unique terms, more
        than ``max_candidates`` of them (a stopword query) fail loud, up
        to ``distribute_over`` verify on the driver and more fan out as
        chunked tasks.  ``window`` / ``ordered`` as in
        :func:`_verify_docs`."""
        uniq = list(dict.fromkeys(terms))
        tids = [term_hash(t) for t in uniq]
        if not uniq or not self._term_indexed(tids).all():
            return np.empty(0, dtype=np.int64)
        if self._positions:
            return self._pos_match(terms, window, ordered, filt)
        cand = self.bool_and(uniq, **filt)
        if cand.size == 0:
            return cand
        if cand.size > max_candidates:
            kind = "phrase" if window is None else "span" if ordered else "proximity"
            raise ValueError(
                f"{kind} candidate set ({cand.size} docs) exceeds "
                f"max_candidates={max_candidates}: the unique terms are so "
                "common the AND is a large fraction of the corpus (stopword "
                "query). Add a rarer term, filter first, or raise "
                "max_candidates if a corpus-scale verification is intended."
            )
        if cand.size <= distribute_over:
            return _verify_docs(
                self.docs_paths, cand, terms, window, ordered, self._tokenize
            )
        return self._verify_phrase_distributed(cand, terms, window, ordered)

    def _pos_match(
        self, terms: list[str], window: int | None, ordered: bool, filt: dict
    ) -> np.ndarray:
        """The positional route (``store_positions=True`` indexes): the
        Lucene layout keeps every occurrence position in the posting
        list, so each salt searcher verifies its own doc range from its
        own decoded postings — no forward-index read, no
        re-tokenization.  The searchers' verifiers re-express the
        functions/proximity.py kernels vectorized across all candidate
        docs (identity fuzz- and oracle-gated against the text route)."""
        tids = [term_hash(t) for t in terms]
        if window is None:
            parts = self._fanout("phrase_pos", tids, *self._filt3(filt))
        else:
            method = "span_pos" if ordered else "near_pos"
            parts = self._fanout(method, tids, window, *self._filt3(filt))
        return np.sort(np.concatenate(parts))

    def _term_indexed(self, tids) -> np.ndarray:
        """EXPLICIT dictionary membership of each term_id.  A present row
        must carry df ≥ 1: a df-0 dictionary entry is index corruption
        (the build never writes one; compaction rewrites the
        dictionary), so it fails loud instead of being silently
        conflated with an unindexed term (``resolve_terms`` skips it)."""
        rows = self.term_dict.rows(tids)
        present = rows >= 0
        bad = rows[present][self.term_dict.df[rows[present]] < 1]
        if bad.size:
            tid, df = self.term_dict.ids[bad[0]], self.term_dict.df[bad[0]]
            raise ValueError(
                f"dictionary row for term_id {tid} has df={df}; the "
                "dictionary and postings disagree — run check_index"
            )
        return present

    def _verify_phrase_distributed(
        self, cand: np.ndarray, terms: list[str], window: int | None, ordered: bool
    ) -> np.ndarray:
        """Chunk the candidate ids driver-side (they're just int64s — the
        TEXTS never reach the driver), fan the chunks out, concatenate
        the verified ids."""
        import ray.data

        ids = pd.DataFrame({"doc_id": np.sort(cand.astype(np.int64))})
        n_parts = int(max(1, min(64, -(-len(ids) // 1024))))
        step = -(-len(ids) // n_parts)
        chunks = [ids.iloc[i : i + step] for i in range(0, len(ids), step)]
        out = (
            ray.data.from_pandas(chunks)
            .map_batches(
                _PhraseVerifyTask(
                    self.docs_paths, terms, self._tokenizer_name, window,
                    ordered,
                ),
                batch_format="pandas",
                batch_size=None,
            )
            .to_pandas()
        )
        return np.sort(out["doc_id"].to_numpy().astype(np.int64))

    def topk_page(
        self, query: str | list[str], k: int = 10, page: int = 0, **kw
    ) -> list[tuple[int, float]]:
        """Offset pagination: page ``page`` (0-based) of the (score desc,
        doc_id asc) ranking, ``k`` results per page.  Computed as the
        global top-(page+1)·k then sliced — exact at any depth, with the
        standard deep-paging cost of O((page+1)·k) per bucket (the same
        trade Lucene/ES make for offset windows; results are
        deterministic, so consecutive pages never overlap or skip)."""
        if page < 0:
            raise ValueError("topk_page: page must be >= 0")
        full = self.topk(query, k=(page + 1) * k, **kw)
        return full[page * k :]

    def _scan_index(self) -> DictScanIndex:
        """Lazy term-sorted view of the dictionary for pattern scans
        (state/dictscan.py); built once per engine open from the
        ``term`` column, amortized over every regex / wildcard / prefix /
        suggest / fuzzy query (its trigram postings on first use)."""
        if self._dictscan is None:
            self._dictscan = DictScanIndex(self.term_dict.term)
        return self._dictscan

    def _regex_terms_scan(self, pattern: str) -> list[str]:
        """The naive full dictionary scan — the identity baseline the
        accelerated path is tested against (and nothing else calls)."""
        import re

        rx = re.compile(pattern)
        terms = self.term_dict.term.to_pylist()
        return sorted(t for t in terms if rx.fullmatch(t))

    def regex_terms(self, pattern: str) -> list[str]:
        """Dictionary scan by regular expression (FULL match), term-
        ascending — the generalization of ``prefix_terms`` (same
        NameEdgeIdLookup shape with a compiled-pattern comparator).
        Sub-linear: required literals extracted from the pattern prune
        candidates via the trigram index / prefix bisect (LOSSLESS —
        every candidate is still verified by the compiled pattern;
        unanalyzable patterns full-scan), state/dictscan.py."""
        import re

        from torchtrajectory_ray.state.dictscan import analyze_regex

        rx = re.compile(pattern)
        return self._scan_index().scan_regex(rx, analyze_regex(pattern))

    def regex_or(self, pattern: str, **filt) -> np.ndarray:
        """OR query over every dictionary term fully matching ``pattern``."""
        terms = self.regex_terms(pattern)
        if not terms:
            return np.empty(0, dtype=np.int64)
        return self.bool_or(terms, **filt)

    def wildcard_terms(self, pattern: str) -> list[str]:
        """Dictionary scan by shell-style wildcard (``*`` / ``?`` — the
        Lucene WildcardQuery analog of ``regex_terms``), term-ascending.
        The glob is translated once (``functions/text.py:glob_to_regex``,
        shared verbatim with the SQL oracle) for verification, while the
        candidate pruning analyzes the GLOB itself (its literal runs are
        exact by construction — state/dictscan.py:analyze_glob)."""
        import re

        from torchtrajectory_ray.functions.text import glob_to_regex
        from torchtrajectory_ray.state.dictscan import analyze_glob

        rx = re.compile(glob_to_regex(pattern))
        return self._scan_index().scan_regex(rx, analyze_glob(pattern))

    def wildcard_or(self, pattern: str, **filt) -> np.ndarray:
        """OR query over every dictionary term matching the wildcard."""
        terms = self.wildcard_terms(pattern)
        if not terms:
            return np.empty(0, dtype=np.int64)
        return self.bool_or(terms, **filt)

    def prefix_terms(self, prefix: str) -> list[str]:
        """Dictionary scan: all terms starting with ``prefix`` (the
        street-name→edge-ids dictionary lookup shape, Torch/base/db/
        NameEdgeIdLookup.java:17-27 used by PathQuery.java:74-87).
        One bisect range over the sorted dictionary — O(log V + hits),
        the Lucene TermsEnum.seekCeil shape (state/dictscan.py)."""
        return self._scan_index().scan_prefix(prefix)

    def prefix_or(self, prefix: str, **filt) -> np.ndarray:
        """OR query over every term matching a dictionary prefix."""
        terms = self.prefix_terms(prefix)
        if not terms:
            return np.empty(0, dtype=np.int64)
        return self.bool_or(terms, **filt)

    def suggest(self, prefix: str, n: int = 10) -> pd.DataFrame:
        """Autocomplete: the top-``n`` dictionary completions of
        ``prefix`` ranked by document frequency — ``(term, df)`` rows in
        (df desc, term asc) order.  The search-box type-ahead built on
        the same dictionary scan as ``prefix_terms``
        (NameEdgeIdLookup.java:17-27) plus the df payload the dictionary
        already carries; no posting list is touched."""
        scan = self._scan_index()
        lo, hi = scan.prefix_range(prefix)  # term-ascending
        df = self.term_dict.df[scan.order[lo:hi]]
        # stable sort on -df keeps the term-ascending order within ties
        order = np.argsort(-df, kind="stable")[:n]
        return pd.DataFrame(
            {
                "term": pd.array(scan.terms_arr[lo:hi][order], dtype=object),
                "df": df[order],
            }
        )

    def collapse_topk(
        self, query: str | list[str], k: int = 10, **filt
    ) -> pd.DataFrame:
        """Field collapsing (the search-result diversity operator): the
        top-``k`` (lang, doc_id, score) rows where each lang group is
        represented by its single best-scoring doc, groups ranked by
        that doc's score.  Each salt searcher collapses its own bucket
        exhaustively and ships ONE row per group value — the driver
        merge is O(#groups × #buckets), never candidate-sized.  Scores
        are 6-dp rounded before every selection (the float-stable gate
        protocol)."""
        terms = self._tokenize(query) if isinstance(query, str) else list(query)
        tids, idfs = self.resolve_terms(terms)
        cols = ["lang", "doc_id", "score"]
        if not tids:
            return pd.DataFrame(columns=cols)
        parts = self._fanout("collapse_topk", tids, idfs, **filt)
        best: dict[str, tuple[float, int]] = {}
        for gs, ids, scores in parts:
            for g, d, s in zip(gs, ids, scores):
                cand = (float(s), -int(d))
                cur = best.get(g)
                if cur is None or cand > cur:
                    best[g] = cand
        rows = [(g, -nd, s) for g, (s, nd) in best.items()]
        rows.sort(key=lambda r: (-r[2], r[1]))
        out = pd.DataFrame(rows[:k], columns=cols)
        return out.astype({"doc_id": np.int64, "score": np.float64})

    def more_like_this(
        self, doc_id: int, k: int = 10, n_terms: int = 5, **filt
    ) -> list[tuple[int, float]]:
        """Doc-to-doc retrieval (the Lucene MoreLikeThis shape): one
        predicate-pushdown read of the seed doc's text from the forward
        index, select its ``n_terms`` most distinctive terms by
        ``tf · ln(1 + N/df)`` (6-dp rounded, term-ascending ties), then
        the ordinary BM25 top-k over those terms with the seed itself
        excluded.  The query-by-example analog of the reference's
        trajectory-similarity search (a result trajectory re-submitted
        as the query, Engine.java findTopK over a mapped trajectory) —
        here the 'mapping' is term selection from the seed document."""
        t = _read_texts(self.docs_paths, [int(doc_id)])
        if t.num_rows == 0:
            raise KeyError(f"more_like_this: doc {doc_id} not in the index")
        toks = self._tokenize(t["text"][0].as_py())
        if not toks:
            return []
        terms, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        _, dfs = self.term_dict.lookup(terms)
        weighted = []
        for term, tf, df in zip(terms, counts, dfs):
            if df:  # unindexed seed terms drop out, like resolve_terms
                w = round(float(tf) * float(np.log(1.0 + self.n_docs / df)), 6)
                weighted.append((w, term))
        weighted.sort(key=lambda p: (-p[0], p[1]))
        qterms = [term for _, term in weighted[:n_terms]]
        if not qterms:
            return []
        res = self.topk(qterms, k=k + 1, **filt)
        return [(d, s) for d, s in res if d != int(doc_id)][:k]

    def prf_topk(
        self,
        query: str | list[str],
        k: int = 10,
        r: int = 3,
        e: int = 2,
        beta: float = 0.5,
        **filt,
    ) -> list[tuple[int, float]]:
        """Pseudo-relevance-feedback retrieval (the Rocchio shape,
        Rocchio 1971 / Lucene QueryRelevanceFeedback): run the base BM25
        query, treat its top-``r`` docs as relevant, expand the query
        with the ``e`` most frequent NEW terms of that feedback set
        (total tf across the feedback docs — integer weights, so term
        selection is exactly reproducible), then re-score with the
        boosted scorer: original terms at boost 1.0, expansion terms at
        ``beta``.  Feedback docs are chosen under the 6-dp-rounded
        (score desc, doc_id asc) gate protocol so the SQL oracle selects
        the same set; the feedback texts come from ONE predicate-pushdown
        forward-index read of r docs (the ``more_like_this`` read shape
        — never a corpus scan)."""
        terms = self._tokenize(query) if isinstance(query, str) else list(query)
        base = self.topk(terms, k=r + 10, **filt)
        ranked = sorted(
            ((round(float(s), 6), -int(d)) for d, s in base), reverse=True
        )
        fb_ids = [-nd for _, nd in ranked[:r]]
        if not fb_ids:
            return []
        import collections

        counts: collections.Counter = collections.Counter()
        for txt in _read_texts(self.docs_paths, fb_ids)["text"].to_pylist():
            counts.update(self._tokenize(txt))
        orig = set(terms)
        new = [term for term in counts if term not in orig]
        indexed = self._term_indexed([term_hash(t) for t in new])
        cand = [(int(counts[t]), t) for t, ok in zip(new, indexed) if ok]
        cand.sort(key=lambda p: (-p[0], p[1]))
        boosts = [(term, 1.0) for term in sorted(orig)] + [
            (term, float(beta)) for _, term in cand[:e]
        ]
        return self.topk_boosted(boosts, k=k, **filt)

    def fuzzy_terms(self, term: str, max_edits: int = 1) -> pd.DataFrame:
        """Did-you-mean dictionary probe: ``(term, df)`` rows for every
        dictionary term within Levenshtein distance ``max_edits`` of
        ``term`` (1 or 2 — Lucene's FuzzyQuery cap), term-ascending.
        Vectorized length-grouped scan (`functions/fuzzy.py`) over the
        term-sorted arrays of the scan index ``prefix_terms`` uses — the
        NameEdgeIdLookup shape with an approximate comparator; df comes
        from the columnar dictionary.  k=1 keeps the closed-form
        split-point kernel; k=2 runs the min-plus-scan DP
        (``editk_mask``), both behind the same lossless q-gram prune
        (a query too short for the q-gram bound scans every term)."""
        if max_edits not in (1, 2):
            raise ValueError("max_edits must be 1 or 2")
        from torchtrajectory_ray.functions.fuzzy import edit1_mask, editk_mask

        scan = self._scan_index()
        # q-gram filter (dictscan.py): sub-linear, verified by the SAME
        # edit kernel — lossless.  A short query has no q-gram bound and
        # scans every term, so it never builds the trigram postings.
        # Ordinals ascend, so the hits come out term-ascending.
        cand = scan.fuzzy_candidates(term, k=max_edits)
        arr, lens = scan.terms_arr, scan.lens_arr
        if cand is not None:
            arr, lens = arr[cand], lens[cand]
        if max_edits == 1:
            hit = edit1_mask(term, arr, lens)
        else:
            hit = editk_mask(term, arr, max_edits, lens)
        hits = np.flatnonzero(hit) if cand is None else cand[hit]
        return pd.DataFrame(
            {
                "term": pd.array(scan.terms_arr[hits], dtype=object),
                "df": self.term_dict.df[scan.order[hits]],
            }
        )

    def fuzzy_or(self, term: str, max_edits: int = 1, **filt) -> np.ndarray:
        """OR query over every dictionary term within ``max_edits``."""
        terms = self.fuzzy_terms(term, max_edits=max_edits)["term"].tolist()
        if not terms:
            return np.empty(0, dtype=np.int64)
        return self.bool_or(terms, **filt)

    def topk_corrected(
        self, query: str | list[str], k: int = 10, max_edits: int = 1, **filt
    ) -> tuple[list[str], list[tuple[int, float]]]:
        """Spell-corrected retrieval (the Lucene DirectSpellChecker →
        re-query shape): each query term NOT in the dictionary is
        replaced by its best edit-distance-1 dictionary correction
        (highest df, term-ascending ties — the did-you-mean rule of
        ``suggest``); uncorrectable terms drop (the unindexed-term
        rule).  ``max_edits=2`` escalates PER TERM the way
        DirectSpellChecker widens maxEdits: the edit-2 dictionary scan
        runs only for terms with NO edit-1 candidate, so a closer
        correction always beats a higher-df farther one (distance
        outranks df — the suggest ordering).  The corrected term SET
        (sorted, deduped — two typos may correct to one term) feeds the
        ordinary BM25 top-k.  Returns ``(corrected_terms, results)`` so
        callers can surface the rewrite."""
        if max_edits not in (1, 2):
            raise ValueError("max_edits must be 1 or 2")
        terms = self._tokenize(query) if isinstance(query, str) else list(query)
        indexed = self._term_indexed([term_hash(t) for t in terms])
        corrected: set[str] = set()
        for t, ok in zip(terms, indexed):
            if ok:
                corrected.add(t)
                continue
            hits = self.fuzzy_terms(t)
            if not len(hits) and max_edits == 2:
                hits = self.fuzzy_terms(t, max_edits=2)
            if len(hits):
                best = hits.sort_values(
                    ["df", "term"], ascending=[False, True], kind="mergesort"
                ).iloc[0]["term"]
                corrected.add(str(best))
        out = sorted(corrected)
        return out, (self.topk(out, k=k, **filt) if out else [])

    def facet_counts(
        self,
        query: str | list[str],
        facet_col: str = "lang",
        mode: str = "or",
        bucket_width: int | None = None,
        **filt,
    ) -> pd.DataFrame:
        """Faceted-search counts: docs matching ``query`` (OR/AND)
        grouped by a forward-index column — ``(facet_col, n_docs)``,
        facet-ascending, nulls excluded.  ``bucket_width`` (numeric
        facets only) turns the facet into a RANGE facet — the Lucene
        LongRangeFacetCounts shape: each value is floored to its
        ``width``-sized bucket's lower bound before counting.

        The column comes from the doc stores (:meth:`_stores`): the
        resident ones in memory mode, with no file I/O; one ``doc_id``
        pushdown read of the match set under ``load_mode="lazy"``."""
        if facet_col not in ("lang", "doclen"):
            raise ValueError("facet_col must be a forward-index metadata column")
        if bucket_width is not None and facet_col != "doclen":
            raise ValueError("bucket_width applies to numeric facets only")
        if bucket_width is not None and bucket_width < 1:
            raise ValueError("bucket_width must be >= 1")
        ids = (
            self.bool_or(query, **filt)
            if mode == "or"
            else self.bool_and(query, **filt)
        )
        if len(ids) == 0:
            return pd.DataFrame({facet_col: [], "n_docs": []})
        vals = pd.Series(
            np.concatenate(
                [st.values(facet_col, sub) for st, sub in self._stores(ids)]
            )
        )
        if bucket_width is not None:
            vals = (vals // bucket_width) * bucket_width
        vc = vals.value_counts(dropna=True)
        return (
            pd.DataFrame({facet_col: vc.index, "n_docs": vc.to_numpy()})
            .astype({"n_docs": np.int64})
            .sort_values(facet_col, kind="mergesort")
            .reset_index(drop=True)
        )

    def significant_terms(
        self,
        query: str | list[str],
        n: int = 15,
        min_fg: int = 3,
        max_candidates: int = 65536,
        **filt,
    ) -> pd.DataFrame:
        """Significant-terms aggregation (the Elasticsearch
        significant_terms shape): terms over-represented in the query's
        match set vs the whole corpus — ``(term, fg_df, df, lift)``,
        top ``n`` by (lift desc, term asc), where ``fg_df`` is the
        term's document frequency INSIDE the match set, ``df`` its
        corpus df (straight from the dictionary — no second corpus
        pass), and ``lift = (fg_df / n_fg) / (df / N)``.  ``min_fg``
        suppresses one-off noise terms.

        Match sets up to ``max_candidates`` verify through one
        pushdown read; larger sets use the distributed membership scan
        with PER-BLOCK partial (term, fg_df) counts — only vocabulary-
        sized partials reach the driver fold, never documents."""
        if n < 1 or min_fg < 1:
            raise ValueError("significant_terms: n and min_fg must be >= 1")
        ids = self.bool_or(query, **filt)
        if len(ids) == 0:
            return pd.DataFrame(
                {"term": [], "fg_df": [], "df": [], "lift": []}
            )

        if len(ids) <= max_candidates:
            texts = _read_texts(self.docs_paths, ids)["text"].to_pylist()
            fg = _distinct_term_doc_counts(texts, self._tokenize)
        else:
            import ray
            import ray.data

            ref = ray.put(np.sort(np.asarray(ids, np.int64)))
            tok_name = self._tokenizer_name

            def part(batch: pa.Table) -> pa.Table:
                from torchtrajectory_ray.functions.text import get_tokenizer

                tok = get_tokenizer(tok_name)
                wanted = ray.get(ref)
                d = batch["doc_id"].to_numpy().astype(np.int64)
                pos = np.searchsorted(wanted, d)
                pos[pos == len(wanted)] = 0
                texts = pd.Series(batch["text"].to_pylist())[wanted[pos] == d]
                vc = _distinct_term_doc_counts(texts.tolist(), tok)
                return pa.table(
                    {
                        "term": pa.array(vc.index.tolist(), pa.string()),
                        "n": pa.array(vc.to_numpy().astype(np.int64)),
                    }
                )

            parts = (
                ray.data.read_parquet(
                    self.docs_paths, columns=["doc_id", "text"]
                )
                .map_batches(part, batch_format="pyarrow")
                .to_pandas()  # vocabulary-sized partials per block
            )
            fg = parts.groupby("term")["n"].sum()

        fg = fg[fg >= min_fg]
        if fg.empty:
            return pd.DataFrame(
                {"term": [], "fg_df": [], "df": [], "lift": []}
            )
        n_fg, N = float(len(ids)), float(self.n_docs)
        _, dfs = self.term_dict.lookup(fg.index.tolist())
        rows = []
        for (term, fg_df), df in zip(fg.items(), dfs):
            if not df:
                continue  # not an indexed term (can't happen for in-doc terms)
            rows.append(
                (
                    term,
                    int(fg_df),
                    int(df),
                    (float(fg_df) / n_fg) / (float(df) / N),
                )
            )
        out = pd.DataFrame(rows, columns=["term", "fg_df", "df", "lift"])
        out["lift"] = out["lift"].round(6)
        return (
            out.sort_values(
                ["lift", "term"], ascending=[False, True], kind="mergesort"
            )
            .head(n)
            .reset_index(drop=True)
        )

    def sort_by(
        self,
        query: str | list[str],
        field: str = "doclen",
        k: int = 10,
        descending: bool = True,
        mode: str = "or",
        **filt,
    ) -> pd.DataFrame:
        """Sort-by-field retrieval (the Lucene ``Sort`` shape): the
        top-``k`` docs matching ``query`` ordered by a forward-index
        metadata column instead of relevance — ``(rank, doc_id,
        field)``, ties broken doc_id-ascending.  The column comes from
        the doc stores, as in :meth:`facet_counts`."""
        if field not in ("lang", "doclen"):
            raise ValueError("field must be a forward-index metadata column")
        ids = (
            self.bool_or(query, **filt)
            if mode == "or"
            else self.bool_and(query, **filt)
        )
        if len(ids) == 0:
            return pd.DataFrame(columns=["rank", "doc_id", field])
        vals = np.concatenate([st.values(field, sub) for st, sub in self._stores(ids)])
        top = (
            pd.DataFrame({"doc_id": ids, field: vals})
            .sort_values(
                [field, "doc_id"], ascending=[not descending, True], kind="mergesort"
            )
            .head(k)
            .reset_index(drop=True)
        )
        top.insert(0, "rank", np.arange(1, len(top) + 1, dtype=np.int64))
        return top.astype({"doc_id": np.int64})

    def search_with_snippets(
        self,
        queries: list[dict],
        k: int = 10,
        window: int = 3,
        method: str = "wand",
    ) -> pd.DataFrame:
        """Top-k with result highlighting: ``(query_id, rank, doc_id,
        snippet)`` where the snippet is the ``window``-token context
        around the FIRST occurrence of any query term (tokenized with
        the index's own tokenizer).  Hydration is one pushdown read of
        the unique hit ids — cost bounded by k × len(queries), never
        corpus size."""
        top = self.batch_topk(queries, k=k, method=method)
        cols = ["query_id", "rank", "doc_id", "snippet"]
        if top.empty:
            return pd.DataFrame(columns=cols)

        t = _read_texts(self.docs_paths, sorted(set(top["doc_id"].tolist())))
        texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
        terms_by_qid = {q["query_id"]: set(q["terms"]) for q in queries}
        snips = []
        for qid, did in zip(top["query_id"], top["doc_id"]):
            toks = self._tokenize(texts[int(did)])
            qt = terms_by_qid[qid]
            p = next((i for i, tok in enumerate(toks) if tok in qt), None)
            snips.append(
                ""
                if p is None
                else " ".join(toks[max(0, p - window) : p + window + 1])
            )
        out = top[["query_id", "rank", "doc_id"]].copy()
        out["snippet"] = snips
        return out

    def batch_topk(
        self, queries: list[dict], k: int = 10, method: str = "wand"
    ) -> pd.DataFrame:
        """Evaluate many queries → DataFrame(query_id, rank, doc_id, score).
        Rank is 1-based in (score desc, doc_id asc) order."""
        rows = []
        for q in queries:
            res = self.topk(
                q["terms"],
                k=k,
                method=method,
                lang=q.get("lang"),
                ts_lo=q.get("ts_lo"),
                ts_hi=q.get("ts_hi"),
            )
            for r, (d, s) in enumerate(res, 1):
                rows.append((q["query_id"], r, d, s))
        return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])

    def search(
        self, query: str, k: int = 10, **extra_filt
    ) -> list[tuple[int, float]]:
        """Search-box front door: parse the mini-language (quoted
        phrases, ``+must``, ``-not``, bare scoring terms, ``lang:xx``)
        and compose the engine's verified operators —

        - candidates = ∩ of every phrase match and the ``+term`` AND,
          minus the ``-term`` OR;
        - ranking = BM25 over ALL positive terms (phrase tokens + musts
          + bare terms), cut to k after the candidate mask.

        The mask applies post-scoring (exact; a serving-scale engine
        would push the id set into MaxScore — the mask is bounded by the
        scored candidate count, the same cost shape as ``topk_purged``'s
        protocol).  Only-negative or empty queries fail loud."""
        from torchtrajectory_ray.functions.querylang import parse_query

        pq_ = parse_query(query, self._tokenize)
        filt = dict(extra_filt)
        if "lang" in pq_.filters:
            filt["lang"] = pq_.filters["lang"]
        restrict: np.ndarray | None = None

        def inter(a, b):
            return b if a is None else np.intersect1d(a, b)

        for ph in pq_.phrases:
            restrict = inter(restrict, self.phrase_and(ph, **filt))
            if restrict.size == 0:
                return []
        # "..."~N proximity clauses: ordered span, window = len + slop
        for toks, slop in pq_.prox:
            restrict = inter(
                restrict, self.span_near(toks, len(toks) + slop, **filt)
            )
            if restrict.size == 0:
                return []
        if pq_.must:
            restrict = inter(restrict, self.bool_and(pq_.must, **filt))
            if restrict.size == 0:
                return []
        exclude = (
            self.bool_or(pq_.must_not) if pq_.must_not else None
        )
        score_terms = list(
            dict.fromkeys(
                [t for ph in pq_.phrases for t in ph]
                + [t for toks, _ in pq_.prox for t in toks]
                + pq_.must
                + pq_.should
            )
        )
        if pq_.fuzzy or pq_.wildcards:
            # multi-term clauses rewrite to synonym groups (the Lucene
            # SynonymQuery rewrite): plain terms score as singleton
            # groups (tested identical to the plain path), each ~fuzzy /
            # wildcard expansion as ONE group; empty expansions drop
            groups: list[list[str]] = [[t] for t in score_terms]
            for f in pq_.fuzzy:
                groups.append(self.fuzzy_terms(f)["term"].tolist())
            for w in pq_.wildcards:
                groups.append(self.wildcard_terms(w))
            groups = [g for g in groups if g]
            if not groups:
                return []
            ranked = self.topk_synonyms(groups, k=10**9, **filt)
        elif pq_.boosts:
            # ^boost terms route through the boosted scorer (unit boosts
            # are bit-identical to the plain path — tested identity)
            ranked = self.topk_boosted(
                [(t, pq_.boosts.get(t, 1.0)) for t in score_terms],
                k=10**9,
                **filt,
            )
        else:
            ranked = self.topk(score_terms, k=10**9, **filt)
        out = []
        rset = set(restrict.tolist()) if restrict is not None else None
        eset = set(exclude.tolist()) if exclude is not None else ()
        for d, s in ranked:
            if (rset is None or d in rset) and d not in eset:
                out.append((d, s))
                if len(out) == k:
                    break
        return out

    def explain(self, query: str | list[str], doc_id: int) -> dict:
        """Scoring explanation (the Lucene ``explain`` shape): the
        per-term contribution breakdown for one (query, doc) pair —
        ``terms`` rows of (term, tf, doclen, df, idf, tf_norm,
        contribution) plus the total.  Contributions accumulate in
        ascending term_id order, exactly the topk contract, so ``score``
        is BIT-IDENTICAL to what wand/exhaustive would hand the heap for
        this doc (tested).  A doc matching no query term (or a
        tombstoned doc) explains to score 0 with no rows; json-able."""
        terms = self._tokenize(query) if isinstance(query, str) else list(query)
        tids, idfs = self.resolve_terms(terms)
        tid2term = {term_hash(t): t for t in set(terms)}
        idf_by_tid = dict(zip(tids, idfs))
        df_by_tid = dict(zip(tids, self.term_dict.df_of(tids).tolist()))
        parts = self._fanout("doc_term_stats", tids, int(doc_id))
        found = sorted(
            (t for part in parts for t in part)
        )  # one bucket owns the doc; sort = ascending term_id
        rows = []
        total = 0.0
        for tid, tf, dl in found:
            idf = idf_by_tid[tid]
            tfn = float(
                self.scorer.tf_norm(
                    np.asarray([tf], dtype=np.float64),
                    np.asarray([dl], dtype=np.float64),
                    self.avgdl,
                )[0]
            )
            c = idf * tfn
            total += c
            rows.append(
                {
                    "term": tid2term[tid],
                    "tf": int(tf),
                    "doclen": int(dl),
                    "df": df_by_tid[tid],
                    "idf": float(idf),
                    "tf_norm": tfn,
                    "contribution": float(c),
                }
            )
        return {
            "doc_id": int(doc_id),
            "score": float(total),
            "terms": rows,
        }

    def query_result(
        self, query: str | list[str], k: int = 10, resolve: bool = False
    ) -> dict:
        """Uniform result envelope (the analog of QueryResult +
        Formater.toMapVJSON, Torch/queryEngine/query/QueryResult.java:18-31,
        queryEngine/visualization/Formater.java:20-47): raw + prepared
        query, id array, optional hydrated rows — json.dumps-able."""
        terms = self._tokenize(query) if isinstance(query, str) else list(query)
        tids, _ = self.resolve_terms(terms)
        res = self.topk(terms, k=k)
        out = {
            "raw_query": query if isinstance(query, str) else " ".join(query),
            "prepared_terms": sorted(set(terms)),
            "mapping_succeed": bool(tids),
            "fail_reason": None if tids else "no query term is in the dictionary",
            "id_array": [int(d) for d, _ in res],
            "scores": [float(s) for _, s in res],
            "resolved": None,
        }
        if resolve and res:
            out["resolved"] = self.resolve(out["id_array"]).to_dict("records")
        return out
