"""Federated search: query several independently built indexes as ONE
logical corpus, without physically merging them.

The Lucene ``MultiReader`` / Elasticsearch DFS_QUERY_THEN_FETCH shape,
and the query-side dual of ``build.merge_indexes``:

1. a cheap stats round collects each index's (n_docs, sum_doclen) and
   per-term df — dictionary probes, no posting IO;
2. GLOBAL statistics (N, avgdl, df) are computed once on the driver and
   pushed down: idf weights ride the query (exactly like single-index
   serving), the global avgdl overrides each searcher via
   ``set_params(avgdl=)`` (block bounds store raw (max_tf, min_dl), so
   they stay valid under any avgdl);
3. every index's salt searchers score bucket-locally and ONE heap merge
   combines all parts.

Because per-doc tf/doclen are index-local facts and all corpus-level
statistics are globalized, the scores are BITWISE equal to a single
index built over the union (tested, and driver-gated against the plain
``topk_bm25`` SQL oracle) — the merge is invisible to ranking, without
the merge.

Requires globally unique doc ids across member indexes (same rule as
``merge_indexes``; build with an explicit ``doc_id`` column or
``doc_id_mode="url_hash"``).
"""

from __future__ import annotations

from torchtrajectory_ray.state.engine import QueryEngine, _merge_topk


class FederatedEngine:
    """Read-only query facade over N member indexes with global
    statistics.  Member engines are private to the facade — their
    avgdl/n_docs are overridden at construction (don't pass engines
    shared with single-index callers)."""

    def __init__(self, index_dirs: list[str], **engine_kw):
        if len(index_dirs) < 1:
            raise ValueError("FederatedEngine needs at least one index")
        self.engines = [QueryEngine(d, **engine_kw) for d in index_dirs]
        tokenizers = {e._tokenizer_name for e in self.engines}
        if len(tokenizers) > 1:
            raise ValueError(
                f"member indexes disagree on the tokenizer: {sorted(tokenizers)}"
            )
        self.n_docs = sum(e.n_docs for e in self.engines)
        if self.n_docs == 0:
            raise ValueError("all member indexes are empty")
        sum_dl = sum(int(e.stats["sum_doclen"]) for e in self.engines)
        self.avgdl = sum_dl / self.n_docs
        # push the global statistics into every member (and its searchers)
        for e in self.engines:
            e.update(avgdl=self.avgdl, n_docs=self.n_docs)
        self._tokenize = self.engines[0]._tokenize

    def _global_resolve(self, terms: list[str]) -> tuple[list[int], list[float]]:
        """Unique known term ids + idf under the GLOBAL df — a term's df
        is the sum of its member dfs (dictionary probes only)."""
        tids, _ = self.engines[0].term_dict.lookup(sorted(set(terms)))
        dfs = sum(e.term_dict.df_of(tids) for e in self.engines).tolist()
        scorer = self.engines[0].scorer
        return [t for t, df in zip(tids, dfs) if df], [
            float(scorer.idf(df, self.n_docs)) for df in dfs if df
        ]

    def topk(
        self,
        query: str | list[str],
        k: int = 10,
        method: str = "wand",
        lang: str | None = None,
        ts_lo: int | None = None,
        ts_hi: int | None = None,
    ) -> list[tuple[int, float]]:
        """Global-statistics BM25 top-k across all member indexes —
        bitwise equal to the same query on one index built over the
        union of the members' inputs."""
        terms = self._tokenize(query) if isinstance(query, str) else list(query)
        tids, idfs = self._global_resolve(terms)
        if not tids:
            return []
        parts = []
        for e in self.engines:
            parts.extend(
                e._fanout("topk", tids, idfs, k, method, lang, ts_lo, ts_hi)
            )
        return _merge_topk(parts, k)

    def resolve(self, doc_ids):
        """Hydrate across members (ids are globally unique, so the
        per-member results concatenate)."""
        import pandas as pd

        out = pd.concat([e.resolve(doc_ids) for e in self.engines])
        return out.sort_values("doc_id").reset_index(drop=True)
