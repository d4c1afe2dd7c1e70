#!/usr/bin/env python
"""1M-doc soak of the serving features (fuzzy / facets / snippets /
proximity / collapse / boosted / synonyms / MLT / suggest / explain /
PRF / spell-correction / wildcard / sort-by-field / range facet).

Opens (or builds) the 1M-doc index used by the phrase soak and
measures:

- ``fuzzy_terms`` — the vectorized edit-distance-1 dictionary scan at
  full corpus vocabulary size (the dictionary is the scan target, so
  this is the operator's true scale axis)
- ``facet_counts`` on a stopword-grade OR query — candidate set is a
  corpus-scale fraction, read from the resident doc stores
- ``search_with_snippets`` — k×queries-bounded hydration (scale-flat
  by design; measured to prove the bound holds at 1M docs)

Usage:  python jobs/soak_serving_job.py [--n-docs 1000000] [--cpus 32]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SOAK_ROOT = "/tmp/ttray_soak"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-docs", type=int, default=1_000_000)
    ap.add_argument("--cpus", type=int, default=32)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )

    from jobs.soak_clean_job import build_corpus
    from torchtrajectory_ray.config import IndexConfig
    from torchtrajectory_ray.pipelines.build import build_index
    from torchtrajectory_ray.state.engine import QueryEngine

    out: dict = {"n_docs": args.n_docs, "cpus": args.cpus}
    soak_dir = build_corpus(args.n_docs)
    idx_dir = os.path.join(SOAK_ROOT, f"idx-serving-{args.n_docs}")
    t0 = time.monotonic()
    build_index(  # resumable: a finished build returns immediately
        sorted(
            os.path.join(soak_dir, "documents.parquet", p)
            for p in os.listdir(os.path.join(soak_dir, "documents.parquet"))
        ),
        idx_dir,
        IndexConfig(num_term_shards=16, num_salts=16),
    )
    out["index_build_or_resume_s"] = round(time.monotonic() - t0, 1)

    def timed(name, fn):
        t = time.monotonic()
        r = fn()
        out[f"{name}_s"] = round(time.monotonic() - t, 3)
        return r

    eng = timed("engine_open", lambda: QueryEngine(idx_dir))
    terms = eng.term_dict.term.to_pylist()  # term_id order
    out["n_dict_terms"] = len(terms)

    probes = [terms[0], terms[9] + "x", terms[20][:-1], "qqqq"]
    hits = timed(
        "fuzzy_10probes",
        lambda: [eng.fuzzy_terms(p) for p in probes + probes[:2] * 3],
    )
    out["fuzzy_hit_terms"] = int(sum(len(h) for h in hits))

    # stopword-grade OR: the most frequent dictionary terms
    import numpy as np

    dfs = eng.term_dict.df  # aligned with terms
    hot = [terms[i] for i in np.argsort(dfs)[-2:]]
    ids = eng.bool_or(hot)
    out["facet_candidates"] = int(len(ids))
    f = timed("facet_hot", lambda: eng.facet_counts(hot, facet_col="lang"))
    out["facet_docs"] = int(f["n_docs"].sum())

    # unordered proximity on the two hottest terms: the AND candidate
    # set is a corpus-scale fraction, forcing the distributed chunked
    # verification path (the phrase soak's shape, minimal-cover check)
    near_hits = timed("near_hot_w8", lambda: eng.near_and(hot, 8))
    out["near_candidates"] = int(eng.bool_and(hot).size)
    out["near_hits"] = int(near_hits.size)

    queries = [{"query_id": i, "terms": [t]} for i, t in enumerate(hot)] + [
        {"query_id": 10 + i, "terms": [p]} for i, p in enumerate(probes[:2])
    ]
    s = timed(
        "snippets_k10",
        lambda: eng.search_with_snippets(queries, k=10, window=3),
    )
    out["snippet_rows"] = int(len(s))

    # --- round-3 second-pass serving ops at 1M docs ---
    # ordered proximity on the hot pair: same corpus-scale candidate set
    # as near_hot_w8, via the distributed ordered verification
    span_hits = timed("span_hot_w8", lambda: eng.span_near(hot, 8))
    out["span_hits"] = int(span_hits.size)
    # field collapsing on the hot OR: exhaustive bucket-local scoring of
    # a corpus-scale candidate set, one row per lang per bucket merged
    col = timed("collapse_hot", lambda: eng.collapse_topk(hot, k=10))
    out["collapse_groups"] = int(len(col))
    # boosted + synonym ranking on the hot pair (wand / exhaustive over
    # the same candidates)
    timed(
        "boosted_hot",
        lambda: eng.topk_boosted([(hot[0], 2.0), (hot[1], 0.5)], k=10),
    )
    timed("synonym_hot", lambda: eng.topk_synonyms([hot], k=10))
    # MoreLikeThis from a mid-corpus seed: one pushdown read + topk
    seed = int(ids[len(ids) // 2])
    timed("mlt_seed", lambda: eng.more_like_this(seed, k=10))
    # autocomplete over the full 1M-doc dictionary
    timed(
        "suggest_100probes",
        lambda: [eng.suggest(terms[i][:2], n=10) for i in range(100)],
    )
    # explain over the boosted top doc
    top_doc = eng.topk(hot, k=1)[0][0]
    timed("explain_hot", lambda: eng.explain(hot, top_doc))

    # --- round-3 third-pass serving ops at 1M docs ---
    # Rocchio PRF on the hot pair: base topk + ONE r-doc pushdown read +
    # boosted re-query (scale-flat beyond the two rankings)
    timed("prf_hot", lambda: eng.prf_topk(hot, k=10, r=3, e=2))
    # spell-corrected re-query: dictionary-wide edit-1 scan per typo
    timed(
        "corrected_2typos",
        lambda: eng.topk_corrected([hot[0] + "x", hot[1][:-1]], k=10),
    )
    # wildcard scan over the full dictionary + OR of the matched terms
    wt = timed("wildcard_scan", lambda: eng.wildcard_terms("w00*1"))
    out["wildcard_terms"] = int(len(wt))
    # sort-by-field + range facet on the corpus-scale hot OR candidate
    # set, both read from the resident doc stores
    timed("sort_by_hot", lambda: eng.sort_by(hot, field="doclen", k=10))
    timed(
        "facet_doclen_hot",
        lambda: eng.facet_counts(hot, facet_col="doclen", bucket_width=16),
    )

    # --- positional-postings route at 1M docs ---
    # second index carrying the FULL position payload; the same hot-pair
    # proximity workloads answered index-only.  The candidate set is the
    # same corpus-scale fraction, but verification needs no forward-index
    # read and no fan-out stage — each salt searcher verifies its own
    # range from its decoded postings.
    import dataclasses

    pos_dir = os.path.join(SOAK_ROOT, f"idx-serving-pos-{args.n_docs}")
    t0 = time.monotonic()
    build_index(
        sorted(
            os.path.join(soak_dir, "documents.parquet", p)
            for p in os.listdir(os.path.join(soak_dir, "documents.parquet"))
        ),
        pos_dir,
        dataclasses.replace(
            IndexConfig(num_term_shards=16, num_salts=16),
            store_positions=True,
        ),
    )
    out["index_build_pos_or_resume_s"] = round(time.monotonic() - t0, 1)

    def _tree_bytes(d):
        return sum(
            os.path.getsize(os.path.join(r, f))
            for r, _, fs in os.walk(os.path.join(d, "segments"))
            for f in fs
        )

    out["segment_bytes"] = _tree_bytes(idx_dir)
    out["segment_bytes_pos"] = _tree_bytes(pos_dir)
    eng_pos = QueryEngine(pos_dir)
    near_pos = timed("near_pos_hot_w8", lambda: eng_pos.near_and(hot, 8))
    span_pos = timed("span_pos_hot_w8", lambda: eng_pos.span_near(hot, 8))
    assert near_pos.tolist() == near_hits.tolist(), "near routes disagree"
    assert span_pos.tolist() == span_hits.tolist(), "span routes disagree"
    phrase_pos = timed("phrase_pos_hot", lambda: eng_pos.phrase_and(hot))
    phrase_txt = timed("phrase_text_hot", lambda: eng.phrase_and(hot))
    assert phrase_pos.tolist() == phrase_txt.tolist(), "phrase routes disagree"
    out["phrase_hot_hits"] = int(phrase_pos.size)

    # --- round-3 fifth-pass ops at 1M docs ---
    shards = sorted(
        os.path.join(soak_dir, "documents.parquet", p)
        for p in os.listdir(os.path.join(soak_dir, "documents.parquet"))
    )

    # percolator: a registry anchored at the two hottest + two mid terms,
    # streamed over the whole corpus in one pass (the tagging regime)
    from torchtrajectory_ray.pipelines.percolate import percolate_ds

    mid = [terms[len(terms) // 2], terms[len(terms) // 3]]
    perc_q = [
        {"query_id": 0, "q": f"+{hot[0]} +{hot[1]}"},
        {"query_id": 1, "q": f"+{hot[0]} -{mid[0]}"},
        {"query_id": 2, "q": f'"{hot[0]} {hot[1]}"'},
        {"query_id": 3, "q": f"+{mid[0]} +{mid[1]}"},
    ]
    perc = timed(
        "percolate_1m", lambda: percolate_ds(shards, perc_q).count()
    )
    out["percolate_matches"] = int(perc)

    # significant terms over the corpus-scale hot OR (distributed branch)
    sig = timed(
        "significant_terms_hot",
        lambda: eng.significant_terms(hot, n=15, max_candidates=0),
    )
    out["significant_terms_rows"] = int(len(sig))

    # deep cursor pagination on the hot pair (exhaustive + cursor filter)
    def _cursor_pages():
        after, pages = None, 0
        for _ in range(5):
            p = eng.search_after(hot, after, k=10)
            if not p:
                break
            pages += 1
            after = p[-1]
        return pages

    out["cursor_pages"] = timed("search_after_5pages", _cursor_pages)

    # seeded global shuffle of the full corpus (one sort)
    from torchtrajectory_ray.pipelines.sampling import global_shuffle_ds

    n_shuffled = timed(
        "global_shuffle_1m", lambda: global_shuffle_ds(soak_dir).count()
    )
    assert int(n_shuffled) == args.n_docs

    # federated: the same corpus as two half indexes, global-stats
    # querying must equal the single-index answers bitwise
    from torchtrajectory_ray.pipelines.federated import FederatedEngine

    half = len(shards) // 2
    fa = os.path.join(SOAK_ROOT, f"idx-fed-a-{args.n_docs}")
    fb = os.path.join(SOAK_ROOT, f"idx-fed-b-{args.n_docs}")
    t0 = time.monotonic()
    build_index(shards[:half], fa, IndexConfig(num_term_shards=16, num_salts=16))
    build_index(shards[half:], fb, IndexConfig(num_term_shards=16, num_salts=16))
    out["federated_halves_build_or_resume_s"] = round(time.monotonic() - t0, 1)
    fed = timed("federated_open", lambda: FederatedEngine([fa, fb]))
    fed_top = timed("federated_topk_hot", lambda: fed.topk(hot, k=10))
    assert fed_top == eng.topk(hot, k=10), "federated != single index"

    # --- lazy load mode (the 10^12-doc serving path) ---
    # segments stay on storage; probes read only the probed term's row
    # groups via term_id statistics pushdown.  Open is O(dictionary),
    # not O(index); the per-query cost is the pushdown read.
    eng_lazy = timed(
        "engine_open_lazy", lambda: QueryEngine(idx_dir, load_mode="lazy")
    )
    lazy_top = timed("topk_hot_lazy", lambda: eng_lazy.topk(hot, k=10))
    assert lazy_top == eng.topk(hot, k=10), "lazy != memory serving"
    rare = terms[int(np.argmin(dfs))]
    timed("topk_rare_lazy", lambda: eng_lazy.topk([rare], k=10))
    timed("topk_rare_lazy_warm", lambda: eng_lazy.topk([rare], k=10))

    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
