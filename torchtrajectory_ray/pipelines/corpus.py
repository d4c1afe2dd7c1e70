"""Driver-facing corpus pipelines: index build over an sf ``documents``
table + the fixed web query workload used by the correctness gate.

The index build is cached on disk per sf_dir (the build is resumable and
immutable, so a second call loads the manifest instantly).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from torchtrajectory_ray.config import IndexConfig
from torchtrajectory_ray.functions.codec import delta_decode, varint_decode
from torchtrajectory_ray.pipelines.build import build_index
from torchtrajectory_ray.state.engine import QueryEngine

CACHE_ROOT = "/tmp/ttray_cache"

# Fixed query workload over the documents-table vocabulary (all terms
# exist at every sf; query 10 has a term that occurs in no doc — the
# empty-posting edge case, InvertedIndex.java:150-153).
WEB_QUERIES: list[dict] = [
    {"query_id": 0, "terms": ["spark", "join"]},
    {"query_id": 1, "terms": ["hash", "table", "scan"]},
    {"query_id": 2, "terms": ["window", "agg"]},
    {"query_id": 3, "terms": ["dup"]},
    {"query_id": 4, "terms": ["the", "a", "row"]},
    {"query_id": 5, "terms": ["customer", "order", "line"]},
    {"query_id": 6, "terms": ["vector", "stream"]},
    {"query_id": 7, "terms": ["slow", "fast", "merge"]},
    {"query_id": 8, "terms": ["group", "sort", "filter", "part"]},
    {"query_id": 9, "terms": ["data", "column", "value", "key"]},
    {"query_id": 10, "terms": ["spark", "zzzmissing"]},
    {"query_id": 11, "terms": ["query", "batch", "small", "big", "line"]},
]

# Fixed prefix workload for the dictionary-scan OR (prefix 3 matches
# nothing — the empty-dictionary-scan edge)
PREFIX_QUERIES: list[dict] = [
    {"query_id": 0, "prefix": "sp"},
    {"query_id": 1, "prefix": "ta"},
    {"query_id": 2, "prefix": "s"},
    {"query_id": 3, "prefix": "zzz"},
]

# Fixed fuzzy workload (edit-distance-1 dictionary probes: deletion,
# insertion, substitution, exact, and a no-match term)
FUZZY_QUERIES: list[dict] = [
    {"query_id": 0, "term": "spak"},        # deletion from 'spark'
    {"query_id": 1, "term": "tble"},        # deletion from 'table'
    {"query_id": 2, "term": "scana"},       # insertion on 'scan'
    {"query_id": 3, "term": "windoq"},      # substitution on 'window'
    {"query_id": 4, "term": "spark"},       # exact (distance 0)
    {"query_id": 5, "term": "zzznothing"},  # empty result edge
]

# Fixed edit-distance-2 workload (two deletions, deletion+substitution,
# a transposition — 2 plain-Levenshtein edits — plus exact and no-match
# edges; long probes exercise the k=2 q-gram prune, short ones the full
# length-grouped scan)
FUZZY2_QUERIES: list[dict] = [
    {"query_id": 0, "term": "sak"},          # two deletions from 'spark'
    {"query_id": 1, "term": "tburle"},       # del+sub on 'table'
    {"query_id": 2, "term": "windwo"},       # transposition on 'window'
    {"query_id": 3, "term": "spark"},        # exact (distance 0)
    {"query_id": 4, "term": "aggregations"}, # long probe (prune path)
    {"query_id": 5, "term": "zzzqqqxxxyyy"}, # empty result edge
]

# Fixed phrase workload (ORDER matters — phrase 12 is a repeated-term
# phrase, phrase 13 a trigram; both exercise the forward-index
# verification beyond what a first-position chain could answer)
PHRASE_QUERIES: list[dict] = [
    {"query_id": 0, "phrase": ["table", "hash"]},
    {"query_id": 1, "phrase": ["the", "data"]},
    {"query_id": 2, "phrase": ["a", "a"]},
    {"query_id": 3, "phrase": ["table", "hash", "scan"]},
]

# Fixed more-like-this seed documents (doc ids present at every sf —
# the sf tables assign dense ids from 0)
MLT_SEEDS: list[int] = [0, 1, 2, 7]

# Fixed percolator registry (boolean search-box grammar: +must / -not /
# "phrase"); query 4's exclusion never matches, query 3 combines a must
# with the repeated-term phrase
PERC_QUERIES: list[dict] = [
    {"query_id": 0, "q": "+spark +join"},
    {"query_id": 1, "q": "+data -window"},
    {"query_id": 2, "q": '"table hash"'},
    {"query_id": 3, "q": '+the "a a"'},
    {"query_id": 4, "q": "+spark -nosuchtermxyz"},
]

# Fixed regex dictionary-scan workload (patterns valid and equivalent in
# both Python re.fullmatch and DuckDB regexp_full_match: literals,
# classes, ., *, + only).  Pattern 3 matches nothing (empty-scan edge).
REGEX_QUERIES: list[dict] = [
    {"query_id": 0, "pattern": "sp.*"},
    {"query_id": 1, "pattern": ".*ble"},
    {"query_id": 2, "pattern": "[st].."},
    {"query_id": 3, "pattern": "zzz.+"},
]

# Fixed wildcard dictionary-scan workload (shell-style * / ? globs, the
# Lucene WildcardQuery shape; translated to regex by glob_to_regex on
# BOTH the engine and the oracle side).  Pattern 4 matches nothing.
WILDCARD_QUERIES: list[dict] = [
    {"query_id": 0, "pattern": "sp*"},
    {"query_id": 1, "pattern": "?able"},
    {"query_id": 2, "pattern": "s*n"},
    {"query_id": 3, "pattern": "w?ndow*"},
    {"query_id": 4, "pattern": "zzz*q"},
]

# Fixed minimum_should_match workload (at-least-m-of-n boolean; query 3
# needs 2 matches but only 1 term is indexed — provably-empty edge,
# query 4 with m=1 degenerates to OR)
MSM_QUERIES: list[dict] = [
    {"query_id": 0, "terms": ["the", "a", "row"], "m": 2},
    {"query_id": 1, "terms": ["hash", "table", "scan"], "m": 2},
    {"query_id": 2, "terms": ["group", "sort", "filter", "part"], "m": 3},
    {"query_id": 3, "terms": ["spark", "zzzmissing"], "m": 2},
    {"query_id": 4, "terms": ["spark", "join"], "m": 1},
]

# Fixed spell-correction workload (typos within edit distance 1 of
# vocabulary terms; query 3 is uncorrectable — empty-result edge)
TYPO_QUERIES: list[dict] = [
    {"query_id": 0, "terms": ["spak", "join"]},
    {"query_id": 1, "terms": ["tble", "hash", "scann"]},
    {"query_id": 2, "terms": ["windoq", "agg"]},
    {"query_id": 3, "terms": ["zzznothing"]},
]

# Fixed two-tier spell-correction workload (DirectSpellChecker
# escalation): query 0/2 need the edit-2 fallback, query 1/4 have an
# edit-1 correction that must win over closer-df edit-2 candidates
# ("tble"→table not "the", "qery"→query not "key"), query 3 is
# uncorrectable even at edit distance 2 (empty-result edge)
TYPO2_QUERIES: list[dict] = [
    {"query_id": 0, "terms": ["spqrx", "join"]},
    {"query_id": 1, "terms": ["tble", "scann"]},
    {"query_id": 2, "terms": ["windqq", "colmnn"]},
    {"query_id": 3, "terms": ["zzzzzz"]},
    {"query_id": 4, "terms": ["qery", "batch"]},
]

# Fixed takedown workload: 25 doc ids live at every sf (sf0.001 has 50
# docs).  Tombstoned at serving time; purged physically by compaction.
DELETED_DOC_IDS: list[int] = sorted(range(0, 50, 2))

# Fixed AND-NOT workload: query 2's exclude is unindexed (no-op
# exclusion), query 3 self-excludes (provably empty result edge)
ANDNOT_QUERIES: list[dict] = [
    {"query_id": 0, "include": ["table", "hash"], "exclude": ["scan"]},
    {"query_id": 1, "include": ["the", "data"], "exclude": ["window", "agg"]},
    {"query_id": 2, "include": ["row"], "exclude": ["zzzmissing"]},
    {"query_id": 3, "include": ["spark"], "exclude": ["spark"]},
]

# Fixed unordered-proximity workload (NEAR/WITHIN): query 2 repeats a
# term (proximity collapses duplicates — co-occurrence semantics),
# query 3 has an unindexed term (empty result edge)
NEAR_QUERIES: list[dict] = [
    {"query_id": 0, "terms": ["table", "hash"], "window": 3},
    {"query_id": 1, "terms": ["the", "data", "scan"], "window": 8},
    {"query_id": 2, "terms": ["window", "window", "scan"], "window": 5},
    {"query_id": 3, "terms": ["table", "zzznothing"], "window": 4},
]

# Fixed boosted-retrieval workload (term^boost).  Boost values are
# binary-exact floats so the engine and the SQL oracle compute
# bit-identical weights; query 3's boosted unknown term drops out.
BOOST_QUERIES: list[dict] = [
    {"query_id": 0, "boosts": [("spark", 2.0), ("join", 0.5)]},
    {"query_id": 1, "boosts": [("hash", 1.0), ("table", 3.0), ("scan", 0.25)]},
    {"query_id": 2, "boosts": [("window", 1.5), ("agg", 1.5)]},
    {"query_id": 3, "boosts": [("spark", 2.0), ("zzzmissing", 4.0)]},
]

# Fixed synonym-expansion workload (Lucene SynonymQuery semantics: the
# group scores as one pseudo-term — summed tf, max member df).  Query 3
# has an unindexed group member (drops out of the group, group stays).
SYN_QUERIES: list[dict] = [
    {"query_id": 0, "groups": [["spark", "hash"], ["join"]]},
    {"query_id": 1, "groups": [["table"], ["scan", "merge"]]},
    {"query_id": 2, "groups": [["window", "agg"]]},
    {"query_id": 3, "groups": [["spark", "zzzmissing"], ["join"]]},
]

# Fixed ORDERED-proximity workload (span-near in-order).  Queries 0/1
# are the same term pair in both orders — order must change the result;
# query 3 is a repeated term (two distinct occurrences required);
# query 4 has an unindexed term (empty edge).
SPAN_QUERIES: list[dict] = [
    {"query_id": 0, "terms": ["table", "hash"], "window": 3},
    {"query_id": 1, "terms": ["hash", "table"], "window": 3},
    {"query_id": 2, "terms": ["the", "data", "scan"], "window": 8},
    {"query_id": 3, "terms": ["a", "a"], "window": 6},
    {"query_id": 4, "terms": ["table", "zzznothing"], "window": 4},
]

# Fixed search-box workload for the composed front door (phrases,
# +must, -not, lang filter); gated end-to-end against a composed SQL
# oracle (BM25 chain joined to a per-query candidate predicate)
SEARCH_QUERIES: list[dict] = [
    {"query_id": 0, "q": "the data"},
    {"query_id": 1, "q": "+the +data -window"},
    {"query_id": 2, "q": '"table hash" scan'},
    {"query_id": 3, "q": "the lang:en"},
    {"query_id": 4, "q": "spark^2.0 join^0.5"},  # ^boost operator
]

_INDEX_CFG = IndexConfig(num_term_shards=4, num_salts=4, tokenize_batch_size=1024)


def documents_index(sf_dir: str, cfg: IndexConfig = _INDEX_CFG) -> str:
    """Build (or resume) the inverted index over ``sf_dir/documents.parquet``;
    returns the index dir."""
    import dataclasses
    import hashlib
    import json as _json

    name = os.path.basename(os.path.normpath(sf_dir))
    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    # tag covers config + source identity/content (path, size, mtime) so
    # a regenerated corpus or a same-named sibling dir never serves a
    # stale cached index
    cfg_tag = hashlib.md5(
        _json.dumps(
            [dataclasses.asdict(cfg), os.path.abspath(src),
             st.st_size, st.st_mtime_ns],
            sort_keys=True,
        ).encode()
    ).hexdigest()[:10]
    out_dir = os.path.join(CACHE_ROOT, f"docindex-{name}-{cfg_tag}")
    os.makedirs(out_dir, exist_ok=True)
    build_index([os.path.join(sf_dir, "documents.parquet")], out_dir, cfg)
    return out_dir


def documents_index_pos(sf_dir: str) -> str:
    """The gate corpus indexed WITH positional postings
    (``store_positions=True`` — every occurrence in the posting list),
    serving the index-only phrase/span/NEAR route."""
    import dataclasses

    return documents_index(
        sf_dir, dataclasses.replace(_INDEX_CFG, store_positions=True)
    )


_ENGINE_CACHE: dict[tuple, QueryEngine] = {}


def _engine(idx: str, **kw) -> QueryEngine:
    """One engine per (index dir, options) — index opens are expensive
    (dict shards + all segments), and gate queries reuse the same index."""
    key = (idx, tuple(sorted(kw.items())))
    eng = _ENGINE_CACHE.get(key)
    if eng is None:
        eng = QueryEngine(idx, **kw)
        _ENGINE_CACHE[key] = eng
    return eng


def term_df(sf_dir: str) -> pd.DataFrame:
    """term, df — straight from the built term dictionary (validates the
    dictionary fold against SQL)."""
    idx = documents_index(sf_dir)
    import json

    from torchtrajectory_ray.pipelines.build import read_dictionary

    with open(os.path.join(idx, "manifest.json")) as f:
        manifest = json.load(f)
    d = read_dictionary(manifest, idx).select(["term", "df"]).to_pandas()
    return d.sort_values("term").reset_index(drop=True)


def postings_flat(sf_dir: str) -> ray.data.Dataset:
    """term, doc_id, tf — segments decoded back to flat rows (validates
    the full build+compress+store+decode cycle against SQL)."""
    idx = documents_index(sf_dir)
    import json

    from torchtrajectory_ray.pipelines.build import manifest_abspath

    with open(os.path.join(idx, "manifest.json")) as f:
        manifest = json.load(f)
    # segments from the MANIFEST (covers extend generations, excludes
    # orphans) — same rule as the query engine
    paths = sorted(
        manifest_abspath(r["path"], idx) for r in manifest["segments"]
    )

    def decode(batch: pa.Table) -> pa.Table:
        terms, docs, tfs = [], [], []
        for row in batch.select(["term", "df", "doc_ids_blob", "tfs_blob"]).to_pylist():
            ids = delta_decode(row["doc_ids_blob"], row["df"])
            tf = varint_decode(row["tfs_blob"], row["df"])
            terms.extend([row["term"]] * row["df"])
            docs.append(ids)
            tfs.append(tf)
        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "doc_id": pa.array(np.concatenate(docs) if docs else []),
                "tf": pa.array(np.concatenate(tfs) if tfs else []),
            }
        )

    return ray.data.read_parquet(
        paths, columns=["term", "df", "doc_ids_blob", "tfs_blob"]
    ).map_batches(decode, batch_format="pyarrow")


def topk_bm25(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """query_id, rank, doc_id, score — BM25 top-k over the fixed workload.

    Scores are rounded to 6 dp and ranks recomputed on the rounded value
    with (score desc, doc_id asc) tie-break so the comparison against the
    SQL oracle is float-stable; the engine is asked for 2k candidates so
    the rounded re-rank cannot change the top-k membership silently.
    """
    return _ranked_topk(_engine(documents_index(sf_dir)), k)


def _ranked_topk(
    eng: QueryEngine, k: int, page: int = 0, **topk_kw
) -> pd.DataFrame:
    """The float-stable re-rank protocol shared by every BM25-vs-SQL
    gate: fetch 2·(page+1)·k wand candidates, round to 6 dp, re-rank on
    the rounded value with (score desc, doc_id asc) tie-break, emit the
    requested k-wide page (page 0 = the plain top-k).  Extra kwargs
    (e.g. ``lang=``) pass through to ``eng.topk``."""
    lo, hi = page * k, (page + 1) * k
    rows = []
    for q in WEB_QUERIES:
        res = eng.topk(q["terms"], k=2 * hi, method="wand", **topk_kw)
        df = pd.DataFrame(res, columns=["doc_id", "score"])
        df["score"] = df["score"].round(6)
        df = df.sort_values(["score", "doc_id"], ascending=[False, True])
        df = df.iloc[lo:hi].reset_index(drop=True)
        for r, row in df.iterrows():
            rows.append(
                (q["query_id"], lo + r + 1, int(row["doc_id"]), row["score"])
            )
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])


def topk_and(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """query_id, rank, doc_id, score — ranked CONJUNCTIVE retrieval:
    BM25 top-k over only the docs containing every query term (the
    reference's findOnStrictPath candidate semantics with findTopK
    ranking, Engine.java; the intersection happens bucket-locally
    before any scoring).  Same rounding/re-rank protocol as
    :func:`topk_bm25`; query 10's unmatched term makes its AND empty."""
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in WEB_QUERIES:
        res = eng.topk_and(q["terms"], k=2 * k, method="wand")
        df = pd.DataFrame(res, columns=["doc_id", "score"])
        df["score"] = df["score"].round(6)
        df = df.sort_values(["score", "doc_id"], ascending=[False, True])
        df = df.head(k).reset_index(drop=True)
        for r, row in df.iterrows():
            rows.append((q["query_id"], r + 1, int(row["doc_id"]), row["score"]))
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])


def tfidf_topk(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """query_id, rank, doc_id, score — top-k under the ALTERNATE scorer
    (log-tf·idf) on the SAME index, via the pluggable-measure point
    (functions.scoring.SCORERS; the analog of the reference's
    SimilarityFunction swap, SimilarityFunction.java:44-47).  Same
    rounding/re-rank protocol as :func:`topk_bm25`."""
    eng = _engine(documents_index(sf_dir), scorer="tfidf")
    rows = []
    for q in WEB_QUERIES:
        res = eng.topk(q["terms"], k=2 * k, method="wand")
        df = pd.DataFrame(res, columns=["doc_id", "score"])
        df["score"] = df["score"].round(6)
        df = df.sort_values(["score", "doc_id"], ascending=[False, True])
        df = df.head(k).reset_index(drop=True)
        for r, row in df.iterrows():
            rows.append((q["query_id"], r + 1, int(row["doc_id"]), row["score"]))
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])


def range_scan(
    sf_dir: str, doclen_lo: int = 40, doclen_hi: int = 90, lang: str = "en"
) -> pd.DataFrame:
    """doc_id — terms-free metadata range query through the engine's
    DISTRIBUTED bulk form (find_in_range_ds: the same predicate pushed
    into ``ray.data.read_parquet`` over the forward-index shards, no
    posting probe — the reference's pure range search, LEVI.java:73-92 /
    WindowQuery.java:21-31; the driver-side serving variant
    ``find_in_range`` shares the filter expression)."""
    eng = _engine(documents_index(sf_dir))
    out = (
        eng.find_in_range_ds(lang=lang, doclen_lo=doclen_lo, doclen_hi=doclen_hi)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    return out[["doc_id"]]


def phrase_match(sf_dir: str, distribute_over: int | None = None) -> pd.DataFrame:
    """query_id, doc_id — EXACT consecutive-phrase matches for the fixed
    phrase workload (AND candidates from the index, verified against the
    forward index; ``QueryEngine.phrase_and``).  ``distribute_over=0``
    forces every verification through the distributed chunked-task path
    (the bulk form); default auto-selects by candidate count."""
    eng = _engine(documents_index(sf_dir))
    kw = {} if distribute_over is None else {"distribute_over": distribute_over}
    rows = []
    for q in PHRASE_QUERIES:
        for d in eng.phrase_and(q["phrase"], **kw):
            rows.append((q["query_id"], int(d)))
    return pd.DataFrame(rows, columns=["query_id", "doc_id"])


def near_match(sf_dir: str, distribute_over: int | None = None) -> pd.DataFrame:
    """query_id, doc_id — unordered-proximity matches (every unique term
    within a ``window``-token span, any order) for the fixed NEAR
    workload; AND candidates from the index, minimal-cover verification
    against the forward index (``QueryEngine.near_and``)."""
    eng = _engine(documents_index(sf_dir))
    kw = {} if distribute_over is None else {"distribute_over": distribute_over}
    rows = []
    for q in NEAR_QUERIES:
        for d in eng.near_and(q["terms"], q["window"], **kw):
            rows.append((q["query_id"], int(d)))
    return pd.DataFrame(rows, columns=["query_id", "doc_id"])


def span_match(sf_dir: str, distribute_over: int | None = None) -> pd.DataFrame:
    """query_id, doc_id — ORDERED-proximity matches (terms in the given
    order at strictly increasing positions within a ``window``-token
    span) for the fixed span workload (``QueryEngine.span_near``)."""
    eng = _engine(documents_index(sf_dir))
    kw = {} if distribute_over is None else {"distribute_over": distribute_over}
    rows = []
    for q in SPAN_QUERIES:
        for d in eng.span_near(q["terms"], q["window"], **kw):
            rows.append((q["query_id"], int(d)))
    return pd.DataFrame(rows, columns=["query_id", "doc_id"])


def topk_bm25_pos(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """query_id, rank, doc_id, score — the BM25 workload served from the
    FULL-POSITION index; shares ``topk_bm25``'s oracle (the position
    payload must be invisible to scoring and WAND pruning)."""
    return _ranked_topk(_engine(documents_index_pos(sf_dir)), k)


def phrase_match_pos(sf_dir: str) -> pd.DataFrame:
    """query_id, doc_id — the SAME phrase workload answered entirely from
    full positional postings (``QueryEngine.phrase_and`` on the
    positional index; no forward-index read).  Shares ``phrase_match``'s SQL oracle — the two
    routes must produce identical rows."""
    eng = _engine(documents_index_pos(sf_dir))
    rows = []
    for q in PHRASE_QUERIES:
        for d in eng.phrase_and(q["phrase"]):
            rows.append((q["query_id"], int(d)))
    return pd.DataFrame(rows, columns=["query_id", "doc_id"])


def near_match_pos(sf_dir: str) -> pd.DataFrame:
    """query_id, doc_id — the NEAR workload from full positional postings
    (``QueryEngine.near_and``); shares ``near_match``'s oracle."""
    eng = _engine(documents_index_pos(sf_dir))
    rows = []
    for q in NEAR_QUERIES:
        for d in eng.near_and(q["terms"], q["window"]):
            rows.append((q["query_id"], int(d)))
    return pd.DataFrame(rows, columns=["query_id", "doc_id"])


def span_match_pos(sf_dir: str) -> pd.DataFrame:
    """query_id, doc_id — the ordered-span workload from full positional
    postings (``QueryEngine.span_near``); shares ``span_match``'s
    oracle."""
    eng = _engine(documents_index_pos(sf_dir))
    rows = []
    for q in SPAN_QUERIES:
        for d in eng.span_near(q["terms"], q["window"]):
            rows.append((q["query_id"], int(d)))
    return pd.DataFrame(rows, columns=["query_id", "doc_id"])


TV_SEEDS = [3, 77, 211, 498]  # present at every sf (doc ids 0..499+)


def term_vectors(sf_dir: str) -> pd.DataFrame:
    """doc_id, term, pos — per-document term vectors with positions for
    the fixed seed docs (``QueryEngine.term_vector``, the Lucene
    TermVectors API shape; one pushdown read)."""
    eng = _engine(documents_index(sf_dir))
    return eng.term_vector(TV_SEEDS)


SIGTERM_QUERY_IDS = [0, 3, 7]  # WEB_QUERIES rows used by significant_terms


def significant_terms(sf_dir: str, n: int = 15) -> pd.DataFrame:
    """query_id, term, fg_df, df, lift — significant-terms aggregation
    over three fixed OR match sets (``QueryEngine.significant_terms``;
    fg from the match set, df straight from the dictionary, lift
    rounded to 6 dp before the (lift desc, term asc) top-n — the same
    protocol the SQL oracle applies)."""
    eng = _engine(documents_index(sf_dir))
    frames = []
    for qid in SIGTERM_QUERY_IDS:
        q = WEB_QUERIES[qid]
        df = eng.significant_terms(q["terms"], n=n)
        df.insert(0, "query_id", q["query_id"])
        frames.append(df)
    return pd.concat(frames).reset_index(drop=True)


def term_ttf(sf_dir: str) -> pd.DataFrame:
    """term, ttf — total term frequency per dictionary term (the Lucene
    ``totalTermFreq`` statistic), computed by the distributed segment
    scan (``checkindex.ttf_table``: one task per segment file decodes
    its tf payloads, the driver folds dictionary-sized partials)."""
    from torchtrajectory_ray.pipelines.checkindex import ttf_table

    return ttf_table(documents_index(sf_dir))


def match_counts(sf_dir: str) -> pd.DataFrame:
    """query_id, n_or, n_and — total hit counts for the boolean workload
    (``QueryEngine.count``: one integer per salt crosses the boundary,
    never the id sets)."""
    eng = _engine(documents_index(sf_dir))
    rows = [
        (
            q["query_id"],
            eng.count(q["terms"], "or"),
            eng.count(q["terms"], "and"),
        )
        for q in WEB_QUERIES
    ]
    return pd.DataFrame(rows, columns=["query_id", "n_or", "n_and"]).astype(
        {"n_or": "int64", "n_and": "int64"}
    )


def percolate_matches(sf_dir: str) -> pd.DataFrame:
    """query_id, doc_id — the fixed percolator registry streamed over
    the corpus (``percolate.percolate_ds``: one read pass, anchor-term
    pruned, no shuffle)."""
    from torchtrajectory_ray.pipelines.percolate import percolate

    return percolate(sf_dir, PERC_QUERIES)


def prefix_match(sf_dir: str) -> pd.DataFrame:
    """query_id, doc_id — boolean OR over every dictionary term with the
    given prefix (the street-name→edge-ids lookup shape: J5/M12
    dictionary scan feeding U1 union, NameEdgeIdLookup.java:17-27 +
    PathQuery.java:74-87)."""
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in PREFIX_QUERIES:
        for d in eng.prefix_or(q["prefix"]):
            rows.append((q["query_id"], int(d)))
    return pd.DataFrame(rows, columns=["query_id", "doc_id"])


def _ranked_rows(qid: int, res: list, k: int) -> list[tuple]:
    """The shared rounded re-rank: 6-dp round, (score desc, doc_id asc),
    head(k), 1-based rank tuples."""
    df = pd.DataFrame(res, columns=["doc_id", "score"])
    df["score"] = df["score"].round(6)
    df = df.sort_values(["score", "doc_id"], ascending=[False, True])
    df = df.head(k).reset_index(drop=True)
    return [
        (qid, r + 1, int(df["doc_id"].iloc[r]), float(df["score"].iloc[r]))
        for r in range(len(df))
    ]


def topk_boosted(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """query_id, rank, doc_id, score — per-term boosted BM25 top-k
    (``QueryEngine.topk_boosted``; the term^boost operator).  Same
    rounding/re-rank protocol as :func:`topk_bm25`."""
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in BOOST_QUERIES:
        rows += _ranked_rows(
            q["query_id"], eng.topk_boosted(q["boosts"], k=2 * k), k
        )
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])


def synonym_topk(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """query_id, rank, doc_id, score — synonym-expanded BM25 top-k with
    SynonymQuery semantics (``QueryEngine.topk_synonyms``: summed tf per
    group, max member df for the group idf).  Same rounding/re-rank
    protocol as :func:`topk_bm25`."""
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in SYN_QUERIES:
        rows += _ranked_rows(
            q["query_id"], eng.topk_synonyms(q["groups"], k=2 * k), k
        )
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])


def bm25plus_topk(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """query_id, rank, doc_id, score — top-k under the THIRD registered
    measure (BM25+, Lv & Zhai 2011) on the SAME index — the pluggable
    similarity point again (functions.scoring.SCORERS), same
    rounding/re-rank protocol as :func:`topk_bm25`."""
    eng = _engine(documents_index(sf_dir), scorer="bm25plus")
    rows = []
    for q in WEB_QUERIES:
        rows += _ranked_rows(
            q["query_id"], eng.topk(q["terms"], k=2 * k, method="wand"), k
        )
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])


def collapse_lang(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """query_id, rank, lang, doc_id, score — field collapsing: each
    language group represented by its best-scoring doc, groups ranked by
    that score (``QueryEngine.collapse_topk``).  Scores are 6-dp rounded
    at every selection point on both sides of the gate."""
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in WEB_QUERIES:
        df = eng.collapse_topk(q["terms"], k=k)
        for r in range(len(df)):
            rows.append(
                (
                    q["query_id"],
                    r + 1,
                    df["lang"].iloc[r],
                    int(df["doc_id"].iloc[r]),
                    float(df["score"].iloc[r]),
                )
            )
    out = pd.DataFrame(
        rows, columns=["query_id", "rank", "lang", "doc_id", "score"]
    )
    return out.astype({"query_id": np.int64, "rank": np.int64})


def more_like_this(sf_dir: str, k: int = 10, n_terms: int = 5) -> pd.DataFrame:
    """query_id, rank, doc_id, score — doc-to-doc retrieval: each fixed
    seed doc's ``n_terms`` most distinctive terms (tf·ln(1+N/df)) run as
    a BM25 query with the seed excluded (``QueryEngine.more_like_this``).
    Same rounding/re-rank protocol as :func:`topk_bm25`."""
    eng = _engine(documents_index(sf_dir))
    rows = []
    for qid, seed in enumerate(MLT_SEEDS):
        res = eng.more_like_this(seed, k=2 * k, n_terms=n_terms)
        df = pd.DataFrame(res, columns=["doc_id", "score"])
        df["score"] = df["score"].round(6)
        df = df.sort_values(["score", "doc_id"], ascending=[False, True])
        df = df.head(k).reset_index(drop=True)
        for r, row in df.iterrows():
            rows.append((qid, r + 1, int(row["doc_id"]), row["score"]))
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])


def suggest_terms(sf_dir: str, n: int = 10) -> pd.DataFrame:
    """query_id, rank, term, df — autocomplete: the top-``n`` dictionary
    completions of each fixed prefix ranked (df desc, term asc) —
    ``QueryEngine.suggest``.  Prefix 3 matches nothing (empty edge)."""
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in PREFIX_QUERIES:
        s = eng.suggest(q["prefix"], n=n)
        for r in range(len(s)):
            rows.append(
                (q["query_id"], r + 1, s["term"].iloc[r], int(s["df"].iloc[r]))
            )
    out = pd.DataFrame(rows, columns=["query_id", "rank", "term", "df"])
    return out.astype(
        {"query_id": np.int64, "rank": np.int64, "df": np.int64}
    )


def fuzzy_match(sf_dir: str) -> pd.DataFrame:
    """query_id, term, df — every dictionary term within Levenshtein
    distance 1 of each probe (did-you-mean; vectorized length-grouped
    scan, ``QueryEngine.fuzzy_terms``)."""
    eng = _engine(documents_index(sf_dir))
    out = []
    for q in FUZZY_QUERIES:
        hits = eng.fuzzy_terms(q["term"])
        hits.insert(0, "query_id", np.int64(q["query_id"]))
        out.append(hits)
    return pd.concat(out, ignore_index=True)


def fuzzy_match2(sf_dir: str) -> pd.DataFrame:
    """query_id, term, df — every dictionary term within Levenshtein
    distance 2 of each probe (``QueryEngine.fuzzy_terms(max_edits=2)``:
    q-gram-pruned candidates verified by the vectorized min-plus-scan
    DP kernel — the Lucene FuzzyQuery maxEdits=2 surface)."""
    eng = _engine(documents_index(sf_dir))
    out = []
    for q in FUZZY2_QUERIES:
        hits = eng.fuzzy_terms(q["term"], max_edits=2)
        hits.insert(0, "query_id", np.int64(q["query_id"]))
        out.append(hits)
    return pd.concat(out, ignore_index=True)


def facet_lang(sf_dir: str) -> pd.DataFrame:
    """query_id, lang, n_docs — faceted-search counts over the boolean
    OR result of each fixed query (``QueryEngine.facet_counts``)."""
    eng = _engine(documents_index(sf_dir))
    out = []
    for q in WEB_QUERIES:
        f = eng.facet_counts(q["terms"], facet_col="lang", mode="or")
        f.insert(0, "query_id", np.int64(q["query_id"]))
        out.append(f)
    return pd.concat(out, ignore_index=True)


def snippets_topk(sf_dir: str, k: int = 5, window: int = 3) -> pd.DataFrame:
    """query_id, rank, doc_id, snippet — top-k with the window-token
    context around the first query-term occurrence
    (``QueryEngine.search_with_snippets``)."""
    eng = _engine(documents_index(sf_dir))
    return eng.search_with_snippets(WEB_QUERIES, k=k, window=window)


def topk_resolved(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """topk_bm25 hydrated with doc metadata (M6 result resolution):
    query_id, rank, doc_id, score, lang, doclen."""
    ranks = topk_bm25(sf_dir, k=k)
    eng = _engine(documents_index(sf_dir))
    meta = eng.resolve(ranks["doc_id"].unique())
    out = ranks.merge(meta[["doc_id", "lang", "doclen"]], on="doc_id", how="left")
    return out[["query_id", "rank", "doc_id", "score", "lang", "doclen"]]


def bool_or_lang(sf_dir: str, lang: str = "en") -> pd.DataFrame:
    """Boolean OR with a language predicate filter (U3 metadata-range /
    M7 time-span filter analog — Arrow predicate on the doc-meta column)."""
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in WEB_QUERIES:
        for d in eng.bool_or(q["terms"], lang=lang):
            rows.append((q["query_id"], int(d)))
    return pd.DataFrame(rows, columns=["query_id", "doc_id"])


def bool_or(sf_dir: str) -> pd.DataFrame:
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in WEB_QUERIES:
        for d in eng.bool_or(q["terms"]):
            rows.append((q["query_id"], int(d)))
    return pd.DataFrame(rows, columns=["query_id", "doc_id"])


def bool_and(sf_dir: str) -> pd.DataFrame:
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in WEB_QUERIES:
        for d in eng.bool_and(q["terms"]):
            rows.append((q["query_id"], int(d)))
    return pd.DataFrame(rows, columns=["query_id", "doc_id"])


def topk_bm25_lang(sf_dir: str, k: int = 10, lang: str = "en") -> pd.DataFrame:
    """query_id, rank, doc_id, score — BM25 top-k restricted to one
    language: the metadata-filtered RANKED path (wand prunes with the
    lang mask applied before the heap; stats N/avgdl/df stay GLOBAL —
    the filter narrows candidates, not the collection statistics, same
    contract as Lucene filter queries)."""
    return _ranked_topk(_engine(documents_index(sf_dir)), k, lang=lang)


def search_box(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """query_id, rank, doc_id, score — the composed search front door
    (``QueryEngine.search``) over the fixed mini-language workload,
    re-ranked under the float-stable 6dp protocol so the SQL oracle's
    window matches row for row."""
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in SEARCH_QUERIES:
        res = eng.search(q["q"], k=10**9)  # full masked ranking
        df = pd.DataFrame(res, columns=["doc_id", "score"])
        df["score"] = df["score"].round(6)
        df = df.sort_values(["score", "doc_id"], ascending=[False, True])
        df = df.head(k).reset_index(drop=True)
        for r, row in df.iterrows():
            rows.append((q["query_id"], r + 1, int(row["doc_id"]), row["score"]))
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])


def explain_topk(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """query_id, doc_id, term, contrib — the per-term BM25 score
    decomposition (Lucene ``IndexSearcher.explain``) for each query's
    rounded top-``k`` docs.  The SQL oracle is the shared BM25 chain
    WITHOUT the final sum: the per-(doc, term) contribution rows joined
    to the ranked cut — so the driver gates the decomposition against
    the exact terms the ranking is built from."""
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in WEB_QUERIES:
        res = eng.topk(q["terms"], k=4 * k, method="wand")
        df = pd.DataFrame(res, columns=["doc_id", "score"])
        df["score"] = df["score"].round(6)
        df = df.sort_values(
            ["score", "doc_id"], ascending=[False, True]
        ).head(k)
        want = [int(d) for d in df["doc_id"]]
        for r in eng.explain_docs(q["terms"], want):
            rows.append(
                (
                    q["query_id"],
                    r["doc_id"],
                    r["term"],
                    round(r["contrib"], 6),
                )
            )
    return pd.DataFrame(
        rows, columns=["query_id", "doc_id", "term", "contrib"]
    ).astype({"query_id": "int64", "doc_id": "int64"})


def topk_paged(sf_dir: str, k: int = 10, page: int = 1) -> pd.DataFrame:
    """query_id, rank, doc_id, score — the SECOND page (ranks k+1..2k by
    default) of the BM25 workload under the shared float-stable protocol
    (so the SQL oracle's QUALIFY window matches row for row).  The
    serving-path ``QueryEngine.topk_page`` ranks on UNROUNDED scores and
    is pytest-gated instead (pages tile the ranking,
    test_topk_pagination_partitions_the_ranking)."""
    return _ranked_topk(_engine(documents_index(sf_dir)), k, page=page)


def regex_match(sf_dir: str) -> pd.DataFrame:
    """query_id, doc_id — boolean OR over every dictionary term fully
    matching each fixed regex (``QueryEngine.regex_or``; the J5
    dictionary scan with a compiled-pattern comparator)."""
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in REGEX_QUERIES:
        for d in eng.regex_or(q["pattern"]):
            rows.append((q["query_id"], int(d)))
    return pd.DataFrame(rows, columns=["query_id", "doc_id"])


def wildcard_match(sf_dir: str) -> pd.DataFrame:
    """query_id, doc_id — boolean OR over every dictionary term matching
    each fixed shell-style wildcard (``QueryEngine.wildcard_or``; the
    J5 dictionary scan with a glob comparator — Lucene WildcardQuery)."""
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in WILDCARD_QUERIES:
        for d in eng.wildcard_or(q["pattern"]):
            rows.append((q["query_id"], int(d)))
    return pd.DataFrame(rows, columns=["query_id", "doc_id"])


def facet_doclen(sf_dir: str, width: int = 64) -> pd.DataFrame:
    """query_id, doclen_bucket, n_docs — numeric RANGE facet (the Lucene
    LongRangeFacetCounts shape) over the boolean OR result of each fixed
    query: matched docs counted by ``width``-sized doclen bucket
    (bucket lower bound), via ``QueryEngine.facet_counts``."""
    eng = _engine(documents_index(sf_dir))
    out = []
    for q in WEB_QUERIES:
        f = eng.facet_counts(
            q["terms"], facet_col="doclen", mode="or", bucket_width=width
        )
        f = f.rename(columns={"doclen": "doclen_bucket"})
        f.insert(0, "query_id", np.int64(q["query_id"]))
        out.append(f)
    res = pd.concat(out, ignore_index=True)
    return res.astype({"doclen_bucket": np.int64, "n_docs": np.int64})


def prf_topk(sf_dir: str, k: int = 10, r: int = 3, e: int = 2) -> pd.DataFrame:
    """query_id, rank, doc_id, score — Rocchio pseudo-relevance-feedback
    retrieval (``QueryEngine.prf_topk``): base BM25 top-``r`` docs feed
    ``e`` expansion terms (highest total tf, term-ascending ties) scored
    at boost 0.5 beside the original terms at 1.0.  Same rounded re-rank
    protocol as :func:`topk_bm25`."""
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in WEB_QUERIES:
        res = eng.prf_topk(q["terms"], k=2 * k, r=r, e=e, beta=0.5)
        rows.extend(_ranked_rows(q["query_id"], res, k))
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])


def sorted_by_doclen(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """query_id, rank, doc_id, doclen — sort-by-field retrieval (the
    Lucene ``Sort`` shape, ``QueryEngine.sort_by``): each fixed query's
    OR match set ordered doclen-descending (doc_id-ascending ties)."""
    eng = _engine(documents_index(sf_dir))
    out = []
    for q in WEB_QUERIES:
        f = eng.sort_by(q["terms"], field="doclen", k=k, descending=True)
        f.insert(0, "query_id", np.int64(q["query_id"]))
        out.append(f)
    res = pd.concat(out, ignore_index=True)
    return res.astype({"rank": np.int64, "doc_id": np.int64, "doclen": np.int64})


def topk_corrected(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """query_id, rank, doc_id, score — spell-corrected BM25 top-k
    (``QueryEngine.topk_corrected``): OOV terms replaced by their best
    edit-1 dictionary correction before ranking.  Same rounded re-rank
    protocol as :func:`topk_bm25`."""
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in TYPO_QUERIES:
        _, res = eng.topk_corrected(q["terms"], k=2 * k)
        rows.extend(_ranked_rows(q["query_id"], res, k))
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])


def topk_corrected2(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """query_id, rank, doc_id, score — two-tier spell-corrected BM25
    top-k (``QueryEngine.topk_corrected(max_edits=2)``): OOV terms take
    their best edit-1 dictionary correction, falling back to edit-2
    only when no edit-1 candidate exists — the Lucene
    DirectSpellChecker maxEdits escalation, where distance outranks
    df.  Same rounded re-rank protocol as :func:`topk_bm25`."""
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in TYPO2_QUERIES:
        _, res = eng.topk_corrected(q["terms"], k=2 * k, max_edits=2)
        rows.extend(_ranked_rows(q["query_id"], res, k))
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])


def min_match(sf_dir: str) -> pd.DataFrame:
    """query_id, doc_id — at-least-m-of-n boolean retrieval
    (``QueryEngine.bool_min_match``, the Lucene minimum_should_match
    operator) for the fixed workload."""
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in MSM_QUERIES:
        for d in eng.bool_min_match(q["terms"], q["m"]):
            rows.append((q["query_id"], int(d)))
    return pd.DataFrame(rows, columns=["query_id", "doc_id"])


def topk_min_match(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """query_id, rank, doc_id, score — ranked minimum_should_match
    (``QueryEngine.topk_min_match``) for the fixed MSM workload.  Same
    rounded re-rank protocol as :func:`topk_bm25`."""
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in MSM_QUERIES:
        res = eng.topk_min_match(q["terms"], q["m"], k=2 * k)
        rows.extend(_ranked_rows(q["query_id"], res, k))
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])


def documents_index_merged(sf_dir: str) -> str:
    """Two half-corpus indexes merged into one (``build.merge_indexes``):
    ``documents.parquet`` split by row order into two halves (driver
    slice — this is a gate FIXTURE builder, not a pipeline; the sf gate
    corpus is tiny), each half built into its own index, then merged
    into a fresh balanced index.  Doc ids ride in the ``doc_id`` column,
    so they stay disjoint and the merged index must answer every query
    exactly like the plain full build (global stats recomputed)."""
    import dataclasses
    import hashlib
    import json as _json

    import pyarrow.parquet as pq

    from torchtrajectory_ray.pipelines.build import merge_indexes

    name = os.path.basename(os.path.normpath(sf_dir))
    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    cfg_tag = hashlib.md5(
        _json.dumps(
            ["merged", dataclasses.asdict(_INDEX_CFG), os.path.abspath(src),
             st.st_size, st.st_mtime_ns],
            sort_keys=True,
        ).encode()
    ).hexdigest()[:10]
    root = os.path.join(CACHE_ROOT, f"docindex-merged-{name}-{cfg_tag}")
    out_dir = os.path.join(root, "merged")
    if os.path.exists(os.path.join(out_dir, "manifest.json")):
        return out_dir
    t = pq.read_table(src)
    half = t.num_rows // 2
    os.makedirs(root, exist_ok=True)
    pa_a = os.path.join(root, "docs_half_a.parquet")
    pa_b = os.path.join(root, "docs_half_b.parquet")
    pq.write_table(t.slice(0, half), pa_a)
    pq.write_table(t.slice(half), pa_b)
    idx_a = os.path.join(root, "idx-a")
    idx_b = os.path.join(root, "idx-b")
    build_index([pa_a], idx_a, _INDEX_CFG)
    build_index([pa_b], idx_b, _INDEX_CFG)
    merge_indexes([idx_a, idx_b], out_dir, _INDEX_CFG)
    return out_dir


def topk_merged(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """query_id, rank, doc_id, score — BM25 top-k served from an index
    MERGED from two independently built half-corpus indexes
    (``build.merge_indexes``).  Shares ``topk_bm25``'s SQL oracle: the
    merge must be invisible to scoring (doc ids preserved, N/avgdl/df
    recomputed globally over the union)."""
    return _ranked_topk(_engine(documents_index_merged(sf_dir)), k)


_FED_CACHE: dict[str, object] = {}


def topk_federated(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """query_id, rank, doc_id, score — BM25 top-k FEDERATED across the
    two half-corpus indexes WITHOUT merging them
    (``federated.FederatedEngine``: global N/avgdl/df pushed down, one
    cross-index heap merge).  Shares ``topk_bm25``'s SQL oracle — the
    federation must be invisible to scoring, like the merge but with no
    physical merge step."""
    from torchtrajectory_ray.pipelines.federated import FederatedEngine

    merged = documents_index_merged(sf_dir)  # builds+caches idx-a / idx-b
    root = os.path.dirname(merged)
    eng = _FED_CACHE.get(root)
    if eng is None:
        eng = FederatedEngine(
            [os.path.join(root, "idx-a"), os.path.join(root, "idx-b")]
        )
        _FED_CACHE[root] = eng
    return _ranked_topk(eng, k)


def documents_index_deleted(sf_dir: str) -> str:
    """A copy-on-write variant of :func:`documents_index` with the fixed
    takedown workload tombstoned (build once per cache key, delete once —
    idempotent)."""
    import shutil as _shutil

    from torchtrajectory_ray.pipelines.build import delete_docs

    base = documents_index(sf_dir)
    out_dir = base + "-del"
    marker = os.path.join(out_dir, "_DELETES_APPLIED")
    if not os.path.exists(marker):
        _shutil.rmtree(out_dir, ignore_errors=True)
        _shutil.copytree(base, out_dir, symlinks=True)
        delete_docs(out_dir, DELETED_DOC_IDS)
        with open(marker, "w") as f:
            f.write("ok")
    return out_dir


def bool_or_deleted(sf_dir: str) -> pd.DataFrame:
    """query_id, doc_id — the boolean-OR workload served from the
    tombstoned index: deleted docs vanish from results with no segment
    rewrite (``QueryEngine`` masks them in every query path)."""
    eng = _engine(documents_index_deleted(sf_dir))
    rows = []
    for q in WEB_QUERIES:
        for d in eng.bool_or(q["terms"]):
            rows.append((q["query_id"], int(d)))
    return pd.DataFrame(rows, columns=["query_id", "doc_id"])


def topk_purged(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """query_id, rank, doc_id, score — BM25 top-k AFTER compaction
    purges the tombstones: the rebuilt index recomputes N/avgdl/df over
    only the live docs, so scores are rank-identical to a fresh build on
    the filtered corpus (= the SQL oracle over documents minus the
    takedown set)."""
    from torchtrajectory_ray.pipelines.build import compact_index

    src = documents_index_deleted(sf_dir)
    out_dir = src + "-purged"
    manifest_path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        compact_index(src, out_dir)
    return _ranked_topk(_engine(out_dir), k)


def bool_and_not(sf_dir: str) -> pd.DataFrame:
    """query_id, doc_id — negated boolean retrieval for the fixed
    AND-NOT workload (``QueryEngine.bool_and_not``: bucket-local
    subtraction inside each salt searcher)."""
    eng = _engine(documents_index(sf_dir))
    rows = []
    for q in ANDNOT_QUERIES:
        for d in eng.bool_and_not(q["include"], q["exclude"]):
            rows.append((q["query_id"], int(d)))
    return pd.DataFrame(rows, columns=["query_id", "doc_id"])


TITLE_LEN = 8  # tokens in the synthetic "title" field


def _field_corpus(sf_dir: str, field: str) -> str:
    """Stage the derived FIELD corpus (title = first TITLE_LEN tokens,
    body = the rest) as parquet with the source doc_id preserved —
    Ray map_batches staging, cached/idempotent like documents_index.
    The synthetic corpus is single-spaced, so the split mirrors the SQL
    oracle's ``list_slice(string_split(text, ' '), ...)`` exactly and
    the staged text re-tokenizes to the same list."""
    import hashlib

    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    name = os.path.basename(os.path.normpath(sf_dir))
    tag = hashlib.md5(
        f"{os.path.abspath(src)}|{st.st_size}|{st.st_mtime_ns}|{field}|{TITLE_LEN}".encode()
    ).hexdigest()[:10]
    out = os.path.join(CACHE_ROOT, f"fieldcorpus-{name}-{field}-{tag}")
    marker = os.path.join(out, "_DONE")
    if os.path.exists(marker):
        return out
    os.makedirs(out, exist_ok=True)

    def split(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        if field == "title":
            cut = [" ".join(t.split(" ")[:TITLE_LEN]) for t in texts]
        else:
            cut = [" ".join(t.split(" ")[TITLE_LEN:]) for t in texts]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "text": pa.array(cut, pa.string()),
                "lang": batch["lang"],
            }
        )

    ray.data.read_parquet(src, columns=["doc_id", "text", "lang"]).map_batches(
        split, batch_format="pyarrow"
    ).write_parquet(out)
    open(marker, "w").write("ok")
    return out


def documents_field_index(sf_dir: str, field: str) -> str:
    """Build (or load) the inverted index over one derived field."""
    import glob
    import hashlib

    staged = _field_corpus(sf_dir, field)
    files = sorted(glob.glob(os.path.join(staged, "*.parquet")))
    tag = hashlib.md5("|".join(files).encode()).hexdigest()[:8]
    out_dir = os.path.join(CACHE_ROOT, f"fieldindex-{os.path.basename(staged)}-{tag}")
    os.makedirs(out_dir, exist_ok=True)
    build_index(files, out_dir, _INDEX_CFG)
    return out_dir


def _ta_topk(
    et: QueryEngine,
    eb: QueryEngine,
    terms: list[str],
    k: int,
    w_title: float,
    w_body: float,
    page: int = 50,
    max_rounds: int = 200,
) -> list[tuple[int, float]]:
    """EXACT weighted multi-field top-k via Fagin's Threshold Algorithm
    (Fagin, Lotem, Naor, PODS'01): sorted access pages each field's
    ranked list (``search_after`` cursors), random access resolves every
    newly-seen doc's other-field score through ``explain_docs`` (whose
    per-term contributions sum to the exact topk score), and the scan
    stops when the k-th best fully-resolved combined score strictly
    beats the threshold T = w_t·(last title score) + w_b·(last body
    score) — every unseen doc is bounded by T, so the answer is exact.
    A doc absent from a field's postings scores 0 there."""
    seen: dict[int, list] = {}  # doc -> [s_title, s_body] (None = unresolved)
    cur_t = cur_b = None
    done_t = done_b = False
    last_t = last_b = None  # last sorted-access scores

    def resolve(eng: QueryEngine, side: int, docs: list[int]) -> None:
        agg: dict[int, float] = {d: 0.0 for d in docs}
        for r in eng.explain_docs(terms, docs):
            agg[r["doc_id"]] = agg.get(r["doc_id"], 0.0) + r["contrib"]
        for d, s in agg.items():
            seen[d][side] = s

    for _ in range(max_rounds):
        if not done_t:
            res = et.search_after(terms, cur_t, k=page)
            if res:
                cur_t = res[-1]
                last_t = res[-1][1]
                for d, s in res:
                    seen.setdefault(d, [None, None])[0] = s
            if len(res) < page:
                done_t = True
        if not done_b:
            res = eb.search_after(terms, cur_b, k=page)
            if res:
                cur_b = res[-1]
                last_b = res[-1][1]
                for d, s in res:
                    seen.setdefault(d, [None, None])[1] = s
            if len(res) < page:
                done_b = True
        need_t = [d for d, v in seen.items() if v[0] is None]
        need_b = [d for d, v in seen.items() if v[1] is None]
        if need_t:
            resolve(et, 0, need_t)
        if need_b:
            resolve(eb, 1, need_b)
        scored = sorted(
            ((w_title * v[0] + w_body * v[1], -d) for d, v in seen.items()),
            reverse=True,
        )
        if done_t and done_b:
            break
        if len(scored) >= k:
            thr = (0.0 if done_t else w_title * (last_t or 0.0)) + (
                0.0 if done_b else w_body * (last_b or 0.0)
            )
            if scored[k - 1][0] > thr:  # strict: T-ties keep scanning
                break
    else:
        raise RuntimeError("TA did not converge within max_rounds")
    return [(-nd, s) for s, nd in scored[: 2 * k]]


def topk_bm25f(
    sf_dir: str, k: int = 10, w_title: float = 2.0, w_body: float = 1.0
) -> pd.DataFrame:
    """query_id, rank, doc_id, score — weighted MULTI-FIELD BM25
    (BM25F-SA: each field scored as its own corpus with its own
    df/doclen/avgdl, combined as w_t·BM25_title + w_b·BM25_body) over
    the fixed workload, computed EXACTLY by Fagin's TA over the two
    field indexes — no heuristic candidate cut.  Same rounded re-rank
    protocol as every BM25 gate."""
    et = _engine(documents_field_index(sf_dir, "title"))
    eb = _engine(documents_field_index(sf_dir, "body"))
    rows = []
    for q in WEB_QUERIES:
        res = _ta_topk(et, eb, q["terms"], 2 * k, w_title, w_body)
        df = pd.DataFrame(res, columns=["doc_id", "score"])
        df["score"] = df["score"].round(6)
        df = df.sort_values(["score", "doc_id"], ascending=[False, True])
        df = df.iloc[:k].reset_index(drop=True)
        for r, row in df.iterrows():
            rows.append((q["query_id"], r + 1, int(row["doc_id"]), row["score"]))
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])
