"""Query-serving surfaces: distributed actor fan-out, batch pipeline,
phrase query, prefix dictionary lookup, result envelope."""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from torchtrajectory_ray import fixtures
from torchtrajectory_ray.config import IndexConfig
from torchtrajectory_ray.pipelines.build import build_index
from torchtrajectory_ray.pipelines.query_batch import batch_topk_df
from torchtrajectory_ray.state.engine import QueryEngine

N_DOCS = 300


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    data_dir = str(tmp_path_factory.mktemp("corpus"))
    out_dir = str(tmp_path_factory.mktemp("index"))
    paths = fixtures.write_webpages(data_dir, N_DOCS, num_files=3)
    build_index(
        paths,
        out_dir,
        IndexConfig(num_term_shards=2, num_salts=3, store_positions=True,
                    tokenize_batch_size=64),
    )
    return out_dir


def _queries():
    return [
        {"query_id": i, "terms": q["terms"]}
        for i, q in enumerate(fixtures.query_set(12, N_DOCS))
    ]


def test_distributed_engine_matches_inprocess(built):
    local = QueryEngine(built)
    dist = QueryEngine(built, distributed=True)
    for q in _queries():
        assert local.topk(q["terms"], k=10) == dist.topk(q["terms"], k=10)
        assert local.bool_and(q["terms"]).tolist() == dist.bool_and(q["terms"]).tolist()


def test_batch_pipeline_matches_engine(built):
    qs = _queries()
    eng = QueryEngine(built)
    expect = eng.batch_topk(qs, k=10)
    got = batch_topk_df(built, qs, k=10)
    assert got.equals(expect.sort_values(["query_id", "rank"]).reset_index(drop=True))


def test_phrase_query_finds_needles(built):
    eng = QueryEngine(built)
    hits = eng.phrase_and(["needle_phrase_a", "needle_phrase_b"])
    expect = sorted(
        fixtures.dense_doc_id(i, N_DOCS, 3)
        for i in fixtures.NEEDLE_PHRASE_DOCS
        if i < N_DOCS
    )
    assert hits.tolist() == expect
    # reversed order is not a phrase
    assert eng.phrase_and(["needle_phrase_b", "needle_phrase_a"]).size == 0
    # unknown term → empty
    assert eng.phrase_and(["needle_phrase_a", "zzz_nope"]).size == 0
    # repeated phrase terms verify exactly against the forward index
    # (no planted "a b a" sequence exists in the fixtures)
    assert eng.phrase_and(
        ["needle_phrase_a", "needle_phrase_b", "needle_phrase_a"]
    ).size == 0


def test_phrase_works_without_positions(ray_session, tmp_path):
    """Forward-index verification makes phrase queries exact on ANY
    index — no position payload needed."""
    paths = fixtures.write_webpages(str(tmp_path / "c"), 90, num_files=2)
    out = str(tmp_path / "i")
    build_index(paths, out, IndexConfig(num_term_shards=2, num_salts=2,
                                        store_positions=False))
    eng = QueryEngine(out)
    hits = eng.phrase_and(["needle_phrase_a", "needle_phrase_b"])
    expect = sorted(
        fixtures.dense_doc_id(i, 90, 2)
        for i in fixtures.NEEDLE_PHRASE_DOCS
        if i < 90
    )
    assert hits.tolist() == expect


def test_phrase_repeated_terms_and_nonfirst_occurrence(ray_session, tmp_path):
    """The two cases first-position payloads cannot answer: repeated
    phrase terms and matches at a non-first occurrence — both exact
    against a python reference."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    texts = {
        1: "a b a x y",        # matches "a b a"
        2: "a b x a b a",      # matches "a b a" at a NON-first occurrence
        3: "a x b a b",        # no "a b a"
        4: "z a b q",          # has "a b" but not "a b a"
        5: "a a b a a",        # matches "a b a" (and "a a b")
    }
    tbl = pa.table(
        {
            "doc_id": pa.array(list(texts), pa.int64()),
            "text": pa.array(list(texts.values()), pa.string()),
            "lang": pa.array(["en"] * len(texts), pa.string()),
        }
    )
    src = str(tmp_path / "docs.parquet")
    pq.write_table(tbl, src)
    out = str(tmp_path / "i")
    build_index([src], out, IndexConfig(num_term_shards=2, num_salts=2))
    eng = QueryEngine(out)

    def ref(phrase):
        n = len(phrase)
        return sorted(
            d
            for d, t in texts.items()
            if any(
                t.split(" ")[i : i + n] == phrase
                for i in range(len(t.split(" ")) - n + 1)
            )
        )

    for phrase in (["a", "b", "a"], ["a", "b"], ["b", "a"], ["a", "a", "b"]):
        assert eng.phrase_and(phrase).tolist() == ref(phrase), phrase


def test_prefix_dictionary_lookup(built):
    eng = QueryEngine(built)
    terms = eng.prefix_terms("needle_phrase")
    assert terms == ["needle_phrase_a", "needle_phrase_b"]
    ids = eng.prefix_or("needle_")
    # superset of every needle doc present
    assert set(
        fixtures.dense_doc_id(i, N_DOCS, 3)
        for i in fixtures.NEEDLE_PHRASE_DOCS
        if i < N_DOCS
    ) <= set(ids.tolist())


def test_suggest_ranks_by_df_then_term(built):
    eng = QueryEngine(built)
    s = eng.suggest("w", n=10)
    # brute-force expectation from the dictionary scan itself
    terms = eng.prefix_terms("w")
    df = dict(zip(terms, eng.term_dict.lookup(terms)[1]))
    expect = sorted(terms, key=lambda t: (-df[t], t))[:10]
    assert s["term"].tolist() == expect
    assert s["df"].tolist() == [df[t] for t in expect]
    # df-descending with term-ascending ties
    pairs = list(zip(s["df"].tolist(), s["term"].tolist()))
    assert pairs == sorted(pairs, key=lambda p: (-p[0], p[1]))
    # empty edge
    assert len(eng.suggest("zzz_nothing")) == 0


def test_collapse_topk_serving(built):
    local = QueryEngine(built)
    dist = QueryEngine(built, distributed=True)
    for q in _queries()[:4]:
        a = local.collapse_topk(q["terms"], k=5)
        b = dist.collapse_topk(q["terms"], k=5)
        assert a.equals(b)
        assert a["lang"].is_unique  # one representative per group
        assert (a["score"].diff().dropna() <= 1e-12).all()  # score-desc
    # the lang groups come from the resident doc stores: each row is the
    # best (6-dp score desc, doc_id asc) doc of its lang in the ranking
    ranked = pd.DataFrame(local.topk(["w0000"], k=10**6), columns=["doc_id", "score"])
    ranked = ranked.merge(local.resolve(ranked["doc_id"]), on="doc_id")
    ranked["score"] = ranked["score"].round(6)
    best = (
        ranked.sort_values(["score", "doc_id"], ascending=[False, True])
        .groupby("lang", sort=False)
        .head(1)
    )
    got = local.collapse_topk(["w0000"], k=3)
    assert got["doc_id"].tolist() == best["doc_id"].head(3).tolist()
    assert got["lang"].tolist() == best["lang"].head(3).tolist()


def test_more_like_this_excludes_seed_and_matches_distributed(built):
    local = QueryEngine(built)
    dist = QueryEngine(built, distributed=True)
    seed = int(local.bool_or(["w0000"])[0])
    res = local.more_like_this(seed, k=5)
    assert res and seed not in [d for d, _ in res]
    assert res == dist.more_like_this(seed, k=5)
    with pytest.raises(KeyError):
        local.more_like_this(10**15)


def test_boosted_and_synonym_identities(built):
    local = QueryEngine(built)
    dist = QueryEngine(built, distributed=True)
    terms = ["w0001", "w0003"]
    # all-ones boosts == the plain query (same wand path, same weights)
    plain = local.topk(terms, k=10)
    assert local.topk_boosted([(t, 1.0) for t in terms], k=10) == plain
    # singleton groups == the plain query scored exhaustively (bitwise:
    # wand and exhaustive accumulate identically per the topk contract)
    assert local.topk_synonyms([[t] for t in terms], k=10) == plain
    # distributed == in-process for both new paths
    boosts = [("w0001", 2.0), ("w0003", 0.5)]
    groups = [["w0001", "w0002"], ["w0003"]]
    assert local.topk_boosted(boosts, k=10) == dist.topk_boosted(boosts, k=10)
    assert local.topk_synonyms(groups, k=10) == dist.topk_synonyms(groups, k=10)
    # a boost reorders: doubling one term's weight must not be a no-op
    assert local.topk_boosted(boosts, k=10) != plain
    with pytest.raises(ValueError, match="boost"):
        local.topk_boosted([("w0001", 0.0)])


def test_explain_reproduces_topk_score_bitwise(built):
    local = QueryEngine(built)
    dist = QueryEngine(built, distributed=True)
    for q in _queries()[:5]:
        top = local.topk(q["terms"], k=3)
        for d, s in top:
            ex = local.explain(q["terms"], d)
            assert ex["score"] == s  # bitwise, per the topk contract
            assert ex["terms"] and sum(
                t["contribution"] for t in ex["terms"]
            ) == pytest.approx(s, abs=0)
            assert ex == dist.explain(q["terms"], d)
    # a doc matching nothing explains to zero with no rows
    ex0 = local.explain(["w0001"], 10**15)
    assert ex0["score"] == 0.0 and ex0["terms"] == []
    json.dumps(local.explain(["w0001"], int(local.bool_or(["w0001"])[0])))


def test_query_result_envelope(built):
    eng = QueryEngine(built)
    r = eng.query_result("w0000 w0003", k=5, resolve=True)
    json.dumps(r)  # serializable
    assert r["mapping_succeed"] and len(r["id_array"]) == 5
    assert len(r["resolved"]) == len(set(r["id_array"]))
    assert {m["doc_id"] for m in r["resolved"]} == set(r["id_array"])
    bad = eng.query_result("zzz_missing_term")
    assert not bad["mapping_succeed"] and bad["id_array"] == []
    assert bad["fail_reason"]


@pytest.fixture(scope="module")
def multi_gen(ray_session, tmp_path_factory):
    """Two indexes, keyed by ``store_positions``: a 2-file base build
    over 4 salts (bucket 1 gets no segments at all), two
    ``extend_index`` generations (both clamp into the tail bucket, so
    its terms hold several runs) and tombstones in the base and the
    tail."""
    from torchtrajectory_ray.pipelines.build import delete_docs, extend_index

    root = tmp_path_factory.mktemp("multigen")
    base = fixtures.write_webpages(str(root / "g0"), 120, num_files=2)
    gens = [
        fixtures.write_webpages(str(root / f"g{g}"), 60, num_files=1)
        for g in (1, 2)
    ]
    out = {}
    for positions in (False, True):
        cfg = IndexConfig(num_term_shards=2, num_salts=4,
                          store_positions=positions, tokenize_batch_size=64)
        idx = str(root / f"idx-{positions}")
        build_index(base, idx, cfg)
        for paths in gens:
            extend_index(idx, paths, cfg)
        live = QueryEngine(idx).find_in_range()
        delete_docs(idx, live[::9])
        out[positions] = idx
    return out


def test_lazy_load_mode_matches_memory(built, multi_gen, monkeypatch):
    """load_mode="lazy" (term_id row-group pushdown probes, per-call doc
    stores) must produce bitwise-identical results to the in-memory
    columnar stores — on a one-generation index, and on
    multi-generation indexes with tombstones, an empty bucket and
    unknown terms; ``resolve``, the lang / ts filters and
    ``collapse_topk`` included.  A lazy filtered ``topk`` and a lazy
    ``collapse_topk`` read the docs shards once per bucket with
    candidates."""
    from torchtrajectory_ray.state import segment

    loads = []
    real_load = segment._DocStore.load.__func__

    def counted_load(cls, *args, **kwargs):
        loads.append(1)
        return real_load(cls, *args, **kwargs)

    monkeypatch.setattr(segment._DocStore, "load", classmethod(counted_load))
    mem = QueryEngine(built)
    lazy = QueryEngine(built, load_mode="lazy")
    for q in _queries()[:6]:
        assert mem.topk(q["terms"], k=10) == lazy.topk(q["terms"], k=10)
        assert mem.bool_or(q["terms"]).tolist() == lazy.bool_or(q["terms"]).tolist()
    # cache hit path
    q = _queries()[0]
    assert mem.topk(q["terms"], k=10) == lazy.topk(q["terms"], k=10)

    phrase = ["needle_phrase_a", "needle_phrase_b"]
    queries = [q["terms"] for q in _queries()] + [
        phrase,
        ["w0000", "zzz_unknown_term"],
        ["zzz_unknown_term"],
    ]
    phrase_hits = {}
    for positions, idx in multi_gen.items():
        mem = QueryEngine(idx)
        lazy = QueryEngine(idx, load_mode="lazy")
        assert mem.searchers[1].seg_paths == []  # zero tables to join
        ts = pads.dataset(mem.docs_paths, format="parquet").to_table(
            columns=["warc_ts"]
        )["warc_ts"].cast(pa.int64()).to_numpy()
        mid = int(np.median(ts))
        filters = ({"lang": "pt"}, {"ts_lo": mid}, {"lang": "en", "ts_hi": mid})
        tail = mem.searchers[-1]
        tids, _ = mem.resolve_terms(["w0000"])
        runs = tail._rows(tids[0])
        assert len(runs) == 2 and all(len(r["blk_last"]) for r in runs)
        ids = tail.postings(tids[0])[0]  # runs join in generation order
        assert ids.size == sum(r["df"] for r in runs)
        assert (np.diff(ids) > 0).all()
        for terms in queries:
            for method in ("wand", "exhaustive"):
                for require_all in (False, True):
                    got = mem.topk(terms, k=10, method=method,
                                   require_all=require_all)
                    assert got == lazy.topk(terms, k=10, method=method,
                                            require_all=require_all)
            assert mem.bool_or(terms).tolist() == lazy.bool_or(terms).tolist()
            ids = [d for d, _ in mem.topk(terms, k=10)]
            assert mem.explain_docs(terms, ids) == lazy.explain_docs(terms, ids)
            pd.testing.assert_frame_equal(mem.resolve(ids), lazy.resolve(ids))
            tids, _ = lazy.resolve_terms(terms)
            hit_buckets = sum(
                any(len(s.postings(t)[0]) for t in tids) for s in lazy.searchers
            )
            for filt in filters:
                for method in ("wand", "exhaustive"):
                    loads.clear()
                    got = lazy.topk(terms, k=10, method=method, **filt)
                    assert len(loads) == hit_buckets
                    assert got == mem.topk(terms, k=10, method=method, **filt)
                got = mem.bool_or(terms, **filt).tolist()
                assert got == lazy.bool_or(terms, **filt).tolist()
                loads.clear()
                collapsed = lazy.collapse_topk(terms, k=5, **filt)
                assert len(loads) == hit_buckets
                pd.testing.assert_frame_equal(
                    mem.collapse_topk(terms, k=5, **filt), collapsed
                )
        hits = mem.phrase_and(phrase)
        assert hits.size and hits.tolist() == lazy.phrase_and(phrase).tolist()
        phrase_hits[positions] = hits.tolist()
        if positions:
            tids, _ = mem.resolve_terms(phrase)
            for s_mem, s_lazy in zip(mem.searchers, lazy.searchers):
                for tid in tids:
                    for a, b in zip(
                        s_mem.positions_full(tid), s_lazy.positions_full(tid)
                    ):
                        assert a.tolist() == b.tolist()
    # the positional and the text route agree across generations and
    # tombstones
    assert phrase_hits[True] == phrase_hits[False]


def _scan_resolve(eng, doc_ids) -> pd.DataFrame:
    """The dataset-scan hydration the doc stores replaced: a ``doc_id``
    isin filter over every docs shard, tombstoned ids dropped first."""
    arr = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    arr = arr[~np.isin(arr, eng._deleted_all)]
    t = pads.dataset(eng.docs_paths, format="parquet").to_table(
        columns=["doc_id", "url", "lang", "doclen"],
        filter=pads.field("doc_id").isin(pa.array(arr, pa.int64())),
    )
    return t.to_pandas().sort_values("doc_id").reset_index(drop=True)


def test_resolve_frames_equal_across_engines(built, multi_gen):
    """Hydration from the resident doc stores, the lazy per-call store and
    the distributed engine's driver-side stores returns the frame the
    dataset scan returns — on a base build plus two generations with
    tombstones: dtypes, order, duplicate ids, unknown ids (ids of another
    index too, as federated search passes them) and empty input."""
    idx = multi_gen[True]
    mem = QueryEngine(idx)
    engines = [mem, QueryEngine(idx, load_mode="lazy")]
    engines.append(QueryEngine(idx, distributed=True))
    live, dead = mem.find_in_range(), mem._deleted_all
    assert dead.size and mem.n_docs == live.size + dead.size
    other = QueryEngine(built).find_in_range()  # overlapping dense ids
    cases = [
        [],
        np.empty(0, dtype=np.int64),
        live[:10].tolist(),
        live[::-7].tolist() + live[:5].tolist() + live[:5].tolist(),
        dead[:5].tolist() + live[-5:].tolist(),
        [10**15, (40 << 34) + 3, -1] + live[:3].tolist(),
        other.tolist(),
        np.concatenate([live, dead]),
    ]
    for ids in cases:
        want = _scan_resolve(mem, ids)
        for eng in engines:
            pd.testing.assert_frame_equal(eng.resolve(ids), want)
    assert list(want.columns) == ["doc_id", "url", "lang", "doclen"]
    assert len(want) == live.size
    empty = mem.resolve([])
    assert empty.empty and list(empty.dtypes) == list(want.dtypes)


def test_distributed_engine_holds_exactly_its_bucket_actors(built):
    """A distributed engine starts ``num_salts`` bucket actors and nothing
    else: its searchers hold exactly the CPUs it takes, and killing them
    returns every CPU within 20 s (what a benchmark run waits for)."""
    import time

    import ray

    def free_cpus(want: float) -> float:
        """Free CPUs once they equal ``want``, or after 20 s."""
        deadline = time.monotonic() + 20
        while (free := ray.available_resources().get("CPU", 0.0)) != want:
            if time.monotonic() > deadline:
                break
            time.sleep(0.2)
        return free

    # earlier tests' actors die when their engines are collected
    start = free_cpus(ray.cluster_resources()["CPU"])
    eng = QueryEngine(built, distributed=True)
    eng.update()  # every actor has loaded its bucket
    assert len(eng.searchers) == eng.num_salts
    assert free_cpus(start - eng.num_salts) == start - eng.num_salts
    for actor in eng.searchers:
        ray.kill(actor)
    assert free_cpus(start) == start


def test_batch_pipeline_honors_filters(ray_session, tmp_path):
    """Per-query lang filters must flow through the batch scorer pipeline
    exactly as they do through engine.batch_topk."""
    paths = fixtures.write_webpages(str(tmp_path / "c"), 120, num_files=2)
    out = str(tmp_path / "i")
    build_index(paths, out, IndexConfig(num_term_shards=2, num_salts=2))
    qs = [
        {"query_id": 0, "terms": ["w0000"], "lang": "pt"},
        {"query_id": 1, "terms": ["w0000"]},
    ]
    eng = QueryEngine(out)
    expect = eng.batch_topk(qs, k=20)
    got = batch_topk_df(out, qs, k=20)
    assert got.equals(expect.sort_values(["query_id", "rank"]).reset_index(drop=True))
    # the filtered query returns fewer docs than the unfiltered one
    assert (got.query_id == 0).sum() < (got.query_id == 1).sum()


def test_runtime_scoring_param_swap(built):
    """engine.update(k1, b) must rescore under the new parameters without
    a rebuild — wand stays parity with the oracle at the swapped values
    (possible because bound metadata is (max_tf, min_dl))."""
    from torchtrajectory_ray import oracle

    eng = QueryEngine(built)
    ids = [fixtures.dense_doc_id(i, N_DOCS, 3) for i in range(N_DOCS)]
    orc = oracle.build_oracle(ids, [" ".join(fixtures.doc_tokens(i)) for i in range(N_DOCS)])
    eng.update(k1=2.0, b=0.3)
    for terms in (["w0000", "w0003"], ["w0001", "w0100", "w0500"]):
        got = eng.topk(terms, k=10, method="wand")
        exp = orc.topk(terms, k=10, k1=2.0, b=0.3)
        assert [d for d, _ in got] == [d for d, _ in exp]
        for (_, gs), (_, es) in zip(got, exp):
            assert abs(gs - es) < 1e-9
    # swap back
    eng.update(k1=1.2, b=0.75)
    assert eng.topk(["w0000"], k=5) == QueryEngine(built).topk(["w0000"], k=5)


# --- round-3 serving features: fuzzy, facets, snippets ---------------------


def test_fuzzy_terms_matches_bruteforce_levenshtein(built):
    from torchtrajectory_ray.functions.fuzzy import levenshtein_ref
    from torchtrajectory_ray.functions.text import term_hash

    eng = QueryEngine(built)
    vocab = eng.term_dict.term.to_pylist()
    probes = [vocab[0], vocab[7] + "x", vocab[11][:-1], "zz_nothing_zz"]
    for p in probes:
        got = eng.fuzzy_terms(p)
        exp = sorted(t for t in vocab if levenshtein_ref(p, t) <= 1)
        assert got["term"].tolist() == exp, p
        for t, df in zip(got["term"], got["df"]):
            assert df == eng.term_dict.df_of([term_hash(t)])[0]


def test_fuzzy_or_unions_variant_postings(built):
    eng = QueryEngine(built)
    probe = eng.term_dict.term[3].as_py()
    variants = eng.fuzzy_terms(probe)["term"].tolist()
    assert probe in variants  # distance 0 included
    got = eng.fuzzy_or(probe)
    expect = eng.bool_or(variants)
    assert got.tolist() == expect.tolist()


def test_facet_counts_resident_equals_lazy(built):
    eng = QueryEngine(built)
    terms = _queries()[0]["terms"]
    resident = eng.facet_counts(terms, facet_col="lang")
    # lazy mode reads the match set's docs with one pushdown read
    lazy = QueryEngine(built, load_mode="lazy").facet_counts(terms, facet_col="lang")
    assert resident.equals(lazy)
    assert int(resident["n_docs"].sum()) == len(eng.bool_or(terms))


def test_facet_counts_and_mode_and_empty(built):
    import pandas as pd

    eng = QueryEngine(built)
    terms = _queries()[1]["terms"]
    f = eng.facet_counts(terms, mode="and")
    assert int(f["n_docs"].sum()) == len(eng.bool_and(terms))
    empty = eng.facet_counts(["zzz_not_a_term"])
    assert len(empty) == 0 and list(empty.columns) == ["lang", "n_docs"]


def test_search_with_snippets_window_and_rank(built):
    eng = QueryEngine(built)
    qs = _queries()[:4]
    out = eng.search_with_snippets(qs, k=5, window=3)
    top = eng.batch_topk(qs, k=5)
    assert out[["query_id", "rank", "doc_id"]].equals(
        top[["query_id", "rank", "doc_id"]]
    )
    terms_by_qid = {q["query_id"]: set(q["terms"]) for q in qs}
    for row in out.itertuples():
        toks = row.snippet.split(" ")
        assert 1 <= len(toks) <= 7  # window=3 -> at most 2w+1 tokens
        assert terms_by_qid[row.query_id] & set(toks)  # contains a hit


def test_topk_and_equals_and_filtered_topk(built):
    """Ranked-AND == plain top-k restricted to the bool_and doc set
    (same accumulation order -> bit-identical floats, exact equality)."""
    eng = QueryEngine(built)
    nonempty = 0
    for q in _queries():
        and_ids = {int(d) for d in eng.bool_and(q["terms"])}
        full = eng.topk(q["terms"], k=N_DOCS + 10, method="exhaustive")
        expect = sorted(
            ((d, s) for d, s in full if d in and_ids),
            key=lambda t: (-t[1], t[0]),
        )[:10]
        got = eng.topk_and(q["terms"], k=10, method="exhaustive")
        assert got == expect
        nonempty += bool(expect)
    assert nonempty >= 3  # the workload actually exercises nonempty ANDs


def test_topk_and_wand_equals_exhaustive(built):
    eng = QueryEngine(built)
    for q in _queries():
        assert eng.topk_and(q["terms"], k=10, method="wand") == eng.topk_and(
            q["terms"], k=10, method="exhaustive"
        )


def test_topk_and_edge_cases(built):
    eng = QueryEngine(built)
    # a query term with no postings anywhere -> empty AND, even though
    # the other term matches plenty
    assert eng.topk_and(["needle_phrase_a", "zzz_not_a_term"], k=10) == []
    # single-term AND degenerates to plain top-k
    t = _queries()[0]["terms"][:1]
    assert eng.topk_and(t, k=10) == eng.topk(t, k=10)


def test_topk_and_distributed_matches_inprocess(built):
    local = QueryEngine(built)
    dist = QueryEngine(built, distributed=True)
    for q in _queries()[:6]:
        assert local.topk_and(q["terms"], k=10) == dist.topk_and(q["terms"], k=10)


def test_topk_pagination_partitions_the_ranking(ray_session):
    """Pages tile the full ranking: no overlap, no gaps, stable order."""
    from torchtrajectory_ray.pipelines.corpus import _engine, documents_index

    eng = _engine(documents_index("/root/testdata/sf0.001"))
    full = eng.topk(["the", "data"], k=30)
    pages = [eng.topk_page(["the", "data"], k=10, page=p) for p in range(3)]
    assert [x for pg in pages for x in pg] == full
    import pytest

    with pytest.raises(ValueError, match="page"):
        eng.topk_page(["the"], k=5, page=-1)


def test_regex_terms_generalizes_prefix(ray_session):
    """regex 'sp.*' == prefix_terms('sp'); empty pattern edge; regex_or
    equals the bool_or over the matched dictionary subset."""
    from torchtrajectory_ray.pipelines.corpus import _engine, documents_index

    eng = _engine(documents_index("/root/testdata/sf0.001"))
    assert eng.regex_terms("sp.*") == eng.prefix_terms("sp")
    assert eng.regex_terms("zzz.+") == []
    assert eng.regex_or("zzz.+").size == 0
    terms = eng.regex_terms("[st]..")
    assert terms and all(len(t) == 3 and t[0] in "st" for t in terms)
    assert eng.regex_or("[st]..").tolist() == eng.bool_or(terms).tolist()


def test_topk_ts_window_matches_filtered_oracle(ray_session, tmp_path):
    """Ranked retrieval under a warc_ts window: scores stay GLOBAL
    (filter narrows candidates, not stats), so the expected page is the
    unfiltered oracle ranking restricted to in-window docs, cut to k.
    Exercised on a fixture corpus — the sf documents table has an
    all-null warc_ts."""
    import pyarrow.dataset as pads

    from torchtrajectory_ray import fixtures, oracle
    from torchtrajectory_ray.config import IndexConfig
    from torchtrajectory_ray.pipelines.build import build_index
    from torchtrajectory_ray.state.engine import QueryEngine

    paths = fixtures.write_webpages(str(tmp_path / "c"), 200, num_files=2)
    idx = str(tmp_path / "i")
    build_index(paths, idx, IndexConfig(num_term_shards=2, num_salts=4))
    eng = QueryEngine(idx)
    t = pads.dataset(eng.docs_paths, format="parquet").to_table(
        columns=["doc_id", "warc_ts", "text"]
    )
    ts = t["warc_ts"].cast("int64").to_numpy(zero_copy_only=False)
    lo, hi = int(np.quantile(ts, 0.25)), int(np.quantile(ts, 0.75))
    in_win = {
        int(d)
        for d, v in zip(t["doc_id"].to_numpy(), ts)
        if lo <= v <= hi
    }
    assert 0 < len(in_win) < t.num_rows
    orc = oracle.build_oracle(
        [int(d) for d in t["doc_id"].to_numpy()], t["text"].to_pylist()
    )
    for terms in (["w0000"], ["w0001", "w0004"]):
        for method in ("wand", "exhaustive"):
            got = eng.topk(terms, k=10, method=method, ts_lo=lo, ts_hi=hi)
            full = orc.topk(terms, k=10**9)
            want = [(d, s) for d, s in full if d in in_win][:10]
            assert [(int(a), round(float(b), 9)) for a, b in got] == [
                (int(a), round(float(b), 9)) for a, b in want
            ], (terms, method)


def test_distributed_matches_inprocess_round3_third_pass_ops(built):
    """The round-3 third-pass engine ops through the ray.remote searcher
    fan-out: identical answers to the in-process engine."""
    local = QueryEngine(built)
    dist = QueryEngine(built, distributed=True)
    terms = _queries()[0]["terms"] + _queries()[1]["terms"]
    assert (
        local.bool_min_match(terms, 2).tolist()
        == dist.bool_min_match(terms, 2).tolist()
    )
    assert local.topk_min_match(terms, 2, k=10) == dist.topk_min_match(
        terms, 2, k=10
    )
    assert local.prf_topk(terms[:2], k=10) == dist.prf_topk(terms[:2], k=10)
    assert local.topk_corrected([terms[0] + "x"], k=10) == dist.topk_corrected(
        [terms[0] + "x"], k=10
    )
    assert local.wildcard_or(terms[0][:2] + "*").tolist() == dist.wildcard_or(
        terms[0][:2] + "*"
    ).tolist()
    assert local.sort_by(terms, field="doclen", k=10).equals(
        dist.sort_by(terms, field="doclen", k=10)
    )
    assert local.facet_counts(terms, facet_col="doclen", bucket_width=32).equals(
        dist.facet_counts(terms, facet_col="doclen", bucket_width=32)
    )


def test_explain_docs_matches_per_doc_explain(built):
    """The batched multi-doc decomposition must agree row-for-row with
    the single-doc explain (same scorer, same stats), and per-doc
    contributions must sum to the topk score."""
    eng = QueryEngine(built)
    terms = ["w0001", "w0002"]
    top = eng.topk(terms, k=5)
    want = [d for d, _ in top]
    rows = eng.explain_docs(terms, want)
    by_doc = {}
    for r in rows:
        by_doc.setdefault(r["doc_id"], []).append(r)
    score_of = dict(top)
    for d in want:
        ex = eng.explain(terms, d)
        got = sorted(
            (r["term"], r["tf"], r["doclen"], r["df"]) for r in by_doc.get(d, [])
        )
        exp = sorted(
            (r["term"], r["tf"], r["doclen"], r["df"]) for r in ex["terms"]
        )
        assert got == exp
        total = sum(r["contrib"] for r in by_doc.get(d, []))
        assert abs(total - score_of[d]) < 1e-9
