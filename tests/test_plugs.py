"""Pluggable scorer + tokenizer points and the terms-free range query.

Reference parity targets: SimilarityFunction swap (SimilarityFunction.java
:44-47) / Engine.update (Engine.java:165-171), the Mappers factory
(Mappers.java:22-44), and pure range search (LEVI.java:73-92).
"""

from __future__ import annotations

import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from torchtrajectory_ray import fixtures
from torchtrajectory_ray.config import IndexConfig
from torchtrajectory_ray.pipelines.build import build_index
from torchtrajectory_ray.state.engine import QueryEngine

N = 150
CFG = dict(num_term_shards=2, num_salts=2)


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("plugs")
    paths = fixtures.write_webpages(str(tmp / "c"), N, num_files=2)
    d = str(tmp / "i")
    build_index(paths, d, IndexConfig(**CFG))
    return d


def _tfidf_oracle(terms: list[str]) -> list[tuple[int, float]]:
    """Driver-side exhaustive log-tf·idf over the fixture corpus."""
    ids = [fixtures.dense_doc_id(i, N, 2) for i in range(N)]
    postings: dict[str, dict[int, int]] = {}
    for i, d in enumerate(ids):
        for t in fixtures.doc_tokens(i):
            postings.setdefault(t, {})
            postings[t][d] = postings[t].get(d, 0) + 1
    scores: dict[int, float] = {}
    for t in sorted(set(terms)):
        pl = postings.get(t)
        if not pl:
            continue
        w = math.log(1.0 + N / len(pl))
        for d, tf in pl.items():
            scores[d] = scores.get(d, 0.0) + w * (1.0 + math.log(tf))
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]


def test_tfidf_scorer_matches_oracle_and_wand_equals_exhaustive(built):
    eng = QueryEngine(built, scorer="tfidf")
    for terms in (["w0000", "w0003"], ["w0001"], ["w0002", "w0005", "w0009"]):
        wand = eng.topk(terms, k=10, method="wand")
        exact = eng.topk(terms, k=10, method="exhaustive")
        assert wand == exact  # bitwise: same accumulation order
        exp = _tfidf_oracle(terms)
        assert [d for d, _ in wand] == [d for d, _ in exp]
        assert np.allclose([s for _, s in wand], [s for _, s in exp])


def test_runtime_scorer_swap_is_equivalent_to_fresh_engine(built):
    eng = QueryEngine(built)  # bm25
    bm25_before = eng.topk(["w0000", "w0003"], k=10)
    eng.update(scorer="tfidf")
    swapped = eng.topk(["w0000", "w0003"], k=10)
    fresh = QueryEngine(built, scorer="tfidf").topk(["w0000", "w0003"], k=10)
    assert swapped == fresh
    assert swapped != bm25_before  # the measure actually changed
    eng.update(scorer="bm25")
    assert eng.topk(["w0000", "w0003"], k=10) == bm25_before


def test_alternate_tokenizer_through_full_build(ray_session, tmp_path):
    """An index built with the 'ws' tokenizer must index punctuation-
    attached tokens AND prepare queries with the same tokenizer (manifest
    carries the tokenizer name)."""
    texts = [
        "Hello, world! spark runs.",
        "hello world spark join",
        "spark. spark, spark!",
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * 3, pa.string()),
        }
    )
    src = str(tmp_path / "docs.parquet")
    pq.write_table(tbl, src)

    d_ws = str(tmp_path / "i_ws")
    build_index([src], d_ws, IndexConfig(**CFG, tokenizer="ws"))
    d_def = str(tmp_path / "i_def")
    build_index([src], d_def, IndexConfig(**CFG))

    ws, default = QueryEngine(d_ws), QueryEngine(d_def)
    # dictionary reflects the mapper: punctuation survives under ws only
    ws_terms = set(ws.term_dict.term.to_pylist())
    def_terms = set(default.term_dict.term.to_pylist())
    assert "world!" in ws_terms and "hello," in ws_terms
    assert "world!" not in def_terms and "world" in def_terms
    # query prep follows the BUILD's tokenizer: a raw string query hits
    # the matching dictionary entries in each engine
    assert ws.bool_or("Hello, world!").tolist() == [1]
    assert default.bool_or("Hello, world!").tolist() == [1, 2]
    # doc 3's tf differs per tokenizer: ws sees three distinct tokens
    assert ws.bool_and(["spark,", "spark!"]).tolist() == [3]
    got = default.topk(["spark"], k=3)
    assert 3 in [d for d, _ in got]
    # doclen recorded with the build tokenizer
    assert ws.resolve([1])["doclen"].tolist() == [4]
    assert default.resolve([1])["doclen"].tolist() == [4]


def test_unknown_plug_names_rejected(built):
    with pytest.raises(ValueError, match="unknown scorer"):
        QueryEngine(built, scorer="nope")
    with pytest.raises(ValueError, match="unknown tokenizer"):
        IndexConfig(tokenizer="nope")
        from torchtrajectory_ray.functions.text import get_tokenizer

        get_tokenizer("nope")


def test_find_in_range_terms_free(built):
    """Pure metadata window query: ids must equal a driver-side filter of
    the fixture metadata — no query terms involved."""
    eng = QueryEngine(built)
    ids = [fixtures.dense_doc_id(i, N, 2) for i in range(N)]
    ts = [fixtures.EPOCH_US + i * 137_000_000 for i in range(N)]
    langs = [fixtures._LANGS[i % 10] for i in range(N)]
    lo, hi = ts[20], ts[120]
    got = eng.find_in_range(ts_lo=lo, ts_hi=hi)
    exp = sorted(ids[i] for i in range(N) if lo <= ts[i] <= hi)
    assert got.tolist() == exp
    got2 = eng.find_in_range(ts_lo=lo, ts_hi=hi, lang="en")
    exp2 = sorted(
        ids[i] for i in range(N) if lo <= ts[i] <= hi and langs[i] == "en"
    )
    assert got2.tolist() == exp2
    # doclen window composes
    dl = [fixtures.doc_length(i) for i in range(N)]
    got3 = eng.find_in_range(doclen_lo=30, doclen_hi=60)
    exp3 = sorted(ids[i] for i in range(N) if 30 <= dl[i] <= 60)
    assert got3.tolist() == exp3


def test_bm25plus_wand_equals_exhaustive_and_shifts_scores(built):
    """Third registered measure (BM25+): the +delta shift keeps the
    (max_tf, min_dl) block bound dominating, so WAND stays exact; and
    per-term contributions are the plain-BM25 tf_norm plus delta*idf'
    with the BM25+ idf (checked via the explain breakdown)."""
    import math

    eng = QueryEngine(built, scorer="bm25plus")
    for terms in (["w0000", "w0003"], ["w0001"], ["w0002", "w0005", "w0009"]):
        wand = eng.topk(terms, k=10, method="wand")
        exact = eng.topk(terms, k=10, method="exhaustive")
        assert wand == exact and wand
    d, s = eng.topk(["w0001"], k=1)[0]
    ex = eng.explain(["w0001"], d)
    assert ex["score"] == s
    row = ex["terms"][0]
    # idf = ln((N+1)/df); tf_norm carries the +1.0 shift
    assert row["idf"] == pytest.approx(math.log((eng.n_docs + 1) / row["df"]))
    plain = QueryEngine(built).explain(["w0001"], d)["terms"][0]
    assert row["tf_norm"] == pytest.approx(plain["tf_norm"] + 1.0)
