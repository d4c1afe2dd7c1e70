"""End-to-end: Ray Data index build → query engine vs the pure-Python oracle.

Rank-identity + score tolerance is the north-rule target (BASELINE.json);
the oracle is exhaustive and unpruned, the engine's wand path is pruned —
they must agree.
"""

from __future__ import annotations

import numpy as np
import pytest

from torchtrajectory_ray import fixtures, oracle
from torchtrajectory_ray.config import IndexConfig
from torchtrajectory_ray.pipelines.build import build_index
from torchtrajectory_ray.state.engine import QueryEngine

N_DOCS = 400

# doc ids in the built index are dense per-input-file ids
# (ordinal << 34 | row) — deterministic w.r.t. the sorted input list
# (prepare_table doc_id_base path); N_FILES must match the fixture below
N_FILES = 4
HID = [fixtures.dense_doc_id(i, N_DOCS, N_FILES) for i in range(N_DOCS)]
ROW_OF = {h: i for i, h in enumerate(HID)}


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    data_dir = str(tmp_path_factory.mktemp("corpus"))
    out_dir = str(tmp_path_factory.mktemp("index"))
    paths = fixtures.write_webpages(data_dir, N_DOCS, num_files=N_FILES)
    cfg = IndexConfig(
        num_term_shards=3, num_salts=4, block_size=16, tokenize_batch_size=64,
        store_positions=True,
    )
    manifest = build_index(paths, out_dir, cfg)
    tbl = fixtures.webpages_table(N_DOCS)
    orc = oracle.build_oracle(HID, tbl["text"].to_pylist())
    return manifest, out_dir, orc


def test_manifest_and_stats(built):
    manifest, _, orc = built
    assert manifest["stats"]["n_docs"] == orc.n_docs == N_DOCS
    assert manifest["stats"]["avgdl"] == pytest.approx(orc.avgdl)
    assert len(manifest["lineage"]) == 4
    assert all(not r["skipped"] for r in manifest["lineage"])
    total_postings = sum(s["n_postings"] for s in manifest["segments"])
    orc_postings = sum(len(p) for p in orc.postings.values())
    assert total_postings == orc_postings


def test_postings_parity(built):
    """Posting-list construction parity: decoded (doc_ids, tfs) per term
    must equal the oracle's dict-of-dicts (analog of the reference's
    _trajId/_pos file parity, InvertedIndex.java:49-87)."""
    _, out_dir, orc = built
    eng = QueryEngine(out_dir)
    from torchtrajectory_ray.functions.text import term_hash

    for term in ["w0000", "w0005", "w0123", "w1999", "needle_unique", "needle_pair"]:
        golden = orc.postings.get(term, {})
        tid = term_hash(term)
        got: dict[int, int] = {}
        doclens_seen = {}
        for s in eng.searchers:
            ids, tfs, dls = s.postings(tid)
            assert np.all(np.diff(ids) > 0)  # strictly sorted, no dup docs
            for d, tf, dl in zip(ids, tfs, dls):
                assert d not in got  # buckets are disjoint
                got[int(d)] = int(tf)
                doclens_seen[int(d)] = int(dl)
        assert got == golden, f"postings mismatch for {term}"
        for d, dl in doclens_seen.items():
            assert dl == orc.doclen[d]


def test_dictionary_df(built):
    _, out_dir, orc = built
    eng = QueryEngine(out_dir)
    from torchtrajectory_ray.functions.text import term_hash

    assert len(eng.term_dict.ids) == len(orc.postings)
    for term in ["w0000", "w0100", "needle_unique"]:
        assert eng.term_dict.df_of([term_hash(term)])[0] == len(orc.postings[term])


@pytest.mark.parametrize("method", ["exhaustive", "wand"])
def test_topk_rank_identity(built, method):
    _, out_dir, orc = built
    eng = QueryEngine(out_dir)
    for q in fixtures.query_set(30, N_DOCS):
        got = eng.topk(q["terms"], k=10, method=method)
        exp = orc.topk(q["terms"], k=10)
        assert [d for d, _ in got] == [d for d, _ in exp], f"query {q}"
        for (_, gs), (_, es) in zip(got, exp):
            assert gs == pytest.approx(es, abs=1e-9)


def test_wand_equals_exhaustive_bitwise(built):
    _, out_dir, _ = built
    eng = QueryEngine(out_dir)
    for q in fixtures.query_set(20, N_DOCS):
        a = eng.topk(q["terms"], k=10, method="wand")
        b = eng.topk(q["terms"], k=10, method="exhaustive")
        assert a == b  # bit-identical scores, same docs


def test_boolean_parity(built):
    _, out_dir, orc = built
    eng = QueryEngine(out_dir)
    for q in fixtures.query_set(30, N_DOCS):
        assert eng.bool_or(q["terms"]).tolist() == orc.bool_or(q["terms"])
        assert eng.bool_and(q["terms"]).tolist() == orc.bool_and(q["terms"])


def test_needles(built):
    _, out_dir, _ = built
    eng = QueryEngine(out_dir)
    assert eng.bool_or(["needle_unique"]).tolist() == sorted([HID[fixtures.NEEDLE_UNIQUE_DOC]])
    assert eng.bool_or(["needle_pair"]).tolist() == sorted(
        HID[i] for i in fixtures.NEEDLE_PAIR_DOCS if i < N_DOCS
    )
    top = eng.topk(["needle_unique"], k=5)
    assert top[0][0] == HID[fixtures.NEEDLE_UNIQUE_DOC]
    assert eng.topk(["zzz_missing_term"], k=5) == []


def test_filters(built):
    """warc_ts / lang predicate filters (analog of the time-span result
    filter, TrajectoryResolver.java:82-100)."""
    _, out_dir, orc = built
    eng = QueryEngine(out_dir)
    tbl = fixtures.webpages_table(N_DOCS)
    langs = tbl["lang"].to_pylist()
    got = eng.topk(["w0000"], k=400, lang="pt")
    assert len(got) > 0
    assert all(langs[ROW_OF[d]] == "pt" for d, _ in got)
    ts_lo = fixtures.EPOCH_US + 100 * 137_000_000
    ts_hi = fixtures.EPOCH_US + 200 * 137_000_000
    got = eng.bool_or(["w0000"], lang=None, ts_lo=ts_lo, ts_hi=ts_hi)
    base = orc.bool_or(["w0000"])
    assert got.tolist() == sorted(d for d in base if 100 <= ROW_OF[d] <= 200)
