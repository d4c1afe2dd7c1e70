"""Regression tests for review findings: stale-checkpoint reuse, orphan
generations, filters on a default engine, row-group map desync."""

from __future__ import annotations

import dataclasses
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from torchtrajectory_ray import fixtures, oracle
from torchtrajectory_ray.config import IndexConfig
from torchtrajectory_ray.pipelines.build import build_index

from torchtrajectory_ray.state.engine import QueryEngine

N = 120


def test_config_change_rerun_rebuilds_checkpoints(ray_session, tmp_path):
    """A rerun into the same out_dir with a CHANGED config after a crash
    (manifest missing) must rebuild artifacts, not silently reuse ones
    computed under the old segment grid."""
    paths = fixtures.write_webpages(str(tmp_path / "c"), N, num_files=2)
    d = str(tmp_path / "i")
    build_index(paths, d, IndexConfig(num_term_shards=2, num_salts=4))
    os.remove(os.path.join(d, "manifest.json"))  # simulate crash
    # different grid: old partials' segment ids are meaningless now
    shutil.rmtree(os.path.join(d, "segments"))
    os.makedirs(os.path.join(d, "segments"))
    for p in os.listdir(os.path.join(d, "dict")):
        os.remove(os.path.join(d, "dict", p))
    m = build_index(paths, d, IndexConfig(num_term_shards=2, num_salts=2))
    # nothing may be "skipped" from the old config
    assert all(not r["skipped"] for r in m["lineage"])
    eng = QueryEngine(d)
    ids = [fixtures.dense_doc_id(i, N, 2) for i in range(N)]
    orc = oracle.build_oracle(ids, [" ".join(fixtures.doc_tokens(i)) for i in range(N)])
    got = eng.topk(["w0000", "w0003"], k=10)
    exp = orc.topk(["w0000", "w0003"], k=10)
    assert [x for x, _ in got] == [x for x, _ in exp]


def test_filters_on_default_engine_match_docs_shards(ray_session, tmp_path):
    """A default-opened engine serves lang / warc_ts filters from its
    resident doc stores: filtered ``bool_or`` and ``topk`` equal the
    unfiltered answers masked by the docs shards' own columns."""
    paths = fixtures.write_webpages(str(tmp_path / "c"), N, num_files=2)
    d = str(tmp_path / "i")
    build_index(paths, d, IndexConfig(num_term_shards=2, num_salts=2))
    eng = QueryEngine(d)
    cols = ["doc_id", "lang", "warc_ts"]
    docs = pa.concat_tables([pq.read_table(p, columns=cols) for p in eng.docs_paths])
    ids = docs["doc_id"].to_numpy()
    lang = docs["lang"].to_numpy(zero_copy_only=False)
    ts = docs["warc_ts"].cast(pa.int64()).to_numpy()
    ts_lo = int(np.median(ts))
    terms = ["w0000", "w0003"]
    every = eng.bool_or(terms)
    ranked = eng.topk(terms, k=N)
    for filt, keep in (
        ({"lang": "en"}, lang == "en"),
        ({"ts_lo": ts_lo}, ts >= ts_lo),
        ({"ts_hi": ts_lo}, ts <= ts_lo),
        ({"lang": "en", "ts_lo": ts_lo}, (lang == "en") & (ts >= ts_lo)),
    ):
        allowed = set(ids[keep].tolist())
        want = [d for d in every.tolist() if d in allowed]
        assert 0 < len(want) < len(every)  # the filter bites
        assert eng.bool_or(terms, **filt).tolist() == want
        assert eng.topk(terms, k=N, **filt) == [
            (d, s) for d, s in ranked if d in allowed
        ]


def test_orphan_generation_not_served(ray_session, tmp_path):
    """Segment files of a crashed (un-manifested) extend generation must
    be invisible to the engine — segments come from the manifest."""
    paths = fixtures.write_webpages(str(tmp_path / "c"), N, num_files=2)
    d = str(tmp_path / "i")
    build_index(paths, d, IndexConfig(num_term_shards=2, num_salts=2))
    before = QueryEngine(d).bool_or(["w0000"]).tolist()
    # orphan generation: copy an existing segment under gen-001/ without
    # touching the manifest (as if extend crashed before its swap)
    seg_dir = os.path.join(d, "segments")
    orphan = os.path.join(seg_dir, "gen-001")
    os.makedirs(orphan)
    src = sorted(p for p in os.listdir(seg_dir) if p.endswith(".parquet"))[0]
    shutil.copy(os.path.join(seg_dir, src), os.path.join(orphan, src))
    after = QueryEngine(d).bool_or(["w0000"]).tolist()
    assert after == before  # duplicated postings would change the result


def test_rgmap_stays_in_sync_with_physical_row_groups(ray_session, tmp_path):
    """Force a tiny row-group cap (carried in IndexConfig, so it reaches
    the Ray workers — a driver-side monkeypatch would not) so every
    segment slice splits into many physical row groups; the recorded map
    must still address the right groups (query results equal the oracle)."""
    paths = fixtures.write_webpages(str(tmp_path / "c"), N, num_files=2)
    d = str(tmp_path / "i")
    build_index(
        paths, d,
        IndexConfig(num_term_shards=2, num_salts=2, partials_rg_rows=7),
    )
    import json

    import pyarrow.parquet as pq

    # the partials files really did split into many physical row groups
    pdir = os.path.join(d, "partials")
    some = [p for p in os.listdir(pdir) if p.endswith(".parquet")][0]
    assert pq.ParquetFile(os.path.join(pdir, some)).num_row_groups > 10
    with open(os.path.join(pdir, some) + ".rgmap.json") as f:
        rgmap = json.load(f)["segments"]
    assert any(len(v) > 1 for v in rgmap.values())  # multi-group slices exist
    eng = QueryEngine(d)
    ids = [fixtures.dense_doc_id(i, N, 2) for i in range(N)]
    orc = oracle.build_oracle(ids, [" ".join(fixtures.doc_tokens(i)) for i in range(N)])
    for terms in (["w0000"], ["w0001", "w0002"], ["needle_unique"]):
        got = eng.topk(terms, k=10)
        exp = orc.topk(terms, k=10)
        assert [x for x, _ in got] == [x for x, _ in exp], terms
        assert np.allclose([s for _, s in got], [s for _, s in exp])
        assert eng.bool_or(terms).tolist() == orc.bool_or(terms)


def test_index_is_relocatable(ray_session, tmp_path):
    """A moved/renamed index directory must still open and answer
    identically (manifest stores artifact paths relative to the dir)."""
    paths = fixtures.write_webpages(str(tmp_path / "c"), N, num_files=2)
    d1 = str(tmp_path / "i1")
    build_index(paths, d1, IndexConfig(num_term_shards=2, num_salts=2))
    before = QueryEngine(d1).topk(["w0000", "w0003"], k=10)
    d2 = str(tmp_path / "moved")
    shutil.move(d1, d2)
    eng = QueryEngine(d2)
    assert eng.topk(["w0000", "w0003"], k=10) == before
    assert len(eng.resolve([before[0][0]])) == 1


def test_input_change_invalidates_resume(ray_session, tmp_path):
    """Re-running into the same out_dir after an input file's CONTENT
    changed must rebuild (per-file identity) — and a complete manifest
    must not short-circuit when the input set differs."""
    import pyarrow.parquet as pq

    src_dir = tmp_path / "c"
    paths = fixtures.write_webpages(str(src_dir), N, num_files=2)
    d = str(tmp_path / "i")
    cfg = IndexConfig(num_term_shards=2, num_salts=2)
    m1 = build_index(paths, d, cfg)
    assert m1["stats"]["n_docs"] == N

    # change one input file's content (fewer docs), same path
    small = fixtures.webpages_table(10)
    pq.write_table(small, paths[0])
    m2 = build_index(paths, d, cfg)
    assert m2.get("resumed_complete") is not True
    # shard 0 rebuilt, shard 1 skipped (unchanged)
    by_input = {r["input"]: r for r in m2["lineage"]}
    assert by_input[paths[0]]["skipped"] is False
    assert by_input[paths[1]]["skipped"] is True
    assert m2["stats"]["n_docs"] == 10 + (N - N // 2)


def test_duplicate_basenames_rejected(ray_session, tmp_path):
    import pyarrow.parquet as pq

    a = tmp_path / "a"; b = tmp_path / "b"
    a.mkdir(); b.mkdir()
    t = fixtures.webpages_table(5)
    pq.write_table(t, str(a / "part.parquet"))
    pq.write_table(t, str(b / "part.parquet"))
    with pytest.raises(ValueError, match="unique basenames"):
        build_index([str(a / "part.parquet"), str(b / "part.parquet")],
                    str(tmp_path / "i"), IndexConfig())


def test_degenerate_bucket_star_expansion(ray_session):
    """>MAX_BUCKET identical docs: every member must still appear in at
    least one candidate pair (star expansion), with capped=True."""
    import pyarrow as pa
    import ray.data

    from torchtrajectory_ray.pipelines import dedup

    n = dedup.MAX_BUCKET + 36
    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(n)), pa.int64()),
            "text": pa.array(["spam page " * 30] * n, pa.string()),
        }
    )
    cand = dedup.minhash_candidates(ray.data.from_arrow(tbl))
    covered = set(cand["doc_a"]) | set(cand["doc_b"])
    assert covered == set(range(n))
    assert cand["capped"].any()


def test_ordinal_shift_rebuilds_doc_ids(ray_session, tmp_path):
    """Adding an input file shifts later files' doc_id bases; their docs
    shards must rebuild (identity includes doc_id_base) or two files
    would silently share ids."""
    import pyarrow.parquet as pq

    t = fixtures.webpages_table(40)
    pb = str(tmp_path / "b.parquet"); pc = str(tmp_path / "c.parquet")
    pq.write_table(t.slice(0, 20), pb)
    pq.write_table(t.slice(20, 20), pc)
    d = str(tmp_path / "i")
    cfg = IndexConfig(num_term_shards=2, num_salts=2)
    build_index([pb, pc], d, cfg)

    pa_ = str(tmp_path / "a.parquet")
    pq.write_table(fixtures.webpages_table(10, start=100), pa_)
    m = build_index([pa_, pb, pc], d, cfg)
    assert all(not r["skipped"] for r in m["lineage"])  # all rebased
    # every doc id unique across the merged docs shards
    import glob

    ids = []
    for f in glob.glob(os.path.join(d, "docs", "**", "*.parquet"), recursive=True):
        ids.extend(pq.read_table(f, columns=["doc_id"])["doc_id"].to_pylist())
    assert len(ids) == 50 and len(set(ids)) == 50


def test_wand_exhaustive_parity_tie_prone(ray_session, tmp_path):
    """Heavily tied corpus (many identical docs, mixed tf, tiny blocks):
    wand must stay bit-identical to exhaustive, including kth-score ties
    (strict-inequality termination, the reference's bestKth > bound)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rows = []
    for i in range(160):
        if i % 13 == 0:
            rows.append("alpha alpha alpha alpha alpha beta")   # tf-5 spikes
        elif i % 3 == 0:
            rows.append("alpha beta gamma")                      # tf-1 ties
        else:
            rows.append("gamma delta filler" + str(i % 7))
    tbl = pa.table(
        {
            "url": pa.array([f"u/{i}" for i in range(len(rows))], pa.string()),
            "text": pa.array(rows, pa.string()),
        }
    )
    src = str(tmp_path / "t.parquet")
    pq.write_table(tbl, src)
    d = str(tmp_path / "i")
    build_index([src], d, IndexConfig(num_term_shards=2, num_salts=2, block_size=4))
    eng = QueryEngine(d)
    for terms in (["alpha"], ["alpha", "beta"], ["beta", "gamma"], ["alpha", "gamma"]):
        for k in (1, 3, 5, 10, 40):
            assert eng.topk(terms, k=k, method="wand") == eng.topk(
                terms, k=k, method="exhaustive"
            ), (terms, k)


def test_entity_decode_order():
    from torchtrajectory_ray.functions.text import extract_text

    assert extract_text(b"a &amp;lt; b") == "a &lt; b"
    assert extract_text(b"x &amp; y &lt; z") == 'x & y < z'
    assert extract_text(b"&amp;quot;") == "&quot;"
