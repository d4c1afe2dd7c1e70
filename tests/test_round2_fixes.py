"""Round-2 regression tests for the advisor findings: stale forward-index
shards, generation-aware path re-rooting, principled MinHash hash family."""

from __future__ import annotations

import os

import numpy as np
import pytest

from torchtrajectory_ray import fixtures
from torchtrajectory_ray.config import IndexConfig
from torchtrajectory_ray.pipelines.build import build_index, manifest_abspath
from torchtrajectory_ray.state.engine import QueryEngine

N = 120


def test_manifest_abspath_reroots_generation_segments():
    """A relocated legacy-absolute generation path must keep its full
    suffix under the recognized top-level dir (segments/gen-001/..., not
    gen-001/...)."""
    assert manifest_abspath(
        "/old/home/idx/segments/gen-001/seg-00001.parquet", "/new/idx"
    ) == "/new/idx/segments/gen-001/seg-00001.parquet"
    assert manifest_abspath(
        "/old/home/idx/dict/dict-00001-x.parquet", "/new/idx"
    ) == "/new/idx/dict/dict-00001-x.parquet"
    assert manifest_abspath(
        "/old/home/idx/docs/gen-002/docs-a.parquet", "/new/idx"
    ) == "/new/idx/docs/gen-002/docs-a.parquet"
    # relative paths resolve against the index dir unchanged
    assert manifest_abspath("segments/seg-1.parquet", "/i") == (
        "/i/segments/seg-1.parquet"
    )


def test_stale_docs_shard_not_resolved(ray_session, tmp_path):
    """Rebuilding into the same out_dir with an input file REMOVED leaves
    the removed file's docs shard on disk; its (re-ordinaled) doc_id range
    collides with a live shard.  The doc stores must read only the
    manifest's docs shard list, so the stale shard is invisible."""
    paths = fixtures.write_webpages(str(tmp_path / "c"), N, num_files=2)
    d = str(tmp_path / "i")
    cfg = IndexConfig(num_term_shards=2, num_salts=2)
    build_index(paths, d, cfg)
    # drop the FIRST input: the surviving file re-ordinals to doc base 0,
    # colliding with the stale shard of the removed file
    m = build_index(paths[1:], d, cfg)
    docs_dir = os.path.join(d, "docs")
    on_disk = sorted(p for p in os.listdir(docs_dir) if p.endswith(".parquet"))
    assert len(on_disk) == 2  # the stale shard is still on disk...
    assert len(m["docs_paths"]) == 1  # ...but not in the manifest

    eng = QueryEngine(d)
    hits = eng.bool_or(["w0000"])
    got = eng.resolve(hits[:5])
    # exactly one row per requested id — a stale-shard read would return
    # duplicate/conflicting rows for the colliding ids
    assert got["doc_id"].tolist() == sorted(set(int(x) for x in hits[:5]))
    # filtered queries consult only live metadata
    en = eng.bool_or(["w0000"], lang="en")
    assert set(en).issubset(set(hits.tolist()))


def test_relocated_extended_index_serves_generations(ray_session, tmp_path):
    """build + extend + move the directory: the engine must still open
    and answer identically (generation segment paths survive the move)."""
    from torchtrajectory_ray.pipelines.build import extend_index

    paths = fixtures.write_webpages(str(tmp_path / "c1"), N, num_files=3)
    d1 = str(tmp_path / "i1")
    cfg = IndexConfig(num_term_shards=2, num_salts=2)
    build_index(paths[:2], d1, cfg)
    extend_index(d1, paths[2:], cfg)
    before = QueryEngine(d1).topk(["w0000", "w0003"], k=10)
    import shutil

    d2 = str(tmp_path / "moved")
    shutil.move(d1, d2)
    eng = QueryEngine(d2)
    assert eng.topk(["w0000", "w0003"], k=10) == before
    assert len(eng.resolve([before[0][0]])) == 1


def test_minhash_family_is_bijective_odd_affine():
    """The permutation family h(x) = (a·x + b) mod 2^64 must use ODD
    multipliers — odd a makes the map a bijection of the 64-bit space
    (no collisions at all), which is what makes the uint64 wrap the
    DEFINITION of the family rather than a truncation artifact."""
    from torchtrajectory_ray.pipelines.dedup import _minhash_params

    a, b = _minhash_params(256)
    assert (a % np.uint64(2) == 1).all()
    # spot-check bijectivity on a dense input range for a few perms
    xs = np.arange(1 << 12, dtype=np.uint64)
    for i in (0, 17, 255):
        hv = a[i] * xs + b[i]
        assert len(np.unique(hv)) == len(xs)
    # deterministic across calls
    a2, b2 = _minhash_params(256)
    assert np.array_equal(a, a2) and np.array_equal(b, b2)


def test_fingerprint_batch_matches_sequential_fold():
    """The vectorized polynomial fingerprint must equal the per-token
    sequential reference on every shape: empty, single, long, dup-heavy,
    order-sensitive."""
    from torchtrajectory_ray.pipelines.dedup import (
        fingerprint_batch,
        fingerprint_tokens,
    )

    docs = [
        [],
        [""],
        ["a"],
        ["a", "b", "c"],
        ["c", "b", "a"],  # order must matter
        ["a"] * 500,
        [f"tok{i % 7}" for i in range(1000)],
    ]
    got = fingerprint_batch(docs)
    exp = [fingerprint_tokens(d) for d in docs]
    assert got.tolist() == exp
    assert got[3] != got[4]  # order-sensitive


def test_minhash_jaccard_estimate_still_calibrated():
    """The odd-affine mod-2^64 permutation family must keep the MinHash
    estimator unbiased: signature agreement ≈ true Jaccard on a pair."""
    from torchtrajectory_ray.pipelines.dedup import MinHasher, exact_jaccard

    mh = MinHasher(num_perm=256, bands=32)
    a = [f"tok{i}" for i in range(200)]
    b = a[:150] + [f"other{i}" for i in range(50)]
    true_j = exact_jaccard(a, b)
    sa, sb = mh.signatures([a, b])
    est = float(np.mean(sa == sb))
    assert abs(est - true_j) < 0.12


def test_empty_and_degenerate_corpora(ray_session, tmp_path):
    """A 0-row input and a blank-text doc must build and serve cleanly
    (empty results, not crashes) — the degenerate shard case any real
    crawl partition set contains."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from torchtrajectory_ray.pipelines.build import build_index

    cfg = IndexConfig(num_term_shards=2, num_salts=2)
    empty = str(tmp_path / "empty.parquet")
    pq.write_table(
        pa.table(
            {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
        ),
        empty,
    )
    m = build_index([empty], str(tmp_path / "i0"), cfg)
    assert m["stats"]["n_docs"] == 0
    eng = QueryEngine(str(tmp_path / "i0"))
    assert eng.topk(["anything"]) == []
    assert eng.bool_or(["x"]).size == 0
    assert eng.find_in_range(doclen_lo=0).size == 0
    assert eng.phrase_and(["a", "b"]).size == 0
    assert len(eng.resolve([1])) == 0

    blank = str(tmp_path / "blank.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["", "real tokens here live"], pa.string()),
            }
        ),
        blank,
    )
    build_index([blank], str(tmp_path / "i2"), cfg)
    eng2 = QueryEngine(str(tmp_path / "i2"))
    assert [d for d, _ in eng2.topk(["real"])] == [2]
    assert eng2.phrase_and(["tokens", "here"]).tolist() == [2]


def test_fingerprint_batch_property():
    """Property test: random token-list shapes, batched == sequential."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from torchtrajectory_ray.pipelines.dedup import (
        fingerprint_batch,
        fingerprint_tokens,
    )

    token = st.text(alphabet="abcdef ", min_size=0, max_size=6)
    doc = st.lists(token, min_size=0, max_size=50)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(doc, min_size=1, max_size=20))
    def check(docs):
        got = fingerprint_batch(docs)
        assert got.tolist() == [fingerprint_tokens(d) for d in docs]

    check()


def test_distributed_engine_scorer_and_filters(ray_session, tmp_path):
    """distributed=True actors must honor the scorer option, runtime
    update fan-out, and metadata filters identically to in-process."""
    paths = fixtures.write_webpages(str(tmp_path / "c"), N, num_files=2)
    d = str(tmp_path / "i")
    build_index(paths, d, IndexConfig(num_term_shards=2, num_salts=2))
    local = QueryEngine(d, scorer="tfidf")
    dist = QueryEngine(d, scorer="tfidf", distributed=True)
    terms = ["w0000", "w0003"]
    assert local.topk(terms, k=10) == dist.topk(terms, k=10)
    assert local.topk(terms, k=10, lang="en") == dist.topk(terms, k=10, lang="en")
    # runtime swap fans out to the remote actors too
    local.update(scorer="bm25")
    dist.update(scorer="bm25")
    assert local.topk(terms, k=10) == dist.topk(terms, k=10)


def test_compact_index_rank_identical_and_rebalanced(ray_session, tmp_path):
    """Compacting a multi-generation index must preserve every query
    answer (doc ids survive) while recomputing the salt shift from real
    id bounds — the generation-append tail-salt skew disappears."""
    from torchtrajectory_ray.pipelines.build import compact_index, extend_index

    paths = fixtures.write_webpages(str(tmp_path / "c"), N, num_files=4)
    src = str(tmp_path / "src")
    cfg = IndexConfig(num_term_shards=2, num_salts=4)
    build_index(paths[:2], src, cfg)
    extend_index(src, paths[2:], cfg)

    dst = str(tmp_path / "compact")
    m = compact_index(src, dst)
    assert m["config"] == __import__("dataclasses").asdict(cfg)
    # single generation: no gen-* segment paths
    assert all("gen-" not in s["path"] for s in m["segments"])

    a, b = QueryEngine(src), QueryEngine(dst)
    # identical dictionary (same corpus, same ids)
    assert np.array_equal(a.term_dict.ids, b.term_dict.ids)
    assert np.array_equal(a.term_dict.df, b.term_dict.df)
    assert a.term_dict.term.equals(b.term_dict.term)
    for q in fixtures.query_set(15, N):
        assert a.topk(q["terms"], k=10) == b.topk(q["terms"], k=10)
        assert a.bool_and(q["terms"]).tolist() == b.bool_and(q["terms"]).tolist()
    # the extend clamped appended docs into the tail salt; compaction
    # must recompute a STRICTLY larger shift from the true id bounds
    # (the fixture doubles the file-ordinal space)
    assert m["stats"]["salt_shift"] > a.stats["salt_shift"]


def test_batch_pipeline_scorer_option(ray_session, tmp_path):
    from torchtrajectory_ray.pipelines.query_batch import batch_topk_df

    paths = fixtures.write_webpages(str(tmp_path / "c"), N, num_files=2)
    d = str(tmp_path / "i")
    build_index(paths, d, IndexConfig(num_term_shards=2, num_salts=2))
    qs = [{"query_id": 0, "terms": ["w0000", "w0003"]}]
    eng = QueryEngine(d, scorer="tfidf")
    expect = eng.batch_topk(qs, k=10)
    got = batch_topk_df(d, qs, k=10, scorer="tfidf")
    assert got.equals(expect.sort_values(["query_id", "rank"]).reset_index(drop=True))


def test_compact_to_different_grid_is_rank_identical(ray_session, tmp_path):
    """Compaction may re-shard/re-salt to a NEW grid; answers must not
    change (grid is physical layout, not semantics)."""
    from torchtrajectory_ray.pipelines.build import compact_index

    paths = fixtures.write_webpages(str(tmp_path / "c"), N, num_files=2)
    src = str(tmp_path / "src")
    build_index(paths, src, IndexConfig(num_term_shards=2, num_salts=2))
    dst = str(tmp_path / "wide")
    m = compact_index(src, dst, IndexConfig(num_term_shards=4, num_salts=4))
    assert m["config"]["num_term_shards"] == 4
    a, b = QueryEngine(src), QueryEngine(dst)
    for q in fixtures.query_set(10, N):
        assert a.topk(q["terms"], k=10) == b.topk(q["terms"], k=10)
        assert a.bool_or(q["terms"]).tolist() == b.bool_or(q["terms"]).tolist()


def test_compact_handles_colliding_generation_stems(ray_session, tmp_path):
    """Compacting an index whose extension inputs share basenames with
    earlier generations must work (docs shards are fed through
    position-uniquified links), and in-place compaction must refuse."""
    import pyarrow.parquet as pq

    from torchtrajectory_ray.pipelines.build import compact_index, extend_index

    paths = fixtures.write_webpages(str(tmp_path / "c"), N, num_files=2)
    # same BASENAME in a sibling dir for the extension
    alt = tmp_path / "c2"
    alt.mkdir()
    t = pq.read_table(paths[1])
    dup_name = str(alt / os.path.basename(paths[0]))
    pq.write_table(t, dup_name)

    src = str(tmp_path / "src")
    cfg = IndexConfig(num_term_shards=2, num_salts=2)
    build_index([paths[0]], src, cfg)
    extend_index(src, [dup_name], cfg)  # stem collides with generation 0

    dst = str(tmp_path / "dst")
    m = compact_index(src, dst)
    assert m["stats"]["n_docs"] == QueryEngine(src).n_docs
    a, b = QueryEngine(src), QueryEngine(dst)
    assert a.topk(["w0000", "w0003"], k=10) == b.topk(["w0000", "w0003"], k=10)

    with pytest.raises(ValueError, match="fresh out_dir"):
        compact_index(src, src)


def test_extend_rejects_duplicate_basenames(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from torchtrajectory_ray.pipelines.build import extend_index

    paths = fixtures.write_webpages(str(tmp_path / "c"), N, num_files=2)
    src = str(tmp_path / "src")
    cfg = IndexConfig(num_term_shards=2, num_salts=2)
    build_index([paths[0]], src, cfg)
    alt = tmp_path / "c2"
    alt.mkdir()
    dup = str(alt / os.path.basename(paths[1]))
    pq.write_table(pq.read_table(paths[1]), dup)
    with pytest.raises(ValueError, match="unique basenames"):
        extend_index(src, [paths[1], dup], cfg)
