"""Tombstone deletes (Lucene-style soft delete → compaction purge):
every query path masks deleted docs immediately; compaction makes the
delete physical and recomputes stats to match a fresh build on the
filtered corpus.  The sf0.01 oracle gates (bool_or_deleted, topk_purged)
run in test_driver_gate.py."""

from __future__ import annotations

import os

import numpy as np
import pytest

from torchtrajectory_ray import fixtures
from torchtrajectory_ray.config import IndexConfig
from torchtrajectory_ray.pipelines.build import (
    build_index,
    compact_index,
    delete_docs,
)
from torchtrajectory_ray.state.engine import QueryEngine

CFG = IndexConfig(num_term_shards=2, num_salts=4)


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tomb")
    paths = fixtures.write_webpages(str(tmp / "docs"), 240, num_files=3)
    idx = str(tmp / "idx")
    build_index(paths, idx, CFG)
    return paths, idx, tmp


def _some_live_ids(idx, n=10):
    eng = QueryEngine(idx)
    ids = eng.find_in_range()
    # spread across salt buckets: take every (len/n)-th id
    return [int(d) for d in ids[:: max(1, len(ids) // n)][:n]]


def test_deleted_docs_vanish_from_every_path(built):
    paths, idx, tmp = built
    eng0 = QueryEngine(idx)
    # pick victims that actually appear in results: top docs of a query
    terms = None
    for cand in (["the"], ["a"], ["w0001"]):
        if eng0.bool_or(cand).size > 20:
            terms = cand
            break
    assert terms is not None
    victims = [int(d) for d, _ in eng0.topk(terms, k=3)]
    res = delete_docs(idx, victims)
    assert res["n_deleted_total"] == len(victims)

    eng = QueryEngine(idx)
    vic = set(victims)
    assert not vic & set(eng.bool_or(terms).tolist())
    assert not vic & set(eng.bool_and(terms).tolist())
    assert not vic & {d for d, _ in eng.topk(terms, k=10**9)}
    assert not vic & {d for d, _ in eng.topk(terms, k=5, method="exhaustive")}
    assert not vic & set(eng.find_in_range().tolist())
    assert not vic & set(
        eng.find_in_range_ds().to_pandas()["doc_id"].astype(int)
    )
    assert not vic & set(eng.resolve(victims)["doc_id"].astype(int))
    # phrase/near candidates flow through bool_and → also masked
    assert not vic & set(eng.phrase_and(terms).tolist())
    # undeleted docs still there
    assert eng.bool_or(terms).size == eng0.bool_or(terms).size - len(
        vic & set(eng0.bool_or(terms).tolist())
    )


def test_delete_unknown_id_fails_loud(built):
    _, idx, _ = built
    with pytest.raises(ValueError, match="not in this index"):
        delete_docs(idx, [10**15])
    with pytest.raises(ValueError, match="empty"):
        delete_docs(idx, [])


def test_delete_is_idempotent_and_unions(built):
    _, idx, _ = built
    ids = _some_live_ids(idx, 4)
    r1 = delete_docs(idx, ids[:2])
    r2 = delete_docs(idx, ids[:2])  # re-delete: no-op
    assert r2["n_new"] == 0
    r3 = delete_docs(idx, ids)  # superset: only the new ones count
    assert r3["n_new"] == r3["n_deleted_total"] - r1["n_deleted_total"]


def test_purge_equals_fresh_build_on_filtered_corpus(ray_session, tmp_path):
    """compact_index over a tombstoned index must be rank-identical
    (ids AND scores) to building from scratch on the corpus minus the
    deleted docs — the full takedown lifecycle claim."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    paths = fixtures.write_webpages(str(tmp_path / "docs"), 200, num_files=2)
    idx = str(tmp_path / "idx")
    build_index(paths, idx, CFG)
    victims = _some_live_ids(idx, 6)
    delete_docs(idx, victims)
    purged = str(tmp_path / "purged")
    compact_index(idx, purged)

    # fresh build over the filtered corpus (same shard stems → same ids)
    filt_dir = tmp_path / "docs_filtered"
    filt_dir.mkdir()
    filt_paths = []
    eng_tmp = QueryEngine(idx)
    for p in paths:
        t = pq.read_table(p)
        # recompute the engine doc ids this shard got ((ord << 34) + row)
        base = paths.index(p) << 34
        ids = np.arange(len(t), dtype=np.int64) + base
        keep = ~np.isin(ids, np.asarray(victims, dtype=np.int64))
        q = t.filter(pa.array(keep))
        fp = str(filt_dir / os.path.basename(p))
        pq.write_table(q, fp)
        filt_paths.append(fp)
    fresh = str(tmp_path / "fresh")
    build_index(filt_paths, fresh, CFG)

    ep, ef = QueryEngine(purged), QueryEngine(fresh)
    assert ep.n_docs == ef.n_docs
    assert abs(ep.avgdl - ef.avgdl) < 1e-9
    terms_pool = sorted(ep.term_dict.term.to_pylist())[:8]
    for t_ in terms_pool:
        got = [(int(d), round(float(s), 9)) for d, s in ep.topk([t_], k=20)]
        # fresh build re-assigns dense ids over the FILTERED shards, so
        # compare via resolve->url (stable identity), scores exactly
        want = [(u, round(float(s), 9)) for u, s in _topk_urls(ef, [t_], 20)]
        assert _as_urls(ep, got) == want, t_


def _topk_urls(eng, terms, k):
    res = eng.topk(terms, k=k)
    if not res:
        return []
    meta = eng.resolve([d for d, _ in res]).set_index("doc_id")["url"]
    return [(meta[d], s) for d, s in res]


def _as_urls(eng, pairs):
    if not pairs:
        return []
    meta = eng.resolve([d for d, _ in pairs]).set_index("doc_id")["url"]
    return [(meta[d], s) for d, s in pairs]


def test_tombstones_survive_engine_reopen_and_are_crash_safe(built):
    _, idx, _ = built
    import json

    with open(os.path.join(idx, "tombstones.json")) as f:
        tomb = json.load(f)
    assert tomb["n_deleted"] == len(tomb["doc_ids"])
    assert tomb["doc_ids"] == sorted(tomb["doc_ids"])
    # no stray tmp file (atomic write)
    assert not os.path.exists(os.path.join(idx, "tombstones.json.tmp"))


def test_tombstones_compose_with_extend_and_compact(ray_session, tmp_path):
    """delete → extend (new generation) → query must mask old victims AND
    serve the appended docs; compaction then purges across generations."""
    from torchtrajectory_ray.pipelines.build import extend_index

    p0 = fixtures.write_webpages(str(tmp_path / "g0"), 160, num_files=2)
    idx = str(tmp_path / "idx")
    build_index(p0, idx, CFG)
    victims = _some_live_ids(idx, 4)
    delete_docs(idx, victims)
    p1 = fixtures.write_webpages(str(tmp_path / "g1"), 80, num_files=1)
    extend_index(idx, p1, CFG)
    eng = QueryEngine(idx)
    allids = set(eng.find_in_range().tolist())
    assert not set(victims) & allids
    assert eng.n_docs == 240  # stats count soft-deleted docs (Lucene)
    assert len(allids) == 240 - len(victims)
    # gen-1 ids are reachable (they continue the file-ordinal space)
    assert any(d >= (2 << 34) for d in allids)
    purged = str(tmp_path / "purged")
    compact_index(idx, purged)
    ep = QueryEngine(purged)
    assert ep.n_docs == 240 - len(victims)
    assert not set(victims) & set(ep.find_in_range().tolist())


def test_recompact_after_deletes_never_corrupts_source(ray_session, tmp_path):
    """Review fix: a tombstone-free compact leaves SYMLINKS in
    compact-inputs; a later tombstoned compact to the SAME out_dir must
    not write the purged shards through them into the source index (and
    the reverse order must not crash on the leftover regular files)."""
    import hashlib

    paths = fixtures.write_webpages(str(tmp_path / "docs"), 120, num_files=2)
    idx = str(tmp_path / "idx")
    build_index(paths, idx, CFG)

    def _docs_digest():
        import json

        with open(os.path.join(idx, "manifest.json")) as f:
            m = json.load(f)
        h = hashlib.sha1()
        for p in sorted(m["docs_paths"]):
            with open(os.path.join(idx, p), "rb") as f:
                h.update(f.read())
        return h.hexdigest()

    out = str(tmp_path / "compacted")
    compact_index(idx, out)  # symlink branch
    before = _docs_digest()
    victims = _some_live_ids(idx, 3)
    delete_docs(idx, victims)
    compact_index(idx, out)  # purge branch over the SAME out_dir
    assert _docs_digest() == before, "source index shards were mutated!"
    ep = QueryEngine(out)
    assert not set(victims) & set(ep.find_in_range().tolist())
    # reverse order: drop tombstones, compact again (symlink over the
    # leftover purged copies) — must not crash and must serve all docs
    os.remove(os.path.join(idx, "tombstones.json"))
    out2 = str(tmp_path / "compacted")
    compact_index(idx, out2)
    assert QueryEngine(out2).n_docs == 120


def test_compact_same_outdir_from_different_source_serves_new_source(
    ray_session, tmp_path
):
    """Review fix: a leftover compact-inputs symlink into a PREVIOUS
    source index must never be served when a different index is
    compacted into the same out_dir (links are re-created every run)."""
    pa_ = fixtures.write_webpages(str(tmp_path / "a"), 100, num_files=1)
    pb = fixtures.write_webpages(str(tmp_path / "b"), 60, num_files=1)
    ia, ib = str(tmp_path / "ia"), str(tmp_path / "ib")
    build_index(pa_, ia, CFG)
    build_index(pb, ib, CFG)
    out = str(tmp_path / "out")
    assert QueryEngine(
        (compact_index(ia, out), out)[1]
    ).n_docs == 100
    compact_index(ib, out)  # same out_dir, different source
    assert QueryEngine(out).n_docs == 60  # serves B, not stale A


def test_tombstones_apply_in_distributed_actor_mode(built):
    """The per-salt tombstone arrays ship into the remote SaltSearcher
    actors; distributed results equal in-process results post-delete.
    Self-contained: applies its own deletes (idempotent union), so it
    passes standalone regardless of module test order."""
    _, idx, _ = built
    delete_docs(idx, _some_live_ids(idx, 3))
    local = QueryEngine(idx)
    dist = QueryEngine(idx, distributed=True)
    import json

    with open(os.path.join(idx, "tombstones.json")) as f:
        vic = set(json.load(f)["doc_ids"])
    for terms in (["the"], ["a", "row"]):
        lt, dt = local.topk(terms, k=10), dist.topk(terms, k=10)
        assert lt == dt
        assert not vic & {d for d, _ in dt}
        assert local.bool_or(terms).tolist() == dist.bool_or(terms).tolist()
