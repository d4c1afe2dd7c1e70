"""Resume-from-checkpoint + determinism across parallelism levels.

North-rule requirements: per-partition checkpoint/lineage (re-run after a
partial failure skips finished partitions and produces byte-identical
output) and parallelism-independent results (the basis of rank identity
between the N and 4N cluster runs).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from torchtrajectory_ray import fixtures
from torchtrajectory_ray.config import IndexConfig
from torchtrajectory_ray.pipelines.build import build_index

N_DOCS = 200


def _same_dictionary(a, b) -> bool:
    """Equal term_id / df arrays and equal term columns."""
    return (
        np.array_equal(a.term_dict.ids, b.term_dict.ids)
        and np.array_equal(a.term_dict.df, b.term_dict.df)
        and a.term_dict.term.equals(b.term_dict.term)
    )

CFG = dict(num_term_shards=2, num_salts=2, block_size=16,
           tokenize_batch_size=50)


def _digest(root: str) -> dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            if f.endswith(".parquet"):
                p = os.path.join(dirpath, f)
                out[os.path.relpath(p, root)] = hashlib.sha256(
                    open(p, "rb").read()
                ).hexdigest()
    return out


def test_resume_skips_and_is_byte_identical(ray_session, tmp_path):
    data_dir = str(tmp_path / "corpus")
    paths = fixtures.write_webpages(data_dir, N_DOCS, num_files=4)

    full_dir = str(tmp_path / "full")
    m1 = build_index(paths, full_dir, IndexConfig(**CFG))
    d1 = _digest(full_dir)

    # simulate a crash: manifest missing, 2 of 4 docs shards + 1 segment
    # file lost; the prepared shards that survived must be skipped
    crash_dir = str(tmp_path / "crash")
    build_index(paths, crash_dir, IndexConfig(**CFG))
    os.remove(os.path.join(crash_dir, "manifest.json"))
    docs = sorted(
        f for f in os.listdir(os.path.join(crash_dir, "docs")) if f.endswith(".parquet")
    )
    for f in docs[:2]:
        os.remove(os.path.join(crash_dir, "docs", f))
        os.remove(os.path.join(crash_dir, "docs", f + ".lineage.json"))
    segs = sorted(
        f for f in os.listdir(os.path.join(crash_dir, "segments")) if f.endswith(".parquet")
    )
    os.remove(os.path.join(crash_dir, "segments", segs[0]))
    os.remove(os.path.join(crash_dir, "segments", segs[0] + ".meta.json"))

    m2 = build_index(paths, crash_dir, IndexConfig(**CFG))
    skipped = [r["skipped"] for r in sorted(m2["lineage"], key=lambda r: r["input"])]
    assert skipped.count(True) == 2 and skipped.count(False) == 2
    assert _digest(crash_dir) == _digest(full_dir)

    # a third run with a complete manifest short-circuits entirely
    m3 = build_index(paths, crash_dir, IndexConfig(**CFG))
    assert m3.get("resumed_complete") is True
    assert m1["stats"] == m2["stats"] == m3["stats"]


def test_output_independent_of_sharding_and_batching(ray_session, tmp_path):
    """url_hash id mode: same corpus split into different file counts and
    processed with a different batch size must produce byte-identical
    segments + stats (ids depend only on content, not layout)."""
    a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
    pa_ = fixtures.write_webpages(str(tmp_path / "ca"), N_DOCS, num_files=4)
    pb_ = fixtures.write_webpages(str(tmp_path / "cb"), N_DOCS, num_files=7)
    ma = build_index(pa_, a_dir, IndexConfig(**CFG, doc_id_mode="url_hash"))
    mb = build_index(pb_, b_dir, IndexConfig(**{**CFG, "tokenize_batch_size": 17},
                                             doc_id_mode="url_hash"))
    assert ma["stats"] == mb["stats"]
    da = {k: v for k, v in _digest(a_dir).items() if k.startswith("segments/")}
    db = {k: v for k, v in _digest(b_dir).items() if k.startswith("segments/")}
    assert da == db


def test_output_independent_of_parallelism_dense(ray_session, tmp_path):
    """dense id mode (default): same input file list processed with a
    different batch size must produce byte-identical
    segments — the determinism behind N-vs-4N rank identity (the input
    layout is fixed on a real cluster; only parallelism varies)."""
    a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
    paths = fixtures.write_webpages(str(tmp_path / "c"), N_DOCS, num_files=4)
    ma = build_index(paths, a_dir, IndexConfig(**CFG))
    mb = build_index(paths, b_dir, IndexConfig(**{**CFG, "tokenize_batch_size": 17}))
    assert ma["stats"] == mb["stats"]
    da = {k: v for k, v in _digest(a_dir).items() if k.startswith("segments/")}
    db = {k: v for k, v in _digest(b_dir).items() if k.startswith("segments/")}
    assert da == db


def test_extend_index_matches_full_rebuild(ray_session, tmp_path):
    """Incremental ingest (generation append) must produce the same query
    results as a fresh build over the union of inputs — same doc ids,
    same scores, same ranks (stats refreshed globally; old segments stay
    valid because block bounds are avgdl-independent)."""
    from torchtrajectory_ray.pipelines.build import extend_index
    from torchtrajectory_ray.state.engine import QueryEngine

    base = fixtures.write_webpages(str(tmp_path / "c"), N_DOCS, num_files=4)
    cfg = IndexConfig(**CFG)

    inc_dir = str(tmp_path / "inc")
    build_index(base[:2], inc_dir, cfg)
    m = extend_index(inc_dir, base[2:], cfg)
    assert m["generation"] == 1
    assert m["stats"]["n_docs"] == N_DOCS
    # the build's stage walls stay; each extend appends its own
    assert {"prepare_s", "index_s", "dict_s"} <= set(m["metrics"])
    (ext,) = m["metrics"]["extends"]
    assert set(ext) == {
        "generation", "prepare_s", "index_s", "dict_s", "total_s", "docs_per_s"
    }
    assert ext["generation"] == 1 and ext["docs_per_s"] > 0
    assert ext["prepare_s"] + ext["index_s"] + ext["dict_s"] <= ext["total_s"] + 0.01
    assert m["metrics"]["extend_s"] == ext["total_s"]

    full_dir = str(tmp_path / "full")
    build_index(base, full_dir, cfg)

    inc, full = QueryEngine(inc_dir), QueryEngine(full_dir)
    assert _same_dictionary(inc, full)              # dictionary identical
    for q in fixtures.query_set(20, N_DOCS):
        assert inc.topk(q["terms"], k=10) == full.topk(q["terms"], k=10)
        assert inc.bool_and(q["terms"]).tolist() == full.bool_and(q["terms"]).tolist()
        assert inc.bool_or(q["terms"]).tolist() == full.bool_or(q["terms"]).tolist()


def test_extend_index_idempotent_rerun(ray_session, tmp_path):
    from torchtrajectory_ray.pipelines.build import extend_index
    from torchtrajectory_ray.state.engine import QueryEngine

    base = fixtures.write_webpages(str(tmp_path / "c"), N_DOCS, num_files=4)
    cfg = IndexConfig(**CFG)
    d = str(tmp_path / "i")
    build_index(base[:2], d, cfg)
    m1 = extend_index(d, base[2:], cfg)
    n1 = m1["stats"]["n_docs"]
    # re-running the SAME extension must be a no-op, not a duplicate gen
    m2 = extend_index(d, base[2:], cfg)
    assert m2.get("resumed_complete") is True
    assert m2["stats"]["n_docs"] == n1 == N_DOCS
    assert QueryEngine(d).n_docs == N_DOCS


def test_index_with_retired_config_keys_still_works(ray_session, tmp_path):
    """Indexes built while IndexConfig still had ``shuffle_mode`` and
    ``tokenize_concurrency`` record both in manifest["config"]: a rerun of
    the same build must still short-circuit, and extend and compaction
    must still accept the index."""
    from torchtrajectory_ray.pipelines.build import compact_index, extend_index
    from torchtrajectory_ray.state.engine import QueryEngine

    base = fixtures.write_webpages(str(tmp_path / "c"), N_DOCS, num_files=4)
    cfg = IndexConfig(**CFG)
    d = str(tmp_path / "i")
    build_index(base[:2], d, cfg)
    manifest_path = os.path.join(d, "manifest.json")
    with open(manifest_path) as f:
        manifest = json.load(f)
    manifest["config"].update(shuffle_mode="storage", tokenize_concurrency=4)
    with open(manifest_path, "w") as f:
        json.dump(manifest, f)

    assert build_index(base[:2], d, cfg).get("resumed_complete") is True
    m = extend_index(d, base[2:], cfg)
    assert m["generation"] == 1 and m["stats"]["n_docs"] == N_DOCS
    assert "shuffle_mode" in m["config"]  # the manifest keeps its record

    c = str(tmp_path / "compact")
    assert compact_index(d, c)["stats"]["n_docs"] == N_DOCS
    src, dst = QueryEngine(d), QueryEngine(c)
    for q in fixtures.query_set(20, N_DOCS):
        assert src.topk(q["terms"], k=10) == dst.topk(q["terms"], k=10)


def test_rerun_after_crashed_extend_with_other_inputs(
    ray_session, tmp_path, monkeypatch
):
    """An extend that dies before its manifest swap leaves generation-tagged
    dictionary files behind; an extend of DIFFERENT files into the same
    generation must not reuse them."""
    from torchtrajectory_ray.pipelines import build
    from torchtrajectory_ray.state.engine import QueryEngine

    base = fixtures.write_webpages(str(tmp_path / "c"), N_DOCS, num_files=4)
    cfg = IndexConfig(**CFG)
    d = str(tmp_path / "i")
    build_index(base[:2], d, cfg)

    write_json = build._write_json

    def crash_on_manifest(path, obj):
        if path.endswith("manifest.json"):
            raise OSError("crash before the manifest swap")
        write_json(path, obj)

    monkeypatch.setattr(build, "_write_json", crash_on_manifest)
    with pytest.raises(OSError):
        build.extend_index(d, base[2:3], cfg)
    monkeypatch.setattr(build, "_write_json", write_json)

    build.extend_index(d, base[3:], cfg)
    full = str(tmp_path / "full")
    build_index(base[:2] + base[3:], full, cfg)
    assert _same_dictionary(QueryEngine(d), QueryEngine(full))


def test_stage_datasets_keep_global_context(ray_session, tmp_path):
    """The build's per-item datasets switch Ray Data's operator resource
    reservation off on their own context copy only."""
    from ray.data import DataContext

    from torchtrajectory_ray.pipelines.build import _items_dataset, extend_index

    before = DataContext.get_current().op_resource_reservation_enabled
    assert _items_dataset([{"x": 1}]).context.op_resource_reservation_enabled is False
    base = fixtures.write_webpages(str(tmp_path / "c"), N_DOCS, num_files=3)
    cfg = IndexConfig(**CFG)
    d = str(tmp_path / "i")
    build_index(base[:2], d, cfg)
    extend_index(d, base[2:], cfg)
    assert DataContext.get_current().op_resource_reservation_enabled == before
