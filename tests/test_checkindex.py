"""CheckIndex: a clean index verifies ok=True; every planted corruption
class is caught with a pointed violation message."""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from torchtrajectory_ray import fixtures
from torchtrajectory_ray.config import IndexConfig
from torchtrajectory_ray.pipelines.build import build_index
from torchtrajectory_ray.pipelines.checkindex import check_index

CFG = dict(num_term_shards=2, num_salts=3)


@pytest.fixture()
def idx(ray_session, tmp_path):
    paths = fixtures.write_webpages(str(tmp_path / "c"), 150, num_files=3)
    d = str(tmp_path / "idx")
    build_index(paths, d, IndexConfig(**CFG))
    return d


def _first_seg(idx_dir: str) -> str:
    with open(os.path.join(idx_dir, "manifest.json")) as f:
        m = json.load(f)
    return os.path.join(idx_dir, m["segments"][0]["path"])


def test_clean_index_passes(idx):
    rep = check_index(idx)
    assert rep["ok"], rep["violations"][:5]
    assert rep["n_segments"] > 0 and rep["n_terms"] > 0
    assert rep["n_postings"] > 0


def test_clean_positional_index_passes(ray_session, tmp_path):
    paths = fixtures.write_webpages(str(tmp_path / "c"), 100, num_files=2)
    d = str(tmp_path / "idx")
    build_index(
        paths,
        d,
        IndexConfig(**CFG, store_positions=True),
    )
    rep = check_index(d, distributed=False)
    assert rep["ok"], rep["violations"][:5]


def test_missing_segment_file_caught(idx):
    os.remove(_first_seg(idx))
    rep = check_index(idx, distributed=False)
    assert not rep["ok"]
    assert any("missing on disk" in v for v in rep["violations"])


def test_garbled_payload_caught(idx):
    p = _first_seg(idx)
    t = pq.read_table(p)
    blobs = t["doc_ids_blob"].to_pylist()
    blobs[0] = blobs[0][: max(0, len(blobs[0]) - 2)]  # truncate one blob
    t = t.set_column(
        t.schema.get_field_index("doc_ids_blob"),
        "doc_ids_blob",
        pa.array(blobs, pa.binary()),
    )
    pq.write_table(t, p)
    rep = check_index(idx, distributed=False)
    assert not rep["ok"]
    assert any(
        "decode failed" in v or "doc_ids" in v for v in rep["violations"]
    )


def test_stale_block_metadata_caught(idx):
    p = _first_seg(idx)
    t = pq.read_table(p)
    vals = t["blk_max_tf"].to_pylist()
    vals[0] = [v + 1 for v in vals[0]]
    t = t.set_column(
        t.schema.get_field_index("blk_max_tf"),
        "blk_max_tf",
        pa.array(vals, pa.list_(pa.int64())),
    )
    pq.write_table(t, p)
    rep = check_index(idx, distributed=False)
    assert not rep["ok"]
    assert any("block-max metadata wrong" in v for v in rep["violations"])


def test_dictionary_disagreement_caught(idx):
    with open(os.path.join(idx, "manifest.json")) as f:
        m = json.load(f)
    dp = os.path.join(idx, m["dict_paths"][0])
    t = pq.read_table(dp)
    dfs = t["df"].to_pylist()
    dfs[0] += 7
    t = t.set_column(
        t.schema.get_field_index("df"), "df", pa.array(dfs, pa.int64())
    )
    pq.write_table(t, dp)
    rep = check_index(idx, distributed=False)
    assert not rep["ok"]
    assert any("dictionary disagrees" in v for v in rep["violations"])


def test_stats_mismatch_caught(idx):
    mp = os.path.join(idx, "manifest.json")
    with open(mp) as f:
        m = json.load(f)
    m["stats"]["n_docs"] += 1
    with open(mp, "w") as f:
        json.dump(m, f)
    rep = check_index(idx, distributed=False)
    assert not rep["ok"]
    assert any("stats.n_docs" in v for v in rep["violations"])


def test_distributed_equals_inline(idx):
    a = check_index(idx, distributed=True)
    b = check_index(idx, distributed=False)
    assert a == b


def test_ttf_table_distributed_equals_inline(idx):
    from torchtrajectory_ray.pipelines.checkindex import ttf_table

    a = ttf_table(idx, distributed=True)
    b = ttf_table(idx, distributed=False)
    assert a.values.tolist() == b.values.tolist()
    assert len(a) > 0 and (a["ttf"] >= 1).all()
