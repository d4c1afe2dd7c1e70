"""Robustness: extraction on arbitrary bytes, empty shards, head-term
skew salting, codec edge values."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torchtrajectory_ray import fixtures
from torchtrajectory_ray.config import IndexConfig
from torchtrajectory_ray.functions.text import extract_text, tokenize
from torchtrajectory_ray.pipelines.build import build_index


@given(st.binary(max_size=2000))
@settings(max_examples=200, deadline=None)
def test_extract_never_raises_and_is_deterministic(data):
    a = extract_text(data)
    b = extract_text(data)
    assert a == b
    assert isinstance(a, str)


@given(st.text(max_size=500))
@settings(max_examples=200, deadline=None)
def test_tokenize_never_raises(text):
    toks = tokenize(text)
    assert all(t == t.lower() for t in toks)


def test_build_with_empty_shard(ray_session, tmp_path):
    """An input shard with zero rows must not break the build, and every
    doc id must stay unique (ordinals DO shift around the empty shard —
    that is fine; collisions are not)."""
    import glob as _glob

    paths = fixtures.write_webpages(str(tmp_path / "c"), 60, num_files=2)
    empty = str(tmp_path / "c" / "webpages-0000a-empty.parquet")
    pq.write_table(fixtures.webpages_table(0), empty)
    out = str(tmp_path / "i")
    m = build_index(
        paths + [empty], out, IndexConfig(num_term_shards=2, num_salts=2)
    )
    assert m["stats"]["n_docs"] == 60
    assert len(m["lineage"]) == 3
    ids = []
    for f in _glob.glob(f"{out}/docs/**/*.parquet", recursive=True):
        ids.extend(pq.read_table(f, columns=["doc_id"])["doc_id"].to_pylist())
    assert len(ids) == 60 and len(set(ids)) == 60


def test_head_term_salting_bounds_runs(ray_session, tmp_path):
    """A head term present in every doc must split into num_salts runs of
    bounded size (the explicit skew handling) — no run holds more than
    one salt range's docs."""
    import pyarrow as pa

    n, files, salts = 240, 4, 4
    texts = [f"head common w{i % 7}" for i in range(n)]
    tbl = pa.table(
        {
            "url": pa.array([f"u/{i}" for i in range(n)], pa.string()),
            "text": pa.array(texts, pa.string()),
        }
    )
    bounds = np.linspace(0, n, files + 1).astype(int)
    paths = []
    for i in range(files):
        p = str(tmp_path / f"s-{i}.parquet")
        pq.write_table(tbl.slice(bounds[i], bounds[i + 1] - bounds[i]), p)
        paths.append(p)
    out = str(tmp_path / "idx")
    m = build_index(paths, out, IndexConfig(num_term_shards=2, num_salts=salts))

    from torchtrajectory_ray.functions.text import term_hash

    tid = term_hash("head")
    from torchtrajectory_ray.pipelines.build import manifest_abspath

    seen_salts, max_run = set(), 0
    for s in m["segments"]:
        t = pq.read_table(
            manifest_abspath(s["path"], out), columns=["term_id", "salt", "df"]
        )
        for row in t.to_pylist():
            if row["term_id"] == tid:
                seen_salts.add(row["salt"])
                max_run = max(max_run, row["df"])
    assert len(seen_salts) == salts         # the head term is split
    assert max_run <= n // salts            # each run covers one salt range


def test_codec_extreme_values():
    from torchtrajectory_ray.functions.codec import (
        delta_decode,
        delta_encode,
        varint_decode,
        varint_encode,
    )

    big = np.array([0, 1, (1 << 62) - 1, (1 << 63) - 1], dtype=np.int64)
    assert np.array_equal(varint_decode(varint_encode(big)), big)
    sorted_big = np.sort(big)
    assert np.array_equal(delta_decode(delta_encode(sorted_big)), sorted_big)
    with pytest.raises(ValueError):
        varint_encode(np.array([-1]))


def test_duplicate_doc_ids_fail_loud(ray_session, tmp_path):
    """Two input docs sharing a doc_id must abort the build (silent
    forward-index corruption otherwise: resolve/facets count rows)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from torchtrajectory_ray.config import IndexConfig
    from torchtrajectory_ray.pipelines.build import build_index

    p = str(tmp_path / "dup.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 2], pa.int64()),
                "text": pa.array(
                    ["alpha beta", "beta gamma", "delta beta"], pa.string()
                ),
                "lang": pa.array(["en"] * 3, pa.string()),
            }
        ),
        p,
    )
    with pytest.raises(Exception, match="duplicate doc_id"):
        build_index(
            [p], str(tmp_path / "idx"), IndexConfig(num_term_shards=1, num_salts=1)
        )
