from __future__ import annotations

import numpy as np

from torchtrajectory_ray import fixtures
from torchtrajectory_ray.functions.text import (
    extract_text,
    term_hash,
    tokenize,
)


def test_extract_invariant_on_fixture():
    """The per-row invariant from BASELINE.json: extract(html) == text,
    byte-identical per url."""
    tbl = fixtures.webpages_table(50)
    for html, text in zip(tbl["html"].to_pylist(), tbl["text"].to_pylist()):
        assert extract_text(html) == text


def test_extract_strips_script_style_comments_entities():
    html = (
        b"<html><script>if (a < b) { x(); }</script><style>a{}</style>"
        b"<body><!-- no --><p>Hello &amp; <b>world</b> &lt;3</p></body></html>"
    )
    assert extract_text(html) == "Hello & world <3"


def test_tokenize_matches_split_on_clean_text():
    text = "the quick brown fox 42 jumps"
    assert tokenize(text) == text.split(" ")
    assert tokenize("Don't STOP!") == ["don't", "stop"]


def test_term_hash_stable_and_positive():
    assert term_hash("hello") == term_hash("hello")
    assert term_hash("hello") != term_hash("world")
    assert term_hash("hello") > 0


def test_fixture_determinism():
    t1 = fixtures.webpages_table(30)
    t2 = fixtures.webpages_table(30)
    assert t1.equals(t2)
    # sharded generation agrees with whole-table generation
    part = fixtures.webpages_table(10, start=20)
    assert part.equals(t1.slice(20, 10))


def test_fixture_needles():
    toks = fixtures.doc_tokens(fixtures.NEEDLE_UNIQUE_DOC)
    assert "needle_unique" in toks
    assert "needle_unique" not in fixtures.doc_tokens(5)


def test_oracle_basics():
    from torchtrajectory_ray.oracle import build_oracle

    idx = build_oracle([1, 2, 3], ["a b a", "b c", "c d a"])
    assert idx.n_docs == 3
    assert idx.bool_or(["a", "d"]) == [1, 3]
    assert idx.bool_and(["a", "b"]) == [1]
    assert idx.bool_and(["a", "a"]) == [1, 3]  # dup terms counted once
    assert idx.bool_and(["zzz"]) == []
    top = idx.topk(["a"], k=2)
    assert [d for d, _ in top] == [1, 3]  # tf=2 in doc1 beats tf=1
    assert all(np.isfinite(s) and s > 0 for _, s in top)


def test_bad_rows_drop_counts(ray_session, tmp_path):
    """bad_rows="drop": invariant-violating rows are skipped + counted in
    lineage (the reference's malformed-row policy, TrajReader.java:80-84),
    while the default raises."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from torchtrajectory_ray import fixtures
    from torchtrajectory_ray.config import IndexConfig
    from torchtrajectory_ray.pipelines.build import build_index

    tbl = fixtures.webpages_table(30)
    texts = tbl["text"].to_pylist()
    texts[7] = texts[7] + " CORRUPTED"   # html no longer reproduces text
    texts[19] = "also wrong"
    bad = tbl.set_column(tbl.schema.get_field_index("text"), "text",
                         pa.array(texts, pa.string()))
    src = str(tmp_path / "pages.parquet")
    pq.write_table(bad, src)

    with pytest.raises(Exception, match="invariant violated"):
        build_index([src], str(tmp_path / "i1"),
                    IndexConfig(num_term_shards=2, num_salts=2))

    m = build_index([src], str(tmp_path / "i2"),
                    IndexConfig(num_term_shards=2, num_salts=2,
                                bad_rows="drop"))
    assert m["stats"]["n_docs"] == 28
    assert sum(r["n_rejected"] for r in m["lineage"]) == 2
