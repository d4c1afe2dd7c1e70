"""Positional postings (``store_positions=True``): the Lucene layout —
every occurrence position delta+varint-encoded inside the posting —
makes phrase / ordered-span / unordered-NEAR exact INDEX-ONLY
operations, and ``phrase_and`` / ``near_and`` / ``span_near`` take that
route by themselves on such an index.  Gates:

- byte-level roundtrip through tokenize→shuffle→segment merge,
- identity with a ``store_positions=False`` index of the same input
  (forward-index verification) on every fixed proximity workload AND on
  planted matches,
- repeated-term / non-first-occurrence matches a one-position-per-posting
  layout cannot verify,
- the positional route reads no docs shard,
- generations (extend_index) concatenate transparently,
- indexes with the retired one-position payload open as "no positions".
"""

from __future__ import annotations

import collections
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from torchtrajectory_ray import fixtures
from torchtrajectory_ray.config import IndexConfig
from torchtrajectory_ray.pipelines.build import build_index, extend_index
from torchtrajectory_ray.state.engine import QueryEngine

CFG = dict(
    num_term_shards=2,
    num_salts=3,
    store_positions=True,
    tokenize_batch_size=64,
)
TXT_CFG = {**CFG, "store_positions": False}


def _planted_corpus(tmp_path, extra_rows=()):
    """Fixture corpus + handcrafted docs that exercise repeated terms and
    non-first occurrences."""
    paths = fixtures.write_webpages(str(tmp_path / "c"), 120, num_files=3)
    crafted = [
        # phrase "spark lake" matchable only at the SECOND "spark"
        ("https://x.test/p0", "lake spark mountain spark lake data"),
        # repeated-term phrase "data data" (first-position chains miss it)
        ("https://x.test/p1", "big data data pipeline"),
        # NEAR(solar, wind, 4) via late occurrences
        ("https://x.test/p2", "solar a b c d e f g wind h solar wind"),
        # span "wind solar" in order, window 3, after a reversed pair
        ("https://x.test/p3", "solar wind x wind y solar"),
        ("https://x.test/p4", "spark lake"),
    ]
    tbl = pq.read_table(paths[0])
    base = tbl.to_pydict()
    rows = {
        "url": [u for u, _ in crafted],
        "warc_ts": [base["warc_ts"][0]] * len(crafted),
        "html": [f"<html><body>{t}</body></html>".encode() for _, t in crafted],
        "text": [t for _, t in crafted],
        "lang": ["en"] * len(crafted),
    }
    p = str(tmp_path / "c" / "webpages-crafted.parquet")
    pq.write_table(pa.table(rows, schema=tbl.schema), p)
    return paths + [p]


@pytest.fixture(scope="module")
def planted_dirs(ray_session, tmp_path_factory):
    """(positional index dir, text index dir) over the SAME planted
    corpus — the text index verifies against the forward index."""
    tmp_path = tmp_path_factory.mktemp("posidx")
    paths = _planted_corpus(tmp_path)
    pos_dir, txt_dir = str(tmp_path / "pos"), str(tmp_path / "txt")
    build_index(paths, pos_dir, IndexConfig(**CFG))
    build_index(paths, txt_dir, IndexConfig(**TXT_CFG))
    return pos_dir, txt_dir


@pytest.fixture(scope="module")
def pos_engine(planted_dirs):
    return QueryEngine(planted_dirs[0])


@pytest.fixture(scope="module")
def txt_engine(planted_dirs):
    return QueryEngine(planted_dirs[1])


WORKLOAD = [
    ("phrase", ["spark", "lake"], None),
    ("phrase", ["data", "data"], None),
    ("phrase", ["wind", "solar"], None),
    ("phrase", ["the", "spark"], None),
    ("span", ["wind", "solar"], 3),
    ("span", ["solar", "wind"], 6),
    ("span", ["spark", "spark"], 8),
    ("near", ["solar", "wind"], 4),
    ("near", ["spark", "lake", "data"], 12),
]


def _answer(eng, kind, terms, w):
    if kind == "phrase":
        return eng.phrase_and(terms)
    if kind == "span":
        return eng.span_near(terms, w)
    return eng.near_and(terms, w)


def test_positional_equals_text_route_with_hits(pos_engine, txt_engine):
    """Every proximity operator answers identically on the positional
    index and on the text index of the same input — and the planted
    docs guarantee the comparison is about real matches, not empty
    sets."""
    total = 0
    for kind, terms, w in WORKLOAD:
        a = _answer(txt_engine, kind, terms, w)
        b = _answer(pos_engine, kind, terms, w)
        assert a.tolist() == b.tolist(), (kind, terms, w, a, b)
        total += a.size
    assert total > 0
    assert pos_engine.phrase_and([]).size == txt_engine.phrase_and([]).size == 0


def test_positional_route_reads_no_text(pos_engine, txt_engine, monkeypatch):
    """On a positional index ``phrase_and`` / ``near_and`` / ``span_near``
    answer from the postings alone: with every docs-shard read path
    made to raise, they still equal the text index's answers."""
    from torchtrajectory_ray.state import engine as engine_mod

    want = [_answer(txt_engine, *q).tolist() for q in WORKLOAD]

    def no_read(*args, **kwargs):
        raise AssertionError("the positional route read a docs shard")

    monkeypatch.setattr(engine_mod, "_read_texts", no_read)
    monkeypatch.setattr(pq, "read_table", no_read)
    monkeypatch.setattr(engine_mod.pads, "dataset", no_read)
    got = [_answer(pos_engine, *q).tolist() for q in WORKLOAD]
    assert got == want
    assert any(want)


def test_non_first_occurrence_and_repeated_terms(pos_engine):
    """The planted docs match ONLY at non-first occurrences / repeated
    terms — exactly what the reference's one-position-per-posting layout
    (InvertedIndex.java:23-25) cannot verify."""
    eng = pos_engine
    # "spark lake": p0 matches only at spark#2; p4 trivially
    hits = eng.phrase_and(["spark", "lake"])
    urls = set(eng.resolve(hits)["url"])
    assert {"https://x.test/p0", "https://x.test/p4"} <= urls
    # repeated-term phrase
    hits2 = eng.phrase_and(["data", "data"])
    assert "https://x.test/p1" in set(eng.resolve(hits2)["url"])


def test_filters_apply_on_positional_route(pos_engine, txt_engine):
    a = txt_engine.phrase_and(["spark", "lake"], lang="en")
    b = pos_engine.phrase_and(["spark", "lake"], lang="en")
    assert a.size and a.tolist() == b.tolist()
    assert pos_engine.phrase_and(["spark", "lake"], lang="zz").size == 0


def test_positions_survive_extend_generations(ray_session, tmp_path):
    """Generation append: positional answers over extend == fresh
    rebuild (delta coding restarts per posting, so concatenated
    generation blobs decode transparently)."""
    paths = _planted_corpus(tmp_path)
    cfg = IndexConfig(**CFG)
    inc = str(tmp_path / "inc")
    build_index(paths[:2], inc, cfg)
    extend_index(inc, paths[2:], cfg)
    full = str(tmp_path / "fullb")
    build_index(paths, full, cfg)
    ei, ef = QueryEngine(inc), QueryEngine(full)
    for kind, terms, w in WORKLOAD:
        a, b = _answer(ei, kind, terms, w), _answer(ef, kind, terms, w)
        assert a.tolist() == b.tolist(), (kind, terms, w)


def test_positional_distributed_serving_parity(planted_dirs, txt_engine):
    """distributed=True (actor-pool searchers) on the positional index
    answers every proximity operator like the text index served
    in-process."""
    dist = QueryEngine(planted_dirs[0], distributed=True)
    for kind, terms, w in WORKLOAD:
        a = _answer(txt_engine, kind, terms, w)
        b = _answer(dist, kind, terms, w)
        assert a.tolist() == b.tolist(), (kind, terms, w)


def test_search_box_phrase_routes_through_positions(pos_engine, txt_engine):
    """engine.search's quoted phrases route through the positional
    verifier on a positional index; answers must equal a plain index's
    text-route answers for the same search-box queries."""
    for q in ('"spark lake" data', '"data data"', '+the "wind solar"'):
        assert pos_engine.search(q, k=10) == txt_engine.search(q, k=10), q


def test_fail_loud_without_full_positions(txt_engine):
    """An index without positions has no position payload to decode."""
    from torchtrajectory_ray.functions.text import term_hash

    assert not txt_engine._positions
    with pytest.raises(ValueError, match="store_positions=True"):
        txt_engine.searchers[0].positions_full(term_hash("spark"))


def test_tombstones_mask_positional_routes(ray_session, tmp_path):
    """delete_docs must mask every positional verifier immediately, like
    the text route, and compact_index must preserve the positional
    answers while purging."""
    from torchtrajectory_ray.pipelines.build import compact_index, delete_docs
    from torchtrajectory_ray.pipelines.checkindex import check_index

    paths = _planted_corpus(tmp_path)
    idx, txt = str(tmp_path / "idx"), str(tmp_path / "txt")
    build_index(paths, idx, IndexConfig(**CFG))
    build_index(paths, txt, IndexConfig(**TXT_CFG))
    before = QueryEngine(idx).phrase_and(["spark", "lake"])
    assert before.size >= 2
    victim = int(before[0])
    delete_docs(idx, [victim])
    delete_docs(txt, [victim])
    eng2, et = QueryEngine(idx), QueryEngine(txt)
    for kind, w in (("phrase", None), ("near", 8), ("span", 8)):
        hits = _answer(eng2, kind, ["spark", "lake"], w)
        assert victim not in hits.tolist()
        assert hits.tolist() == _answer(et, kind, ["spark", "lake"], w).tolist()
    assert set(eng2.phrase_and(["spark", "lake"]).tolist()) == set(
        before.tolist()
    ) - {victim}
    # compaction purges physically; positional answers preserved and the
    # compacted positional layout verifies clean
    cdir = str(tmp_path / "compacted")
    compact_index(idx, cdir)
    ec = QueryEngine(cdir)
    assert ec._positions
    assert sorted(ec.phrase_and(["spark", "lake"]).tolist()) == sorted(
        et.phrase_and(["spark", "lake"]).tolist()
    )
    rep = check_index(cdir, distributed=False)
    assert rep["ok"], rep["violations"][:3]


def test_first_position_manifest_opens_without_positions(
    ray_session, tmp_path
):
    """An index recorded as the retired ``position_mode="first"`` opens
    as an index without positions (text route, one warning naming
    compact_index); extend_index and build_index refuse it, and
    compact_index rebuilds it with positions."""
    from torchtrajectory_ray.pipelines.build import compact_index
    from torchtrajectory_ray.pipelines.checkindex import check_index

    paths = fixtures.write_webpages(str(tmp_path / "c"), 40, num_files=2)
    idx, txt = str(tmp_path / "old"), str(tmp_path / "txt")
    build_index(paths[:1], idx, IndexConfig(**CFG))
    build_index(paths[:1], txt, IndexConfig(**TXT_CFG))
    mpath = os.path.join(idx, "manifest.json")
    with open(mpath) as f:
        manifest = json.load(f)
    manifest["config"]["position_mode"] = "first"
    with open(mpath, "w") as f:
        json.dump(manifest, f)

    with pytest.warns(UserWarning, match="compact_index") as rec:
        old = QueryEngine(idx)
    assert sum("compact_index" in str(w.message) for w in rec) == 1
    assert not old._positions
    assert not any(s.positions for s in old.searchers)
    et = QueryEngine(txt)
    for q in (["the", "spark"], ["spark", "lake"]):
        assert old.phrase_and(q).tolist() == et.phrase_and(q).tolist()
        assert old.near_and(q, 6).tolist() == et.near_and(q, 6).tolist()
        assert old.span_near(q, 6).tolist() == et.span_near(q, 6).tolist()
    assert check_index(idx, distributed=False)["ok"]

    with pytest.raises(ValueError, match="compact_index"):
        extend_index(idx, paths[1:], IndexConfig(**CFG))
    # nor does a rebuild into it resume the old layout as complete
    with pytest.raises(ValueError, match="different config"):
        build_index(paths[:1], idx, IndexConfig(**CFG))

    cdir = str(tmp_path / "compacted")
    compact_index(idx, cdir)
    assert QueryEngine(cdir)._positions


def test_route_equivalence_fuzz(ray_session, tmp_path):
    """The vectorized positional verifiers (composite-key searchsorted
    across all docs) must agree with the per-doc text-route kernels on a
    randomized small-vocabulary corpus — small vocab forces dense
    repeats, collisions, and adjacent duplicates, the regime where an
    off-by-one in the key algebra would show."""
    rng = np.random.default_rng(20260818)
    vocab = ["aa", "bb", "cc", "dd"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(1, 25)))
        for _ in range(160)
    ]
    rows = {
        "url": [f"https://f.test/{i}" for i in range(len(texts))],
        "warc_ts": [np.datetime64("2025-01-01", "us")] * len(texts),
        "html": [f"<html><body>{t}</body></html>".encode() for t in texts],
        "text": texts,
        "lang": ["en"] * len(texts),
    }
    p = str(tmp_path / "fuzz.parquet")
    pq.write_table(pa.table(rows), p)
    pos_dir, txt_dir = str(tmp_path / "pos"), str(tmp_path / "txt")
    build_index([p], pos_dir, IndexConfig(**CFG))
    build_index([p], txt_dir, IndexConfig(**TXT_CFG))
    ep, et = QueryEngine(pos_dir), QueryEngine(txt_dir)
    cases = []
    for _ in range(30):
        n = int(rng.integers(2, 4))
        terms = list(rng.choice(vocab, size=n))
        w = int(rng.integers(n, 9))
        cases.append((terms, w))
    for terms, w in cases:
        assert (
            et.phrase_and(terms).tolist() == ep.phrase_and(terms).tolist()
        ), ("phrase", terms)
        assert (
            et.span_near(terms, w).tolist() == ep.span_near(terms, w).tolist()
        ), ("span", terms, w)
        uniq = list(dict.fromkeys(terms))
        if w >= len(uniq):
            assert (
                et.near_and(terms, w).tolist() == ep.near_and(terms, w).tolist()
            ), ("near", terms, w)


def test_full_position_payload_roundtrip_brute_force(pos_engine):
    """Decode every (term, doc) position list from the built index and
    compare against brute-force tokenization of the stored text — the
    payload itself, not just query answers."""
    eng = pos_engine
    import pyarrow.dataset as pads

    docs = pads.dataset(eng.docs_paths, format="parquet").to_table(
        columns=["doc_id", "text"]
    )
    truth: dict[tuple, list[int]] = collections.defaultdict(list)
    id_list = docs["doc_id"].to_pylist()
    for d, text in zip(id_list, docs["text"].to_pylist()):
        for p, t in enumerate(eng._tokenize(text)):
            truth[(t, int(d))].append(p)
    from torchtrajectory_ray.functions.text import term_hash

    terms = ("the", "spark", "lake", "data", "wind", "solar")
    checked = 0
    for term in terms:
        tid = term_hash(term)
        for s in eng.searchers:
            ids, offsets, pos_flat = s.positions_full(tid)
            for i, d in enumerate(ids.tolist()):
                got = pos_flat[offsets[i] : offsets[i + 1]].tolist()
                assert got == truth[(term, d)], (term, d)
                checked += 1
    # both directions: every (term, doc) the text contains was decoded
    expected = sum(1 for (t, _d) in truth if t in terms)
    assert checked == expected and checked > 0
