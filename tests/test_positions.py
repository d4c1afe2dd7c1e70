"""Full positional postings (store_positions=True, position_mode="full"):
the Lucene layout — every occurrence position delta+varint-encoded inside
the posting — makes phrase / ordered-span / unordered-NEAR exact
INDEX-ONLY operations.  Gates:

- byte-level roundtrip through tokenize→shuffle→segment merge,
- identity with the forward-index verification route on every fixed
  proximity workload AND on planted matches,
- repeated-term / non-first-occurrence matches the first-position layout
  provably misses,
- generations (extend_index) concatenate transparently,
- fail-loud on indexes without the payload.
"""

from __future__ import annotations

import collections

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
    position_mode="full",
    tokenize_batch_size=64,
)


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
def pos_engine(ray_session, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("posidx")
    paths = _planted_corpus(tmp_path)
    idx = str(tmp_path / "idx")
    build_index(paths, idx, IndexConfig(**CFG))
    return QueryEngine(idx)


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


def test_positional_equals_text_route_with_hits(pos_engine):
    """Every proximity operator answers identically through positions and
    through forward-index verification — and the planted docs guarantee
    the comparison is about real matches, not empty sets."""
    eng = pos_engine
    total = 0
    for kind, terms, w in WORKLOAD:
        if kind == "phrase":
            a, b = eng.phrase_and(terms), eng.phrase_and_pos(terms)
        elif kind == "span":
            a, b = eng.span_near(terms, w), eng.span_near_pos(terms, w)
        else:
            a, b = eng.near_and(terms, w), eng.near_and_pos(terms, w)
        assert a.tolist() == b.tolist(), (kind, terms, w, a, b)
        total += a.size
    assert total > 0


def test_non_first_occurrence_and_repeated_terms(pos_engine):
    """The planted docs match ONLY at non-first occurrences / repeated
    terms — exactly what the reference's one-position-per-posting layout
    (InvertedIndex.java:23-25) cannot verify."""
    eng = pos_engine
    # "spark lake": p0 matches only at spark#2; p4 trivially
    hits = eng.phrase_and_pos(["spark", "lake"])
    urls = set(eng.resolve(hits)["url"])
    assert {"https://x.test/p0", "https://x.test/p4"} <= urls
    # repeated-term phrase
    hits2 = eng.phrase_and_pos(["data", "data"])
    assert "https://x.test/p1" in set(eng.resolve(hits2)["url"])
    # the first-position salt-searcher chain misses the p1 match
    first_chain = np.sort(
        np.concatenate(eng._fanout(
            "phrase_and",
            [__import__("torchtrajectory_ray.functions.text",
                        fromlist=["term_hash"]).term_hash(t)
             for t in ("data", "data")],
        ))
    )
    assert not set(hits2.tolist()) <= set(first_chain.tolist())


def test_filters_apply_on_positional_route(pos_engine):
    eng = pos_engine
    a = eng.phrase_and(["spark", "lake"], lang="en")
    b = eng.phrase_and_pos(["spark", "lake"], lang="en")
    assert a.tolist() == b.tolist()
    assert eng.phrase_and_pos(["spark", "lake"], lang="zz").size == 0


def test_postings_pos_first_positions_agree_across_modes(
    ray_session, tmp_path
):
    """postings_pos on a full-mode index must return exactly the
    first-mode payload (the first stored occurrence per posting)."""
    paths = fixtures.write_webpages(str(tmp_path / "c"), 80, num_files=2)
    full_dir, first_dir = str(tmp_path / "full"), str(tmp_path / "first")
    build_index(paths, full_dir, IndexConfig(**CFG))
    build_index(
        paths, first_dir, IndexConfig(**{**CFG, "position_mode": "first"})
    )
    e_full, e_first = QueryEngine(full_dir), QueryEngine(first_dir)
    from torchtrajectory_ray.functions.text import term_hash

    for term in ("the", "spark", "wind", "data"):
        tid = term_hash(term)
        for sf, sl in zip(e_full.searchers, e_first.searchers):
            af, pf = sf.postings_pos(tid)
            al, pl = sl.postings_pos(tid)
            assert af.tolist() == al.tolist()
            assert pf.tolist() == pl.tolist()
            # the documented cache must hit under BOTH position modes
            for s in (sf, sl):
                if len(af):
                    assert tid in s._pos_cache
                    c_ids, c_pos = s.postings_pos(tid)
                    assert c_ids is s._pos_cache[tid][0]


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
        if kind == "phrase":
            a, b = ei.phrase_and_pos(terms), ef.phrase_and_pos(terms)
        elif kind == "span":
            a, b = ei.span_near_pos(terms, w), ef.span_near_pos(terms, w)
        else:
            a, b = ei.near_and_pos(terms, w), ef.near_and_pos(terms, w)
        assert a.tolist() == b.tolist(), (kind, terms, w)


def test_positional_distributed_serving_parity(
    ray_session, tmp_path_factory
):
    """distributed=True (actor-pool searchers) answers every positional
    operator identically to in-process serving."""
    tmp_path = tmp_path_factory.mktemp("posdist")
    paths = _planted_corpus(tmp_path)
    idx = str(tmp_path / "idx")
    build_index(paths, idx, IndexConfig(**CFG))
    local = QueryEngine(idx)
    dist = QueryEngine(idx, distributed=True)
    for kind, terms, w in WORKLOAD:
        if kind == "phrase":
            a, b = local.phrase_and_pos(terms), dist.phrase_and_pos(terms)
        elif kind == "span":
            a, b = local.span_near_pos(terms, w), dist.span_near_pos(terms, w)
        else:
            a, b = local.near_and_pos(terms, w), dist.near_and_pos(terms, w)
        assert a.tolist() == b.tolist(), (kind, terms, w)


def test_search_box_phrase_routes_through_positions(
    ray_session, tmp_path
):
    """engine.search auto-routes quoted phrases through the positional
    verifier on full-position indexes; answers must equal a plain index's
    text-route answers for the same search-box queries."""
    paths = _planted_corpus(tmp_path)
    pos_dir, txt_dir = str(tmp_path / "pos"), str(tmp_path / "txt")
    build_index(paths, pos_dir, IndexConfig(**CFG))
    build_index(
        paths, txt_dir, IndexConfig(**{**CFG, "store_positions": False})
    )
    ep, et = QueryEngine(pos_dir), QueryEngine(txt_dir)
    for q in ('"spark lake" data', '"data data"', '+the "wind solar"'):
        assert ep.search(q, k=10) == et.search(q, k=10), q


def test_fail_loud_without_full_positions(ray_session, tmp_path):
    paths = fixtures.write_webpages(str(tmp_path / "c"), 40, num_files=2)
    for mode_cfg in (
        {**CFG, "store_positions": False},
        {**CFG, "position_mode": "first"},
    ):
        d = str(
            tmp_path / f"i-{mode_cfg['store_positions']}-{mode_cfg['position_mode']}"
        )
        build_index(paths, d, IndexConfig(**mode_cfg))
        eng = QueryEngine(d)
        with pytest.raises(ValueError, match="position_mode='full'"):
            eng.phrase_and_pos(["the", "spark"])


def test_tombstones_mask_positional_routes(ray_session, tmp_path):
    """delete_docs must mask every positional verifier immediately, and
    compact_index must preserve the positional answers while purging."""
    from torchtrajectory_ray.pipelines.build import compact_index, delete_docs
    from torchtrajectory_ray.pipelines.checkindex import check_index

    paths = _planted_corpus(tmp_path)
    idx = str(tmp_path / "idx")
    build_index(paths, idx, IndexConfig(**CFG))
    eng = QueryEngine(idx)
    before = eng.phrase_and_pos(["spark", "lake"])
    assert before.size >= 2
    victim = int(before[0])
    delete_docs(idx, [victim])
    eng2 = QueryEngine(idx)
    for hits in (
        eng2.phrase_and_pos(["spark", "lake"]),
        eng2.near_and_pos(["spark", "lake"], 8),
        eng2.span_near_pos(["spark", "lake"], 8),
    ):
        assert victim not in hits.tolist()
    assert set(eng2.phrase_and_pos(["spark", "lake"]).tolist()) == set(
        before.tolist()
    ) - {victim}
    # compaction purges physically; positional answers preserved and the
    # compacted positional layout verifies clean
    cdir = str(tmp_path / "compacted")
    compact_index(idx, cdir)
    ec = QueryEngine(cdir)
    assert sorted(ec.phrase_and_pos(["spark", "lake"]).tolist()) == sorted(
        eng2.phrase_and_pos(["spark", "lake"]).tolist()
    )
    rep = check_index(cdir, distributed=False)
    assert rep["ok"], rep["violations"][:3]


def test_invalid_position_mode_rejected(ray_session, tmp_path):
    paths = fixtures.write_webpages(str(tmp_path / "c"), 10, num_files=1)
    with pytest.raises(ValueError, match="position_mode"):
        build_index(
            paths,
            str(tmp_path / "i"),
            IndexConfig(**{**CFG, "position_mode": "bogus"}),
        )


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
    idx = str(tmp_path / "idx")
    build_index([p], idx, IndexConfig(**CFG))
    eng = QueryEngine(idx)
    cases = []
    for _ in range(30):
        n = int(rng.integers(2, 4))
        terms = list(rng.choice(vocab, size=n))
        w = int(rng.integers(n, 9))
        cases.append((terms, w))
    for terms, w in cases:
        assert (
            eng.phrase_and(terms).tolist()
            == eng.phrase_and_pos(terms).tolist()
        ), ("phrase", terms)
        assert (
            eng.span_near(terms, w).tolist()
            == eng.span_near_pos(terms, w).tolist()
        ), ("span", terms, w)
        uniq = list(dict.fromkeys(terms))
        if w >= len(uniq):
            assert (
                eng.near_and(terms, w).tolist()
                == eng.near_and_pos(terms, w).tolist()
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
