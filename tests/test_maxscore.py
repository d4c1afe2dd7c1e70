"""The pruned top-k (``method="wand"``, exact MaxScore): bitwise equal to
exhaustive scoring on random multi-generation corpora, pruning real
work, scoring everything when a weight is negative; and the searcher's
LRU decoded-postings cache."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torchtrajectory_ray import fixtures
from torchtrajectory_ray.config import IndexConfig
from torchtrajectory_ray.pipelines.build import build_index, delete_docs, extend_index
from torchtrajectory_ray.state.engine import QueryEngine

EPOCH_US = 1_704_067_200_000_000
# "hh" is in every doc (the lowest idf: the list MaxScore should skip),
# then mid-frequency and rare terms
HEAD, MID, RARE = ["hh"], ["m0", "m1", "m2"], ["r0", "r1", "r2", "r3"]


def _write(path: str, texts: list[str], start: int) -> list[str]:
    n = len(texts)
    pq.write_table(
        pa.table(
            {
                "url": pa.array([f"https://s.example/{start + i}" for i in range(n)]),
                "warc_ts": pa.array(
                    [EPOCH_US + (start + i) * 1_000_000 for i in range(n)],
                    pa.timestamp("us"),
                ),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["pt" if (start + i) % 3 else "en" for i in range(n)]),
            }
        ),
        path,
    )
    return [path]


def _docs(rng: np.random.Generator, n: int, dup: float) -> list[str]:
    """``n`` docs: the head term, a few Zipf-ish draws, and with
    probability ``dup`` an exact copy of an earlier doc (score ties)."""
    words = MID + RARE
    p = 1.0 / np.arange(1, len(words) + 1)
    out: list[str] = []
    for _ in range(n):
        if out and rng.random() < dup:
            out.append(out[int(rng.integers(len(out)))])
            continue
        toks = ["hh"] * int(rng.integers(1, 4))
        toks += list(rng.choice(words, int(rng.integers(1, 10)), p=p / p.sum()))
        out.append(" ".join(toks))
    return out


QUERIES = [
    ["hh", "r0"],  # head + rare: the head list goes non-essential
    ["hh", "r1", "r2"],
    ["hh", "m0", "r3"],
    ["m0", "m1"],
    ["hh"],
    ["r0", "r1", "r2", "r3"],
    HEAD + MID + RARE,
]
FILTERS = (
    {},
    {"lang": "pt"},
    {"ts_lo": EPOCH_US + 40_000_000},
    {"lang": "en", "ts_hi": EPOCH_US + 60_000_000},
)


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_base=st.integers(20, 80),
    n_gens=st.tuples(st.integers(3, 25), st.integers(3, 25)),
    dup=st.sampled_from([0.0, 0.3, 0.7]),
    salts=st.integers(1, 3),
    boosts=st.lists(st.floats(0.25, 4.0), min_size=3, max_size=3),
)
def test_maxscore_equals_exhaustive_property(
    ray_session, tmp_path_factory, seed, n_base, n_gens, dup, salts, boosts
):
    """Random base + 2 generations with tombstones: the pruned path must
    return exactly the exhaustive ranks and scores for every k (also more
    than the candidates), the lang / ts filters and boosted weights."""
    rng = np.random.default_rng(seed)
    root = tmp_path_factory.mktemp("maxscore")
    cfg = IndexConfig(num_term_shards=2, num_salts=salts, block_size=4)
    idx = str(root / "idx")
    build_index(_write(str(root / "g0.parquet"), _docs(rng, n_base, dup), 0), idx, cfg)
    start = n_base
    for g, n in enumerate(n_gens, 1):
        texts = _docs(rng, n, dup)
        extend_index(idx, _write(str(root / f"g{g}.parquet"), texts, start), cfg)
        start += n
    live = QueryEngine(idx).find_in_range()
    delete_docs(idx, live[rng.random(len(live)) < 0.15])
    eng = QueryEngine(idx)
    for terms in QUERIES:
        for k in (1, 3, 10, 1000):
            for filt in FILTERS:
                got = eng.topk(terms, k=k, method="wand", **filt)
                assert got == eng.topk(terms, k=k, method="exhaustive", **filt), (
                    terms, k, filt,
                )
            weighted = dict(zip(terms, boosts + [1.0] * len(terms)))
            got = eng.topk_boosted(weighted, k=k, method="wand")
            assert got == eng.topk_boosted(weighted, k=k, method="exhaustive")


@pytest.fixture(scope="module")
def head_rare(ray_session, tmp_path_factory):
    """200 docs holding "hh" once; five of them hold "rr" five times."""
    root = tmp_path_factory.mktemp("headrare")
    texts = [
        "hh " + ("rr " * 5 if i % 40 == 0 else f"f{i % 17}") for i in range(200)
    ]
    idx = str(root / "idx")
    build_index(
        _write(str(root / "g0.parquet"), texts, 0),
        idx,
        IndexConfig(num_term_shards=2, num_salts=1),
    )
    return idx


def test_maxscore_prunes_scoring(head_rare):
    """On a head + rare query the pruned path must apply the scorer to
    fewer postings than exhaustive scoring — a fall-back that prunes
    nothing fails here — and still return the same answer."""
    eng = QueryEngine(head_rare)
    scorer = eng.searchers[0].scorer
    real = scorer.tf_norm
    scored = [0]

    def counting(tf, doclen, avgdl):
        scored[0] += len(tf)
        return real(tf, doclen, avgdl)

    scorer.tf_norm = counting
    out = {}
    for method in ("exhaustive", "wand"):
        scored[0] = 0
        out[method] = eng.topk(["hh", "rr"], k=3, method=method)
        out[method + "_scored"] = scored[0]
    assert out["wand"] == out["exhaustive"]
    assert out["exhaustive_scored"] == 205  # every posting of both lists
    assert out["wand_scored"] < out["exhaustive_scored"] / 4


def test_maxscore_negative_weights_score_everything(ray_session, tmp_path):
    """``update(n_docs=…)`` below a term's df makes its BM25 idf negative;
    the MaxScore bounds assume w ≥ 0, so the pruned path must score
    every candidate and still equal exhaustive bitwise."""
    paths = fixtures.write_webpages(str(tmp_path / "c"), 1500, num_files=2)
    idx = str(tmp_path / "idx")
    build_index(paths, idx, IndexConfig(num_term_shards=2, num_salts=1))
    eng = QueryEngine(idx)
    eng.update(n_docs=50)
    assert eng.term_dict.df.max() > 50
    queries = [q["terms"] for q in fixtures.query_set(40, 1500)]
    queries += [["w0000", "w0001"], ["w0000", "w0003", "w0040"]]
    for terms in queries:
        for k in (1, 3, 10):
            got = eng.topk(terms, k=k, method="wand")
            assert got == eng.topk(terms, k=k, method="exhaustive"), (terms, k)


def test_decoded_cache_keeps_hot_terms(ray_session, tmp_path):
    """The decoded-postings cache evicts the least recently used term: a
    term probed every 50 probes stays decoded (the same arrays) across
    300 distinct other terms, a term probed once is evicted, and the
    cache never holds more than its bound."""
    paths = fixtures.write_webpages(str(tmp_path / "c"), 400, num_files=1)
    idx = str(tmp_path / "idx")
    build_index(paths, idx, IndexConfig(num_term_shards=2, num_salts=1))
    s = QueryEngine(idx).searchers[0]
    tids = np.unique(s._store.tids).tolist()
    hot, cold, others = tids[0], tids[1], tids[2:302]
    assert len(others) == 300
    first = s.postings(hot)[0]
    s.postings(cold)
    for i, tid in enumerate(others):
        s.postings(tid)
        if i % 50 == 0:
            assert s.postings(hot)[0] is first
    assert hot in s._decoded_cache and s._decoded_cache[hot][0] is first
    assert cold not in s._decoded_cache
    assert sum(t in s._decoded_cache for t in tids) == s._DECODED_CACHE_MAX
