"""Forward-index reads of ``QueryEngine``.  In memory mode the metadata
queries (``find_in_range``, ``facet_counts``, ``sort_by``) answer from
the resident doc stores and open no file; in both load modes they, and
the text-verified ``phrase_and`` / ``near_and`` / ``span_near``, return
pinned answers on a base + 2 generations + tombstones index."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from torchtrajectory_ray.config import IndexConfig
from torchtrajectory_ray.pipelines.build import build_index, delete_docs, extend_index
from torchtrajectory_ray.state.engine import QueryEngine

EPOCH_US = 1_704_067_200_000_000
VOCAB = ["alpha", "beta", "gamma", "delta", "eps"]
LANGS = ["en", "pt", "de"]


def _write(path: str, rng: np.random.Generator, n: int, start: int) -> list[str]:
    texts = [
        " ".join(rng.choice(VOCAB, int(rng.integers(2, 12)), p=[0.3, 0.25, 0.2, 0.15, 0.1]))
        for _ in range(n)
    ]
    pq.write_table(
        pa.table(
            {
                "url": pa.array([f"https://f.example/{start + i}" for i in range(n)]),
                "warc_ts": pa.array(
                    [EPOCH_US + (start + i) * 1_000_000 for i in range(n)],
                    pa.timestamp("us"),
                ),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array([LANGS[(start + i) % 3] for i in range(n)]),
            }
        ),
        path,
    )
    return [path]


@pytest.fixture(scope="module")
def index(ray_session, tmp_path_factory) -> str:
    rng = np.random.default_rng(10)
    root = tmp_path_factory.mktemp("fwd")
    cfg = IndexConfig(num_term_shards=2, num_salts=2, block_size=4)
    idx = str(root / "idx")
    build_index(_write(str(root / "g0.parquet"), rng, 40, 0), idx, cfg)
    for g, start in ((1, 40), (2, 55)):
        extend_index(idx, _write(str(root / f"g{g}.parquet"), rng, 15, start), cfg)
    delete_docs(idx, QueryEngine(idx).find_in_range()[::7])
    return idx


def _metadata(eng: QueryEngine) -> dict:
    def facet(df):
        return [[v, int(n)] for v, n in zip(df.iloc[:, 0].tolist(), df["n_docs"])]

    def rows(df):
        return [[int(r), int(d), v] for r, d, v in df.itertuples(index=False)]

    return {
        "range_all": eng.find_in_range().tolist(),
        "range_pt_len": eng.find_in_range(lang="pt", doclen_lo=4, doclen_hi=9).tolist(),
        "range_ts": eng.find_in_range(
            ts_lo=EPOCH_US + 10_000_000, ts_hi=EPOCH_US + 50_000_000
        ).tolist(),
        "facet_lang": facet(eng.facet_counts(["alpha", "beta"])),
        "facet_lang_and": facet(eng.facet_counts(["gamma", "eps"], mode="and")),
        "facet_doclen": facet(
            eng.facet_counts(["delta"], facet_col="doclen", bucket_width=3)
        ),
        "sort_doclen": rows(eng.sort_by(["gamma"], field="doclen", k=5)),
        "sort_lang_asc": rows(
            eng.sort_by(["eps", "delta"], field="lang", k=6, descending=False)
        ),
    }


def _verified(eng: QueryEngine, **kw) -> dict:
    return {
        "phrase": eng.phrase_and(["alpha", "beta"], **kw).tolist(),
        "phrase_repeat": eng.phrase_and(["alpha", "alpha"], **kw).tolist(),
        "near": eng.near_and(["gamma", "eps"], 3, **kw).tolist(),
        "span": eng.span_near(["beta", "alpha", "gamma"], 5, **kw).tolist(),
    }


# The engine's answers before the metadata queries moved to the doc
# stores, the same in memory mode, lazy mode and distributed verification.
# Each input file's doc ids start at its ordinal << 34 (base, then
# each generation).
G = 1 << 34
PINNED_METADATA = {
    "range_all": [
        1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20, 22, 23, 24,
        25, 26, 27, 29, 30, 31, 32, 33, 34, 36, 37, 38, 39, G + 0, G + 1, G + 3,
        G + 4, G + 5, G + 6, G + 7, G + 8, G + 10, G + 11, G + 12, G + 13, G + 14,
        2 * G + 0, 2 * G + 2, 2 * G + 3, 2 * G + 4, 2 * G + 5, 2 * G + 6,
        2 * G + 7, 2 * G + 9, 2 * G + 10, 2 * G + 11, 2 * G + 12, 2 * G + 13,
        2 * G + 14,
    ],
    "range_pt_len": [
        13, 16, 19, 25, 34, 37, G + 0, G + 3, 2 * G + 3, 2 * G + 12,
    ],
    "range_ts": [
        10, 11, 12, 13, 15, 16, 17, 18, 19, 20, 22, 23, 24, 25, 26, 27, 29, 30, 31,
        32, 33, 34, 36, 37, 38, 39, G + 0, G + 1, G + 3, G + 4, G + 5, G + 6,
        G + 7, G + 8, G + 10,
    ],
    "facet_lang": [
        ["de", 20], ["en", 20], ["pt", 19],
    ],
    "facet_lang_and": [
        ["de", 7], ["en", 8], ["pt", 6],
    ],
    "facet_doclen": [
        [0, 2], [3, 11], [6, 9], [9, 15],
    ],
    "sort_doclen": [
        [1, 1, 11], [2, 31, 11], [3, G + 5, 11], [4, G + 12, 11], [5, 3, 10],
    ],
    "sort_lang_asc": [
        [1, 2, "de"], [2, 5, "de"], [3, 8, "de"], [4, 17, "de"], [5, 20, "de"],
        [6, 23, "de"],
    ],
}
PINNED_VERIFIED = {
    "phrase": [
        5, 11, 13, 16, 18, 19, 23, 24, 29, 30, 32, 34, 36, G + 5, G + 6, G + 12,
        G + 13, 2 * G + 3, 2 * G + 4, 2 * G + 5, 2 * G + 7, 2 * G + 12, 2 * G + 14,
    ],
    "phrase_repeat": [
        3, 6, 12, 13, 16, 18, 23, 27, 29, 37, G + 0, G + 3, G + 12, 2 * G + 0,
        2 * G + 2, 2 * G + 5, 2 * G + 9, 2 * G + 11,
    ],
    "near": [
        1, 19, 27, 39, G + 1, G + 6, G + 7, G + 11, G + 12, G + 13, G + 14,
        2 * G + 0, 2 * G + 7, 2 * G + 10,
    ],
    "span": [
        2, 11, 24, 34, G + 3, G + 5, G + 6, G + 7, G + 11, G + 14, 2 * G + 2,
        2 * G + 3, 2 * G + 9,
    ],
}


def test_metadata_queries_read_no_file(index, monkeypatch):
    eng = QueryEngine(index)

    def no_read(*a, **kw):
        raise AssertionError("a memory-mode metadata query opened a file")

    monkeypatch.setattr(pads, "dataset", no_read)
    monkeypatch.setattr(pq, "read_table", no_read)
    monkeypatch.setattr(pq, "ParquetFile", no_read)
    assert _metadata(eng) == PINNED_METADATA


@pytest.mark.parametrize("load_mode", ["memory", "lazy"])
def test_forward_reads_match_pinned_answers(index, load_mode):
    eng = QueryEngine(index, load_mode=load_mode)
    assert _metadata(eng) == PINNED_METADATA
    assert _verified(eng) == PINNED_VERIFIED


def test_distributed_verification_matches_pinned_answers(index):
    assert _verified(QueryEngine(index), distribute_over=0) == PINNED_VERIFIED


def test_doc_missing_from_docs_shards_fails_loud(index):
    """A doc the postings know but the doc store does not hold raises
    instead of taking a neighbour's row."""
    from torchtrajectory_ray.state.segment import _DocStore

    eng = QueryEngine(index)
    table = eng._docs[0].table
    eng._docs[0] = _DocStore(table.filter(pads.field("doc_id") != 1))  # a live doc
    with pytest.raises(ValueError, match="not in the docs shards"):
        eng.sort_by(["alpha", "beta", "gamma", "delta", "eps"], field="doclen")
