"""Seeded benchmark inputs: a Zipf web-text corpus written as parquet page
shards, the query stream, and an exact BM25 oracle.

Everything is a pure function of the seed.  The oracle is computed from
the generator's own token-id arrays, never from anything the program
wrote, so it checks the build and the query path end to end.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB_SIZE = 20_000  # most terms are rare, as in web text
ZIPF_S = 1.05
DOC_LEN_MIN, DOC_LEN_MAX = 40, 200
EPOCH_US = 1_704_067_200_000_000
LANGS = ["en"] * 8 + ["pt", "de"]
K1, B = 1.2, 0.75  # the oracle's BM25 parameters, the program's defaults


def url_of(idx: int) -> str:
    return f"https://s{idx % 211}.example/d/{idx}"


def idx_of_url(url: str) -> int:
    return int(url.rsplit("/", 1)[1])


class Corpus:
    """Docs in global generation order; doc ``i`` has url ``url_of(i)``.

    Shards are written in name order and generations in ingest order, so
    the global index orders docs exactly as the program's dense doc ids
    do — the oracle's tie-break (doc id ascending) is index ascending."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        # term strings are a seeded permutation of the ranks, so another
        # seed gives another corpus and query stream, not relabelled ranks
        perm = self.rng.permutation(VOCAB_SIZE)
        self.terms = np.array([f"t{p:x}" for p in perm], dtype=object)
        self.rank_of = {t: r for r, t in enumerate(self.terms)}
        p = np.arange(1, VOCAB_SIZE + 1, dtype=np.float64) ** -ZIPF_S
        self.cdf = np.cumsum(p / p.sum())
        self.generations: list[_Postings] = []

    def _draw_ranks(self, n: int) -> np.ndarray:
        r = np.searchsorted(self.cdf, self.rng.random(n), side="right")
        return np.minimum(r, VOCAB_SIZE - 1).astype(np.int32)

    def generate(self, n_docs: int) -> "_Postings":
        """Draw ``n_docs`` new docs and add them to the oracle as a new
        generation."""
        lens = self.rng.integers(DOC_LEN_MIN, DOC_LEN_MAX + 1, n_docs)
        start = sum(len(g.lens) for g in self.generations)
        gen = _Postings(self._draw_ranks(int(lens.sum())), lens, start)
        self.generations.append(gen)
        return gen

    def add_generation(
        self, out_dir: str, prefix: str, n_docs: int, n_shards: int, rich: bool
    ) -> list[str]:
        """Generate ``n_docs`` new docs and write them as ``n_shards``
        parquet page shards, ``rich`` ones wrapped in ~36 KB of boilerplate
        that extraction removes.  Returns the shard paths."""
        from torchtrajectory_ray.fixtures import make_html

        os.makedirs(out_dir, exist_ok=True)
        gen = self.generate(n_docs)
        bounds = gen.start + np.linspace(0, n_docs, n_shards + 1).astype(int)
        style = "rich" if rich else "minimal"
        paths = []
        for s in range(n_shards):
            ids = range(bounds[s], bounds[s + 1])
            texts = self.texts(bounds[s], bounds[s + 1])
            tbl = pa.table(
                {
                    "url": pa.array([url_of(i) for i in ids], pa.string()),
                    "warc_ts": pa.array(
                        [EPOCH_US + i * 137_000_000 for i in ids],
                        pa.timestamp("us"),
                    ),
                    "html": pa.array(
                        [make_html(i, t, style=style) for i, t in zip(ids, texts)],
                        pa.binary(),
                    ),
                    "text": pa.array(texts, pa.string()),
                    "lang": pa.array([LANGS[i % 10] for i in ids], pa.string()),
                }
            )
            path = os.path.join(out_dir, f"{prefix}-{s:04d}.parquet")
            pq.write_table(tbl, path)
            paths.append(path)
        return paths

    def queries(self, n: int) -> list[list[str]]:
        """``n`` queries of 2-5 distinct Zipf-drawn terms: head terms
        repeat across queries (decode-cache hits), tail terms rarely do."""
        out = []
        for n_terms in self.rng.integers(2, 6, n):
            ranks = []
            while len(ranks) < n_terms:
                r = int(self._draw_ranks(1)[0])
                if r not in ranks:
                    ranks.append(r)
            out.append([str(self.terms[r]) for r in ranks])
        return out

    def scores(
        self, terms: list[str], upto: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exhaustive BM25 over the union of the first ``upto`` generations
        (default all): (doc index, score) of every doc matching any term.
        Lucene idf ln(1 + (N - df + 0.5) / (df + 0.5)); duplicate terms
        count once."""
        gens = self.generations[:upto]
        n_docs = sum(len(g.lens) for g in gens)
        avgdl = sum(g.total for g in gens) / n_docs
        docs, contribs = [], []
        for t in sorted(set(terms)):
            r = self.rank_of.get(t)
            if r is None:
                continue
            parts = [g.term(r) for g in gens]
            d = np.concatenate([p[0] for p in parts])
            if not len(d):
                continue
            tf = np.concatenate([p[1] for p in parts]).astype(np.float64)
            dl = np.concatenate([p[2] for p in parts]).astype(np.float64)
            df = len(d)
            idf = np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            docs.append(d)
            contribs.append(
                idf * tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * dl / avgdl))
            )
        if not docs:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        uniq, inv = np.unique(np.concatenate(docs), return_inverse=True)
        return uniq, np.bincount(inv, weights=np.concatenate(contribs))

    def postings(self, terms: list[str], upto: int | None = None) -> int:
        """Postings of the distinct known ``terms`` over the first ``upto``
        generations: the work an exhaustive search of them does."""
        gens = self.generations[:upto]
        ranks = {self.rank_of[t] for t in terms if t in self.rank_of}
        return sum(g.df(r) for r in ranks for g in gens)

    def texts(self, start: int, stop: int) -> list[str]:
        """Texts of docs [start, stop)."""
        out = []
        for g in self.generations:
            lo, hi = max(start, g.start), min(stop, g.start + len(g.lens))
            if lo >= hi:
                continue
            words = self.terms[g.ranks[g.offs[lo - g.start] : g.offs[hi - g.start]]]
            base = g.offs[lo - g.start]
            for i in range(lo, hi):
                a, b = g.offs[i - g.start] - base, g.offs[i - g.start + 1] - base
                out.append(" ".join(words[a:b]))
        return out


class _Postings:
    """One generation's (term rank, doc) -> tf table, sorted by rank."""

    def __init__(self, ranks: np.ndarray, lens: np.ndarray, start: int):
        self.ranks, self.lens, self.start = ranks, lens, start
        self.offs = np.concatenate(([0], np.cumsum(lens)))
        self.total = int(self.offs[-1])
        doc = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        key, tf = np.unique(
            ranks.astype(np.int64) * len(lens) + doc, return_counts=True
        )
        self.rank = key // len(lens)
        self.doc = key % len(lens)
        self.tf = tf

    def df(self, r: int) -> int:
        lo, hi = np.searchsorted(self.rank, [r, r + 1])
        return int(hi - lo)

    def term(self, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lo, hi = np.searchsorted(self.rank, [r, r + 1])
        d = self.doc[lo:hi]
        return d + self.start, self.tf[lo:hi], self.lens[d]
