"""Engine configuration dataclasses.

Analogs of the reference's builder surfaces:
``MapMatching.Builder`` (/root/reference/src/main/java/au/edu/rmit/bdm/Torch/
mapMatching/MapMatching.java:151-220) -> ``IndexConfig``; ``Engine.Builder``
(Torch/queryEngine/Engine.java:176-293) -> ``BM25Params`` + engine options.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BM25Params:
    """BM25 scoring parameters (replaces the reference's pluggable
    SimilarityFunction, Torch/queryEngine/similarity/SimilarityFunction.java:44-47).

    idf is Lucene-style: ln(1 + (N - df + 0.5) / (df + 0.5)).
    """

    k1: float = 1.2
    b: float = 0.75


@dataclass(frozen=True)
class IndexConfig:
    """Index-build configuration.

    Physical layout is a 2-D grid: ``num_term_shards`` (hash of term_id)
    × ``num_salts`` (doc_id range bucket).  The shuffle key is
    (term_id, salt) — *every* term is salted by doc-id range, which is
    the explicit skew handling the north rule requires: a head term
    (stopword at 10^12 docs) splits into ``num_salts`` bounded runs
    instead of one giant posting group, while tail terms just land in
    however many buckets their few docs occupy.  Salt buckets cover
    disjoint, ordered doc_id ranges, so bucket-local BM25 scoring is
    exact and cross-bucket merge is a concatenation.

    At 10^12-doc scale both grid dimensions grow (thousands × thousands);
    the per-group memory bound is corpus_postings / (shards × salts).

    - ``block_size``: posting block length for block-max metadata (the
      per-term bounds of the MaxScore top-k).
    - ``tokenize_batch_size``: docs per combine batch inside the fused
      build task (each batch becomes one set of partial runs).
    - ``store_positions``: also store EVERY occurrence position of each
      (term, doc), delta+varint within the posting (the Lucene
      positional-postings layout; the reference keeps one position per
      posting, Torch/base/invertedIndex/InvertedIndex.java:23-25).  The
      engine then answers phrase / ordered-span / unordered-proximity
      queries from the postings alone — no forward-index re-read,
      repeated terms and later occurrences included.
    """

    num_term_shards: int = 8
    num_salts: int = 8
    block_size: int = 128
    bm25: BM25Params = field(default_factory=BM25Params)
    # tokenizer registry name (functions.text.TOKENIZERS) — the mapper
    # plug point (reference Mappers factory, Mappers.java:22-44); carried
    # in the manifest so query prep uses the build's tokenizer
    tokenizer: str = "default"
    tokenize_batch_size: int = 512
    store_positions: bool = False
    # parquet row-group size of segment files: small groups let the LAZY
    # query path prune by term_id row-group statistics (segments are
    # written sorted by term_id)
    segment_row_group_size: int = 1024
    # max rows per partials row-group WRITE: keeps the recorded row-group
    # map in lockstep with the physical groups (pyarrow silently splits
    # writes above ~1M rows)
    partials_rg_rows: int = 1 << 20
    check_invariant: bool = True
    # doc id assignment for inputs with no doc_id column:
    #   "dense"    — file_ordinal << 34 | row: deterministic w.r.t. the
    #                sorted input file list, doc-local per shard (batches
    #                stay inside one salt range; small posting deltas)
    #   "url_hash" — 62-bit blake2b of the url: independent of the input
    #                layout entirely, but spreads every batch over all
    #                salt ranges and makes deltas large
    doc_id_mode: str = "dense"
    # invariant-violating input rows: "raise" (default) or "drop" (skip +
    # count in lineage, the reference's malformed-row policy,
    # TrajReader.java:80-84)
    bad_rows: str = "raise"

    @property
    def num_segments(self) -> int:
        return self.num_term_shards * self.num_salts

    def segment_id(self, term_shard: int, salt: int) -> int:
        return term_shard * self.num_salts + salt
