"""End-to-end training-corpus cleaning pipeline — the flagship chain of
the training-data operators: quality filter → exact dedup → near-dup
removal → partitioned clean-corpus write.

Fully distributed verdict chain (nothing per-doc ever sits on the
driver):

1. one streaming pass computes per-doc quality features + the content
   sha and assigns the RULE verdict (length / stopword-ratio) in the
   same batch;
2. exact dedup is ONE shuffle keyed by a coarse hash of the sha
   (bounded partition count — the high-cardinality-groupby trap), each
   partition resolving keep-min per sha vectorized;
3. near-dup: the kept docs are selected with a distributed semi-join
   spelled as tag + union + coarse-hash groupby (``_semi_join_kept``;
   ``Dataset.join`` rejects the schema-less empty blocks sparse
   ``map_groups`` stages emit), sketched by MinHash-LSH, candidates
   verified by the pair-partitioned ``dedup.verify_pairs`` — only the
   (small, LSH-bounded) confirmed pair list ever reaches the driver and
   is broadcast back into the final verdict ``map_batches``.

The verdict per document stays explicit — docs are never silently
dropped, every removal carries a reason code, which is what an auditable
data pipeline needs:

    reason ∈ {kept, too_short, too_long, high_stop_ratio,
              exact_dup, near_dup}

``clean_corpus`` returns the verdicts (driver-gate friendly — the
verdict table IS the result); ``write_clean_corpus`` never collects
verdicts at all: counts come from a distributed aggregate and the kept
docs are written via the same hash join.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from torchtrajectory_ray.pipelines import dedup as dedup_mod
from torchtrajectory_ray.pipelines.textstats import STOPWORDS, text_sha1

MIN_TOKENS = 10
MAX_TOKENS = 100_000
MAX_STOP_RATIO = 0.5
N_SHA_PARTS = 64
JOIN_PARTS = 16


_SKETCH_KEY = "clean-minhash"


def _feats_sketch(batch: pa.Table, *, sketch: bool = True) -> pa.Table:
    """ONE read + ONE tokenize pass per batch emitting BOTH row kinds:

    - kind=0 (one per doc): content sha, rule verdict, sha partition —
      feeds the exact-dedup shuffle;
    - kind=1 (LSH band rows, only for rule-passing docs): doc_id, band,
      band_hash — feeds the near-dup candidate shuffle.

    Exact-dup copies whose keep-min isn't known batch-locally ARE
    sketched — identical texts have identical signatures, so every
    kept-vs-kept candidate pair is still generated — but only ONE copy
    per sha per batch sketches (the batch's min doc_id): a batch-local
    non-min copy can never be the global keep-min, its band rows would
    be redundant, and dup-flooded corpora would otherwise push LSH
    buckets past the MAX_BUCKET star-expansion cap and cost kept-vs-kept
    candidates.  Residual caveat: a sha spread over many batches still
    contributes one sketch per batch, so an adversarially dup-flooded
    bucket can still hit the cap — those pairs carry ``capped=True`` for
    audit.  Both downstream shuffles move only small columns, never
    text."""
    import itertools

    from torchtrajectory_ray.pipelines.dedup import _SKETCH_SINGLETONS, MinHasher

    texts = batch["text"].to_pylist()
    tok_lists = [t.split(" ") for t in texts]
    counts = np.fromiter((len(t) for t in tok_lists), np.int64, len(tok_lists))
    total = int(counts.sum())
    if total:
        flat = np.fromiter(itertools.chain.from_iterable(tok_lists), object, total)
        codes, uniq = pd.factorize(flat, sort=False)
        stop_codes = np.fromiter((t in STOPWORDS for t in uniq), bool, len(uniq))
        doc_idx = np.repeat(np.arange(len(tok_lists), dtype=np.int64), counts)
        n_stop = np.bincount(
            doc_idx, weights=stop_codes[codes], minlength=len(tok_lists)
        )
    else:
        n_stop = np.zeros(len(tok_lists))
    stop_ratio = np.asarray(n_stop, np.float64) / np.maximum(
        counts.astype(np.float64), 1
    )
    rule = np.full(len(tok_lists), "kept", dtype=object)
    rule[counts < MIN_TOKENS] = "too_short"
    rule[counts > MAX_TOKENS] = "too_long"
    rule[(rule == "kept") & (stop_ratio > MAX_STOP_RATIO)] = "high_stop_ratio"
    sha = text_sha1(batch.select(["doc_id", "text"]))["text_sha"]
    part = np.fromiter(
        (int(s[:8], 16) % N_SHA_PARTS for s in sha.to_pylist()),
        np.int32,
        len(tok_lists),
    )
    n = len(tok_lists)
    doc_ids = batch["doc_id"].to_numpy().astype(np.int64)
    feat = pa.table(
        {
            "kind": pa.array(np.zeros(n, np.int8), pa.int8()),
            "doc_id": batch["doc_id"],
            "text_sha": sha,
            "rule_reason": pa.array(rule, pa.string()),
            "part": pa.array(part, pa.int32()),
            "band": pa.array(np.full(n, -1, np.int32), pa.int32()),
            "band_hash": pa.array(np.zeros(n, np.int64), pa.int64()),
        }
    )
    if not sketch:
        return feat
    mh = _SKETCH_SINGLETONS.get(_SKETCH_KEY)
    if mh is None:
        mh = MinHasher()
        _SKETCH_SINGLETONS[_SKETCH_KEY] = mh
    keep = rule == "kept"
    # batch-local sha dedupe: sketch only the batch's min-doc_id copy
    sha_codes, _ = pd.factorize(np.asarray(sha.to_pylist(), object), sort=False)
    order = np.lexsort((doc_ids, sha_codes))
    first = np.zeros(n, dtype=bool)
    seen_change = np.concatenate(
        ([True], sha_codes[order][1:] != sha_codes[order][:-1])
    )
    first[order[seen_change]] = True
    keep = keep & first
    bands = mh.band_rows(
        doc_ids[keep], [t for t, k in zip(tok_lists, keep) if k]
    )
    m = bands.num_rows
    # band rows get their OWN partition range (N_SHA_PARTS + bucket) so
    # ONE combined shuffle routes sha groups and LSH buckets together
    bh = bands["band_hash"].to_numpy().astype(np.int64)
    bb = bands["band"].to_numpy().astype(np.int64)
    from torchtrajectory_ray.pipelines.dedup import N_BUCKET_PARTS

    bpart = (N_SHA_PARTS + (bh * 31 + bb) % N_BUCKET_PARTS).astype(np.int32)
    brows = pa.table(
        {
            "kind": pa.array(np.ones(m, np.int8), pa.int8()),
            "doc_id": bands["doc_id"],
            "text_sha": pa.nulls(m, pa.string()),
            "rule_reason": pa.nulls(m, pa.string()),
            "part": pa.array(bpart, pa.int32()),
            "band": bands["band"],
            "band_hash": bands["band_hash"],
        }
    )
    return pa.concat_tables([feat, brows])


def _verdict_partition(g: pd.DataFrame) -> pd.DataFrame:
    """Within one sha partition (all copies of a sha co-located): keep
    the min doc_id per sha among rule-kept docs, mark the rest
    exact_dup — vectorized pandas, no per-sha Python loop."""
    reason = g["rule_reason"].copy()
    kept = reason == "kept"
    if kept.any():
        keep_min = g.loc[kept].groupby("text_sha")["doc_id"].transform("min")
        dup = kept & (g["doc_id"] != keep_min.reindex(g.index))
        reason[dup.fillna(False)] = "exact_dup"
    return pd.DataFrame({"doc_id": g["doc_id"], "reason": reason})


def _combined_partition(g: pd.DataFrame) -> pd.DataFrame:
    """ONE shuffle serves both reductions: partitions below N_SHA_PARTS
    hold per-doc feature rows (exact-dedup keep-min), partitions above
    hold LSH band rows (candidate pair expansion).  Unified output
    schema (kind, doc_id, doc_b, reason, capped); pair rows are the
    small LSH-bounded side."""
    if g.empty:
        return pd.DataFrame(
            {
                "kind": pd.Series([], dtype="int8"),
                "doc_id": pd.Series([], dtype="int64"),
                "doc_b": pd.Series([], dtype="int64"),
                "reason": pd.Series([], dtype=object),
                "capped": pd.Series([], dtype=bool),
            }
        )
    if int(g["part"].iloc[0]) < N_SHA_PARTS:
        v = _verdict_partition(g)
        return pd.DataFrame(
            {
                "kind": np.zeros(len(v), np.int8),
                "doc_id": v["doc_id"].to_numpy(),
                "doc_b": np.zeros(len(v), np.int64),
                "reason": v["reason"],
                "capped": np.zeros(len(v), bool),
            }
        )
    from torchtrajectory_ray.pipelines.dedup import _partition_pairs

    pairs = _partition_pairs(
        pa.table(
            {
                "doc_id": pa.array(g["doc_id"].to_numpy(), pa.int64()),
                "band": pa.array(
                    g["band"].to_numpy().astype(np.int64), pa.int64()
                ),
                "band_hash": pa.array(
                    g["band_hash"].to_numpy().astype(np.int64), pa.int64()
                ),
            }
        )
    )
    return pd.DataFrame(
        {
            "kind": np.ones(len(pairs), np.int8),
            "doc_id": pairs["doc_a"].to_numpy().astype(np.int64),
            "doc_b": pairs["doc_b"].to_numpy().astype(np.int64),
            "reason": np.full(len(pairs), "", dtype=object),
            "capped": pairs["capped"].to_numpy().astype(bool),
        }
    )


def _verdicts_from(rows: ray.data.Dataset) -> ray.data.Dataset:
    """kind=0 rows → (doc_id, reason) via the sha-partition shuffle."""

    def only_feats(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_columns == 0 or t.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.nulls(0, pa.int64()),
                    "text_sha": pa.nulls(0, pa.string()),
                    "rule_reason": pa.nulls(0, pa.string()),
                    "part": pa.nulls(0, pa.int32()),
                }
            )
        return t.filter(pc.equal(t["kind"], 0)).select(
            ["doc_id", "text_sha", "rule_reason", "part"]
        )

    return (
        rows.map_batches(only_feats, batch_format="pyarrow")
        .groupby("part")
        .map_groups(_verdict_partition, batch_format="pandas")
    )


def clean_verdicts_ds(sf_dir: str) -> ray.data.Dataset:
    """Distributed (doc_id, reason) verdicts for rules + exact dedup —
    the only wide exchange is the sha-partition groupby, and it moves
    (sha, doc_id, reason) rows, never the text."""
    return _verdicts_from(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        ).map_batches(
            _feats_sketch, fn_kwargs={"sketch": False}, batch_format="pyarrow"
        )
    )


def _semi_join_kept(
    docs: ray.data.Dataset, verdicts: ray.data.Dataset
) -> ray.data.Dataset:
    """Distributed hash semi-join: docs rows whose doc_id has verdict
    'kept'.  Implemented as tag + union + ONE coarse-hash groupby (both
    sides partition by the same doc_id hash, each partition filters
    vectorized) — the same exchange a hash join does, with no driver
    keep-set and no O(n) broadcast.  (Ray's built-in hash-join operator
    rejects the schema-less empty blocks a sparse ``map_groups`` emits,
    so the join is spelled with groupby, which tolerates them.)"""
    schema = docs.schema()
    names = list(schema.names)
    types = dict(zip(schema.names, schema.types))
    MULT = np.uint64(2654435761)

    def docs_side(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or t.num_rows == 0:
            return _tagged_empty(names, types)
        ids = t["doc_id"].to_numpy().astype(np.int64).astype(np.uint64)
        part = ((ids * MULT) % np.uint64(JOIN_PARTS)).astype(np.int32)
        return t.append_column("part", pa.array(part, pa.int32())).append_column(
            "tag", pa.array(np.ones(t.num_rows, np.int8), pa.int8())
        )

    def ids_side(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or t.num_rows == 0:
            return _tagged_empty(names, types)
        import pyarrow.compute as pc

        kept = t.filter(pc.equal(t["reason"], "kept"))["doc_id"].cast(pa.int64())
        n = len(kept)
        ids = kept.to_numpy(zero_copy_only=False).astype(np.uint64)
        part = ((ids * MULT) % np.uint64(JOIN_PARTS)).astype(np.int32)
        cols = {
            name: (kept if name == "doc_id" else pa.nulls(n, types[name]))
            for name in names
        }
        cols["part"] = pa.array(part, pa.int32())
        cols["tag"] = pa.array(np.zeros(n, np.int8), pa.int8())
        return pa.table(cols)

    def _tagged_empty(names, types):
        cols = {name: pa.nulls(0, types[name]) for name in names}
        cols["part"] = pa.nulls(0, pa.int32())
        cols["tag"] = pa.nulls(0, pa.int8())
        return pa.table(cols)

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        keep = set(g.loc[g["tag"] == 0, "doc_id"])
        out = g[(g["tag"] == 1) & g["doc_id"].isin(keep)]
        return out[names]

    return (
        docs.map_batches(docs_side, batch_format="pyarrow")
        .union(verdicts.map_batches(ids_side, batch_format="pyarrow"))
        .groupby("part")
        .map_groups(pick, batch_format="pandas")
    )


def _mixed_outputs(sf_dir: str) -> ray.data.Dataset:
    """Fused read → feats+sketch → ONE combined shuffle → materialized
    (kind, doc_id, doc_b, reason, capped) rows: verdicts (kind=0) and
    candidate pairs (kind=1) from a single exchange."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return (
        docs.map_batches(_feats_sketch, batch_format="pyarrow")
        .groupby("part")
        .map_groups(_combined_partition, batch_format="pandas")
        .materialize()
    )


def _verdicts_of(mixed: ray.data.Dataset) -> ray.data.Dataset:
    def only_verdicts(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_columns == 0 or t.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.nulls(0, pa.int64()),
                    "reason": pa.nulls(0, pa.string()),
                }
            )
        return t.filter(pc.equal(t["kind"], 0)).select(["doc_id", "reason"])

    return mixed.map_batches(only_verdicts, batch_format="pyarrow")


def _candidates_of_ds(mixed: ray.data.Dataset) -> ray.data.Dataset:
    """kind=1 rows → DEDUPED candidate-pair Dataset (pair-partitioned
    distributed dedupe; the pair list stays on the cluster)."""

    def only_pairs(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_columns == 0 or t.num_rows == 0:
            return pa.table(
                {
                    "doc_a": pa.nulls(0, pa.int64()),
                    "doc_b": pa.nulls(0, pa.int64()),
                    "capped": pa.nulls(0, pa.bool_()),
                }
            )
        sel = t.filter(pc.equal(t["kind"], 1))
        return pa.table(
            {
                "doc_a": sel["doc_id"],
                "doc_b": sel["doc_b"],
                "capped": sel["capped"],
            }
        )

    return (
        mixed.map_batches(only_pairs, batch_format="pyarrow")
        .map_batches(dedup_mod._add_pair_part, batch_format="pandas")
        .groupby("pp")
        .map_groups(dedup_mod._dedupe_pairs_group, batch_format="pandas")
    )


def _near_dup_ids(
    sf_dir: str, mixed: ray.data.Dataset, threshold: float
) -> set[int]:
    """Confirmed near-dup victims (the higher doc_id of each verified
    pair): candidates from the combined shuffle's pair rows,
    verification pair-partitioned with pushdown doc reads — candidate
    and confirmed pair lists stay Datasets; the driver only receives
    the DISTINCT victim-id set (≤ number of dropped docs).  Pairs
    involving exact-dup docs are harmless: the stamp only ever demotes
    docs whose verdict is 'kept', and identical texts have identical
    signatures, so every kept-vs-kept pair is still found."""
    cand = _candidates_of_ds(mixed)
    verified = dedup_mod.verify_pairs_ds(
        dedup_mod._expand_parquet(f"{sf_dir}/documents.parquet"),
        cand,
        threshold,
    )
    victims = verified.groupby("doc_b").count().to_pandas()
    if victims.empty:
        return set()
    return {int(b) for b in victims["doc_b"]}


def _restrict_to_kept(verdicts: ray.data.Dataset, ids: set[int]) -> set[int]:
    """Subset of ``ids`` whose verdict is 'kept' — a pushdown lookup of
    the (small) victim set against the distributed verdict table."""
    if not ids:
        return ids
    want = pa.array(sorted(ids), pa.int64())

    def pick(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_columns == 0 or t.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.nulls(0, pa.int64()),
                    "reason": pa.nulls(0, pa.string()),
                }
            )
        return t.filter(pc.is_in(t["doc_id"], value_set=want)).select(
            ["doc_id", "reason"]
        )

    df = verdicts.map_batches(pick, batch_format="pyarrow").to_pandas()
    return {int(d) for d, r in zip(df["doc_id"], df["reason"]) if r == "kept"}


def clean_corpus(
    sf_dir: str,
    *,
    near_dup_threshold: float = 0.7,
    with_near_dup: bool = True,
) -> pd.DataFrame:
    """doc_id, reason — one verdict per document of the sf documents
    table, rules firing in order (length → stopwords → exact dup → near
    dup).  The returned verdict table is the RESULT — collecting it is
    the sink, not an intermediate."""
    if not with_near_dup:
        verdicts = clean_verdicts_ds(sf_dir)
        return (
            verdicts.to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
    mixed = _mixed_outputs(sf_dir)
    verdicts = _verdicts_of(mixed)
    near = _near_dup_ids(sf_dir, mixed, near_dup_threshold)
    if near:
        drop = pa.array(sorted(near), pa.int64())

        def apply_near(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            hit = pc.and_(
                pc.equal(batch["reason"], "kept"),
                pc.is_in(batch["doc_id"], value_set=drop),
            )
            return batch.set_column(
                batch.schema.get_field_index("reason"),
                "reason",
                pc.if_else(hit, "near_dup", batch["reason"]),
            )

        verdicts = verdicts.map_batches(apply_near, batch_format="pyarrow")
    return (
        verdicts.to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


def clean_corpus_summary(sf_dir: str) -> pd.DataFrame:
    """reason, n — audit counts of the cleaning run, computed as a
    distributed aggregate (oracle-checkable: the rule chain up to exact
    dedup is pure SQL)."""
    out = (
        clean_verdicts_ds(sf_dir)
        .groupby("reason")
        .count()
        .to_pandas()
        .rename(columns={"count()": "n"})
        .sort_values("reason")
        .reset_index(drop=True)
    )
    out["n"] = out["n"].astype("int64")
    return out[["reason", "n"]]


def write_clean_corpus(
    sf_dir: str, out_dir: str, near_dup_threshold: float = 0.7
) -> dict:
    """Write the kept documents as partitioned parquet (resumable output
    layout — many files via Ray's block-parallel writer, never one giant
    file) and return audit counts.  Fully distributed: verdicts are
    joined to the docs via the hash semi-join, never collected.
    ``near_dup_threshold`` matches ``clean_corpus``'s parameter so the
    two entry points can never silently disagree on verdicts."""
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)  # rerun = replace, not append
    mixed = _mixed_outputs(sf_dir)
    verdicts = _verdicts_of(mixed).materialize()
    near = _restrict_to_kept(
        verdicts, _near_dup_ids(sf_dir, mixed, near_dup_threshold)
    )
    counts = {
        str(r["reason"]): int(r["count()"])
        for r in verdicts.groupby("reason").count().take_all()
    }
    if near:
        counts["near_dup"] = len(near)
        counts["kept"] = counts.get("kept", 0) - len(near)
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    kept = _semi_join_kept(docs, verdicts)
    if near:
        drop = pa.array(sorted(near), pa.int64())

        def not_near(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            if batch.num_columns == 0 or batch.num_rows == 0:
                return batch  # schema-less empties from sparse map_groups
            return batch.filter(
                pc.invert(pc.is_in(batch["doc_id"], value_set=drop))
            )

        kept = kept.map_batches(not_near, batch_format="pyarrow")
    kept.write_parquet(out_dir)
    return {"out_dir": out_dir, "counts": counts}
