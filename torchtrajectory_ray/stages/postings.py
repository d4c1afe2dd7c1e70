"""Posting-list construction: the fused per-shard stage and the
segment-keyed external shuffle through storage, with per-segment atomic
writes.

Parity target: the reference's index-build aggregate — for each edge
occurrence append (trajId, position) into a per-edge in-heap map, then
sort + delta/FastPFOR-compress each list (/root/reference/src/main/java/au/
edu/rmit/bdm/Torch/base/invertedIndex/EdgeInvertedIndex.java:41-49,
InvertedIndex.java:89-136).  Here the "HashMap" is a real distributed
shuffle whose exchange fabric is the index directory itself:

  raw shard → FusedShardTask               # one task per input file:
                prepare_file               #   docs shard + token lists
                TokenizeCombine            #   PRE-AGGREGATE per batch into
                                           #   per-(term, salt) compressed
                                           #   partial runs (varint blobs,
                                           #   not raw posting rows)
                PartialsWriter             #   partials parquet, ONE ROW
                                           #   GROUP PER SEGMENT + map
  segment   → assemble_segment             # one task per segment (=
                                           # term_shard × salt) reads only
                                           # its row groups of every
                                           # partials file
                SegmentWriter              #   merge runs per (term, salt),
                                           #   block-max metadata, atomic
                                           #   parquet + manifest row

Both sides are embarrassingly parallel with no global sort barrier and
checkpoint per partition.  Partitioning assumption: every worker sees
the index directory (shared storage / S3 on a real cluster).

Salting is by doc_id high bits (disjoint ordered ranges), so a head
term's postings split into bounded runs across segments and runs merge
by concatenation — the skew handling the reference's single HashMap
never needed (SURVEY.md §4 skew row).
"""

from __future__ import annotations

import itertools
import json
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from torchtrajectory_ray.config import IndexConfig
from torchtrajectory_ray.functions.codec import (
    concat_aranges,
    delta_decode_concat,
    delta_encode_multi,
    varint_decode_concat,
    varint_encode_multi,
)
from torchtrajectory_ray.functions.text import TermHasher, get_tokenizer
from torchtrajectory_ray.stages.prepare import prepare_file

def _pin_arrow_single_thread() -> None:
    """Called once per worker process by every task entrypoint: Arrow's
    internal pools default to one thread per machine core PER PROCESS, so
    32 workers × 32 arrow threads thrash the box and task time inflates
    2-4× at high parallelism.  Ray already gives each task one CPU; all
    intra-task parquet IO/compute must be single-threaded."""
    if not getattr(_pin_arrow_single_thread, "_done", False):
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        _pin_arrow_single_thread._done = True


PARTIAL_COLS = [
    "term",
    "term_id",
    "salt",
    "segment",
    "df",
    "doc_ids_blob",
    "tfs_blob",
    "doclens_blob",
    "pos_blob",
]


def config_tag(cfg: IndexConfig, shift: int | None = None) -> str:
    """Fingerprint of everything that determines a checkpoint's content.
    Stored in every per-partition sidecar and REQUIRED to match on
    resume — a rerun into the same out_dir with a changed config must
    rebuild artifacts, not silently reuse ones computed under the old
    grid (wrong salts/segments → wrong query results)."""
    import dataclasses
    import hashlib
    import json as _json

    blob = _json.dumps([dataclasses.asdict(cfg), shift], sort_keys=True)
    return hashlib.md5(blob.encode()).hexdigest()[:12]


def salt_shift(max_doc_id: int, num_salts: int) -> int:
    """Right-shift such that doc_id >> shift lands in [0, num_salts)."""
    span = max(int(max_doc_id), 0) + 1
    shift = 0
    while (span - 1) >> shift >= num_salts:
        shift += 1
    return shift


def compute_salt_shift(input_paths: list[str], cfg: IndexConfig) -> int:
    """Salt shift WITHOUT a data pass, so tokenization can start with the
    first byte read (enables the fused prepare+partials stage).

    - inputs carrying an explicit ``doc_id`` column: global max from the
      parquet FOOTER statistics (footers only — at 10^5+ input files this
      loop itself becomes a small ray map over footers);
    - dense mode: the id space is bounded by construction at
      ``n_files << 34``;
    - url_hash mode: ids span the full 62-bit hash space.
    """
    if not input_paths:
        raise ValueError("no input files given")
    schema = pq.read_schema(input_paths[0])
    if "doc_id" in schema.names:
        mx = -1
        for p in input_paths:
            md = pq.read_metadata(p)
            idx = md.schema.to_arrow_schema().get_field_index("doc_id")
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(idx).statistics
                if st is None or st.max is None:
                    ids = pq.read_table(p, columns=["doc_id"])["doc_id"]
                    if len(ids):  # 0-row shards contribute nothing
                        mx = max(mx, int(ids.to_numpy().max()))
                    break
                mx = max(mx, int(st.max))
        return salt_shift(max(mx, 0), cfg.num_salts)
    if cfg.doc_id_mode == "dense":
        return salt_shift((len(input_paths) << 34) - 1, cfg.num_salts)
    return salt_shift((1 << 62) - 1, cfg.num_salts)


class FusedShardTask:
    """Fused stage A: one raw input shard → docs (forward-index) shard +
    partials parquet, in ONE read pass.  Halves input IO versus separate
    prepare/tokenize passes and removes a stage barrier — at 32-way
    parallelism on one box the page-cache/memory bus is the contended
    resource, and on a real cluster it is still the biggest IO win.
    Checkpoint granularity is the input shard (skip when both sidecars
    exist)."""

    def __init__(
        self,
        docs_dir: str,
        partials_dir: str,
        cfg: IndexConfig,
        shift: int,
    ):
        self.docs_dir = docs_dir
        self.cfg = cfg
        self.cfg_tag = config_tag(cfg, shift)
        self.partials = PartialsWriter(partials_dir, cfg, shift)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """``batch`` rows are file descriptors: ``path`` plus
        ``doc_id_base`` (negative = no base, ids come from the url)."""
        _pin_arrow_single_thread()
        rows = []
        for path, base in zip(
            batch["path"].to_pylist(), batch["doc_id_base"].to_pylist()
        ):
            prep_lin, docs, tok_lists = prepare_file(
                path,
                self.docs_dir,
                self.cfg,
                self.cfg_tag,
                doc_id_base=None if base < 0 else base,
            )
            part_lin = self.partials._one(prep_lin["output"], docs, tok_lists)
            rows.append(
                {
                    **prep_lin,
                    "partials_output": part_lin["output"],
                    "partials_bytes": part_lin["bytes"],
                    "n_runs": part_lin["n_runs"],
                    "partials_wall_s": part_lin["wall_s"],
                    "partials_skipped": part_lin["skipped"],
                }
            )
        return pa.Table.from_pylist(rows)


class TokenizeCombine:
    """Tokenized docs batch → compressed per-(term, salt) partial posting
    runs (the combine step of :class:`PartialsWriter`).

    The flatten + within-batch combine is fully vectorized (factorize +
    lexsort + run-length boundaries); the only Python-level loops are
    over unique terms (vocabulary-sized, memoized hashing) and over runs
    (for blob encoding, each encode itself vectorized).  This is the
    analog of the reference's per-trajectory ``index()`` append loop
    (EdgeInvertedIndex.java:41-49) done batch-at-a-time.
    """

    def __init__(self, cfg: IndexConfig, shift: int):
        self.cfg = cfg
        self.shift = shift
        self.hasher = TermHasher()

    def combine_tokens(
        self, doc_ids: np.ndarray, tok_lists: list[list[str]]
    ) -> pa.Table:
        """Takes token lists, so the fused build stage tokenizes each doc
        exactly once (prepare needs token counts too)."""
        cfg = self.cfg
        counts = np.fromiter((len(t) for t in tok_lists), np.int64, len(tok_lists))
        total = int(counts.sum())
        if total == 0:
            return pa.table({c: [] for c in PARTIAL_COLS}).cast(_partial_schema())

        flat_terms = np.fromiter(
            itertools.chain.from_iterable(tok_lists), object, total
        )
        doc_idx = np.repeat(np.arange(len(tok_lists), dtype=np.int64), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pos_in_doc = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)

        codes, uniq_terms = pd.factorize(flat_terms, sort=False)
        n_uniq = len(uniq_terms)

        # per-(doc, term) tf
        key = doc_idx * n_uniq + codes
        order = np.argsort(key, kind="stable")
        skey = key[order]
        heads = np.concatenate(([0], np.flatnonzero(skey[1:] != skey[:-1]) + 1))
        tf = np.diff(np.concatenate((heads, [total]))).astype(np.int64)
        e_doc_idx = doc_idx[order][heads]
        e_code = codes[order][heads]
        e_doc_id = doc_ids[e_doc_idx]
        e_doclen = counts[e_doc_idx]

        term_ids = np.fromiter(
            (self.hasher(t) for t in uniq_terms), np.int64, n_uniq
        )
        e_term_id = term_ids[e_code]
        e_salt = np.minimum(e_doc_id >> self.shift, cfg.num_salts - 1).astype(
            np.int64
        )

        # group entries into (term, salt) runs sorted by doc_id
        run_key = e_code.astype(np.int64) * cfg.num_salts + e_salt
        run_order = np.lexsort((e_doc_id, run_key))
        rk = run_key[run_order]
        run_heads = np.concatenate(([0], np.flatnonzero(rk[1:] != rk[:-1]) + 1))
        run_ends = np.concatenate((run_heads[1:], [len(rk)]))

        d_ids = e_doc_id[run_order]
        d_tf = tf[run_order]
        d_dl = e_doclen[run_order]

        if cfg.store_positions:
            # EVERY occurrence position, nested (run, doc asc, pos asc) to
            # mirror the posting order exactly: sort the raw token stream
            # by the same keys the entries were sorted by.  Delta within
            # each posting (first absolute), one varint blob per run.
            # entry ordinal per token: entries are unique (doc, term) pairs
            # sorted by run_key then doc_id — give each token its entry's
            # ordinal in d_* order, then sort tokens by (ordinal, pos)
            ent_ord_sorted = np.empty(len(heads), dtype=np.int64)
            ent_ord_sorted[run_order] = np.arange(len(heads), dtype=np.int64)
            # token -> its entry: tokens sorted by key share heads order
            tok_entry = np.repeat(ent_ord_sorted, tf)  # entry ord per SORTED token
            tok_pos_sorted = pos_in_doc[order]  # same sort as entries
            tok_order2 = np.lexsort((tok_pos_sorted, tok_entry))
            pos_flat = tok_pos_sorted[tok_order2]
            tf_by_posting = d_tf  # postings already in final order
            pstarts = np.concatenate(([0], np.cumsum(tf_by_posting)[:-1]))
            dpos = pos_flat.copy()
            dpos[1:] -= pos_flat[:-1]
            dpos[pstarts] = pos_flat[pstarts]

        # one vectorized multi-run encode per payload column (a web-scale
        # batch holds ~10^5-10^6 runs — per-run codec calls would be a
        # Python-loop bottleneck)
        run_len = run_ends - run_heads
        shards = (term_ids % cfg.num_term_shards).astype(np.int64)
        r_code = (rk[run_heads] // cfg.num_salts).astype(np.int64)
        r_salt = (rk[run_heads] % cfg.num_salts).astype(np.int64)
        return pa.table(
            {
                "term": pa.array(uniq_terms[r_code].tolist(), pa.string()),
                "term_id": pa.array(term_ids[r_code], pa.int64()),
                "salt": pa.array(r_salt.astype(np.int32), pa.int32()),
                "segment": pa.array(
                    (shards[r_code] * cfg.num_salts + r_salt).astype(np.int32),
                    pa.int32(),
                ),
                "df": pa.array(run_len, pa.int64()),
                "doc_ids_blob": pa.array(
                    delta_encode_multi(d_ids, run_len), pa.binary()
                ),
                "tfs_blob": pa.array(
                    varint_encode_multi(d_tf, run_len), pa.binary()
                ),
                "doclens_blob": pa.array(
                    varint_encode_multi(d_dl, run_len), pa.binary()
                ),
                "pos_blob": pa.array(
                    varint_encode_multi(dpos, np.add.reduceat(d_tf, run_heads))
                    if cfg.store_positions
                    else [b""] * len(run_len),
                    pa.binary(),
                ),
            }
        )


def _partial_schema() -> pa.Schema:
    return pa.schema(
        [
            ("term", pa.string()),
            ("term_id", pa.int64()),
            ("salt", pa.int32()),
            ("segment", pa.int32()),
            ("df", pa.int64()),
            ("doc_ids_blob", pa.binary()),
            ("tfs_blob", pa.binary()),
            ("doclens_blob", pa.binary()),
            ("pos_blob", pa.binary()),
        ]
    )


class PartialsWriter:
    """Map side of the storage shuffle, run inside :class:`FusedShardTask`:
    one docs shard's token lists → one partials parquet holding that
    shard's (term, salt) runs with ONE ROW GROUP PER SEGMENT (+ a sidecar
    segment→row-group map), so each segment assembler later reads only
    its own row groups — selective IO instead of a global sort exchange.
    The filesystem (the index out_dir; shared storage on a real cluster)
    is the shuffle fabric, the pattern external-shuffle index builders
    use.  Finished shards are skipped via their sidecar (per-partition
    checkpoint)."""

    def __init__(self, partials_dir: str, cfg: IndexConfig, shift: int):
        self.partials_dir = partials_dir
        self.cfg = cfg
        self.cfg_tag = config_tag(cfg, shift)
        self.combine = TokenizeCombine(cfg, shift)
        self._RG_CAP = cfg.partials_rg_rows

    def _one(
        self,
        docs_path: str,
        docs_tbl: pa.Table | None,
        tok_lists: list[list[str]] | None,
    ) -> dict:
        """``docs_tbl``/``tok_lists`` are prepare's outputs, or None when
        prepare skipped a finished docs shard; the shard is then re-read
        and re-tokenized only if its partials must be (re)built."""
        stem = os.path.splitext(os.path.basename(docs_path))[0]
        out = os.path.join(self.partials_dir, f"partials-{stem}.parquet")
        sidecar = out + ".rgmap.json"
        st = os.stat(docs_path)
        src_id = [st.st_size, st.st_mtime_ns]
        if os.path.exists(sidecar) and os.path.exists(out):
            with open(sidecar) as f:
                side = json.load(f)
            if (
                side.get("cfg_tag") == self.cfg_tag
                and side.get("src_id") == src_id
            ):
                lin = side["lineage"]
                lin["skipped"] = True
                return lin
            # stale checkpoint (different config/shift OR rebuilt docs
            # shard): rebuild

        t0 = time.monotonic()
        if docs_tbl is None:
            docs_tbl = pq.read_table(docs_path, columns=["doc_id", "text"])
            tok = get_tokenizer(self.cfg.tokenizer)
            tok_lists = [tok(t) for t in docs_tbl["text"].to_pylist()]
        all_ids = docs_tbl["doc_id"].to_numpy().astype(np.int64)
        bs = self.cfg.tokenize_batch_size
        runs = pa.concat_tables(
            [
                self.combine.combine_tokens(
                    all_ids[off : off + bs], tok_lists[off : off + bs]
                )
                for off in range(0, max(len(all_ids), 1), bs)
            ]
        )
        segs = runs["segment"].to_numpy().astype(np.int64, copy=False)
        order = np.argsort(segs, kind="stable")
        runs = runs.take(pa.array(order))
        segs = segs[order]
        heads = np.concatenate(
            ([0], np.flatnonzero(segs[1:] != segs[:-1]) + 1)
        ) if len(segs) else np.empty(0, np.int64)
        ends = np.concatenate((heads[1:], [len(segs)]))

        # one or more row groups per segment slice: cap rows per write so
        # the recorded indices always equal the PHYSICAL row groups
        # (pyarrow silently splits writes larger than ~1M rows — an
        # enumerate-based map would silently desynchronize)
        rgmap: dict[str, list[int]] = {}
        tmp = out + ".tmp"
        writer = pq.ParquetWriter(tmp, runs.schema)
        rg = 0
        for h, e in zip(heads, ends):
            idxs = []
            for off in range(h, e, self._RG_CAP):
                writer.write_table(runs.slice(off, min(self._RG_CAP, e - off)))
                idxs.append(rg)
                rg += 1
            rgmap[str(int(segs[h]))] = idxs
        writer.close()
        os.replace(tmp, out)
        lin = {
            "input": docs_path,
            "output": out,
            "n_runs": int(runs.num_rows),
            "n_segments": len(rgmap),
            "bytes": os.path.getsize(out),
            "wall_s": round(time.monotonic() - t0, 4),
            "skipped": False,
        }
        with open(sidecar + ".tmp", "w") as f:
            json.dump(
                {
                    "segments": rgmap,
                    "lineage": lin,
                    "cfg_tag": self.cfg_tag,
                    "src_id": src_id,
                },
                f,
            )
        os.replace(sidecar + ".tmp", sidecar)
        return lin


def assemble_segment(
    segment: int, partial_paths: list[str], writer: "SegmentWriter"
) -> pa.Table | None:
    """Reduce side of the storage shuffle: gather one segment's row groups
    from every partials file and merge+write via :class:`SegmentWriter`.
    Returns the manifest-row table, or None if the segment is empty."""
    _pin_arrow_single_thread()
    tables = []
    for p in partial_paths:
        with open(p + ".rgmap.json") as f:
            rgs = json.load(f)["segments"].get(str(segment))
        if rgs:
            tables.append(pq.ParquetFile(p).read_row_groups(rgs))
    if not tables:
        return None
    return writer(pa.concat_tables(tables))


class SegmentWriter:
    """Called by :func:`assemble_segment` with all of one segment's
    partial runs: merges the runs of each (term_id, salt) (decode →
    concat → sort by doc_id → re-encode; (term, doc) pairs are globally
    unique because a doc lives in exactly one input batch), computes
    block-max metadata, and writes one segment parquet atomically (+
    sidecar meta), returning a manifest row.

    The posting sort mirrors the reference's sort-before-compress
    precondition (InvertedIndex.java:63-67,102-105); block-max values are
    per-block maxima of the BM25 doc-side factor, the analog of the
    per-term edge-length upper bound (EdgeInvertedIndex.java:121).
    """

    def __init__(
        self,
        out_dir: str,
        cfg: IndexConfig,
        shift: int,
        extra_tag: str = "",
    ):
        self.out_dir = out_dir
        self.cfg = cfg
        # a segment merges runs from EVERY input shard, so its checkpoint
        # is invalidated by any change to the input set (extra_tag =
        # inputs fingerprint), not just the config/shift
        self.cfg_tag = config_tag(cfg, shift) + extra_tag

    def __call__(self, group: pa.Table) -> pa.Table:
        _pin_arrow_single_thread()
        seg = int(group["segment"][0].as_py())
        path = os.path.join(self.out_dir, f"seg-{seg:05d}.parquet")
        meta_path = path + ".meta.json"
        if os.path.exists(path) and os.path.exists(meta_path):
            with open(meta_path) as f:
                meta = json.load(f)
            if meta.get("cfg_tag") == self.cfg_tag:
                meta["skipped"] = True
                return pa.Table.from_pylist([meta])
            # stale checkpoint from a different config: rebuild

        t0 = time.monotonic()
        cfg, B = self.cfg, self.cfg.block_size
        # decode EVERY partial run of the segment in one pass per payload
        # column, merge-sort postings within each (term_id, salt) group via
        # one lexsort, then re-encode every group in one pass — no per-run
        # or per-group codec calls (the wide stage must stay vectorized,
        # and the group block stays zero-copy Arrow end to end).
        run_tid_u = group["term_id"].to_numpy().astype(np.int64, copy=False)
        run_salt_u = group["salt"].to_numpy().astype(np.int64, copy=False)
        run_order = np.lexsort((run_salt_u, run_tid_u))
        group = group.take(pa.array(run_order))
        run_df = group["df"].to_numpy().astype(np.int64, copy=False)
        total = int(run_df.sum())
        ids = delta_decode_concat(group["doc_ids_blob"].to_pylist(), run_df)
        tfs = varint_decode_concat(group["tfs_blob"].to_pylist(), total)
        dls = varint_decode_concat(group["doclens_blob"].to_pylist(), total)
        pos_full = (
            # one delta+varint run PER POSTING (tf values each), segmented
            # by the just-decoded tfs — delta_decode_concat restores
            # absolute positions per posting in one pass
            delta_decode_concat(group["pos_blob"].to_pylist(), tfs)
            if cfg.store_positions
            else None
        )
        post_tid = np.repeat(run_tid_u[run_order], run_df)
        post_salt = np.repeat(run_salt_u[run_order], run_df)

        order = np.lexsort((ids, post_salt, post_tid))
        if pos_full is not None:
            # gather the variable-length position slices into posting order
            old_pstarts = np.concatenate(([0], np.cumsum(tfs)[:-1]))
            gather = np.repeat(old_pstarts[order], tfs[order]) + concat_aranges(
                tfs[order]
            )
            pos_full = pos_full[gather]
        ids, tfs, dls = ids[order], tfs[order], dls[order]
        post_tid, post_salt = post_tid[order], post_salt[order]

        # (term_id, salt) group boundaries over the merged postings
        change = (post_tid[1:] != post_tid[:-1]) | (post_salt[1:] != post_salt[:-1])
        # postings are one row per (term, doc) by construction, so an
        # equal adjacent doc id INSIDE a group means two input docs
        # share a doc_id — silent forward-index corruption (resolve,
        # facets, and filters would count rows, not docs).  Fail loud.
        dup = (~change) & (ids[1:] == ids[:-1])
        if dup.any():
            raise ValueError(
                "duplicate doc_id across input docs detected in postings "
                f"(e.g. doc_id={int(ids[1:][dup][0])}); input shards must "
                "carry globally unique doc ids"
            )
        heads = np.concatenate(([0], np.flatnonzero(change) + 1))
        glen = np.diff(np.concatenate((heads, [total])))
        g_tid = post_tid[heads]
        g_salt = post_salt[heads]
        # term string per group from the (sorted) run table
        run_heads_in_groups = np.searchsorted(
            np.cumsum(run_df) - 1, np.cumsum(glen) - 1
        )
        g_term = group["term"].take(pa.array(run_heads_in_groups))
        g_term = g_term.combine_chunks() if isinstance(g_term, pa.ChunkedArray) else g_term

        # avgdl-independent bound ingredients: (max tf, min doclen) per
        # run and per block — tf_norm is increasing in tf and decreasing
        # in dl, so tfn(max_tf, min_dl) at ANY avgdl upper-bounds every
        # posting.  Bounds stay valid when corpus stats change (e.g.
        # incremental ingest); serving computes them under current avgdl.
        max_tf = np.maximum.reduceat(tfs, heads)
        min_dl = np.minimum.reduceat(dls, heads)

        # block-max metadata: blocks of B tile each group exactly
        nblks = (glen + B - 1) // B
        blk_starts = np.repeat(heads, nblks) + concat_aranges(nblks) * B
        g_end = np.repeat(heads + glen, nblks)
        blk_last_idx = np.minimum(blk_starts + B - 1, g_end - 1)
        blk_last_flat = ids[blk_last_idx]
        blk_max_tf_flat = np.maximum.reduceat(tfs, blk_starts)
        blk_min_dl_flat = np.minimum.reduceat(dls, blk_starts)
        blk_off = np.concatenate(([0], np.cumsum(nblks)))

        doc_blobs = delta_encode_multi(ids, glen)
        tf_blobs = varint_encode_multi(tfs, glen)
        dl_blobs = varint_encode_multi(dls, glen)
        if pos_full is not None:
            new_pstarts = np.concatenate(([0], np.cumsum(tfs)[:-1]))
            dpos = pos_full.copy()
            dpos[1:] -= pos_full[:-1]
            dpos[new_pstarts] = pos_full[new_pstarts]
            pos_blobs = varint_encode_multi(dpos, np.add.reduceat(tfs, heads))
        else:
            pos_blobs = [b""] * len(glen)
        n_postings = total

        tbl = pa.table(
            {
                "term_id": pa.array(g_tid, pa.int64()),
                "term": g_term.cast(pa.string()),
                "salt": pa.array(g_salt.astype(np.int32), pa.int32()),
                "df": pa.array(glen, pa.int64()),
                "max_tf": pa.array(max_tf, pa.int64()),
                "min_dl": pa.array(min_dl, pa.int64()),
                "doc_ids_blob": pa.array(doc_blobs, pa.binary()),
                "tfs_blob": pa.array(tf_blobs, pa.binary()),
                "doclens_blob": pa.array(dl_blobs, pa.binary()),
                "pos_blob": pa.array(pos_blobs, pa.binary()),
                "blk_last": pa.ListArray.from_arrays(
                    pa.array(blk_off, pa.int32()),
                    pa.array(blk_last_flat, pa.int64()),
                ),
                "blk_max_tf": pa.ListArray.from_arrays(
                    pa.array(blk_off, pa.int32()),
                    pa.array(blk_max_tf_flat, pa.int64()),
                ),
                "blk_min_dl": pa.ListArray.from_arrays(
                    pa.array(blk_off, pa.int32()),
                    pa.array(blk_min_dl_flat, pa.int64()),
                ),
            }
        )
        tmp = path + ".tmp"
        pq.write_table(tbl, tmp, row_group_size=cfg.segment_row_group_size)
        os.replace(tmp, path)
        meta = {
            "segment": seg,
            "path": path,
            "cfg_tag": self.cfg_tag,
            "n_terms": int(len(np.unique(g_tid))),
            "n_runs": tbl.num_rows,
            "n_postings": n_postings,
            "bytes": os.path.getsize(path),
            "wall_s": round(time.monotonic() - t0, 4),
            "skipped": False,
        }
        with open(meta_path + ".tmp", "w") as f:
            json.dump(meta, f)
        os.replace(meta_path + ".tmp", meta_path)
        return pa.Table.from_pylist([meta])
