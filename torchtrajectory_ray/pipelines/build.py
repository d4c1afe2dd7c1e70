"""End-to-end index build pipeline (the analog of ``MapMatching.start()``,
/root/reference/src/main/java/au/edu/rmit/bdm/Torch/mapMatching/
MapMatching.java:87-120 — see SURVEY.md §3.1 for the stage-by-stage map).

Output layout under ``out_dir`` (all writes atomic: tmp + rename):

    docs/docs-<shard>.parquet (+ .lineage.json)   forward index, per input
                                                  file, resumable
    partials/partials-<shard>.parquet (+ .rgmap.json)
                                                  per-shard partial runs, one
                                                  row group per segment (the
                                                  shuffle's exchange files)
    segments/seg-<id>.parquet (+ .meta.json)      posting runs, per
                                                  (term_shard × salt) cell
    dict/*.parquet                                term dictionary:
                                                  term, term_id, df, max_tf, min_dl
    stats.json                                    N, avgdl, max_doc_id, shift
    manifest.json                                 config + lineage + segment
                                                  metas + stage metrics

The build runs two Ray Data pipelines of one map task per item — input
file → docs shard + partials (stage 1), then segment → segment file
(stage 3) — and folds the dictionary in the driver from the segments'
metadata columns (stage 4).  ``extend_index`` runs the same stages over a
new generation's files only and merges its dictionary fold into the old
dict shards, so an extend costs the delta, not the index.

A rerun with an existing complete manifest returns immediately; a rerun
after a partial failure skips finished docs shards and finished segment
files (per-partition checkpointing — the reference loses everything on
crash, TorSaver.java:45,257).
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from torchtrajectory_ray.config import BM25Params, IndexConfig
from torchtrajectory_ray.stages.postings import (
    FusedShardTask,
    SegmentWriter,
    assemble_segment,
    compute_salt_shift,
    config_tag,
)


def _file_identity(path: str) -> list:
    st = os.stat(path)
    return [os.path.abspath(path), st.st_size, st.st_mtime_ns]


def inputs_fingerprint(paths: list[str]) -> str:
    """Identity of the whole input set (paths + sizes + mtimes): segments
    and the manifest short-circuit depend on ALL inputs, so any change to
    the set or to a file's content must invalidate them (per-file
    checkpoints carry their own single-file identity instead)."""
    import hashlib

    blob = json.dumps([_file_identity(p) for p in sorted(paths)])
    return hashlib.md5(blob.encode()).hexdigest()[:12]


def manifest_relpath(p: str, out_dir: str) -> str:
    """Store artifact paths relative to the index dir so a moved/renamed
    index directory stays openable."""
    try:
        return os.path.relpath(p, out_dir)
    except ValueError:
        return p


_INDEX_TOP_DIRS = ("segments", "dict", "docs", "partials", "input")


def manifest_abspath(p: str, index_dir: str) -> str:
    """Resolve a manifest-recorded path against the index dir (accepts
    legacy absolute paths if they still exist)."""
    if os.path.isabs(p):
        if os.path.exists(p):
            return p
        # legacy absolute path from before relocation: re-root on the
        # suffix starting at the LAST recognized top-level index dir so
        # generation subpaths survive (segments/gen-001/seg-x.parquet must
        # NOT collapse to gen-001/seg-x.parquet) and an ancestor dir that
        # happens to be named docs/input/... cannot hijack the re-rooting
        parts = p.split(os.sep)
        for i in range(len(parts) - 1, -1, -1):
            if parts[i] in _INDEX_TOP_DIRS:
                return os.path.join(index_dir, *parts[i:])
        return os.path.join(index_dir, *parts[-2:])
    return os.path.join(index_dir, p)


def _write_json(path: str, obj: Any) -> None:
    with open(path + ".tmp", "w") as f:
        json.dump(obj, f, indent=1)
    os.replace(path + ".tmp", path)


def _stage_metrics(t0: float, t1: float, t2: float, t3: float, n_docs: int) -> dict:
    """Walls of a build's or an extend's stages: prepare (fused), index
    (assembly) and dict, from the monotonic times that bound them."""
    return {
        "prepare_s": round(t1 - t0, 3),
        "index_s": round(t2 - t1, 3),
        "dict_s": round(t3 - t2, 3),
        "total_s": round(t3 - t0, 3),
        "docs_per_s": round(n_docs / (t3 - t0), 1) if t3 > t0 else 0.0,
    }


_DICT_SCHEMA = pa.schema(
    [("term", pa.string())]
    + [(c, pa.int64()) for c in ("term_id", "df", "max_tf", "min_dl")]
)


def read_dictionary(
    manifest: dict, index_dir: str, *, missing_ok: bool = False
) -> pa.Table:
    """The index's term dictionary: its dict shards concatenated in
    manifest order (each sorted by term_id; the shards interleave), empty
    for an empty corpus.  ``missing_ok`` skips a shard not on disk."""
    paths = [manifest_abspath(p, index_dir) for p in manifest["dict_paths"]]
    if missing_ok:
        paths = [p for p in paths if os.path.exists(p)]
    names = _DICT_SCHEMA.names
    parts = [pq.read_table(p, columns=names).cast(_DICT_SCHEMA) for p in paths]
    return pa.concat_tables([_DICT_SCHEMA.empty_table(), *parts])


def _fold_dict(tables: list[pa.Table]) -> pa.Table:
    """Fold dictionary rows (segment metadata columns or earlier dict
    shards) into one row per term_id, sorted by term_id: ``df`` sums,
    ``max_tf`` takes the max and ``min_dl`` the min.  ``term`` is the
    first row's in table order, so the caller's order decides which term
    a shared (colliding) term_id keeps."""
    t = pa.concat_tables(
        [x.select(_DICT_SCHEMA.names).cast(_DICT_SCHEMA) for x in tables]
    )
    if t.num_rows == 0:
        return _DICT_SCHEMA.empty_table()
    tid = t["term_id"].to_numpy()
    order = np.argsort(tid, kind="stable")
    tid = tid[order]
    heads = np.flatnonzero(np.r_[True, tid[1:] != tid[:-1]])

    def col(name):
        return t[name].to_numpy()[order]

    return pa.table(
        [
            t["term"].take(order[heads]),
            tid[heads],
            np.add.reduceat(col("df"), heads),
            np.maximum.reduceat(col("max_tf"), heads),
            np.minimum.reduceat(col("min_dl"), heads),
        ],
        schema=_DICT_SCHEMA,
    )


def _terms_differ(old: pa.Table, new: pa.Table) -> bool:
    """True when a term_id in both folds names a different term (a 63-bit
    hash collision between the two sides)."""
    _, i, j = np.intersect1d(
        old["term_id"].to_numpy(),
        new["term_id"].to_numpy(),
        assume_unique=True,
        return_indices=True,
    )
    return not old["term"].take(i).equals(new["term"].take(j))


def _build_dictionary(
    dict_dir: str,
    seg_rows: list[dict],
    cfg: IndexConfig,
    tag: str = "",
    prev_paths: list[str] = (),
    prev_rows: list[dict] = (),
) -> list[str]:
    """Per-term-shard dictionary over the segment files ``seg_rows``,
    folded in the driver from their metadata columns (parquet column
    pruning keeps the blobs on disk).  A term's runs all live inside ONE
    term shard, so each shard folds alone.  Returns the dict paths in
    shard order.

    An extend passes ``prev_paths`` (the dict shards it replaces) and
    ``prev_rows`` (the segments those shards were folded over), and
    ``seg_rows`` holds only the new generation: each new fold merges into
    its old shard, and a shard without new segments carries over as is.
    Where two terms share a term_id, the term kept is the first in sorted
    segment-path order (``gen-NNN/`` before the base ``seg-…``), which a
    merge cannot tell apart from the old shard alone — so when the old
    and new terms of a term_id differ, that shard re-folds over all its
    segments instead.

    ``tag`` versions the file names so an extend writes a NEW dictionary
    generation and the manifest swap stays atomic (stale files are
    harmless garbage); a file already present is a finished checkpoint."""
    tag = f"{tag}-{config_tag(cfg)}"
    prev = {int(os.path.basename(p)[len("dict-") :][:5]): p for p in prev_paths}

    def by_shard(rows) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for r in rows:
            out.setdefault(int(r["segment"]) // cfg.num_salts, []).append(r["path"])
        return out

    def fold(paths) -> pa.Table:
        return _fold_dict(
            [pq.read_table(p, columns=_DICT_SCHEMA.names) for p in sorted(paths)]
        )

    new = by_shard(seg_rows)
    out = []
    for shard in sorted(set(new) | set(prev)):
        if shard not in new:
            out.append(prev[shard])
            continue
        path = os.path.join(dict_dir, f"dict-{shard:05d}{tag}.parquet")
        if not os.path.exists(path):
            d = fold(new[shard])
            if shard in prev:
                old = pq.read_table(prev[shard], columns=_DICT_SCHEMA.names)
                if _terms_differ(old, d):
                    d = fold(by_shard(prev_rows).get(shard, []) + new[shard])
                else:
                    d = _fold_dict([old, d])
            pq.write_table(d, path + ".tmp")
            os.replace(path + ".tmp", path)
        out.append(path)
    return out


def _items_dataset(items: list[dict]) -> ray.data.Dataset:
    """One row per item for a single-map-operator pipeline whose rows are
    file descriptors.  Ray Data's per-operator resource reservation has
    no other operator to protect there and would run the map tasks one at
    a time on a small cluster, so it is switched off on this dataset's
    own context copy (never on the global ``DataContext``)."""
    ds = ray.data.from_items(items)
    ds.context.op_resource_reservation_enabled = False
    return ds


def _fused_stage(
    file_items: list[dict],
    docs_dir: str,
    partials_dir: str,
    cfg: IndexConfig,
    shift: int,
) -> list[dict]:
    """Stage 1 (fused): raw shard → docs shard + partials file in one
    read pass, one stateless task per input file, per-shard checkpointed.
    Returns the lineage rows."""

    def fused(batch):
        return FusedShardTask(docs_dir, partials_dir, cfg, shift)(batch)

    return (
        _items_dataset(file_items)
        .map_batches(fused, batch_size=1, batch_format="pyarrow")
        .take_all()
    )


# a segment's manifest row (SegmentWriter's meta); an empty segment
# yields no row but the same schema, so every block of the stage agrees
_SEGMENT_ROW_SCHEMA = pa.schema(
    [("segment", pa.int64()), ("path", pa.string()), ("cfg_tag", pa.string())]
    + [(c, pa.int64()) for c in ("n_terms", "n_runs", "n_postings", "bytes")]
    + [("wall_s", pa.float64()), ("skipped", pa.bool_())]
)


def _assemble_stage(
    lineage: list[dict],
    seg_dir: str,
    cfg: IndexConfig,
    shift: int,
    inputs_fp: str,
) -> list[dict]:
    """Stage 3: one task per segment (= term_shard × salt) merges its row
    groups of every partials file in ``lineage`` into a segment file — the
    reduce side of the external shuffle through out_dir.  A segment's
    checkpoint is tagged with ``inputs_fp`` because it depends on every
    input.  Returns the manifest rows of the non-empty segments."""
    partial_paths = sorted(r["partials_output"] for r in lineage)
    writer = SegmentWriter(seg_dir, cfg, shift, extra_tag=inputs_fp)

    def assemble(batch):
        out = []
        for s in batch["segment"].to_pylist():
            t = assemble_segment(int(s), partial_paths, writer)
            if t is not None:
                out.extend(t.to_pylist())
        return pa.Table.from_pylist(out, schema=_SEGMENT_ROW_SCHEMA)

    return (
        _items_dataset([{"segment": s} for s in range(cfg.num_segments)])
        .map_batches(assemble, batch_size=1, batch_format="pyarrow")
        .take_all()
    )


def build_index(
    input_paths: list[str],
    out_dir: str,
    cfg: IndexConfig | None = None,
) -> dict:
    """Build a term-sharded × doc-range-salted compressed inverted index
    from raw web-page parquet files.  Returns the manifest dict."""
    cfg = cfg or IndexConfig()
    manifest_path = os.path.join(out_dir, "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            manifest = json.load(f)
        if first_positions(manifest) or config_from_manifest(manifest) != cfg:
            raise ValueError(
                f"{out_dir} holds a complete index built with a different "
                "config; use a fresh out_dir (indexes are immutable)"
            )
        if manifest.get("inputs_fingerprint") == inputs_fingerprint(
            sorted(input_paths)
        ) and all(
            os.path.exists(manifest_abspath(s["path"], out_dir))
            for s in manifest["segments"]
        ):
            manifest["resumed_complete"] = True
            return manifest
        # different input set/content: fall through — per-file checkpoints
        # skip unchanged files, segments rebuild (their tag includes the
        # inputs fingerprint)

    docs_dir = os.path.join(out_dir, "docs")
    partials_dir = os.path.join(out_dir, "partials")
    seg_dir = os.path.join(out_dir, "segments")
    dict_dir = os.path.join(out_dir, "dict")
    for d in (docs_dir, partials_dir, seg_dir, dict_dir):
        os.makedirs(d, exist_ok=True)

    t0 = time.monotonic()
    sorted_inputs = sorted(input_paths)
    stems = [os.path.splitext(os.path.basename(p))[0] for p in sorted_inputs]
    if len(set(stems)) != len(stems):
        raise ValueError(
            "input files must have unique basenames (checkpoints and docs "
            f"shards are named by stem); duplicates: "
            f"{sorted({x for x in stems if stems.count(x) > 1})}"
        )
    inputs_fp = inputs_fingerprint(sorted_inputs)
    # salt shift from id-space bounds / parquet footers — no data pass, so
    # tokenization can start with the first byte read (fused stage below)
    shift = compute_salt_shift(sorted_inputs, cfg)
    # each file gets a doc_id base (ordinal << 34): dense per-shard ids,
    # deterministic w.r.t. the sorted input list (see prepare_table)
    file_items = [
        {
            "path": p,
            "doc_id_base": (i << 34) if cfg.doc_id_mode == "dense" else -1,
        }
        for i, p in enumerate(sorted_inputs)
    ]
    lineage = _fused_stage(file_items, docs_dir, partials_dir, cfg, shift)
    partials_lineage = [
        {
            "input": r["output"],
            "output": r["partials_output"],
            "n_runs": r["n_runs"],
            "bytes": r["partials_bytes"],
            "wall_s": r["partials_wall_s"],
            "skipped": r["partials_skipped"],
        }
        for r in lineage
    ]
    t1 = time.monotonic()

    # --- stage 2: global stats from lineage (no data pass — the analog of
    # the reference's bounding-box aggregate, VertexGridIndex.java:78-99)
    n_docs = sum(r["n_docs"] for r in lineage)
    sum_doclen = sum(r["sum_doclen"] for r in lineage)
    max_doc_id = max((r["max_doc_id"] for r in lineage), default=-1)
    avgdl = (sum_doclen / n_docs) if n_docs else 0.0
    stats = {
        "n_docs": n_docs,
        "sum_doclen": sum_doclen,
        "avgdl": avgdl,
        "max_doc_id": max_doc_id,
        "salt_shift": shift,
        "k1": cfg.bm25.k1,
        "b": cfg.bm25.b,
    }
    _write_json(os.path.join(out_dir, "stats.json"), stats)

    # --- stage 3: merge partial runs per segment (= term_shard × salt)
    # and write segment files
    seg_rows = _assemble_stage(lineage, seg_dir, cfg, shift, inputs_fp)
    t2 = time.monotonic()

    # --- stage 4: per-term-shard dictionaries (df summed across salt
    # runs).  A term's runs all live inside ONE term shard, so this is
    # partition-local — no second all-to-all: the driver reads the
    # metadata columns of each shard's segment files (parquet column
    # pruning keeps the blobs on disk) and folds them.  Analog of the id
    # lookup tables the reference writes (TorSaver.java:116-141).
    dict_paths = _build_dictionary(dict_dir, seg_rows, cfg, tag=f"-{inputs_fp}")
    t3 = time.monotonic()

    for r in seg_rows:
        r["path"] = manifest_relpath(r["path"], out_dir)
    manifest = {
        "config": dataclasses.asdict(cfg),
        "inputs_fingerprint": inputs_fp,
        "stats": stats,
        "lineage": lineage,
        "partials": partials_lineage,
        "segments": seg_rows,
        # forward-index shards BY NAME (relative): the doc stores load
        # exactly these files — a stale docs shard left by a rebuild with a
        # removed input, or a crashed extend's orphan gen-* dir, is never
        # read (same manifest-not-glob rule as segments)
        "docs_paths": sorted(
            manifest_relpath(r["output"], out_dir) for r in lineage
        ),
        "dict_paths": [manifest_relpath(p, out_dir) for p in dict_paths],
        "metrics": _stage_metrics(t0, t1, t2, t3, n_docs),
    }
    _write_json(manifest_path, manifest)
    return manifest


def extend_index(
    out_dir: str,
    new_input_paths: list[str],
    cfg: IndexConfig | None = None,
) -> dict:
    """Incremental ingest (the analog of the reference's sliding-window
    index recompute, clustering/Streaming/Streaming.java:25-46, done
    Lucene-style): append a new GENERATION of docs/partials/segment files
    to an existing index without touching the old (immutable) ones.

    - new files continue the doc-ordinal space (ids stay unique and
      deterministic given the ingest order of file lists);
    - the original salt shift is kept, so appended generations CLAMP into
      the tail salt buckets — documented skew; a full rebuild re-balances
      (the compaction analog);
    - old segments stay valid because block bounds are stored as
      (max_tf, min_dl) — avgdl/df-independent — and all scoring uses the
      UPDATED global stats at query time;
    - the dictionary is merged, not rebuilt: only the new generation's
      segment metadata is read and folded into the old dict shards (df
      sums, max_tf takes the max, min_dl the min), so the dictionary step
      costs the delta, not the index (see :func:`_build_dictionary`).

    ``cfg=None`` extends with the index's own config (its manifest's);
    a given ``cfg`` must equal it.

    Query results equal a fresh full build over the union of inputs
    (doc ids and postings identical; only file layout differs) — tested.
    """
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path) as f:
        manifest = json.load(f)
    cfg = cfg or config_from_manifest(manifest)
    if cfg.doc_id_mode != "dense":
        raise ValueError(
            "extend_index requires doc_id_mode='dense' (appended runs must "
            "stay doc_id-sorted after concatenation with older generations)"
        )
    if first_positions(manifest):
        raise ValueError(
            f"{out_dir} stores one position per posting (the retired "
            "position_mode='first'); appending full-position runs beside "
            "them would mix layouts — rebuild it first with "
            "compact_index(index_dir, out_dir)"
        )
    if config_from_manifest(manifest) != cfg:
        raise ValueError("config mismatch with the existing index")
    gen = int(manifest.get("generation", 0)) + 1
    n_prev = int(manifest.get("n_input_files", len(manifest["lineage"])))
    shift = manifest["stats"]["salt_shift"]
    new_sorted = sorted(new_input_paths)
    stems = [os.path.splitext(os.path.basename(p))[0] for p in new_sorted]
    if len(set(stems)) != len(stems):
        # same rule as build_index: shards are named by stem, so two
        # inputs sharing a basename would silently overwrite one docs/
        # partials shard while lineage counts both
        raise ValueError(
            "extend inputs must have unique basenames; duplicates: "
            f"{sorted({x for x in stems if stems.count(x) > 1})}"
        )
    extensions = manifest.get("extensions", [])
    if extensions and extensions[-1] == new_sorted:
        # idempotent re-run of the last extension (its outputs exist)
        manifest["resumed_complete"] = True
        return manifest

    docs_dir = os.path.join(out_dir, "docs", f"gen-{gen:03d}")
    partials_dir = os.path.join(out_dir, "partials", f"gen-{gen:03d}")
    seg_dir = os.path.join(out_dir, "segments", f"gen-{gen:03d}")
    for d in (docs_dir, partials_dir, seg_dir):
        os.makedirs(d, exist_ok=True)

    t0 = time.monotonic()
    file_items = [
        {"path": p, "doc_id_base": (n_prev + i) << 34}
        for i, p in enumerate(new_sorted)
    ]
    new_fp = inputs_fingerprint(new_sorted)
    lineage = _fused_stage(file_items, docs_dir, partials_dir, cfg, shift)
    t1 = time.monotonic()
    seg_rows = _assemble_stage(lineage, seg_dir, cfg, shift, new_fp)
    t2 = time.monotonic()

    # merge the new generation's segments into the dictionary shards,
    # written to generation-tagged files; the manifest swap makes it
    # atomic (a crash here leaves the old dictionary valid)
    dict_paths = _build_dictionary(
        os.path.join(out_dir, "dict"),
        seg_rows,
        cfg,
        tag=f"-g{gen:03d}-{new_fp}",
        prev_paths=[manifest_abspath(p, out_dir) for p in manifest["dict_paths"]],
        prev_rows=[
            {**r, "path": manifest_abspath(r["path"], out_dir)}
            for r in manifest["segments"]
        ],
    )
    t3 = time.monotonic()

    # merged stats + manifest (paths stored relative to out_dir)
    for r in seg_rows:
        r["path"] = manifest_relpath(r["path"], out_dir)
    manifest["lineage"] = manifest["lineage"] + lineage
    manifest["segments"] = manifest["segments"] + seg_rows
    manifest["docs_paths"] = sorted(manifest["docs_paths"]) + sorted(
        manifest_relpath(r["output"], out_dir) for r in lineage
    )
    n_new = sum(r["n_docs"] for r in lineage)
    n_docs = manifest["stats"]["n_docs"] + n_new
    sum_doclen = manifest["stats"]["sum_doclen"] + sum(
        r["sum_doclen"] for r in lineage
    )
    max_doc_id = max(
        manifest["stats"]["max_doc_id"],
        max((r["max_doc_id"] for r in lineage), default=-1),
    )
    manifest["stats"].update(
        n_docs=n_docs,
        sum_doclen=sum_doclen,
        avgdl=(sum_doclen / n_docs) if n_docs else 0.0,
        max_doc_id=max_doc_id,
    )
    manifest["generation"] = gen
    manifest["n_input_files"] = n_prev + len(file_items)
    _write_json(os.path.join(out_dir, "stats.json"), manifest["stats"])
    manifest["dict_paths"] = [manifest_relpath(p, out_dir) for p in dict_paths]
    manifest["extensions"] = extensions + [new_sorted]
    ext = {"generation": gen, **_stage_metrics(t0, t1, t2, t3, n_new)}
    metrics = manifest["metrics"]
    metrics["extends"] = metrics.get("extends", []) + [ext]
    metrics["extend_s"] = ext["total_s"]
    _write_json(manifest_path, manifest)
    return manifest


# settings older indexes still record in manifest["config"]; they are
# ignored on read (``position_mode`` is honoured by first_positions)
_RETIRED_CONFIG_KEYS = (
    "shuffle_mode",
    "tokenize_concurrency",
    "position_mode",
)


def first_positions(manifest: dict) -> bool:
    """True for an index built with the retired ``position_mode="first"``
    layout (one position per posting).  Its payload cannot verify
    repeated terms or later occurrences, so such an index serves as one
    without positions; :func:`compact_index` rebuilds it with full
    positions."""
    c = manifest["config"]
    return bool(c.get("store_positions")) and c.get("position_mode") == "first"


def config_from_manifest(manifest: dict) -> IndexConfig:
    """Reconstruct the IndexConfig a manifest was built with."""
    d = {
        k: v
        for k, v in manifest["config"].items()
        if k not in _RETIRED_CONFIG_KEYS
    }
    bm25 = BM25Params(**d.pop("bm25"))
    return IndexConfig(bm25=bm25, **d)


def delete_docs(index_dir: str, doc_ids) -> dict:
    """Tombstone the given doc ids (Lucene-style soft delete): segments
    and forward-index shards stay immutable; ``tombstones.json`` carries
    the sorted union of every delete, and the engine masks them out of
    all query paths at open.  Scoring keeps the pre-delete statistics
    (N/avgdl/df), exactly like Lucene until a merge — boolean/phrase/
    range results are exact immediately; :func:`compact_index` purges
    physically and recomputes stats.

    Unknown ids fail loud (a takedown that silently no-ops is worse than
    an error); re-deleting an already-tombstoned id is idempotent.
    Writes are atomic (tmp + rename), so a crashed delete never leaves a
    half-written tombstone set."""
    import pyarrow.dataset as pads

    ids = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    if ids.size == 0:
        raise ValueError("delete_docs: empty doc_ids")
    with open(os.path.join(index_dir, "manifest.json")) as f:
        manifest = json.load(f)
    if manifest["stats"].get("salt_shift") is None:
        # refuse HERE, not at the next engine open: writing tombstones a
        # legacy index cannot route to salt buckets would brick every
        # subsequent QueryEngine(index_dir)
        raise ValueError(
            "delete_docs: this index predates salt_shift bookkeeping, so "
            "tombstones cannot be routed to salt buckets — rebuild it "
            "with build_index first"
        )
    docs_paths = [manifest_abspath(p, index_dir) for p in manifest["docs_paths"]]
    found = (
        pads.dataset(docs_paths, format="parquet")
        .to_table(
            columns=["doc_id"],
            filter=pads.field("doc_id").isin(pa.array(ids, pa.int64())),
        )["doc_id"]
        .to_numpy()
        .astype(np.int64)
    )
    missing = np.setdiff1d(ids, found)
    if missing.size:
        raise ValueError(
            f"delete_docs: {missing.size} ids not in this index "
            f"(e.g. {missing[:5].tolist()}) — deletes must name live docs"
        )
    tomb_path = os.path.join(index_dir, "tombstones.json")
    existing = np.array([], dtype=np.int64)
    if os.path.exists(tomb_path):
        with open(tomb_path) as f:
            existing = np.asarray(json.load(f)["doc_ids"], dtype=np.int64)
    merged = np.union1d(existing, ids)
    _write_json(
        tomb_path,
        {"doc_ids": [int(d) for d in merged], "n_deleted": int(merged.size)},
    )
    return {
        "n_requested": int(ids.size),
        "n_new": int(merged.size - existing.size),
        "n_deleted_total": int(merged.size),
    }


def _stage_source_inputs(
    index_dir: str, manifest: dict, link_dir: str, prefix: str
) -> list[str]:
    """Stage one source index's forward-index shards into ``link_dir``
    as rebuild inputs named ``{prefix}{i:05d}-{basename}`` (docs shards
    across generations/sources may share basenames, so names are
    position-uniquified).  Tombstone-free sources stage as symlinks; a
    tombstoned source gets its shards rewritten WITHOUT the deleted rows
    (one distributed task per shard) so the rebuild recomputes
    N/avgdl/df over only the live docs.  Shared by ``compact_index``
    (one source) and ``merge_indexes`` (many)."""
    docs_paths = [manifest_abspath(p, index_dir) for p in manifest["docs_paths"]]
    tomb_path = os.path.join(index_dir, "tombstones.json")
    deleted = None
    if os.path.exists(tomb_path):
        with open(tomb_path) as f:
            deleted = np.asarray(
                sorted(json.load(f)["doc_ids"]), dtype=np.int64
            )
    inputs: list[str] = []
    if deleted is None or deleted.size == 0:
        for i, src in enumerate(docs_paths):
            link = os.path.join(
                link_dir, f"{prefix}{i:05d}-{os.path.basename(src)}"
            )
            if os.path.lexists(link):
                # never trust a leftover entry: it may be a purged COPY
                # from a tombstoned compact, or a symlink into a
                # DIFFERENT source index staged into this out_dir
                # earlier — either would be served silently
                os.remove(link)
            os.symlink(os.path.abspath(src), link)
            inputs.append(link)
        return inputs
    # the purge: rewrite each docs shard without its tombstoned rows
    # (one distributed task per shard — the merge that makes soft
    # deletes physical)
    shards = [
        {"i": i, "src": os.path.abspath(p)} for i, p in enumerate(docs_paths)
    ]

    def purge_shard(batch: pa.Table) -> pa.Table:
        rows = []
        for i, src in zip(batch["i"].to_pylist(), batch["src"].to_pylist()):
            t = pq.read_table(src)
            keep = ~np.isin(t["doc_id"].to_numpy().astype(np.int64), deleted)
            dst = os.path.join(link_dir, f"{prefix}{i:05d}-{os.path.basename(src)}")
            # a prior tombstone-free stage left dst as a SYMLINK to the
            # source shard — writing through it would corrupt the source
            # index; unlink first, then write atomically
            if os.path.lexists(dst):
                os.remove(dst)
            pq.write_table(t.filter(pa.array(keep)), dst + ".tmp")
            os.replace(dst + ".tmp", dst)
            rows.append({"dst": dst})
        return pa.Table.from_pylist(rows)

    out = (
        _items_dataset(shards)
        .map_batches(purge_shard, batch_size=1, batch_format="pyarrow")
        .take_all()
    )
    return sorted(r["dst"] for r in out)


def merge_indexes(
    index_dirs: list[str],
    out_dir: str,
    cfg: IndexConfig | None = None,
) -> dict:
    """Merge N independently built indexes into ONE fresh balanced index
    (the Lucene ``IndexWriter.addIndexes`` / cross-index segment-merge
    analog; the reference's TorSaver has no equivalent — it rewrites one
    index or nothing): every source's forward-index shards are staged
    (each source's tombstones purged during staging) and rebuilt as one
    index with globally recomputed N/avgdl/df and a fresh salt shift.

    Doc ids are PRESERVED and must be globally disjoint across sources —
    two sources sharing an id fail loud in the postings shuffle (the
    build's duplicate-doc_id guard), never silently corrupt.  Query
    results over the merged index equal a fresh build over the union of
    the sources' corpora (rank identity, tested).

    ``cfg`` defaults to the FIRST source's config; sources may have been
    built under different grids (num_term_shards / num_salts) — the
    rebuild re-grids everything."""
    if len(index_dirs) < 2:
        raise ValueError("merge_indexes needs at least two source indexes")
    reals = [os.path.realpath(d) for d in index_dirs]
    if len(set(reals)) != len(reals):
        raise ValueError("merge_indexes: duplicate source index dirs")
    if os.path.realpath(out_dir) in reals:
        raise ValueError(
            "merge_indexes needs a fresh out_dir — merging into a source "
            "would interleave new shards with its own"
        )
    manifests = []
    for d in index_dirs:
        with open(os.path.join(d, "manifest.json")) as f:
            manifests.append(json.load(f))
    cfg = cfg or config_from_manifest(manifests[0])
    link_dir = os.path.join(out_dir, "merge-inputs")
    os.makedirs(link_dir, exist_ok=True)
    inputs: list[str] = []
    for s, (d, man) in enumerate(zip(index_dirs, manifests)):
        inputs.extend(
            _stage_source_inputs(d, man, link_dir, prefix=f"m{s:02d}x")
        )
    return build_index(inputs, out_dir, cfg)


def compact_index(
    index_dir: str,
    out_dir: str,
    cfg: IndexConfig | None = None,
) -> dict:
    """Compaction: rebuild a (possibly multi-generation) index into a
    FRESH balanced layout from its own forward-index shards — the docs
    shards carry doc_id + text, so the original raw inputs are not
    needed.  Doc ids are PRESERVED, so the compacted index answers every
    query identically (tested); the salt shift is recomputed from the
    actual id-space bounds, which removes the tail-salt clamp skew that
    generation appends accumulate (extend_index keeps the original
    shift).  The LSM/Lucene segment-merge analog; the reference has no
    equivalent (TorSaver rewrites everything or nothing).

    ``cfg`` defaults to the source index's own config (same grid); pass
    a different one to re-shard/re-salt during compaction."""
    if os.path.realpath(index_dir) == os.path.realpath(out_dir):
        raise ValueError(
            "compact_index needs a fresh out_dir — in-place compaction "
            "would interleave new shards with the source's and orphan "
            "its generation files"
        )
    with open(os.path.join(index_dir, "manifest.json")) as f:
        manifest = json.load(f)
    cfg = cfg or config_from_manifest(manifest)
    # docs shards across GENERATIONS may share basenames (gen dirs keep
    # them apart in the source); build_index names its shards by stem,
    # so compact feeds position-uniquified symlinks (or purged copies
    # when the source carries tombstones) instead
    link_dir = os.path.join(out_dir, "compact-inputs")
    os.makedirs(link_dir, exist_ok=True)
    inputs = _stage_source_inputs(index_dir, manifest, link_dir, prefix="c")
    return build_index(inputs, out_dir, cfg)
