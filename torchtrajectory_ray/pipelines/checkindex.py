"""CheckIndex — distributed integrity verification of a built index.

The analog of Lucene's ``CheckIndex`` tool (and of the reference's
implicit load-time invariants: posting lists sorted before compression,
InvertedIndex.java:63-67): decode every segment payload and prove the
invariants the query engine RELIES on, so silent storage corruption or a
codec regression is caught by an offline pass instead of by wrong query
results.

Shape: ONE Ray Data ``map_batches`` task per segment file (each task
reads only its file — embarrassingly parallel, no shuffle), returning a
violation list plus per-term df/max_tf/min_dl partials; the driver then
folds the partials (a term lives in exactly one shard, so the fold is a
dictionary-sized groupby done locally) and cross-checks them against the
term dictionary shards and the manifest stats.

Checked per segment row:
- doc_ids decode strictly increasing, inside the row's salt range;
- df == decoded length; tfs >= 1; doclens >= tfs;
- max_tf / min_dl equal the decoded maxima/minima (WAND bounds);
- block-max metadata (blk_last / blk_max_tf / blk_min_dl) re-derived
  bit-exactly from the decoded postings;
- position payload: per-posting tf positions, strictly ascending within
  each doc, strictly below the doclen.

Cross-checked globally:
- dictionary df / max_tf / min_dl == fold of the segment partials,
  term by term, and no dictionary term is missing from the segments
  (or vice versa);
- manifest stats: n_docs == forward-shard row count, sum_doclen and
  max_doc_id match, every manifest path exists.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from torchtrajectory_ray.functions.codec import delta_decode, varint_decode


def _check_segment_file(
    path: str, num_salts: int, shift: int, positions: bool, block_size: int
):
    """Violations + per-term (df, max_tf, min_dl) partials for ONE
    segment parquet.  Pure function of the file — the map_batches task
    body."""
    violations: list[str] = []
    tbl = pq.read_table(path)
    seg_name = os.path.basename(path)
    agg: dict[int, list] = {}
    for row in tbl.to_pylist():
        tid, salt, df = row["term_id"], int(row["salt"]), int(row["df"])
        where = f"{seg_name} term_id={tid} salt={salt}"
        try:
            ids = delta_decode(row["doc_ids_blob"], df)
            tfs = varint_decode(row["tfs_blob"], df)
            dls = varint_decode(row["doclens_blob"], df)
        except Exception as e:  # truncated/garbled blob, or count mismatch
            # (delta/varint decode already raise when the blob holds a
            # different count than df — that IS the df check)
            violations.append(f"{where}: payload decode failed: {e}")
            continue
        if df and not bool(np.all(ids[1:] > ids[:-1])):
            violations.append(f"{where}: doc_ids not strictly increasing")
        lo = salt << shift
        hi = None if salt == num_salts - 1 else (salt + 1) << shift
        if df and (
            int(ids[0]) < lo or (hi is not None and int(ids[-1]) >= hi)
        ):
            violations.append(f"{where}: doc_ids escape salt range")
        if df and int(tfs.min()) < 1:
            violations.append(f"{where}: tf < 1")
        if df and bool(np.any(dls < tfs)):
            violations.append(f"{where}: doclen < tf")
        if df and (
            int(row["max_tf"]) != int(tfs.max())
            or int(row["min_dl"]) != int(dls.min())
        ):
            violations.append(f"{where}: stale (max_tf, min_dl) bounds")
        # block-max metadata re-derivation at the BUILD's block size
        blk_last = np.asarray(row["blk_last"], dtype=np.int64)
        if df:
            starts = np.arange(0, df, block_size)
            if len(starts) != len(blk_last):
                violations.append(f"{where}: block count mismatch")
            else:
                last_idx = np.minimum(starts + block_size - 1, df - 1)
                if (
                    not np.array_equal(ids[last_idx], blk_last)
                    or not np.array_equal(
                        np.maximum.reduceat(tfs, starts),
                        np.asarray(row["blk_max_tf"], dtype=np.int64),
                    )
                    or not np.array_equal(
                        np.minimum.reduceat(dls, starts),
                        np.asarray(row["blk_min_dl"], dtype=np.int64),
                    )
                ):
                    violations.append(f"{where}: block-max metadata wrong")
        # position payload
        if positions and df:
            try:
                total = int(tfs.sum())
                pos = varint_decode(row["pos_blob"], total)
                # undelta per posting and range-check against doclen
                pstarts = np.concatenate(([0], np.cumsum(tfs)[:-1]))
                cs = np.cumsum(pos)
                base = cs[pstarts] - pos[pstarts]
                absolute = cs - np.repeat(base, tfs)
                if bool(np.any(absolute >= np.repeat(dls, tfs))):
                    violations.append(f"{where}: position >= doclen")
                nonstart = np.ones(total, dtype=bool)
                nonstart[pstarts] = False
                if bool(np.any(pos[nonstart] < 1)):
                    violations.append(
                        f"{where}: positions not strictly ascending"
                    )
            except Exception as e:
                violations.append(f"{where}: position decode failed: {e}")
        cur = agg.get(tid)
        if cur is None:
            agg[tid] = [df, int(tfs.max()), int(dls.min())]
        else:
            cur[0] += df
            cur[1] = max(cur[1], int(tfs.max()))
            cur[2] = min(cur[2], int(dls.min()))
    return violations, agg


class _SegmentCheckTask:
    def __init__(self, num_salts: int, shift: int, positions: bool, block_size):
        self.num_salts = num_salts
        self.shift = shift
        self.positions = positions
        self.block_size = block_size

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        for path in batch["path"]:
            violations, agg = _check_segment_file(
                path,
                self.num_salts,
                self.shift,
                self.positions,
                self.block_size,
            )
            out.append(
                {
                    "path": path,
                    "violations": json.dumps(violations),
                    "term_ids": np.fromiter(agg, np.int64, len(agg)),
                    "dfs": np.asarray([v[0] for v in agg.values()], np.int64),
                    "max_tfs": np.asarray(
                        [v[1] for v in agg.values()], np.int64
                    ),
                    "min_dls": np.asarray(
                        [v[2] for v in agg.values()], np.int64
                    ),
                }
            )
        return pd.DataFrame(out)


def check_index(index_dir: str, *, distributed: bool = True) -> dict:
    """Verify every integrity invariant of a built index; returns
    ``{"ok": bool, "violations": [...], "n_segments": int, "n_terms":
    int, "n_postings": int}``.  ``distributed=False`` runs the segment
    pass inline (tests / tiny indexes)."""
    from torchtrajectory_ray.pipelines.build import (
        first_positions,
        manifest_abspath,
        read_dictionary,
    )

    with open(os.path.join(index_dir, "manifest.json")) as f:
        manifest = json.load(f)
    cfg = manifest["config"]
    stats = manifest["stats"]
    violations: list[str] = []

    seg_paths, missing = [], []
    for row in manifest["segments"]:
        p = manifest_abspath(row["path"], index_dir)
        (seg_paths if os.path.exists(p) else missing).append(p)
    for key in ("docs_paths", "dict_paths"):
        for rel in manifest[key]:
            p = manifest_abspath(rel, index_dir)
            if not os.path.exists(p):
                missing.append(p)
    violations += [f"manifest path missing on disk: {p}" for p in missing]

    # a retired first-position payload is served as no positions, so it
    # is not checked either
    positions = bool(cfg.get("store_positions")) and not first_positions(manifest)
    shift = int(stats["salt_shift"])
    task = _SegmentCheckTask(
        cfg["num_salts"], shift, positions, int(cfg["block_size"])
    )
    if distributed and seg_paths:
        import ray.data

        res = (
            ray.data.from_pandas(pd.DataFrame({"path": seg_paths}))
            .repartition(len(seg_paths))
            .map_batches(task, batch_format="pandas", batch_size=None)
            .to_pandas()
        )
    else:
        res = task(pd.DataFrame({"path": seg_paths}))

    fold: dict[int, list] = {}
    n_postings = 0
    for _, r in res.iterrows():
        violations += json.loads(r["violations"])
        for tid, df, mt, md in zip(
            r["term_ids"], r["dfs"], r["max_tfs"], r["min_dls"]
        ):
            n_postings += int(df)
            cur = fold.get(int(tid))
            if cur is None:
                fold[int(tid)] = [int(df), int(mt), int(md)]
            else:
                cur[0] += int(df)
                cur[1] = max(cur[1], int(mt))
                cur[2] = min(cur[2], int(md))

    # dictionary cross-check (term by term — a term lives in one shard);
    # a missing dict shard is already reported by the path check
    d = read_dictionary(manifest, index_dir, missing_ok=True).to_pydict()
    dict_ids = set(d["term_id"])
    seg_ids = set(fold)
    for tid in sorted(seg_ids - dict_ids)[:20]:
        violations.append(f"term_id={tid} has postings but no dictionary row")
    for tid in sorted(dict_ids - seg_ids)[:20]:
        violations.append(f"dictionary term_id={tid} has no postings")
    for term, tid, *want in zip(
        d["term"], d["term_id"], d["df"], d["max_tf"], d["min_dl"]
    ):
        got = fold.get(tid)
        if got is not None and got != want:
            violations.append(
                f"dictionary disagrees for term={term!r}: "
                f"dict (df,max_tf,min_dl)={want} segments={got}"
            )

    # manifest stats vs forward shards
    n_docs = sum_dl = 0
    max_id = -1
    for rel in manifest["docs_paths"]:
        p = manifest_abspath(rel, index_dir)
        if not os.path.exists(p):
            continue
        t = pq.read_table(p, columns=["doc_id", "doclen"])
        n_docs += t.num_rows
        if t.num_rows:
            sum_dl += int(pd.Series(t["doclen"].to_numpy()).sum())
            max_id = max(max_id, int(t["doc_id"].to_numpy().max()))
    if n_docs != int(stats["n_docs"]):
        violations.append(
            f"stats.n_docs={stats['n_docs']} != forward rows {n_docs}"
        )
    if sum_dl != int(stats["sum_doclen"]):
        violations.append(
            f"stats.sum_doclen={stats['sum_doclen']} != forward sum {sum_dl}"
        )
    if max_id != int(stats["max_doc_id"]):
        violations.append(
            f"stats.max_doc_id={stats['max_doc_id']} != forward max {max_id}"
        )

    return {
        "ok": not violations,
        "violations": violations,
        "n_segments": len(seg_paths),
        "n_terms": len(fold),
        "n_postings": n_postings,
    }


class _TtfTask:
    """map_batches task: one segment file → (term, ttf) partials (sum of
    tf over the file's postings, varint-decoded per row)."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        terms: list[str] = []
        ttfs: list[int] = []
        for path in batch["path"]:
            t = pq.read_table(path, columns=["term", "df", "tfs_blob"])
            for row in t.to_pylist():
                terms.append(row["term"])
                ttfs.append(
                    int(varint_decode(row["tfs_blob"], row["df"]).sum())
                )
        return pd.DataFrame({"term": terms, "ttf": ttfs})


def ttf_table(index_dir: str, *, distributed: bool = True) -> pd.DataFrame:
    """Total term frequency per dictionary term (the Lucene
    ``totalTermFreq`` statistic, which the dictionary doesn't store) —
    ONE map_batches task per segment file decodes its tf payloads and
    emits (term, ttf) partials; the driver folds them (a term's rows
    span only its shard's salt files).  Returns (term, ttf) term-
    ascending."""
    from torchtrajectory_ray.pipelines.build import manifest_abspath

    with open(os.path.join(index_dir, "manifest.json")) as f:
        manifest = json.load(f)
    seg_paths = [
        manifest_abspath(r["path"], index_dir) for r in manifest["segments"]
    ]
    task = _TtfTask()
    if distributed and seg_paths:
        import ray.data

        parts = (
            ray.data.from_pandas(pd.DataFrame({"path": seg_paths}))
            .repartition(len(seg_paths))
            .map_batches(task, batch_format="pandas", batch_size=None)
            .to_pandas()
        )
    else:
        parts = task(pd.DataFrame({"path": seg_paths}))
    return (
        parts.groupby("term", as_index=False)["ttf"]
        .sum()
        .astype({"ttf": "int64"})
        .sort_values("term")
        .reset_index(drop=True)
    )


# --- CheckIndex for the IVF vector layout ------------------------------------


class _IvfPartCheckTask:
    """map_batches task: one bucket part file per input row → violations
    + per-bucket/per-centroid partials.  Pure per-file reads — the same
    embarrassingly-parallel shape as the segment checker."""

    def __init__(self, out_dir: str, centroids, id_col: str, sq8: bool):
        self.out_dir = out_dir
        self.centroids = np.asarray(centroids, dtype=np.float64)
        self.id_col = id_col
        self.sq8 = sq8

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        from torchtrajectory_ray.pipelines.ivf import (
            _batch_matrix,
            _norm_rows,
            _sq8_error_bound,
            _sq8_matrix,
        )

        Cn = (
            _norm_rows(self.centroids)
            if len(self.centroids)
            else self.centroids
        )
        rows = []
        for rel, want_bucket, cent_idx in zip(
            batch["path"], batch["bucket_id"], batch["centroid_idx"]
        ):
            violations: list[str] = []
            n = 0
            min_cos = 1.0
            max_ang = 0.0
            p = os.path.join(self.out_dir, rel)
            if not os.path.exists(p):
                rows.append(
                    {
                        "bucket": int(want_bucket),
                        "centroid": int(cent_idx),
                        "n": 0,
                        "min_cos": 1.0,
                        "max_ang": 0.0,
                        "violations": json.dumps(
                            [f"{rel}: referenced by meta but missing on disk"]
                        ),
                    }
                )
                continue
            try:
                tbl = pq.read_table(p)
                n = tbl.num_rows
                got_buckets = np.unique(
                    tbl["bucket"].to_numpy().astype(np.int64)
                )
                if len(got_buckets) and (
                    len(got_buckets) != 1 or got_buckets[0] != int(want_bucket)
                ):
                    violations.append(
                        f"{rel}: bucket column {got_buckets.tolist()} != "
                        f"directory bucket {int(want_bucket)}"
                    )
                if n and len(Cn):
                    en = _norm_rows(_batch_matrix(tbl))
                    cs = en @ Cn[int(cent_idx)]
                    min_cos = float(cs.min())
                    max_ang = float(
                        np.arccos(np.clip(cs, -1.0, 1.0)).max()
                    )
                if self.sq8:
                    if "embedding_sq8" not in tbl.column_names:
                        violations.append(
                            f"{rel}: params.sq8 set but embedding_sq8 "
                            "column missing"
                        )
                    elif n:
                        approx = _sq8_matrix(tbl)
                        en = _norm_rows(_batch_matrix(tbl))
                        err = float(
                            np.linalg.norm(approx - en, axis=1).max()
                        )
                        bound = _sq8_error_bound(en.shape[1])
                        if err > bound + 1e-12:
                            violations.append(
                                f"{rel}: sq8 dequantization error {err:.3g} "
                                f"exceeds the provable bound {bound:.3g}"
                            )
            except Exception as e:  # garbled parquet → violation, not crash
                violations.append(f"{rel}: unreadable ({e})")
            rows.append(
                {
                    "bucket": int(want_bucket),
                    "centroid": int(cent_idx),
                    "n": int(n),
                    "min_cos": min_cos,
                    "max_ang": max_ang,
                    "violations": json.dumps(violations),
                }
            )
        return pd.DataFrame(rows)


def check_ivf(out_dir: str, *, distributed: bool = True) -> dict:
    """Integrity verification of an IVF bucket layout (the vector-side
    CheckIndex): ``{"ok", "violations", "n_buckets", "n_vectors"}``.

    Verified against ``meta.json``:
    - structural: nlist == len(centroids), n_vectors / total_bytes equal
      the bucket-table sums, every bucket's centroid index is in range;
    - filesystem: every referenced part exists with the recorded size;
      no ORPHAN part files under bucket-*/ that meta doesn't reference
      (the crashed-superseded-parent class);
    - per part (distributed): the ``bucket`` column matches the
      directory, per-bucket row totals == meta ``n``, members satisfy
      cos(member, centroid) >= meta ``min_cos`` (admissible — deletes
      may leave the recorded bound conservatively low), sq8 codes
      dequantize within the provable error bound;
    - global: vector ids are unique across the whole layout;
    - sidecars: a radii cache for the CURRENT meta fingerprint must
      dominate the recomputed per-centroid member angles; tombstones
      must be sorted unique ints.
    """
    import hashlib

    import ray.data

    violations: list[str] = []
    meta_path = os.path.join(out_dir, "meta.json")
    if not os.path.exists(meta_path):
        return {
            "ok": False,
            "violations": [f"{meta_path} missing"],
            "n_buckets": 0,
            "n_vectors": 0,
        }
    with open(meta_path) as f:
        meta = json.load(f)
    buckets: dict = meta.get("buckets", {})
    centroids = meta.get("centroids", [])
    if int(meta.get("nlist", -1)) != len(centroids):
        violations.append(
            f"meta.nlist={meta.get('nlist')} != {len(centroids)} centroids"
        )
    n_sum = sum(int(v["n"]) for v in buckets.values())
    if int(meta.get("n_vectors", -1)) != n_sum:
        violations.append(
            f"meta.n_vectors={meta.get('n_vectors')} != bucket sum {n_sum}"
        )
    bytes_sum = sum(int(v["bytes"]) for v in buckets.values())
    if int(meta.get("total_bytes", -1)) != bytes_sum:
        violations.append(
            f"meta.total_bytes={meta.get('total_bytes')} != bucket sum "
            f"{bytes_sum}"
        )
    referenced: set[str] = set()
    spec_rows = []
    for key, info in buckets.items():
        if not 0 <= int(info["centroid"]) < max(len(centroids), 1):
            violations.append(
                f"bucket {key}: centroid index {info['centroid']} out of "
                f"range [0, {len(centroids)})"
            )
            continue
        got_bytes = 0
        for rel in info["paths"]:
            referenced.add(rel)
            p = os.path.join(out_dir, rel)
            if os.path.exists(p):
                got_bytes += os.path.getsize(p)
            spec_rows.append(
                {
                    "path": rel,
                    "bucket_id": int(key),
                    "centroid_idx": int(info["centroid"]),
                }
            )
        if got_bytes != int(info["bytes"]):
            violations.append(
                f"bucket {key}: on-disk bytes {got_bytes} != meta "
                f"{info['bytes']}"
            )
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith("bucket-"):
            continue
        bdir = os.path.join(out_dir, name)
        if not os.path.isdir(bdir):
            continue
        for f_ in sorted(os.listdir(bdir)):
            if f_.endswith(".parquet"):
                rel = os.path.join(name, f_)
                if rel not in referenced:
                    violations.append(
                        f"{rel}: on disk but not referenced by meta "
                        "(orphan part)"
                    )

    res = pd.DataFrame(
        columns=["bucket", "centroid", "n", "min_cos", "max_ang", "violations"]
    )
    if spec_rows:
        spec = pd.DataFrame(spec_rows)
        task = _IvfPartCheckTask(
            out_dir,
            centroids,
            meta["params"]["id_col"],
            bool(meta["params"].get("sq8")),
        )
        if distributed:
            res = (
                ray.data.from_pandas(spec)
                .repartition(len(spec))
                .map_batches(task, batch_format="pandas", batch_size=None)
                .to_pandas()
            )
        else:
            res = task(spec)
        for v in res["violations"]:
            violations.extend(json.loads(v))
        fold = res.groupby("bucket").agg(
            n=("n", "sum"), min_cos=("min_cos", "min")
        )
        for key, info in buckets.items():
            got = fold.loc[int(key)] if int(key) in fold.index else None
            if got is None:
                continue
            if int(got["n"]) != int(info["n"]):
                violations.append(
                    f"bucket {key}: rows {int(got['n'])} != meta n "
                    f"{info['n']}"
                )
            if float(got["min_cos"]) < float(info["min_cos"]) - 1e-9:
                violations.append(
                    f"bucket {key}: member cos {got['min_cos']:.6g} below "
                    f"meta min_cos {info['min_cos']:.6g} (bound not "
                    "admissible)"
                )

    # global id uniqueness (ids only — a key-sized exchange, never vectors)
    files = [
        os.path.join(out_dir, r["path"])
        for r in spec_rows
        if os.path.exists(os.path.join(out_dir, r["path"]))
    ]
    if files and n_sum:
        id_col = meta["params"]["id_col"]
        dup = (
            ray.data.read_parquet(files, columns=[id_col])
            .groupby(id_col)
            .count()
            .map_batches(
                lambda t: pd.DataFrame(
                    {"dups": [int((t["count()"].to_numpy() > 1).sum())]}
                ),
                batch_format="pyarrow",
            )
            .to_pandas()["dups"]
            .sum()
        )
        if int(dup):
            violations.append(
                f"{int(dup)} vector ids appear in more than one layout row"
            )

    # radii sidecar for the CURRENT meta (stale fingerprints are unused)
    fp = hashlib.md5(json.dumps(meta, sort_keys=True).encode()).hexdigest()[
        :10
    ]
    radii_path = os.path.join(out_dir, f"radii-{fp}.json")
    if os.path.exists(radii_path) and len(res):
        with open(radii_path) as f:
            radii = np.asarray(json.load(f)["radii"], dtype=np.float64)
        if len(radii) != len(centroids):
            violations.append(
                f"radii sidecar has {len(radii)} entries != nlist "
                f"{len(centroids)}"
            )
        else:
            actual = res.groupby("centroid")["max_ang"].max()
            for c, ang in actual.items():
                if radii[int(c)] < float(ang) - 1e-9:
                    violations.append(
                        f"radii[{int(c)}]={radii[int(c)]:.6g} below actual "
                        f"member angle {ang:.6g} (probe bound inadmissible)"
                    )

    tomb_path = os.path.join(out_dir, "tombstones.json")
    if os.path.exists(tomb_path):
        with open(tomb_path) as f:
            tombs = json.load(f)
        arr = np.asarray(tombs.get("ids", []), dtype=np.int64)
        if len(arr) and not np.all(np.diff(arr) > 0):
            violations.append("tombstones.json not sorted strictly ascending")
        if int(tombs.get("n_deleted", len(arr))) != len(arr):
            violations.append(
                f"tombstones.json n_deleted={tombs.get('n_deleted')} != "
                f"{len(arr)} ids"
            )

    return {
        "ok": not violations,
        "violations": violations,
        "n_buckets": len(buckets),
        "n_vectors": n_sum,
    }
