#!/usr/bin/env python
"""``ray job submit``-able index-build entry point.

On a real cluster (inputs and --out on a filesystem every node mounts —
NFS/Lustre/FUSE-mounted object storage; plain s3:// URLs would need an
fsspec-aware glob/IO layer, which this job does not ship)::

    ray job submit --working-dir . -- \
        python jobs/build_index_job.py \
        --input '/mnt/shared/pages/*.parquet' \
        --out /mnt/shared/index-v1 \
        --term-shards 1024 --salts 256

In this sandbox (local mode)::

    python jobs/build_index_job.py --input '/tmp/corpus/*.parquet' \
        --out /tmp/idx

The job is resumable: re-submitting with the same --out skips finished
shards/segments (per-partition checkpoints) and a complete manifest
returns immediately.  Prints one JSON line of stage metrics on success.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# the flags that set IndexConfig fields: --compact-from / --merge-from
# honor the CLI config only when one of these differs from its default
CFG_FLAGS = (
    "term_shards", "salts", "batch_size", "doc_id_mode", "bad_rows",
    "store_positions", "tokenizer",
)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", default="", help="glob of raw-pages parquet files (unused with --compact-from)")
    ap.add_argument(
        "--input-format",
        choices=["parquet", "warc", "jsonl", "csv"],
        default="parquet",
        help="warc/jsonl inputs are first converted to canonical pages "
        "shards under OUT/ingest/ (one resumable task per file), then "
        "built normally",
    )
    ap.add_argument("--out", required=True, help="index output directory")
    ap.add_argument("--term-shards", type=int, default=8)
    ap.add_argument("--salts", type=int, default=8)
    ap.add_argument("--batch-size", type=int, default=4096)
    ap.add_argument("--doc-id-mode", choices=["dense", "url_hash"], default="dense")
    ap.add_argument("--bad-rows", choices=["raise", "drop"], default="raise")
    ap.add_argument(
        "--store-positions",
        action="store_true",
        help="store every occurrence position in the postings (the "
        "Lucene layout; phrase/span/NEAR then answer from the index alone)",
    )
    ap.add_argument(
        "--check",
        action="store_true",
        help="ignore --input and verify the integrity of the index at "
        "--out (CheckIndex: decode every payload, re-derive WAND block "
        "bounds, cross-check the dictionary and manifest stats); exits "
        "non-zero on violations",
    )
    ap.add_argument(
        "--tokenizer",
        default="default",
        help="tokenizer registry name (functions.text.TOKENIZERS)",
    )
    ap.add_argument(
        "--extend",
        action="store_true",
        help="append the inputs as a new GENERATION to the existing index "
        "at --out (incremental ingest; rank-identical to a full rebuild)",
    )
    ap.add_argument(
        "--compact-from",
        default=None,
        metavar="INDEX_DIR",
        help="ignore --input and rebuild the index at INDEX_DIR into "
        "--out from its own forward shards (generation merge + salt "
        "rebalance; doc ids and query answers preserved; tombstoned "
        "docs are purged physically and stats recomputed)",
    )
    ap.add_argument(
        "--merge-from",
        default=None,
        metavar="DIR1,DIR2,...",
        help="ignore --input and merge these independently built indexes "
        "into --out (cross-index segment merge; doc ids must be globally "
        "disjoint — use --doc-id-mode url_hash at build time; each "
        "source's tombstones are purged during staging)",
    )
    ap.add_argument(
        "--delete-ids",
        default=None,
        metavar="IDS",
        help="ignore --input and tombstone these doc ids in the index at "
        "--out (comma-separated, or @file with one id per line); masked "
        "from every query immediately, purged by the next --compact-from",
    )
    args = ap.parse_args()
    modes = (
        args.extend,
        args.compact_from,
        args.delete_ids,
        args.merge_from,
        args.check,
    )
    if sum(map(bool, modes)) > 1:
        ap.error(
            "--extend / --compact-from / --delete-ids / --merge-from / "
            "--check are mutually exclusive"
        )

    import ray

    if not ray.is_initialized():  # the job driver owns the session
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"))

    if args.check:
        from torchtrajectory_ray.pipelines.checkindex import check_index

        rep = check_index(args.out)
        print(json.dumps({"out": args.out, "cmd": "check", **rep}))
        ray.shutdown()
        raise SystemExit(0 if rep["ok"] else 1)

    from torchtrajectory_ray.config import IndexConfig
    from torchtrajectory_ray.pipelines.build import (
        build_index,
        compact_index,
        extend_index,
    )

    if args.delete_ids:
        from torchtrajectory_ray.pipelines.build import delete_docs

        if args.delete_ids.startswith("@"):
            with open(args.delete_ids[1:]) as f:
                ids = [int(x) for x in f.read().split()]
        else:
            ids = [int(x) for x in args.delete_ids.split(",")]
        res = delete_docs(args.out, ids)
        print(json.dumps({"out": args.out, "cmd": "delete", **res}))
        ray.shutdown()
        return

    no_input = bool(args.compact_from or args.merge_from)
    paths = [] if no_input else sorted(glob.glob(args.input))
    if paths and args.input_format != "parquet":
        ingest_dir = os.path.join(args.out, "ingest")
        if args.input_format == "warc":
            from torchtrajectory_ray.sources.warc import warc_to_parquet

            paths = warc_to_parquet(
                paths, ingest_dir, bad_records=args.bad_rows
            )
        elif args.input_format == "csv":
            from torchtrajectory_ray.sources.csvsrc import csv_to_parquet

            paths = csv_to_parquet(
                paths, ingest_dir, bad_records=args.bad_rows
            )
        else:
            from torchtrajectory_ray.sources.jsonl import jsonl_to_parquet

            paths = jsonl_to_parquet(
                paths, ingest_dir, bad_records=args.bad_rows
            )
    if not paths and not no_input:
        raise SystemExit(f"no input files match {args.input!r}")
    os.makedirs(args.out, exist_ok=True)
    cfg = IndexConfig(
        num_term_shards=args.term_shards,
        num_salts=args.salts,
        tokenize_batch_size=args.batch_size,
        doc_id_mode=args.doc_id_mode,
        bad_rows=args.bad_rows,
        store_positions=args.store_positions,
        tokenizer=args.tokenizer,
    )
    explicit = any(getattr(args, k) != ap.get_default(k) for k in CFG_FLAGS)
    if args.compact_from:
        # compaction defaults to the SOURCE index's config (tokenizer,
        # grid, bm25) — the CLI cfg is only honored when the user
        # explicitly set a config flag, otherwise the compacted index
        # would silently re-tokenize/re-shard under CLI defaults
        manifest = compact_index(
            args.compact_from, args.out, cfg if explicit else None
        )
    elif args.merge_from:
        from torchtrajectory_ray.pipelines.build import merge_indexes

        # same explicit-flag rule as --compact-from: default to the FIRST
        # source's config unless the user set one
        manifest = merge_indexes(
            args.merge_from.split(","), args.out, cfg if explicit else None
        )
    elif args.extend:
        manifest = extend_index(args.out, paths, cfg)
    else:
        manifest = build_index(paths, args.out, cfg)
    print(
        json.dumps(
            {
                "out": args.out,
                "n_inputs": len(paths),
                "resumed_complete": manifest.get("resumed_complete", False),
                "stats": manifest["stats"],
                "metrics": manifest.get("metrics"),
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
