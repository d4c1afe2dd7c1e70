#!/usr/bin/env python
"""1M-doc soak of the takedown lifecycle (tombstone deletes).

Reuses the serving soak's 1M-doc index (building it if absent), then:

- ``delete_docs`` of --n-deletes ids (validation pushdown read + atomic
  tombstone write) — the takedown ingestion rate
- engine reopen with tombstones (salt-partition + ship to searchers)
- hot-query top-k latency BEFORE vs AFTER deletes — the per-query cost
  of the ``_allowed_mask`` searchsorted mask at a 10k tombstone set
- correctness spot check: no victim in any post-delete result
- optional ``--purge``: ``compact_index`` rewrites every docs shard
  without its tombstoned rows and rebuilds — the merge throughput number

The index is restored (tombstones removed) on exit so sibling soak jobs
see the same corpus.

Usage: python jobs/soak_tombstones_job.py [--n-docs 1000000]
       [--n-deletes 10000] [--cpus 32] [--purge]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SOAK_ROOT = "/tmp/ttray_soak"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-docs", type=int, default=1_000_000)
    ap.add_argument("--n-deletes", type=int, default=10_000)
    ap.add_argument("--cpus", type=int, default=32)
    ap.add_argument("--purge", action="store_true")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )

    import numpy as np

    from jobs.soak_clean_job import build_corpus
    from torchtrajectory_ray.config import IndexConfig
    from torchtrajectory_ray.pipelines.build import compact_index, delete_docs
    from torchtrajectory_ray.pipelines.build import build_index
    from torchtrajectory_ray.state.engine import QueryEngine

    out: dict = {
        "n_docs": args.n_docs,
        "n_deletes": args.n_deletes,
        "cpus": args.cpus,
    }
    soak_dir = build_corpus(args.n_docs)
    idx_dir = os.path.join(SOAK_ROOT, f"idx-serving-{args.n_docs}")
    build_index(  # resumable: a finished build returns immediately
        sorted(
            os.path.join(soak_dir, "documents.parquet", p)
            for p in os.listdir(os.path.join(soak_dir, "documents.parquet"))
        ),
        idx_dir,
        IndexConfig(num_term_shards=16, num_salts=16),
    )
    tomb_path = os.path.join(idx_dir, "tombstones.json")
    if os.path.exists(tomb_path):
        os.remove(tomb_path)  # a crashed earlier run; start clean

    def timed(name, fn):
        t = time.monotonic()
        r = fn()
        out[f"{name}_s"] = round(time.monotonic() - t, 3)
        return r

    try:
        eng0 = QueryEngine(idx_dir)
        hot = eng0.term_dict.term.take(np.argsort(eng0.term_dict.df)[-4:]).to_pylist()
        queries = [hot[:2], hot[2:], [hot[0], hot[3]]]

        def run_queries(eng):
            return [eng.topk(q, k=10) for q in queries] + [
                eng.bool_and(queries[0])
            ]

        base = timed("topk_before", lambda: run_queries(eng0))
        victims = np.asarray(
            [d for r in base[:1] for d, _ in r[:2]], dtype=np.int64
        )
        all_ids = eng0.find_in_range()
        step = max(1, len(all_ids) // args.n_deletes)
        dels = np.union1d(all_ids[::step][: args.n_deletes], victims)
        out["n_deleted"] = int(dels.size)
        timed("delete_docs", lambda: delete_docs(idx_dir, dels))
        eng1 = timed("engine_reopen", lambda: QueryEngine(idx_dir))
        after = timed("topk_after", lambda: run_queries(eng1))
        got = {int(d) for r in after[:3] for d, _ in r} | set(
            after[3].tolist()
        )
        assert not (set(dels.tolist()) & got), "deleted doc served!"
        out["mask_overhead_pct"] = round(
            100.0 * (out["topk_after_s"] / max(out["topk_before_s"], 1e-9) - 1),
            1,
        )
        if args.purge:
            purged = os.path.join(SOAK_ROOT, f"idx-purged-{args.n_docs}")
            shutil.rmtree(purged, ignore_errors=True)
            timed("purge_compact", lambda: compact_index(idx_dir, purged))
            ep = QueryEngine(purged)
            out["purged_n_docs"] = int(ep.n_docs)
            assert ep.n_docs == eng0.n_docs - int(dels.size)
            out["purge_docs_per_s"] = round(
                ep.n_docs / out["purge_compact_s"], 1
            )
            shutil.rmtree(purged, ignore_errors=True)
    finally:
        if os.path.exists(tomb_path):
            os.remove(tomb_path)  # restore the shared soak index

    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
