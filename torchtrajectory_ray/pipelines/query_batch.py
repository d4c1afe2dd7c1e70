"""Batch query evaluation as a Ray Data pipeline.

The analog of the reference's query-serving layer run at corpus scale
(QueryPool wiring + per-query execute, /root/reference/src/main/java/au/
edu/rmit/bdm/Torch/queryEngine/query/QueryPool.java:28-158): a stateful
scorer ACTOR POOL — each actor opens the index once in ``__init__``
(segments + dictionary + doc store), then evaluates query batches in
``__call__`` — fed by a Dataset of queries and producing a Dataset of
ranked results.  Online single queries use :class:`QueryEngine` directly
(optionally ``distributed=True`` for a salt-parallel actor fan-out).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data

from torchtrajectory_ray.state.engine import QueryEngine


class BatchScorer:
    """map_batches actor: one full in-process engine per actor."""

    def __init__(
        self,
        index_dir: str,
        k: int = 10,
        method: str = "wand",
        scorer: str = "bm25",
    ):
        self.engine = QueryEngine(index_dir, scorer=scorer)
        self.k = k
        self.method = method

    def __call__(self, batch: pa.Table) -> pa.Table:
        names = set(batch.column_names)
        langs = batch["lang"].to_pylist() if "lang" in names else None
        los = batch["ts_lo"].to_pylist() if "ts_lo" in names else None
        his = batch["ts_hi"].to_pylist() if "ts_hi" in names else None
        out_q, out_r, out_d, out_s = [], [], [], []
        for i, (qid, terms) in enumerate(
            zip(batch["query_id"].to_pylist(), batch["terms"].to_pylist())
        ):
            res = self.engine.topk(
                list(terms),
                k=self.k,
                method=self.method,
                lang=langs[i] if langs else None,
                ts_lo=los[i] if los else None,
                ts_hi=his[i] if his else None,
            )
            for r, (d, s) in enumerate(res, 1):
                out_q.append(qid)
                out_r.append(r)
                out_d.append(d)
                out_s.append(s)
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "rank": pa.array(out_r, pa.int64()),
                "doc_id": pa.array(out_d, pa.int64()),
                "score": pa.array(out_s, pa.float64()),
            }
        )


def batch_topk_pipeline(
    index_dir: str,
    queries: list[dict],
    k: int = 10,
    method: str = "wand",
    concurrency: int = 4,
    batch_size: int = 64,
    scorer: str = "bm25",
) -> ray.data.Dataset:
    """queries [{query_id, terms}] → Dataset(query_id, rank, doc_id,
    score).  Engine state loads once per actor; queries stream through
    the pool with backpressure (size concurrency × batch_size to the
    query volume)."""
    has_filters = any(
        q.get("lang") is not None or q.get("ts_lo") is not None
        or q.get("ts_hi") is not None
        for q in queries
    )
    items = [
        {
            "query_id": int(q["query_id"]),
            "terms": list(q["terms"]),
            **(
                {
                    "lang": q.get("lang"),
                    "ts_lo": q.get("ts_lo"),
                    "ts_hi": q.get("ts_hi"),
                }
                if has_filters
                else {}
            ),
        }
        for q in queries
    ]
    qds = ray.data.from_items(items)
    return qds.map_batches(
        BatchScorer,
        fn_constructor_kwargs={
            "index_dir": index_dir,
            "k": k,
            "method": method,
            "scorer": scorer,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=(1, concurrency),
    )


def batch_topk_df(index_dir: str, queries: list[dict], **kw) -> pd.DataFrame:
    df = batch_topk_pipeline(index_dir, queries, **kw).to_pandas()
    return df.sort_values(["query_id", "rank"]).reset_index(drop=True)
