"""Iterative graph analytics over Ray Data: PageRank as Pregel-style
supersteps built from the repo's 256-way content-hash exchange.

The graph is the customer↔supplier purchase graph: an undirected edge
links a customer to every supplier that shipped a line of one of their
orders (derived by a co-partitioned ``orders ⋈ lineitem`` exchange on
orderkey — the big×big join shape of ``analytics.nation_revenue``).
Node ids disambiguate the two key spaces by parity: ``custkey*2`` and
``suppkey*2 + 1``.

Scale design (the 100-TB shape):
- Edge derivation is ONE orderkey-keyed exchange; the per-partition
  join is a vectorized pandas merge.
- Edges are then re-keyed by ``hash(src)`` and deduped per partition —
  global dedupe, since every copy of a (src, dst) pair lands in the
  same src partition — with outdegree computed locally (all of a
  node's out-edges are co-located by construction).
- Each PageRank superstep is the Pregel bound: one O(E) exchange moving
  (dst, rank/outdeg) contributions from src partitions to dst
  partitions (same hash ⇒ contributions co-locate with the node rows
  that absorb them), plus an O(V) rank materialization.  Nothing
  corpus-sized ever reaches the driver — the driver holds only N (one
  scalar) and the final (node, pr) table the caller asked for.
- Symmetric edges mean every node in the edge set has outdegree ≥ 1,
  so there is no dangling-mass term and Σ pr stays exactly 1 per
  iteration (up to float rounding).

Reference analog: the iterative-rounds shape of Torch's LEVI
incremental top-k (SearchWithLEVI.java) re-targeted to a global graph
fixpoint; the per-round exchange discipline follows the Pregel paper
(Malewicz et al., SIGMOD 2010 — public).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from torchtrajectory_ray.functions.single_task import run_single_task

DAMPING = 0.85
N_PARTS = 256


def _part_of(keys: np.ndarray) -> np.ndarray:
    """Fibonacci-hash top-byte partition (the exchange key used across
    the repo — see analytics.py / events.py)."""
    return (
        (keys.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
        >> np.uint64(56)
    ).astype(np.int32)


# Session-level cache of the materialized edge working set, keyed by
# sf_dir: every graph query over the same corpus reuses ONE derivation
# (the inputs are immutable parquet; the cached Dataset is O(E) rows of
# 4 scalar columns pinned in the object store — bounded and shared)
_EDGES_CACHE: dict[str, ray.data.Dataset] = {}


def clear_edge_cache() -> None:
    """Drop the cached edge working sets (cold-state reset for
    benchmarks; frees the pinned object-store blocks)."""
    _EDGES_CACHE.clear()


def _purchase_edges(sf_dir: str) -> ray.data.Dataset:
    """Distinct symmetric (src, dst) purchase edges with per-src
    outdegree, partitioned by ``hash(src)``.  Columns:
    ``part int32, src int64, dst int64, od float64``.  Cached per
    ``sf_dir`` for the session (see ``_EDGES_CACHE``)."""
    cached = _EDGES_CACHE.get(sf_dir)
    if cached is not None:
        return cached

    def order_side(batch: pa.Table) -> pa.Table:
        ok = batch["o_orderkey"].to_numpy()
        return pa.table(
            {
                "part": pa.array(_part_of(ok), pa.int32()),
                "okey": pa.array(ok, pa.int64()),
                "key": pa.array(
                    batch["o_custkey"].to_numpy().astype(np.int64) * 2,
                    pa.int64(),
                ),
                "side": pa.array(np.zeros(len(ok), np.int8), pa.int8()),
            }
        )

    def line_side(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy()
        return pa.table(
            {
                "part": pa.array(_part_of(ok), pa.int32()),
                "okey": pa.array(ok, pa.int64()),
                "key": pa.array(
                    batch["l_suppkey"].to_numpy().astype(np.int64) * 2 + 1,
                    pa.int64(),
                ),
                "side": pa.array(np.ones(len(ok), np.int8), pa.int8()),
            }
        )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    ).map_batches(order_side, batch_format="pyarrow")
    lines = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    ).map_batches(line_side, batch_format="pyarrow")

    def join_part(g: pd.DataFrame) -> pd.DataFrame:
        # customer×supplier pairs that share an orderkey, deduped
        # locally (global dedupe happens in the src partition below)
        o = g[g["side"] == 0][["okey", "key"]].rename(columns={"key": "cust"})
        l = g[g["side"] == 1][["okey", "key"]].rename(columns={"key": "supp"})
        m = o.merge(l, on="okey")[["cust", "supp"]].drop_duplicates()
        if m.empty:
            return pd.DataFrame(
                {
                    "part": pd.Series([], dtype=np.int32),
                    "src": pd.Series([], dtype=np.int64),
                    "dst": pd.Series([], dtype=np.int64),
                }
            )
        # both directions; parity keeps the two spaces disjoint
        src = np.concatenate([m["cust"].to_numpy(), m["supp"].to_numpy()])
        dst = np.concatenate([m["supp"].to_numpy(), m["cust"].to_numpy()])
        return pd.DataFrame(
            {"part": _part_of(src), "src": src, "dst": dst}
        )

    def dedupe_and_degree(g: pd.DataFrame) -> pd.DataFrame:
        # all copies of a (src, dst) pair share hash(src) ⇒ this
        # per-partition dedupe is global; outdegree is local for the
        # same reason
        e = g[["part", "src", "dst"]].drop_duplicates(["src", "dst"])
        od = e.groupby("src")["dst"].transform("size").astype(np.float64)
        return e.assign(od=od)

    edges = (
        orders.union(lines)
        .groupby("part")
        .map_groups(join_part, batch_format="pandas")
        .groupby("part")
        .map_groups(dedupe_and_degree, batch_format="pandas")
        .repartition(32)  # compact blocks: read 3× (once per superstep)
        .materialize()  # the iteration working set — reused every superstep
    )
    _EDGES_CACHE[sf_dir] = edges
    return edges


def _propagate(
    edges: ray.data.Dataset, scores: ray.data.Dataset, parity: int
) -> ray.data.Dataset:
    """One HITS half-step: for every edge ``src → dst`` with
    ``src % 2 == parity``, add ``score(src)`` into ``dst``'s sum.  Both
    inputs are partitioned by ``hash(key)`` (edges by src — the
    symmetric edge set holds both directions, so the parity filter
    selects the direction whose src side co-locates with ``scores``),
    so the join is partition-local and ONE exchange moves the pre-summed
    contributions to the dst partitions.  Returns ``part, node, c``."""

    def conv_edges(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy()
        keep = (src % 2) == parity
        n = int(keep.sum())
        return pa.table(
            {
                "part": batch["part"].to_numpy()[keep],
                "a": src[keep],
                "b": batch["dst"].to_numpy()[keep],
                "x": np.zeros(n, np.float64),
                "side": np.zeros(n, np.int8),
            }
        )

    def conv_scores(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "part": batch["part"],
                "a": batch["node"],
                "b": pa.array(np.zeros(n, np.int64), pa.int64()),
                "x": batch["s"],
                "side": pa.array(np.ones(n, np.int8), pa.int8()),
            }
        )

    def contrib_part(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["side"] == 0]
        r = g[g["side"] == 1][["a", "x"]].rename(columns={"a": "src", "x": "s"})
        m = e.merge(r, left_on="a", right_on="src")
        if m.empty:
            return pd.DataFrame(
                {
                    "part": pd.Series([], dtype=np.int32),
                    "node": pd.Series([], dtype=np.int64),
                    "c": pd.Series([], dtype=np.float64),
                }
            )
        out = (
            pd.DataFrame({"node": m["b"].to_numpy(), "c": m["s"].to_numpy()})
            .groupby("node", as_index=False)["c"]
            .sum()
        )
        out.insert(0, "part", _part_of(out["node"].to_numpy()))
        return out

    def absorb(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("node", as_index=False)["c"].sum()
        s.insert(0, "part", _part_of(s["node"].to_numpy()))
        return s[["part", "node", "c"]]

    return (
        edges.map_batches(conv_edges, batch_format="pyarrow")
        .union(scores.map_batches(conv_scores, batch_format="pyarrow"))
        .groupby("part")
        .map_groups(contrib_part, batch_format="pandas")
        .repartition(32)
        .materialize()
        .groupby("part")
        .map_groups(absorb, batch_format="pandas")
        .repartition(8)  # O(V) rows — keep the state block-compact
        .materialize()
    )


# Size-aware dispatch (the connected-components pattern,
# dedup.LOCAL_CC_MAX_ROWS): a symmetric edge set under this many rows
# (~100 MB working set) runs its whole fixpoint in ONE Ray task with
# numpy instead of paying O(iters) exchange rounds of pure scheduling
# overhead.  The superstep paths below remain the 100-TB shape for
# graphs that outgrow a worker; identity between the two paths is
# pytest-gated on the same corpus.
LOCAL_GRAPH_MAX_ROWS = 4_000_000


def _edge_index(t: pa.Table, extra_nodes: np.ndarray | None = None):
    """Dense node indexing for the local kernels: returns
    ``(nodes, src_idx, dst_idx)``.  Symmetric edges mean every graph
    node appears as a src; ``extra_nodes`` folds in seeds that may be
    absent from the graph."""
    src = t["src"].to_numpy()
    dst = t["dst"].to_numpy()
    nodes = np.unique(
        src if extra_nodes is None else np.concatenate((src, extra_nodes))
    )
    return nodes, np.searchsorted(nodes, src), np.searchsorted(nodes, dst)


def personalized_pagerank(
    sf_dir: str,
    seed_custkeys: list[int] | None = None,
    iters: int = 3,
    d: float = DAMPING,
) -> pd.DataFrame:
    """``node, ppr`` — personalized PageRank (random walk with restart
    — Page et al. 1999 §6, Jeh & Widom WWW 2003, both public) from the
    fixed seed customer set on the purchase graph: ``r'(v) =
    (1-d)·1_S(v)/|S| + d · Σ_{u→v} r(u)/outdeg(u)``, started from the
    uniform seed distribution.  Only nodes with nonzero mass after
    ``iters`` rounds appear (the frontier grows like BFS — O(reached)
    state, not O(V)).  The restart mass rides the contribution exchange
    as |S| extra message rows per superstep (value ``(1-d)/(d·|S|)``,
    so the shared ``teleport + d·Σ`` absorb emits exactly
    ``(1-d)/|S|`` for seeds with teleport = 0).  Scores rounded to
    6 dp; rows node-ascending."""
    seeds = sorted(
        {int(c) * 2 for c in (seed_custkeys or BFS_SEED_CUSTKEYS)}
    )
    seed_arr = np.asarray(seeds, np.int64)
    n_seeds = float(len(seed_arr))
    edges = _purchase_edges(sf_dir)

    n_edges = edges.count()
    if 0 < n_edges <= LOCAL_GRAPH_MAX_ROWS:

        def local(t: pa.Table) -> pa.Table:
            nodes, src_idx, dst_idx = _edge_index(t, seed_arr)
            seed_idx = np.searchsorted(nodes, seed_arr)
            w = (
                1.0 / t["od"].to_numpy()
                if len(t)
                else np.zeros(0, np.float64)
            )
            r = np.zeros(len(nodes))
            r[seed_idx] = 1.0 / n_seeds
            for _ in range(iters):
                r = d * np.bincount(
                    dst_idx, weights=r[src_idx] * w, minlength=len(nodes)
                )
                r[seed_idx] += (1.0 - d) / n_seeds
            keep = r > 0  # reached-only, like the frontier table
            return pa.table(
                {"node": pa.array(nodes[keep], pa.int64()),
                 "ppr": pa.array(np.round(r[keep], 6), pa.float64())}
            )

        return run_single_task(edges, local, n_edges).to_pandas().sort_values(
            "node", kind="mergesort"
        ).reset_index(drop=True)

    def rank_table(nodes: np.ndarray, r: np.ndarray) -> ray.data.Dataset:
        return ray.data.from_arrow(
            pa.table(
                {
                    "part": pa.array(_part_of(nodes), pa.int32()),
                    "node": pa.array(nodes, pa.int64()),
                    "r": pa.array(r, pa.float64()),
                }
            )
        )

    ranks = rank_table(seed_arr, np.full(len(seed_arr), 1.0 / n_seeds))
    # restart messages: constant every superstep, injected into the
    # contribution stream so absorb's d·Σ yields (1-d)/|S| at seeds
    restart = rank_table(
        seed_arr, np.full(len(seed_arr), (1.0 - d) / (d * n_seeds))
    )

    for _ in range(iters):

        def conv_edges(batch: pa.Table) -> pa.Table:
            n = len(batch)
            return pa.table(
                {
                    "part": batch["part"],
                    "a": batch["src"],
                    "b": batch["dst"],
                    "x": batch["od"],
                    "side": pa.array(np.zeros(n, np.int8), pa.int8()),
                }
            )

        def conv_ranks(batch: pa.Table) -> pa.Table:
            n = len(batch)
            return pa.table(
                {
                    "part": batch["part"],
                    "a": batch["node"],
                    "b": pa.array(np.zeros(n, np.int64), pa.int64()),
                    "x": batch["r"],
                    "side": pa.array(np.ones(n, np.int8), pa.int8()),
                }
            )

        def conv_restart(batch: pa.Table) -> pa.Table:
            n = len(batch)
            return pa.table(
                {
                    "part": batch["part"],
                    "a": batch["node"],
                    "b": batch["node"],
                    "x": batch["r"],
                    "side": pa.array(np.full(n, 2, np.int8), pa.int8()),
                }
            )

        def contrib_part(g: pd.DataFrame) -> pd.DataFrame:
            e = g[g["side"] == 0]
            r = g[g["side"] == 1][["a", "x"]].rename(
                columns={"a": "src", "x": "r"}
            )
            m = e.merge(r, left_on="a", right_on="src")
            msgs = [
                # restart rows pass through as self-messages
                g[g["side"] == 2][["b", "x"]].rename(
                    columns={"b": "node", "x": "c"}
                )
            ]
            if not m.empty:
                msgs.append(
                    pd.DataFrame(
                        {
                            "node": m["b"].to_numpy(),
                            "c": m["r"].to_numpy() / m["x"].to_numpy(),
                        }
                    )
                )
            out = (
                pd.concat(msgs, ignore_index=True)
                .groupby("node", as_index=False)["c"]
                .sum()
            )
            out.insert(0, "part", _part_of(out["node"].to_numpy()))
            return out

        def absorb(g: pd.DataFrame) -> pd.DataFrame:
            s = g.groupby("node", as_index=False)["c"].sum()
            s["r"] = d * s["c"]  # teleport folded into the restart rows
            s.insert(0, "part", _part_of(s["node"].to_numpy()))
            return s[["part", "node", "r"]]

        ranks = (
            edges.map_batches(conv_edges, batch_format="pyarrow")
            .union(
                ranks.map_batches(conv_ranks, batch_format="pyarrow"),
                restart.map_batches(conv_restart, batch_format="pyarrow"),
            )
            .groupby("part")
            .map_groups(contrib_part, batch_format="pandas")
            .repartition(32)
            .materialize()
            .groupby("part")
            .map_groups(absorb, batch_format="pandas")
            .repartition(8)
            .materialize()
        )

    out = ranks.to_pandas()[["node", "r"]]
    out["ppr"] = out["r"].round(6)
    return (
        out[["node", "ppr"]]
        .sort_values("node", kind="mergesort")
        .reset_index(drop=True)
        .astype({"node": np.int64})
    )


def copurchase_topk(
    sf_dir: str,
    k: int = 25,
    min_shared: int = 2,
    max_fanout: int = 4096,
) -> pd.DataFrame:
    """``cust_a, cust_b, shared`` — the ``k`` customer pairs sharing
    the most suppliers (ties cust_a-, then cust_b-ascending; strict
    total order ⇒ deterministic).  The bipartite wedge enumeration
    (Wang et al., "Butterfly Counting in Bipartite Networks", KDD
    2018 — public): supplier-keyed exchange co-locates each supplier's
    customer list, every supplier emits its C(deg, 2) customer pairs
    (vectorized ``np.triu_indices``) pre-summed per partition, then ONE
    pair-hash exchange produces global counts and the per-partition
    top-k under the same strict order merges exactly on the driver
    (disjoint partitions ⇒ ≤ 256·k driver rows — the repo's exact
    top-k pattern).

    Wedges grow quadratically in supplier degree, so a hub supplier is
    the scale hazard: any degree above ``max_fanout`` raises instead of
    silently emitting O(deg²) rows (the ``max_dup_hashes`` fail-loud
    convention).  At 10^12 docs, raise the cap knowingly or pre-split
    hubs."""
    edges = _purchase_edges(sf_dir)

    def wedge_part(g: pd.DataFrame) -> pd.DataFrame:
        # supplier-side rows: src odd ⇒ (supplier, customer), all of a
        # supplier's customers co-located by the hash(src) partitioning.
        # Pairs are packed into ONE int64 code (cust_a<<32 | cust_b,
        # cust_a < cust_b) so the per-partition combine is a single
        # np.unique — ~5× faster than a two-column pandas groupby and
        # the code's natural order IS (cust_a, cust_b)-ascending.
        sub = g[g["src"] % 2 == 1]
        codes: list[np.ndarray] = []
        for _, grp in sub.groupby("src"):
            cust = np.sort(grp["dst"].to_numpy() >> 1)  # node id → custkey
            d = len(cust)
            if d > max_fanout:
                raise ValueError(
                    f"supplier fanout {d} exceeds max_fanout={max_fanout}; "
                    "raise the cap or pre-split hub suppliers"
                )
            if d < 2:
                continue
            i, j = np.triu_indices(d, 1)
            codes.append((cust[i] << np.int64(32)) | cust[j])
        if not codes:
            return pa.table(
                {
                    "part": pa.array([], pa.int32()),
                    "code": pa.array([], pa.int64()),
                }
            )
        # NO local combine: a pair rarely repeats within one supplier
        # partition (measured dup factor ≈ 1.00 at sf0.1), so a local
        # np.unique would sort all the wedges for nothing — ship the
        # codes raw with implicit count 1 and count once, globally, in
        # the pair partition.  Arrow out: the downstream exchange sorts
        # these 172M-row-scale blocks zero-copy.
        code = np.concatenate(codes)
        return pa.table(
            {
                "part": pa.array(_part_of(code), pa.int32()),
                "code": pa.array(code, pa.int64()),
            }
        )

    def topk_part(g: pd.DataFrame) -> pd.DataFrame:
        # all copies of a pair share hash(code) ⇒ these counts are global
        uniq, tot = np.unique(g["code"].to_numpy(), return_counts=True)
        keep = tot >= min_shared
        uniq, tot = uniq[keep], tot[keep].astype(np.int64)
        # strict (shared DESC, code ASC) order; codes are unique here
        order = np.lexsort((uniq, -tot))[:k]
        return pd.DataFrame({"code": uniq[order], "shared": tot[order]})

    cand = (
        edges.groupby("part")
        .map_groups(wedge_part, batch_format="pandas")
        .groupby("part")
        .map_groups(topk_part, batch_format="pandas")
    ).to_pandas()
    code = cand["code"].to_numpy(dtype=np.int64)
    out = pd.DataFrame(
        {
            "cust_a": code >> np.int64(32),
            "cust_b": code & np.int64(0xFFFFFFFF),
            "shared": cand["shared"].to_numpy(),
        }
    )
    return (
        out.sort_values(
            ["shared", "cust_a", "cust_b"],
            ascending=[False, True, True],
            kind="mergesort",
        )
        .head(k)
        .reset_index(drop=True)
        .astype({"cust_a": np.int64, "cust_b": np.int64, "shared": np.int64})
    )


# Fixed BFS workload: seed customers 1..3 (node ids 2,4,6 after the
# parity encoding) — present at every scale factor
BFS_SEED_CUSTKEYS: list[int] = [1, 2, 3]


def purchase_bfs(
    sf_dir: str, hops: int = 3, seed_custkeys: list[int] | None = None
) -> pd.DataFrame:
    """``node, dist`` — BFS hop distance from the seed customer set on
    the undirected purchase graph, Bellman-Ford style min-propagation
    (the Pregel SSSP shape — Malewicz et al., SIGMOD 2010; the
    reference's shortest-path state is the ST2 analog,
    ``TorGraph.java`` path cache): ``dist'(v) = min(dist(v),
    min_{u→v} dist(u)+1)`` for ``hops`` rounds.  Nodes still unreached
    after ``hops`` rounds are absent from the result (the frontier
    table only ever holds reached nodes — O(reached), not O(V)).
    Rows node-ascending."""
    seeds = sorted(
        {int(c) * 2 for c in (seed_custkeys or BFS_SEED_CUSTKEYS)}
    )
    edges = _purchase_edges(sf_dir)

    seed_arr = np.asarray(seeds, np.int64)

    n_edges = edges.count()
    if 0 < n_edges <= LOCAL_GRAPH_MAX_ROWS:
        n_hops = hops

        def local(t: pa.Table) -> pa.Table:
            nodes, src_idx, dst_idx = _edge_index(t, seed_arr)
            big = np.iinfo(np.int64).max - 1
            dist = np.full(len(nodes), big, np.int64)
            dist[np.searchsorted(nodes, seed_arr)] = 0
            for _ in range(n_hops):
                relaxed = dist.copy()
                np.minimum.at(relaxed, dst_idx, dist[src_idx] + 1)
                dist = relaxed
            keep = dist < big
            return pa.table(
                {"node": pa.array(nodes[keep], pa.int64()),
                 "dist": pa.array(dist[keep], pa.int64())}
            )

        return run_single_task(edges, local, n_edges).to_pandas().sort_values(
            "node", kind="mergesort"
        ).reset_index(drop=True)

    dist = ray.data.from_arrow(
        pa.table(
            {
                "part": pa.array(_part_of(seed_arr), pa.int32()),
                "node": pa.array(seed_arr, pa.int64()),
                "d": pa.array(np.zeros(len(seed_arr), np.int64), pa.int64()),
            }
        )
    )

    for _ in range(hops):

        def conv_edges(batch: pa.Table) -> pa.Table:
            n = len(batch)
            return pa.table(
                {
                    "part": batch["part"],
                    "a": batch["src"],
                    "b": batch["dst"],
                    "x": pa.array(np.zeros(n, np.int64), pa.int64()),
                    "side": pa.array(np.zeros(n, np.int8), pa.int8()),
                }
            )

        def conv_dist(batch: pa.Table) -> pa.Table:
            n = len(batch)
            return pa.table(
                {
                    "part": batch["part"],
                    "a": batch["node"],
                    "b": pa.array(np.zeros(n, np.int64), pa.int64()),
                    "x": batch["d"],
                    "side": pa.array(np.ones(n, np.int8), pa.int8()),
                }
            )

        def relax_part(g: pd.DataFrame) -> pd.DataFrame:
            d = g[g["side"] == 1][["a", "x"]].rename(
                columns={"a": "src", "x": "d"}
            )
            e = g[g["side"] == 0]
            m = e.merge(d, left_on="a", right_on="src")
            # messages: dist(u)+1 toward each neighbor, pre-min'd per
            # (partition, dst); the node's own current dist rides along
            # as a message to itself so the absorb min covers self
            msgs = [
                pd.DataFrame({"node": d["src"].to_numpy(), "nd": d["d"].to_numpy()})
            ]
            if not m.empty:
                msgs.append(
                    pd.DataFrame(
                        {"node": m["b"].to_numpy(), "nd": m["d"].to_numpy() + 1}
                    )
                )
            out = (
                pd.concat(msgs, ignore_index=True)
                .groupby("node", as_index=False)["nd"]
                .min()
            )
            out.insert(0, "part", _part_of(out["node"].to_numpy()))
            return out

        def absorb(g: pd.DataFrame) -> pd.DataFrame:
            s = g.groupby("node", as_index=False)["nd"].min()
            s = s.rename(columns={"nd": "d"})
            s.insert(0, "part", _part_of(s["node"].to_numpy()))
            return s[["part", "node", "d"]]

        dist = (
            edges.map_batches(conv_edges, batch_format="pyarrow")
            .union(dist.map_batches(conv_dist, batch_format="pyarrow"))
            .groupby("part")
            .map_groups(relax_part, batch_format="pandas")
            .repartition(32)
            .materialize()
            .groupby("part")
            .map_groups(absorb, batch_format="pandas")
            .repartition(8)
            .materialize()
        )

    out = dist.to_pandas()[["node", "d"]].rename(columns={"d": "dist"})
    return (
        out.sort_values("node", kind="mergesort")
        .reset_index(drop=True)
        .astype({"node": np.int64, "dist": np.int64})
    )


def purchase_hits(sf_dir: str, iters: int = 2) -> pd.DataFrame:
    """``node, kind, score`` — HITS hubs-and-authorities (Kleinberg,
    JACM 1999 — public) after ``iters`` rounds on the directed
    customer→supplier purchase graph: customers are hubs, suppliers
    authorities.  Per round, ``a(s) = Σ_{c→s} h(c)`` then L1-normalize,
    ``h(c) = Σ_{c→s} a(s)`` then L1-normalize, starting from
    ``h0 ≡ 1``.  Sum-normalization needs one driver SCALAR per
    half-step (an O(V) aggregate) — the state itself stays partitioned;
    the propagation reuses the PageRank exchange (:func:`_propagate`).
    Scores rounded to 6 dp; rows (kind, node)-ascending."""
    edges = _purchase_edges(sf_dir)

    n_edges = edges.count()
    if 0 < n_edges <= LOCAL_GRAPH_MAX_ROWS:

        def local(t: pa.Table) -> pa.Table:
            empty = pa.table(
                {"node": pa.array([], pa.int64()),
                 "kind": pa.array([], pa.string()),
                 "score": pa.array([], pa.float64())}
            )
            if len(t) == 0:
                return empty
            nodes, src_idx, dst_idx = _edge_index(t)
            even = (t["src"].to_numpy() % 2) == 0
            h = np.where(nodes % 2 == 0, 1.0, 0.0)
            a = np.zeros(len(nodes))
            for _ in range(iters):
                a = np.bincount(
                    dst_idx[even], weights=h[src_idx[even]],
                    minlength=len(nodes),
                )
                a /= a.sum()
                h = np.bincount(
                    dst_idx[~even], weights=a[src_idx[~even]],
                    minlength=len(nodes),
                )
                h /= h.sum()
            ka, kh = a > 0, h > 0
            return pa.table(
                {
                    "node": pa.array(
                        np.concatenate((nodes[ka], nodes[kh])), pa.int64()
                    ),
                    "kind": pa.array(
                        ["auth"] * int(ka.sum()) + ["hub"] * int(kh.sum())
                    ),
                    "score": pa.array(
                        np.round(np.concatenate((a[ka], h[kh])), 6),
                        pa.float64(),
                    ),
                }
            )

        out = run_single_task(edges, local, n_edges).to_pandas()
        return (
            out.sort_values(["kind", "node"], kind="mergesort")
            .reset_index(drop=True)
            .astype({"node": np.int64})
        )

    def hub_nodes(g: pd.DataFrame) -> pd.DataFrame:
        nodes = g.loc[g["src"] % 2 == 0, "src"].drop_duplicates().to_numpy()
        return pd.DataFrame(
            {
                "part": np.full(len(nodes), g["part"].iloc[0], np.int32),
                "node": nodes,
                "s": np.ones(len(nodes), np.float64),
            }
        )

    hubs = (
        edges.groupby("part").map_groups(hub_nodes, batch_format="pandas")
    ).materialize()
    if hubs.count() == 0:
        return pd.DataFrame(
            {"node": pd.Series([], dtype=np.int64),
             "kind": pd.Series([], dtype=object),
             "score": pd.Series([], dtype=np.float64)}
        )

    def _normalize(raw: ray.data.Dataset) -> ray.data.Dataset:
        total = float(raw.sum("c"))

        def div(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "part": batch["part"],
                    "node": batch["node"],
                    "s": pa.array(
                        batch["c"].to_numpy() / total, pa.float64()
                    ),
                }
            )

        return raw.map_batches(div, batch_format="pyarrow")

    auths: ray.data.Dataset | None = None
    for _ in range(iters):
        # authority update walks customer→supplier edges (even src);
        # hub update walks the reverse direction (odd src)
        auths = _normalize(_propagate(edges, hubs, parity=0))
        hubs = _normalize(_propagate(edges, auths, parity=1))

    def finish(ds: ray.data.Dataset, kind: str) -> pd.DataFrame:
        out = ds.to_pandas()[["node", "s"]]
        out["kind"] = kind
        out["score"] = out["s"].round(6)
        return out[["node", "kind", "score"]]

    res = pd.concat(
        [finish(auths, "auth"), finish(hubs, "hub")], ignore_index=True
    )
    return (
        res.sort_values(["kind", "node"], kind="mergesort")
        .reset_index(drop=True)
        .astype({"node": np.int64})
    )


def purchase_pagerank(
    sf_dir: str, iters: int = 3, d: float = DAMPING
) -> pd.DataFrame:
    """``node, pr`` — PageRank after ``iters`` power iterations on the
    customer↔supplier purchase graph, uniform 1/N start, damping ``d``:
    ``pr'(v) = (1-d)/N + d · Σ_{u→v} pr(u)/outdeg(u)``.  Exactly the
    unrolled-SQL oracle's recurrence; scores rounded to 6 dp."""
    edges = _purchase_edges(sf_dir)

    n_edges = edges.count()
    if 0 < n_edges <= LOCAL_GRAPH_MAX_ROWS:

        def local(t: pa.Table) -> pa.Table:
            if len(t) == 0:
                return pa.table(
                    {"node": pa.array([], pa.int64()),
                     "pr": pa.array([], pa.float64())}
                )
            nodes, src_idx, dst_idx = _edge_index(t)
            w = 1.0 / t["od"].to_numpy()
            r = np.full(len(nodes), 1.0 / len(nodes))
            teleport = (1.0 - d) / len(nodes)
            for _ in range(iters):
                r = teleport + d * np.bincount(
                    dst_idx, weights=r[src_idx] * w, minlength=len(nodes)
                )
            return pa.table(
                {"node": pa.array(nodes, pa.int64()),
                 "pr": pa.array(np.round(r, 6), pa.float64())}
            )

        return run_single_task(edges, local, n_edges).to_pandas().sort_values(
            "node", kind="mergesort"
        ).reset_index(drop=True)

    def node_rows(g: pd.DataFrame) -> pd.DataFrame:
        nodes = g["src"].drop_duplicates().to_numpy()
        return pd.DataFrame(
            {
                "part": np.full(len(nodes), g["part"].iloc[0], np.int32),
                "node": nodes,
            }
        )

    nodes = (
        edges.groupby("part").map_groups(node_rows, batch_format="pandas")
    ).materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        return pd.DataFrame(
            {"node": pd.Series([], dtype=np.int64),
             "pr": pd.Series([], dtype=np.float64)}
        )
    r_init = 1.0 / float(n_nodes)
    teleport = (1.0 - d) / float(n_nodes)

    def _tag(ds: ray.data.Dataset, side: int, rank_col: bool) -> ray.data.Dataset:
        # normalize to the union schema (part, a, b, x, side):
        # edges: a=src, b=dst, x=outdeg; ranks: a=node, x=rank
        def conv(batch: pa.Table) -> pa.Table:
            n = len(batch)
            if side == 0:
                a, b, x = batch["src"], batch["dst"], batch["od"]
            else:
                a = batch["node"]
                b = pa.array(np.zeros(n, np.int64), pa.int64())
                x = batch["r"] if rank_col else pa.array(
                    np.full(n, r_init), pa.float64()
                )
            return pa.table(
                {
                    "part": batch["part"],
                    "a": a,
                    "b": b,
                    "x": x,
                    "side": pa.array(np.full(n, side, np.int8), pa.int8()),
                }
            )

        return ds.map_batches(conv, batch_format="pyarrow")

    # ranks start as the node table itself (r = 1/N attached in _tag)
    ranks: ray.data.Dataset | None = None
    for _ in range(iters):
        rank_side = (
            _tag(nodes, 1, rank_col=False)
            if ranks is None
            else _tag(ranks, 1, rank_col=True)
        )

        def contrib_part(g: pd.DataFrame) -> pd.DataFrame:
            e = g[g["side"] == 0]
            r = g[g["side"] == 1][["a", "x"]].rename(
                columns={"a": "src", "x": "r"}
            )
            m = e.merge(r, left_on="a", right_on="src")
            if m.empty:
                return pd.DataFrame(
                    {
                        "part": pd.Series([], dtype=np.int32),
                        "node": pd.Series([], dtype=np.int64),
                        "c": pd.Series([], dtype=np.float64),
                    }
                )
            dst = m["b"].to_numpy()
            # pre-sum per (partition, dst) so the exchange moves at most
            # one row per (src-partition, dst) pair
            out = (
                pd.DataFrame({"node": dst, "c": m["r"].to_numpy() / m["x"].to_numpy()})
                .groupby("node", as_index=False)["c"]
                .sum()
            )
            out.insert(0, "part", _part_of(out["node"].to_numpy()))
            return out

        contribs = (
            rank_side.union(_tag(edges, 0, rank_col=False))
            .groupby("part")
            .map_groups(contrib_part, batch_format="pandas")
            # the Pregel message buffer: O(E)-bounded, materialized so
            # the two all-to-all exchanges of a superstep never sit in
            # one streaming DAG (back-to-back sorts pipeline poorly);
            # repartitioned to a FIXED block count — group-wise output
            # otherwise inflates the block count every superstep and
            # each iteration gets slower than the last
            .repartition(32)
            .materialize()
        )

        def absorb(g: pd.DataFrame) -> pd.DataFrame:
            s = g.groupby("node", as_index=False)["c"].sum()
            s["r"] = teleport + d * s["c"]
            s.insert(0, "part", _part_of(s["node"].to_numpy()))
            return s[["part", "node", "r"]]

        # symmetric edges ⇒ every node has in-edges, so the contrib
        # table already covers all nodes — no left-join against the
        # node list is needed
        ranks = (
            contribs.groupby("part")
            .map_groups(absorb, batch_format="pandas")
            .repartition(8)  # O(V) rows — keep the state block-compact
            .materialize()
        )

    out = ranks.to_pandas()[["node", "r"]]
    out["pr"] = out["r"].round(6)
    return (
        out[["node", "pr"]]
        .sort_values("node", kind="mergesort")
        .reset_index(drop=True)
        .astype({"node": np.int64})
    )
