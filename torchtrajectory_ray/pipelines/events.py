"""Windowed aggregates over the ``events`` stream table.

Ray Data is a batch engine — windows are expressed as per-batch partial
aggregation keyed by (key, window bucket) followed by a small groupby
over the partials (the streaming-shaped-workload pattern; analog of the
reference's sliding-window index recompute, clustering/Streaming/
Streaming.java:25-46, recast as tumbling event-time buckets).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import ray.data
from ray.data.aggregate import Sum

from torchtrajectory_ray.functions.single_task import run_single_task

HOUR_US = 3_600_000_000


def _agg_rounded(parts: ray.data.Dataset, keys: list[str]) -> ray.data.Dataset:
    """Shared tail of every windowed aggregate: small groupby over the
    partials + 6dp rounding of the float sum (one definition so rounding
    and aggregation cannot drift between window flavors)."""
    out = parts.groupby(keys).aggregate(
        Sum("n_events", alias_name="n_events"),
        Sum("sum_value", alias_name="sum_value"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("sum_value"),
            "sum_value",
            pa.array(np.round(batch["sum_value"].to_numpy(), 6)),
        )

    return out.map_batches(finish, batch_format="pyarrow")


def tumbling_hour_agg(sf_dir: str) -> ray.data.Dataset:
    """event_type, window_start_us, n_events, sum_value — 1-hour tumbling
    windows by event time.  Partial-aggregates inside map_batches so the
    shuffle moves one row per (type, window) per batch, not per event."""

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy()
        win = (ts // HOUR_US) * HOUR_US
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pylist(),
                "window_start_us": win,
                "value": batch["value"].to_numpy(),
            }
        )
        g = df.groupby(["event_type", "window_start_us"], as_index=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return _agg_rounded(
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
        ).map_batches(partial, batch_format="pyarrow"),
        ["event_type", "window_start_us"],
    )


SLIDE_US = 900_000_000  # 15 min


def sliding_hour_agg(sf_dir: str) -> ray.data.Dataset:
    """1-hour windows sliding every 15 min: each event replicates into
    hour/slide = 4 windows inside ``map_batches`` (vectorized repeat), then
    the same partial-agg + small-groupby shape as the tumbling window."""
    k = HOUR_US // SLIDE_US  # windows covering each event

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy()
        base = ts // SLIDE_US  # last slide boundary ≤ ts
        offs = np.arange(k, dtype=np.int64)
        win = (base[:, None] - offs[None, :]) * SLIDE_US  # n × k
        df = pd.DataFrame(
            {
                "event_type": np.repeat(
                    np.asarray(batch["event_type"].to_pylist(), dtype=object), k
                ),
                "window_start_us": win.reshape(-1),
                "value": np.repeat(batch["value"].to_numpy(), k),
            }
        )
        g = df.groupby(["event_type", "window_start_us"], as_index=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return _agg_rounded(
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
        ).map_batches(partial, batch_format="pyarrow"),
        ["event_type", "window_start_us"],
    )


def prop_k_stats(sf_dir: str) -> ray.data.Dataset:
    """k_bucket, n_events, sum_value — aggregate keyed on a field parsed
    out of the JSON ``props`` column (the semi-structured payload path:
    parse per batch, never ship raw JSON through the shuffle)."""
    import json as _json

    def partial(batch: pa.Table) -> pa.Table:
        ks = np.fromiter(
            (_json.loads(p)["k"] for p in batch["props"].to_pylist()),
            np.int64,
            batch.num_rows,
        )
        df = pd.DataFrame(
            {"k_bucket": ks // 10, "value": batch["value"].to_numpy()}
        )
        g = df.groupby("k_bucket", as_index=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return _agg_rounded(
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["props", "value"]
        ).map_batches(partial, batch_format="pyarrow"),
        ["k_bucket"],
    )


SESSION_GAP_US = 1_800_000_000  # 30 min


def session_windows(sf_dir: str) -> ray.data.Dataset:
    """Per-user session windows (gap > 30 min splits): the per-key ordered
    stateful op — a 256-way hash exchange on ``user_id`` with a
    vectorized sessionizer (sort, diff, cumsum) per partition.  The
    sessionizer orders its own rows, so the exchange only needs each
    user's events CO-LOCATED — a sort-based ``groupby(user_id)``'s
    global order would be thrown away.  The analog of the reference's
    per-car windowed index state (clustering/Streaming/
    Streaming.java:25-46) keyed by user instead of car."""

    def add_part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy().astype(np.uint64)
        # Fibonacci-hash the key so consecutive user_ids spread across
        # partitions (the partition key only places rows)
        part = (
            (uid * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(56)
        ).astype(np.int32)
        return batch.append_column("part", pa.array(part, pa.int32()))

    def sessionize(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized over EVERY user present (one call may carry many
        # users): session breaks at user boundaries or gaps > 30 min,
        # one cumsum, one grouped reduce — no per-user Python loop
        g = g.sort_values(["user_id", "ts"])
        ts = g["ts"].astype("int64").to_numpy()
        uid = g["user_id"].to_numpy()
        new = np.ones(len(ts), np.int64)
        same = uid[1:] == uid[:-1]
        new[1:] = np.where(same & (np.diff(ts) <= SESSION_GAP_US), 0, 1)
        gid = np.cumsum(new)
        out = pd.DataFrame({"user_id": uid, "gid": gid, "t": ts}).groupby(
            ["user_id", "gid"], as_index=False
        ).agg(
            n_events=("t", "size"),
            session_start_us=("t", "min"),
            session_end_us=("t", "max"),
        )
        out["session_id"] = out.groupby("user_id").cumcount() + 1
        return out[
            ["user_id", "session_id", "n_events",
             "session_start_us", "session_end_us"]
        ]

    return (
        ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(sessionize, batch_format="pandas")
    )


DAY_US = 86_400_000_000


def asof_join(
    sf_dir: str,
    left_type: str = "click",
    right_type: str = "purchase",
    tolerance_us: int | None = None,
) -> ray.data.Dataset:
    """Point-in-time (as-of) join: for every LEFT-type event, the same
    user's most recent RIGHT-type event at-or-before it — the "state of
    the world when X happened" lookup (here: the purchase each click
    follows).  With ``tolerance_us`` set, the match must additionally
    fall inside the trailing window (the range-join flavor); since the
    latest prior match is unique, tolerance only BLANKS a match that is
    too old, it never changes which row matches.

    Shape: both sides live in the same stream, so ONE pruned read + a
    256-way hash exchange on ``user_id`` co-locates each user's events,
    and a vectorized ``pd.merge_asof`` per partition does the backward
    search (two sorts + one galloping merge — no per-row Python, no
    sort-based shuffle: the merge re-derives the per-user order itself,
    a global sort would be paid and thrown away).  At 100 TB the
    exchange is the only wide step and its key count is bounded at 256;
    skew is bounded by the largest single user.

    Ties (two RIGHT rows at the same (user_id, ts)) are broken toward
    the largest event_id on BOTH sides of the gate: the kernel sorts
    the right side by (ts, event_id) and merge_asof takes the last
    qualifying row; the SQL oracle dedupes with a row_number() window
    before its ASOF JOIN.  Unmatched rows keep the schema null-free via
    the COALESCE convention (-1 ids / 0.0 value).

    Analog of the reference's time-constrained result filtering
    (queryEngine/query/TrajectoryResolver.java:116 meetTimeConstrain —
    a per-trajectory temporal predicate against a reference span),
    generalized to the per-key temporal JOIN the reference's windowed
    streaming state implies (clustering/Streaming/Streaming.java:25-46).
    """

    def add_part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy().astype(np.uint64)
        # Fibonacci-hash the key so consecutive user_ids spread across
        # partitions (the partition key only places rows)
        part = (
            (uid * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(56)
        ).astype(np.int32)
        return batch.append_column("part", pa.array(part, pa.int32()))

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        # normalize to epoch microseconds whatever the source unit
        t = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        et = g["event_type"].to_numpy()
        base = pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "t": t,
                "value": g["value"].to_numpy(),
            }
        )
        a = base.loc[et == left_type, ["event_id", "user_id", "t"]]
        b = base.loc[et == right_type].rename(
            columns={"event_id": "match_event_id", "value": "match_value"}
        )
        b["match_ts_us"] = b["t"]
        # merge_asof requires the on-key sorted on both sides; sorting b
        # by (t, event_id) makes the largest event_id the LAST row at a
        # tied timestamp, which backward-search then picks
        a = a.sort_values("t", kind="mergesort")
        b = b.sort_values(["t", "match_event_id"], kind="mergesort")
        j = pd.merge_asof(
            a,
            b,
            on="t",
            by="user_id",
            direction="backward",
            tolerance=None if tolerance_us is None else int(tolerance_us),
        )
        miss = j["match_event_id"].isna().to_numpy()
        return pd.DataFrame(
            {
                "event_id": j["event_id"].to_numpy().astype(np.int64),
                "user_id": j["user_id"].to_numpy().astype(np.int64),
                "ts_us": j["t"].to_numpy().astype(np.int64),
                "match_event_id": np.where(
                    miss, -1, j["match_event_id"].to_numpy()
                ).astype(np.int64),
                "match_ts_us": np.where(
                    miss, -1, j["match_ts_us"].to_numpy()
                ).astype(np.int64),
                "match_value": np.where(miss, 0.0, j["match_value"].to_numpy()),
            }
        )

    return (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "ts", "user_id", "event_type", "value"],
            filter=pads.field("event_type").isin([left_type, right_type]),
        )
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(kernel, batch_format="pandas")
    )


QUANTILE_PS = tuple(p / 10.0 for p in range(1, 10))
KMV_K = 4096


def value_quantiles(
    sf_dir: str, k: int = KMV_K, ps=QUANTILE_PS
) -> "pd.DataFrame":
    """Streaming quantile sketch over the continuous ``value`` column:
    a bottom-k (KMV) hash sample keyed on ``mix64(event_id)`` — the
    deterministic, mergeable, fixed-size uniform sample
    (functions/kmv.py) — then ``quantile_disc`` over the sampled
    values.  Rank error is O(1/sqrt(k)) for ANY value distribution; at
    k >= n the sample is the whole column and the estimate is EXACT.

    Scale shape: one pruned read; each batch emits at most k (hash,
    value) partial rows; a 256-way exchange keyed on the hash's top
    byte reduces each bucket to its own bottom-k (the union of
    per-bucket bottom-k always contains the global bottom-k, since a
    globally-minimal hash is minimal within its bucket too); the driver
    folds at most 256·k rows — bounded at ANY corpus size, the
    cardinality_hll discipline.  One pass, no sort of the corpus.
    """
    from torchtrajectory_ray.functions.kmv import bottom_k, mix64, quantile_disc

    def partial(batch: pa.Table) -> pa.Table:
        h = mix64(batch["event_id"].to_numpy())
        h, v = bottom_k(h, batch["value"].to_numpy(), k)
        part = (h >> np.uint64(56)).astype(np.int32)
        return pa.table(
            {
                "part": pa.array(part, pa.int32()),
                "h": pa.array(h, pa.uint64()),
                "value": pa.array(v, pa.float64()),
            }
        )

    def bucket_fold(g: pd.DataFrame) -> pd.DataFrame:
        h, v = bottom_k(
            g["h"].to_numpy().astype(np.uint64), g["value"].to_numpy(), k
        )
        return pd.DataFrame({"h": h, "value": v})

    cand = (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id", "value"]
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(bucket_fold, batch_format="pandas")
        .to_pandas()  # bounded: <= 256 * k rows at any corpus size
    )
    h, v = bottom_k(
        cand["h"].to_numpy().astype(np.uint64), cand["value"].to_numpy(), k
    )
    est = quantile_disc(v, ps)
    return pd.DataFrame({"q": np.asarray(ps, np.float64), "est": est})


def value_quantiles_check(sf_dir: str, k: int = KMV_K) -> "pd.DataFrame":
    """Driver-checkable gate for the KMV quantile sketch (the
    cardinality_hll_check pattern): a second exact streaming pass counts
    rows strictly below / at-or-below each estimate, and
    ``within_bound`` asserts the two-sided rank bracket

        count(value < est_p)/n <= p + eps   and
        count(value <= est_p)/n >= p - eps,    eps = 3*sqrt(p(1-p)/m) + 1/m

    (m = sample size) — the tie-safe form of "the estimate's rank is
    within 3 sigma of p·n" that stays valid when mass concentrates on a
    single value.  The SQL oracle emits the constant 1, so any sketch
    break (hash, fold, estimator) flips the flag and hash-mismatches.
    The certification pass exists for the GATE; production consumers
    run value_quantiles alone (one pass)."""
    est = value_quantiles(sf_dir, k)
    ps = est["q"].to_numpy()
    thr = est["est"].to_numpy()  # nondecreasing: same sorted sample

    def counts(batch: pa.Table) -> pa.Table:
        v = np.sort(batch["value"].to_numpy())
        return pa.table(
            {
                "i": pa.array(np.arange(len(thr)), pa.int64()),
                "lt": pa.array(
                    np.searchsorted(v, thr, side="left"), pa.int64()
                ),
                "le": pa.array(
                    np.searchsorted(v, thr, side="right"), pa.int64()
                ),
                "n": pa.array(np.full(len(thr), len(v)), pa.int64()),
            }
        )

    folded = (
        ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
        .map_batches(counts, batch_format="pyarrow")
        .groupby("i")
        .aggregate(
            Sum("lt", alias_name="lt"),
            Sum("le", alias_name="le"),
            Sum("n", alias_name="n"),
        )
        .to_pandas()
        .sort_values("i")
    )
    n = int(folded["n"].iloc[0])
    m = min(k, n)
    eps = 3.0 * np.sqrt(ps * (1.0 - ps) / m) + 1.0 / m
    ok = (folded["lt"].to_numpy() / n <= ps + eps) & (
        folded["le"].to_numpy() / n >= ps - eps
    )
    return pd.DataFrame(
        {
            "q": ps,
            "n_rows": np.full(len(ps), n, np.int64),
            "within_bound": ok.astype(np.int64),
        }
    )


def value_quantiles_by_type(
    sf_dir: str, k: int = 1024, ps=QUANTILE_PS
) -> "pd.DataFrame":
    """Per-group KMV quantiles: an independent bottom-k sample per
    ``event_type`` (the grouped-sketch discipline, as
    heavy_terms_per_lang is to heavy_terms).  Partials stay bounded at
    n_types x k rows per block, the exchange carries only partials, and
    the driver folds n_types x k x 256 rows at most — group count is the
    only scale knob (a high-cardinality group key would swap the plain
    groupby for the top-byte exchange of value_quantiles).
    """
    from torchtrajectory_ray.functions.kmv import bottom_k, mix64, quantile_disc

    def partial(batch: pa.Table) -> pa.Table:
        h_all = mix64(batch["event_id"].to_numpy())
        v_all = batch["value"].to_numpy()
        t_all = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        hs, vs, ts = [], [], []
        for t in np.unique(t_all):  # a handful of groups, not rows
            m = t_all == t
            h, v = bottom_k(h_all[m], v_all[m], k)
            hs.append(h)
            vs.append(v)
            ts.append(np.full(len(h), t, dtype=object))
        return pa.table(
            {
                "event_type": pa.array(np.concatenate(ts), pa.string()),
                "h": pa.array(np.concatenate(hs), pa.uint64()),
                "value": pa.array(np.concatenate(vs), pa.float64()),
            }
        )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        # one call may carry several groups: reduce each independently
        out = []
        for t, sub in g.groupby("event_type", sort=True):
            h, v = bottom_k(
                sub["h"].to_numpy().astype(np.uint64),
                sub["value"].to_numpy(),
                k,
            )
            est = quantile_disc(v, ps)
            out.append(
                pd.DataFrame(
                    {
                        "event_type": t,
                        "q": np.asarray(ps, np.float64),
                        "est": est,
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    return (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "event_type", "value"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(fold, batch_format="pandas")
        .to_pandas()  # bounded: n_types x len(ps) rows
        .sort_values(["event_type", "q"])
        .reset_index(drop=True)
    )


def value_quantiles_by_type_check(sf_dir: str, k: int = 1024) -> "pd.DataFrame":
    """Per-group rank-bracket certification of value_quantiles_by_type
    (the value_quantiles_check pattern, one bracket per (type, q)); the
    SQL oracle emits per-type row counts and the constant flag."""
    est = value_quantiles_by_type(sf_dir, k)
    types = est["event_type"].unique()
    thr = {t: est.loc[est.event_type == t, "est"].to_numpy() for t in types}
    ps = est.loc[est.event_type == types[0], "q"].to_numpy()

    def counts(batch: pa.Table) -> pa.Table:
        t_all = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        v_all = batch["value"].to_numpy()
        rows = []
        for t in np.unique(t_all):
            if t not in thr:
                continue
            v = np.sort(v_all[t_all == t])
            rows.append(
                pd.DataFrame(
                    {
                        "event_type": t,
                        "i": np.arange(len(ps)),
                        "lt": np.searchsorted(v, thr[t], side="left"),
                        "le": np.searchsorted(v, thr[t], side="right"),
                        "n": len(v),
                    }
                )
            )
        if not rows:  # empty batch / no known groups
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "i": pa.array([], pa.int64()),
                    "lt": pa.array([], pa.int64()),
                    "le": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        return pa.Table.from_pandas(
            pd.concat(rows, ignore_index=True), preserve_index=False
        )

    folded = (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "value"]
        )
        .map_batches(counts, batch_format="pyarrow")
        .groupby(["event_type", "i"])
        .aggregate(
            Sum("lt", alias_name="lt"),
            Sum("le", alias_name="le"),
            Sum("n", alias_name="n"),
        )
        .to_pandas()
        .sort_values(["event_type", "i"])
        .reset_index(drop=True)
    )
    p = ps[folded["i"].to_numpy()]
    n = folded["n"].to_numpy()
    m = np.minimum(k, n)
    eps = 3.0 * np.sqrt(p * (1.0 - p) / m) + 1.0 / m
    ok = (folded["lt"].to_numpy() / n <= p + eps) & (
        folded["le"].to_numpy() / n >= p - eps
    )
    return pd.DataFrame(
        {
            "event_type": folded["event_type"],
            "q": p,
            "n_rows": n.astype(np.int64),
            "within_bound": ok.astype(np.int64),
        }
    )


def event_deltas(sf_dir: str) -> ray.data.Dataset:
    """Per-user ordered LAG: for every event with a predecessor in its
    user's (ts, event_id)-ordered stream, the gap to that predecessor in
    microseconds — the window-function shape (LAG OVER PARTITION BY)
    the sessionizer special-cases into gap breaks.  Same exchange as
    :func:`session_windows` (users co-located by content hash, NO global
    sort — each partition orders its own rows), vectorized diff per
    partition.  Analog of the reference's per-car consecutive-point
    deltas (map-matching consumes ordered per-vehicle streams,
    mapmatching/MapMatching.java timeline walk)."""

    def add_part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy().astype(np.uint64)
        part = (
            (uid * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(56)
        ).astype(np.int32)
        return batch.append_column("part", pa.array(part, pa.int32()))

    def lag_diff(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized pass over every user in the partition:
        # (user_id, ts, event_id) lexsort, diff, mask user boundaries
        g = g.sort_values(["user_id", "ts", "event_id"])
        uid = g["user_id"].to_numpy()
        ts = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        eid = g["event_id"].to_numpy()
        same = np.zeros(len(g), bool)
        same[1:] = uid[1:] == uid[:-1]
        gap = np.empty(len(g), np.int64)
        gap[1:] = ts[1:] - ts[:-1]
        return pd.DataFrame(
            {
                "event_id": eid[same],
                "user_id": uid[same],
                "gap_us": gap[same],
            }
        )

    return (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
        )
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(lag_diff, batch_format="pandas")
    )


_QUANTILE_QS = (0.25, 0.5, 0.75, 0.9, 0.99)
_SELECT_BINS = 512
_SELECT_LOCAL_MAX = 65_536


def exact_quantiles(
    sf_dir: str,
    qs: tuple[float, ...] = _QUANTILE_QS,
    *,
    bins: int = _SELECT_BINS,
    local_max: int = _SELECT_LOCAL_MAX,
) -> pd.DataFrame:
    """EXACT discrete quantiles (``quantile_disc`` semantics: the element
    at 1-indexed rank ``max(1, ceil(q*n))``) of ``events.value`` by
    distributed selection — the "median of 100 TB" operator.  No global
    sort and no driver materialization of the column: each round
    histograms the rows still in play into ``bins`` equal-width brackets
    via per-batch partials (one ``bins``-long int vector per batch,
    summed on the driver), descends into the bin containing each target
    rank, and once that bin holds ≤ ``local_max`` rows pulls exactly
    those rows and reads the rank element off a local sort.  All ``qs``
    share each pass (one histogram narrows every open rank at once);
    convergence is geometric in ``bins``, and a bracket that collapses
    below float spacing resolves through a bounded distinct-value pass
    (duplicate-heavy columns converge to ONE point, whose few distinct
    fp neighbours are enumerable).  Invariants: ``rank`` stays GLOBAL
    (1-indexed over all rows); every pass recomputes ``below`` =
    rows < lo, so no cross-pass count drift can accumulate."""
    path = f"{sf_dir}/events.parquet"
    ds = ray.data.read_parquet(path, columns=["value"])

    def stats_part(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy()
        return pa.table(
            {
                "n": pa.array([len(v)], pa.int64()),
                "lo": pa.array([float(v.min()) if len(v) else np.inf]),
                "hi": pa.array([float(v.max()) if len(v) else -np.inf]),
            }
        )

    from torchtrajectory_ray.functions import rankselect

    n = int(ds.count())  # free from parquet metadata on a pruned read
    if n == 0:
        return pd.DataFrame({"q": np.array(qs), "value": np.nan})
    qrank = {q: max(1, int(np.ceil(q * n))) for q in qs}
    if n <= rankselect.LOCAL_SELECT_MAX_ROWS:
        # size-aware single-task fast path (rankselect.LOCAL_SELECT_MAX_ROWS
        # dispatch): one in-task sort answers every quantile at once
        rs = np.array(sorted(set(qrank.values())), np.int64)

        def local(t: pa.Table) -> pa.Table:
            sv = np.sort(t["value"].to_numpy().astype(np.float64))
            return pa.table(
                {"r": pa.array(rs, pa.int64()),
                 "v": pa.array(sv[rs - 1], pa.float64())}
            )

        got = run_single_task(ds, local, n).to_pandas()
        vmap = {int(r): float(v) for r, v in zip(got["r"], got["v"])}
        return pd.DataFrame(
            {"q": np.array(qs, np.float64),
             "value": [vmap[qrank[q]] for q in qs]}
        )
    st = ds.map_batches(stats_part, batch_format="pyarrow").to_pandas()
    lo0, hi0 = float(st["lo"].min()), float(st["hi"].max())
    targets = [
        {"q": q, "rank": qrank[q], "lo": lo0, "hi": hi0}
        for q in qs
    ]
    answers: dict[float, float] = {}

    def hist_pass(brackets):
        """One distributed pass: per bracket, (rows < lo, counts over
        ``bins`` equal-width bins of [lo, hi] — right-open except the
        last, numpy.histogram semantics)."""
        bnd = [np.linspace(lo, hi, bins + 1) for lo, hi in brackets]

        def partial(batch: pa.Table) -> pa.Table:
            v = batch["value"].to_numpy()
            cols: dict = {}
            for i, (lo, hi) in enumerate(brackets):
                cols[f"below_{i}"] = [int((v < lo).sum())]
                sel = v[(v >= lo) & (v <= hi)]
                cols[f"hist_{i}"] = [
                    np.histogram(sel, bins=bnd[i])[0].astype(np.int64)
                ]
                cols[f"vmin_{i}"] = [float(sel.min()) if len(sel) else np.inf]
                cols[f"vmax_{i}"] = [float(sel.max()) if len(sel) else -np.inf]
            return pa.table(cols)

        parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        out = []
        for i in range(len(brackets)):
            below = int(parts[f"below_{i}"].sum())
            h = np.sum(np.stack(parts[f"hist_{i}"].to_numpy()), axis=0)
            vmin = float(parts[f"vmin_{i}"].min())
            vmax = float(parts[f"vmax_{i}"].max())
            out.append((below, h, vmin, vmax))
        return out

    def pull_rank(lo: float, hi: float, inclusive: bool, rank_in: int) -> float:
        """Fetch the (bounded) rows of one bin and read the exact rank
        element; ``rank_in`` is 1-indexed within the bin's sorted rows."""

        def grab(batch: pa.Table) -> pa.Table:
            v = batch["value"].to_numpy()
            m = (v >= lo) & ((v <= hi) if inclusive else (v < hi))
            return pa.table({"v": [np.sort(v[m]).astype(np.float64)]})

        got = ds.map_batches(grab, batch_format="pyarrow").to_pandas()
        allv = np.sort(np.concatenate(list(got["v"].to_numpy())))
        return float(allv[rank_in - 1])

    def distinct_rank(lo: float, hi: float, rank_in: int) -> float:
        """Degenerate (sub-fp-spacing) bracket: enumerate its distinct
        values + counts (bounded — the bracket spans ~a few ulps) and
        walk the counts to the rank element."""

        def uniq(batch: pa.Table) -> pa.Table:
            v = batch["value"].to_numpy()
            sel = v[(v >= lo) & (v <= hi)]
            u, c = np.unique(sel, return_counts=True)
            return pa.table({"u": [u.astype(np.float64)], "c": [c]})

        got = ds.map_batches(uniq, batch_format="pyarrow").to_pandas()
        u = np.concatenate(list(got["u"].to_numpy()))
        c = np.concatenate(list(got["c"].to_numpy())).astype(np.int64)
        order = np.argsort(u, kind="stable")
        s = pd.Series(c[order]).groupby(u[order]).sum()
        cum = s.cumsum().to_numpy()
        return float(s.index.to_numpy()[int(np.searchsorted(cum, rank_in))])

    while any(t["q"] not in answers for t in targets):
        open_ts = [t for t in targets if t["q"] not in answers]
        res = hist_pass([(t["lo"], t["hi"]) for t in open_ts])
        for t, (below, h, vmin, vmax) in zip(open_ts, res):
            r = t["rank"] - below  # 1-indexed rank within [lo, hi]
            if vmin == vmax:
                # one distinct value fills the bracket (massive tie):
                # answer directly instead of narrowing to fp spacing
                answers[t["q"]] = vmin
                continue
            edges = np.linspace(t["lo"], t["hi"], bins + 1)
            if not np.all(np.diff(edges) > 0):  # fp-collapsed bracket
                answers[t["q"]] = distinct_rank(t["lo"], t["hi"], r)
                continue
            cum = np.cumsum(h)
            j = int(np.searchsorted(cum, r))
            lo_new, hi_new = float(edges[j]), float(edges[j + 1])
            r_in_bin = r - (int(cum[j - 1]) if j else 0)
            last = j == bins - 1  # histogram's last bin is right-INclusive
            if int(h[j]) <= local_max:
                answers[t["q"]] = pull_rank(lo_new, hi_new, last, r_in_bin)
            else:
                # descend: next pass recomputes below for the new lo, so
                # the global rank carries over unchanged
                t["lo"], t["hi"] = lo_new, hi_new
                if not last:
                    # rows == hi_new belong to bin j+1; shrink hi just
                    # below it so the bracket matches the bin exactly
                    t["hi"] = float(np.nextafter(hi_new, lo_new))
    return pd.DataFrame(
        {"q": np.array(qs, np.float64), "value": [answers[q] for q in qs]}
    )


N_TIME_BRACKETS = 16


def time_bracket_join(sf_dir: str, n_brackets: int = N_TIME_BRACKETS) -> pd.DataFrame:
    """Broadcast RANGE join: per (time bracket × event_type) aggregates
    where the brackets are a small derived interval table joined on
    ``lo_us <= ts < hi_us`` — the non-equi join Ray Data has no native
    operator for.  Two stages:

    1. a tiny min/max aggregate pass pins the global time span;
    2. the bracket edges (``n_brackets + 1`` int64 values — the "small
       side" of the range join) ride into every task by closure (the
       broadcast-lookup shape, J2/J5; at a real small-side size this is
       a ``ray.put`` handle) and each batch classifies its rows with ONE
       ``searchsorted`` against the sorted edges — a vectorized interval
       probe, no per-row predicate evaluation, no shuffle join.

    Edge math is ALL-INTEGER (``lo_i = tmin + span*i // n``, right-open
    except that ``hi`` of the last bracket is ``tmax+1``) so the Ray and
    SQL sides classify boundary rows identically — no float-edge ulp
    hazard.  Analog of the reference's tile-membership probe (grid cell
    = a 2-D range bracket, index/GridIndex.java tileInfo), flattened to
    the time axis."""
    path = f"{sf_dir}/events.parquet"
    ds = ray.data.read_parquet(path, columns=["ts", "event_type", "value"])

    def mm_part(batch: pa.Table) -> pa.Table:
        t = batch["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
        return pa.table(
            {
                "tmin": pa.array([int(t.min())], pa.int64()),
                "tmax": pa.array([int(t.max())], pa.int64()),
            }
        )

    mm = ds.map_batches(mm_part, batch_format="pyarrow").to_pandas()
    tmin, tmax = int(mm["tmin"].min()), int(mm["tmax"].max())
    span = tmax - tmin + 1  # python int: no overflow in span * i
    edges = np.array(
        [tmin + (span * i) // n_brackets for i in range(n_brackets + 1)],
        np.int64,
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = batch["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
        # right-open brackets: edges[i] <= t < edges[i+1]; every row of
        # the span lands in exactly one bracket by construction
        bid = np.searchsorted(edges, t, side="right") - 1
        df = pd.DataFrame(
            {
                "bracket_id": bid.astype(np.int64),
                "event_type": batch["event_type"].to_pylist(),
                "value": batch["value"].to_numpy(),
            }
        )
        g = df.groupby(["bracket_id", "event_type"], as_index=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["bracket_id", "event_type"])
        .sum(["n_events", "sum_value"])
        .to_pandas()
    )
    out.rename(
        columns={"sum(n_events)": "n_events", "sum(sum_value)": "sum_value"},
        inplace=True,
    )
    if not {"n_events", "sum_value"} <= set(out.columns):  # fail loud
        raise RuntimeError(f"unexpected aggregate schema: {list(out.columns)}")
    bid = out["bracket_id"].to_numpy()
    out["lo_us"] = edges[bid]
    out["hi_us"] = edges[bid + 1]
    out["n_events"] = out["n_events"].astype("int64")
    out["sum_value"] = out["sum_value"].round(6)
    return (
        out[["bracket_id", "lo_us", "hi_us", "event_type", "n_events", "sum_value"]]
        .sort_values(["bracket_id", "event_type"])
        .reset_index(drop=True)
    )


def rolling_user_mean(sf_dir: str) -> ray.data.Dataset:
    """Per-user rolling mean over the trailing 3-row frame (ROWS BETWEEN
    2 PRECEDING AND CURRENT ROW in the (ts, event_id) order) — the
    window-FRAME aggregate, where :func:`event_deltas` is the LAG shape.
    Same 256-way user co-location exchange; the kernel builds each
    frame sum from the two masked shifts directly (oldest term first,
    matching the frame's left-to-right accumulation) instead of a
    prefix-sum difference, so no long-prefix cancellation can creep
    into the 6dp gate."""

    def add_part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy().astype(np.uint64)
        part = (
            (uid * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(56)
        ).astype(np.int32)
        return batch.append_column("part", pa.array(part, pa.int32()))

    def frame_mean(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        uid = g["user_id"].to_numpy()
        v = g["value"].to_numpy()
        n = len(g)
        same1 = np.zeros(n, bool)
        same1[1:] = uid[1:] == uid[:-1]
        same2 = np.zeros(n, bool)
        same2[2:] = uid[2:] == uid[:-2]
        v1 = np.empty(n)
        v1[1:] = v[:-1]
        v2 = np.empty(n)
        v2[2:] = v[:-2]
        s = np.where(same2, v2, 0.0) + np.where(same1, v1, 0.0) + v
        cnt = 1 + same1.astype(np.int64) + same2.astype(np.int64)
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": uid,
                "avg3": np.round(s / cnt, 6),
            }
        )

    return (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "user_id", "ts", "value"],
        )
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(frame_mean, batch_format="pandas")
    )


def latest_event_per_user(sf_dir: str) -> ray.data.Dataset:
    """Group-wise argmax: each user's LAST event (max (ts, event_id)),
    with the full row carried — the "current state per key" reduce.
    Combiner discipline: every batch first reduces to one row per user
    IN that batch (vectorized lexsort + take-last, no Python loop), so
    the exchange moves at most one row per (user × batch); the same
    kernel re-reduces each hash partition to the final winner.  The
    tie (two events at one (user, ts)) is broken toward the larger
    event_id by the lexsort order on both levels.  Analog of the
    reference's per-trajectory latest-point state (TrajectoryPool's
    newest-position map, torch/TrajectoryPool.java)."""

    def argmax_rows(df: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort(
            (df["event_id"].to_numpy(), df["ts_us"].to_numpy(),
             df["user_id"].to_numpy())
        )
        uid = df["user_id"].to_numpy()[order]
        last = np.ones(len(uid), bool)
        last[:-1] = uid[1:] != uid[:-1]
        return df.iloc[order[last]]

    def combine(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": batch["user_id"].to_numpy(),
                "event_id": batch["event_id"].to_numpy(),
                "ts_us": batch["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(),
                "event_type": batch["event_type"].to_pylist(),
                "value": batch["value"].to_numpy(),
            }
        )
        df = argmax_rows(df)
        uid = df["user_id"].to_numpy().astype(np.uint64)
        df["part"] = (
            (uid * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(56)
        ).astype(np.int32)
        return pa.Table.from_pandas(df, preserve_index=False)

    def reduce_part(g: pd.DataFrame) -> pd.DataFrame:
        out = argmax_rows(g)
        return out[["user_id", "event_id", "ts_us", "event_type", "value"]]

    return (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "ts", "user_id", "event_type", "value"],
        )
        .map_batches(combine, batch_format="pyarrow")
        .groupby("part")
        .map_groups(reduce_part, batch_format="pandas")
    )


def funnel_conversions(sf_dir: str) -> ray.data.Dataset:
    """Ordered-sequence containment per user (funnel analysis): for
    every user with a 'view' event followed STRICTLY later by a
    'purchase', the gap from their first view to the first purchase
    after it.  Event-type rows are pruned at the read (two of five
    types leave storage); users are co-located by the same Fibonacci
    content-hash exchange as the sessionizer; each partition resolves
    all its users in vectorized pandas passes (min-view per user, then
    min qualifying purchase) — the per-vehicle ordered-timeline shape
    the reference walks in map-matching, expressed as one exchange +
    one kernel."""

    def add_part(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy().astype(np.uint64)
        part = (
            (uid * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(56)
        ).astype(np.int32)
        return batch.append_column("part", pa.array(part, pa.int32()))

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["ts"].astype("datetime64[us]").astype("int64")
        g = pd.DataFrame(
            {"user_id": g["user_id"], "et": g["event_type"], "ts_us": ts}
        )
        first_view = (
            g[g["et"] == "view"].groupby("user_id")["ts_us"].min().rename("view_us")
        )
        pur = g[g["et"] == "purchase"].merge(
            first_view, left_on="user_id", right_index=True
        )
        pur = pur[pur["ts_us"] > pur["view_us"]]
        if pur.empty:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype=np.int64),
                    "gap_us": pd.Series([], dtype=np.int64),
                }
            )
        conv = pur.groupby("user_id", as_index=False).agg(
            p_us=("ts_us", "min"), view_us=("view_us", "first")
        )
        return pd.DataFrame(
            {
                "user_id": conv["user_id"].astype(np.int64),
                "gap_us": (conv["p_us"] - conv["view_us"]).astype(np.int64),
            }
        )

    import pyarrow.dataset as pads

    return (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["user_id", "event_type", "ts"],
            filter=pads.field("event_type").isin(["view", "purchase"]),
        )
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(kernel, batch_format="pandas")
    )


def quantiles_cont(
    sf_dir: str, qs: tuple[float, ...] = _QUANTILE_QS
) -> pd.DataFrame:
    """EXACT interpolated quantiles (``quantile_cont`` semantics:
    linear interpolation at position ``q·(n−1)``) of ``events.value``
    — the continuous companion to :func:`exact_quantiles`, sharing the
    distributed rank-selection machinery (functions/rankselect).  Each
    quantile needs the order statistics at ranks ⌊pos⌋+1 and ⌈pos⌉+1;
    the selector resolves ALL distinct ranks in shared histogram
    passes, so the whole vector costs the same passes as one rank."""
    from torchtrajectory_ray.functions.rankselect import select_ranks

    path = f"{sf_dir}/events.parquet"

    def make_ds():
        return ray.data.read_parquet(path, columns=["value"])

    n = int(make_ds().count())
    if n == 0:
        return pd.DataFrame({"q": np.array(qs), "value": np.nan})
    ranks: set[int] = set()
    spec = []
    for q in qs:
        pos = q * (n - 1)  # 0-indexed fractional position
        r0, r1 = int(np.floor(pos)) + 1, int(np.ceil(pos)) + 1
        frac = pos - np.floor(pos)
        spec.append((q, r0, r1, frac))
        ranks.update((r0, r1))
    got = select_ranks(make_ds, "value", sorted(ranks))
    vals = [
        got[r0] + f * (got[r1] - got[r0]) if r1 != r0 else got[r0]
        for (_, r0, r1, f) in spec
    ]
    return pd.DataFrame(
        {"q": np.array(qs, np.float64), "value": np.round(vals, 6)}
    )


def _cont_rank_value(make_ds, col: str, q: float, n: int) -> float:
    """Interpolated order statistic at fraction ``q`` (quantile_cont
    semantics) via the shared distributed rank selector."""
    from torchtrajectory_ray.functions.rankselect import select_ranks

    pos = q * (n - 1)
    r0, r1 = int(np.floor(pos)) + 1, int(np.ceil(pos)) + 1
    got = select_ranks(make_ds, col, sorted({r0, r1}))
    if r0 == r1:
        return float(got[r0])
    f = pos - np.floor(pos)
    return float(got[r0] + f * (got[r1] - got[r0]))


def value_mad(sf_dir: str) -> pd.DataFrame:
    """Robust dispersion: the median and the median absolute deviation
    of ``events.value`` — TWO chained distributed selections.  The
    second runs over a TRANSFORMED stream (|v − median| computed inside
    ``map_batches`` on each pass), which is the point: the rank
    selector composes over any derived column without materializing
    it, so MAD costs the same bounded driver state as the median
    itself.  Matches DuckDB's ``median``/``mad`` (linear interpolation
    at even n, verified)."""
    path = f"{sf_dir}/events.parquet"

    def make_ds():
        return ray.data.read_parquet(path, columns=["value"])

    n = int(make_ds().count())
    if n == 0:
        return pd.DataFrame({"stat": ["median", "mad"], "value": [np.nan] * 2})

    from torchtrajectory_ray.functions import rankselect

    if n <= rankselect.LOCAL_SELECT_MAX_ROWS:
        # fused single-task fast path (the _robust_stats_by_type shape,
        # ungrouped): both chained selections in ONE kernel

        def local(t: pa.Table) -> pa.Table:
            v = t["value"].to_numpy().astype(np.float64)

            def cont_med(sv: np.ndarray) -> float:
                pos = 0.5 * (len(sv) - 1)
                r0, r1 = int(np.floor(pos)), int(np.ceil(pos))
                f = pos - np.floor(pos)
                return float(sv[r0] + f * (sv[r1] - sv[r0]))

            m = cont_med(np.sort(v))
            d = cont_med(np.sort(np.abs(v - m)))
            return pa.table({"med": pa.array([m]), "mad": pa.array([d])})

        got = run_single_task(make_ds(), local, n).to_pandas()
        return pd.DataFrame(
            {"stat": ["median", "mad"],
             "value": np.round(
                 [float(got["med"][0]), float(got["mad"][0])], 6
             ).astype(np.float64)}
        )

    med = _cont_rank_value(make_ds, "value", 0.5, n)

    def make_dev_ds():
        def dev(batch: pa.Table) -> pa.Table:
            v = batch["value"].to_numpy()
            return pa.table({"dev": np.abs(v - med)})

        return ray.data.read_parquet(path, columns=["value"]).map_batches(
            dev, batch_format="pyarrow"
        )

    mad = _cont_rank_value(make_dev_ds, "dev", 0.5, n)
    return pd.DataFrame(
        {"stat": ["median", "mad"],
         "value": np.round([med, mad], 6).astype(np.float64)}
    )


def exact_median_by_type(sf_dir: str) -> pd.DataFrame:
    """EXACT per-group median (``median(value) GROUP BY event_type``,
    interpolated at even group sizes) — GROUPED distributed selection:
    all (group, rank) targets share every histogram pass
    (functions/rankselect.select_ranks_by_group), so five groups cost
    the same corpus reads as one; no global or per-group sort, driver
    state O(bins × groups).  The exact companion to the per-group KMV
    sketch (:func:`value_quantiles_by_type`)."""
    from torchtrajectory_ray.functions.rankselect import select_ranks_by_group

    path = f"{sf_dir}/events.parquet"

    def make_ds():
        return ray.data.read_parquet(path, columns=["event_type", "value"])

    def count_part(batch: pa.Table) -> pa.Table:
        g = (
            batch.select(["event_type"])
            .to_pandas()
            .groupby("event_type", as_index=False)
            .size()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (
        make_ds()
        .map_batches(count_part, batch_format="pyarrow")
        .to_pandas()
        .groupby("event_type")["size"]
        .sum()
    )
    ranks_of: dict = {}
    spec: dict = {}
    for g, n_g in counts.items():
        pos = 0.5 * (int(n_g) - 1)
        r0, r1 = int(np.floor(pos)) + 1, int(np.ceil(pos)) + 1
        ranks_of[g] = [r0, r1]
        spec[g] = (r0, r1, pos - np.floor(pos))
    got = select_ranks_by_group(make_ds, "value", "event_type", ranks_of)
    rows = []
    for g in sorted(spec):
        r0, r1, f = spec[g]
        v0, v1 = got[g][r0], got[g][r1]
        rows.append(
            {"event_type": g,
             "median_value": round(v0 if r0 == r1 else v0 + f * (v1 - v0), 6)}
        )
    return pd.DataFrame(rows)


_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def user_event_pivot(sf_dir: str) -> ray.data.Dataset:
    """PIVOT: one row per user with a count column per event type
    (``SUM(CASE WHEN ...)`` in SQL).  Per-batch crosstab partials
    reduce each batch to ≤1 row per (user × batch) with the five
    counters already split, so the user-keyed hash exchange moves
    pre-pivoted partials, never events; per-partition sums finish it.
    The grouped-combiner discipline of latest_event_per_user applied
    to a wide (columnar) aggregate."""

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["user_id", "event_type"]).to_pandas()
        g = pd.crosstab(df["user_id"], df["event_type"])
        for et in _EVENT_TYPES:
            if et not in g.columns:
                g[et] = 0
        g = g[list(_EVENT_TYPES)].reset_index()
        g.columns = ["user_id"] + [f"n_{et}" for et in _EVENT_TYPES]
        uid = g["user_id"].to_numpy().astype(np.uint64)
        g["part"] = (
            (uid * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(56)
        ).astype(np.int32)
        return pa.Table.from_pandas(g, preserve_index=False)

    cols = [f"n_{et}" for et in _EVENT_TYPES]

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("user_id", as_index=False)[cols].sum()
        for c in cols:
            out[c] = out[c].astype(np.int64)
        return out

    return (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(fold, batch_format="pandas")
    )


_FIB = np.uint64(0x9E3779B97F4A7C15)


def _user_part(uid: np.ndarray) -> np.ndarray:
    """The shared Fibonacci content-hash partition key on user_id (256
    partitions) — one definition so every user-keyed exchange in this
    module co-locates identically."""
    return ((uid.astype(np.uint64) * _FIB) >> np.uint64(56)).astype(np.int32)


def cohort_retention(sf_dir: str) -> pd.DataFrame:
    """Cohort retention: users grouped by their FIRST-activity day
    (the cohort), counted on each subsequent day they were active —
    ``(cohort_day_us, offset_days, n_users)``.  The classic
    product-analytics triangle, expressed as one user-keyed exchange:

    1. each batch reduces to its DISTINCT ``(user, day)`` pairs
       (vectorized lexsort + boundary mask — the activity-calendar
       combiner), so the exchange moves at most one row per
       (user × day × batch), never events;
    2. each hash partition owns all of its users' pairs, so it can
       resolve first-day (the cohort) and per-day offsets exactly and
       emit ``(cohort, offset) → distinct-user count`` partials;
    3. partitions hold disjoint users, so a small final sum over the
       ≤256 partial frames is exact.

    Output size is bounded by the SQUARE OF THE TIME SPAN IN DAYS (a
    few thousand cells for a year), independent of corpus size —
    driver-safe at any scale.  Analog of the reference's per-vehicle
    first-seen/active-day bookkeeping (TrajectoryPool keyed state)."""

    def pairs(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy()
        day = batch["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy() // DAY_US
        order = np.lexsort((day, uid))
        uid, day = uid[order], day[order]
        keep = np.ones(len(uid), bool)
        keep[1:] = (uid[1:] != uid[:-1]) | (day[1:] != day[:-1])
        uid, day = uid[keep], day[keep]
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "day_i": pa.array(day, pa.int64()),
                "part": pa.array(_user_part(uid), pa.int32()),
            }
        )

    def triangle(g: pd.DataFrame) -> pd.DataFrame:
        # re-dedupe (same pair from different batches), then cohort math
        g = g.drop_duplicates(["user_id", "day_i"])
        first = g.groupby("user_id")["day_i"].transform("min")
        out = (
            pd.DataFrame(
                {
                    "cohort_day_us": first.to_numpy() * DAY_US,
                    "offset_days": (g["day_i"].to_numpy() - first.to_numpy()),
                }
            )
            .groupby(["cohort_day_us", "offset_days"], as_index=False)
            .size()
            .rename(columns={"size": "n_users"})
        )
        return out

    parts = (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
        )
        .map_batches(pairs, batch_format="pyarrow")
        .groupby("part")
        .map_groups(triangle, batch_format="pandas")
        .to_pandas()  # ≤256 × (span_days²) rows — bounded by time, not data
    )
    out = parts.groupby(["cohort_day_us", "offset_days"], as_index=False)[
        "n_users"
    ].sum()
    out["n_users"] = out["n_users"].astype(np.int64)
    return out.sort_values(["cohort_day_us", "offset_days"]).reset_index(drop=True)


def hourly_active_users(sf_dir: str) -> pd.DataFrame:
    """Distinct users per tumbling hour (``COUNT(DISTINCT user_id)
    GROUP BY hour``) — the canonical streaming DAU/HAU metric, and the
    GROUPED exact distinct-count shape: dedupe ``(hour, user)`` inside
    each batch, hash-exchange on the PAIR key (so every copy of a pair
    lands in one partition), dedupe once more, and count per hour;
    hours split across partitions reconcile in a small final sum.
    The two-level exchange never moves an event row, only distinct
    pairs — at 100 TB the exchange is bounded by Σ_h (active users in
    hour h), the metric's own size."""

    def pairs(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy()
        hr = (
            batch["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
            // HOUR_US
        ) * HOUR_US
        order = np.lexsort((uid, hr))
        uid, hr = uid[order], hr[order]
        keep = np.ones(len(uid), bool)
        keep[1:] = (uid[1:] != uid[:-1]) | (hr[1:] != hr[:-1])
        uid, hr = uid[keep], hr[keep]
        pair = uid.astype(np.uint64) * _FIB + hr.astype(np.uint64)
        part = ((pair * _FIB) >> np.uint64(56)).astype(np.int32)
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "window_start_us": pa.array(hr, pa.int64()),
                "part": pa.array(part, pa.int32()),
            }
        )

    def count_hours(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.drop_duplicates(["window_start_us", "user_id"])
            .groupby("window_start_us", as_index=False)
            .size()
            .rename(columns={"size": "n_users"})
        )
        return out

    parts = (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
        )
        .map_batches(pairs, batch_format="pyarrow")
        .groupby("part")
        .map_groups(count_hours, batch_format="pandas")
        .to_pandas()  # ≤256 rows per active hour
    )
    out = parts.groupby("window_start_us", as_index=False)["n_users"].sum()
    out["n_users"] = out["n_users"].astype(np.int64)
    return out.sort_values("window_start_us").reset_index(drop=True)


def event_transitions(sf_dir: str) -> pd.DataFrame:
    """First-order Markov transition counts between consecutive event
    types per user (``LAG(event_type) OVER (PARTITION BY user ORDER BY
    ts, event_id)``, then ``GROUP BY prev, next``) — the behavioral
    n-gram table.  Same user-keyed exchange + vectorized
    lexsort-diff-mask kernel as :func:`event_deltas`; each partition
    reduces its transitions to a ≤ types² partial frame, so the final
    merge is constant-size regardless of corpus scale."""

    def add_part(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "part",
            pa.array(_user_part(batch["user_id"].to_numpy()), pa.int32()),
        )

    def trans(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        same = np.zeros(len(g), bool)
        same[1:] = uid[1:] == uid[:-1]
        out = (
            pd.DataFrame({"prev_type": et[:-1][same[1:]], "next_type": et[1:][same[1:]]})
            .groupby(["prev_type", "next_type"], as_index=False)
            .size()
            .rename(columns={"size": "n_transitions"})
        )
        return out

    parts = (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "user_id", "ts", "event_type"],
        )
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(trans, batch_format="pandas")
        .to_pandas()  # ≤256 × types² rows
    )
    out = parts.groupby(["prev_type", "next_type"], as_index=False)[
        "n_transitions"
    ].sum()
    out["n_transitions"] = out["n_transitions"].astype(np.int64)
    return out.sort_values(["prev_type", "next_type"]).reset_index(drop=True)


def _group_cont_medians(
    make_ds, value_col: str, group_col: str, counts: "pd.Series | None" = None
) -> dict:
    """Exact interpolated per-group medians via the shared grouped rank
    selector — the reusable head of the grouped robust-stats family
    (median, MAD).  ``counts`` (group → row count) can be passed in
    when the caller already knows it (the MAD's dev stream has the same
    group sizes as the raw stream, so the second selection skips its
    counting pass)."""
    from torchtrajectory_ray.functions import rankselect
    from torchtrajectory_ray.functions.rankselect import select_ranks_by_group

    n = int(make_ds().count())
    if n <= rankselect.LOCAL_SELECT_MAX_ROWS:
        # size-aware fast path: counting pass + grouped selection fold
        # into ONE single-task kernel (identical interpolation)

        def local(t: pa.Table) -> pa.Table:
            gv = t[group_col].to_pandas().to_numpy()
            v = t[value_col].to_numpy().astype(np.float64)
            g_out, m_out = [], []
            for g in np.unique(gv):
                sv = np.sort(v[gv == g])
                pos = 0.5 * (len(sv) - 1)
                r0, r1 = int(np.floor(pos)), int(np.ceil(pos))
                f = pos - np.floor(pos)
                v0, v1 = float(sv[r0]), float(sv[r1])
                g_out.append(g)  # native key type, as the descent path
                m_out.append(float(v0 if r0 == r1 else v0 + f * (v1 - v0)))
            return pa.table(
                {"g": pa.array(g_out), "med": pa.array(m_out, pa.float64())}
            )

        got = run_single_task(make_ds(), local, n).to_pandas()
        return {g: float(m) for g, m in zip(got["g"], got["med"])}

    if counts is None:

        def count_part(batch: pa.Table) -> pa.Table:
            g = (
                batch.select([group_col])
                .to_pandas()
                .groupby(group_col, as_index=False)
                .size()
            )
            return pa.Table.from_pandas(g, preserve_index=False)

        counts = (
            make_ds()
            .map_batches(count_part, batch_format="pyarrow")
            .to_pandas()
            .groupby(group_col)["size"]
            .sum()
        )
    ranks_of: dict = {}
    spec: dict = {}
    for g, n_g in counts.items():
        pos = 0.5 * (int(n_g) - 1)
        r0, r1 = int(np.floor(pos)) + 1, int(np.ceil(pos)) + 1
        ranks_of[g] = [r0, r1]
        spec[g] = (r0, r1, pos - np.floor(pos))
    got = select_ranks_by_group(make_ds, value_col, group_col, ranks_of)
    meds: dict = {}
    for g, (r0, r1, f) in spec.items():
        v0, v1 = got[g][r0], got[g][r1]
        meds[g] = float(v0 if r0 == r1 else v0 + f * (v1 - v0))
    return meds


def value_mad_by_type(sf_dir: str) -> pd.DataFrame:
    """GROUPED robust dispersion: per-event_type median and median
    absolute deviation — TWO chained GROUPED distributed selections
    (the :func:`value_mad` composition lifted to groups).  The second
    selection runs over a derived stream (|v − median(type)| computed
    per batch against the ≤|types| broadcast median map) and reuses the
    first's group counts, so grouped MAD costs two selections' worth of
    corpus reads and O(bins × groups) driver state — no per-group sort,
    no per-group scan.  Matches DuckDB ``median``/``mad`` semantics per
    group."""
    meds, mads = _robust_stats_by_type(sf_dir)
    rows = [
        {
            "event_type": g,
            "median_value": round(meds[g], 6),
            "mad_value": round(mads[g], 6),
        }
        for g in sorted(meds)
    ]
    return pd.DataFrame(rows)


def top_events_ties(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Top-k events by value WITH TIES (``RANK() OVER (ORDER BY value
    DESC) <= k``): rank ≤ k ⟺ value ≥ the k-th largest value, so ONE
    distributed rank selection pins the threshold (ascending rank
    n−k+1) and one filtered scan emits the qualifying rows — no global
    sort, no driver column pull, and the tie set comes out complete
    (the LIMIT-k family's missing WITH-TIES flavor).  The threshold is
    a value read from the data itself, so both engines compare
    bit-identical doubles."""
    from torchtrajectory_ray.functions.rankselect import select_ranks

    path = f"{sf_dir}/events.parquet"

    def make_ds():
        return ray.data.read_parquet(path, columns=["value"])

    n = int(make_ds().count())
    if n == 0:
        return pd.DataFrame(
            {
                "event_id": pd.Series([], dtype=np.int64),
                "user_id": pd.Series([], dtype=np.int64),
                "event_type": pd.Series([], dtype=str),
                "value": pd.Series([], dtype=np.float64),
            }
        )
    rank = max(1, n - int(k) + 1)
    thr = select_ranks(make_ds, "value", [rank])[rank]

    def keep(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy()
        m = v >= thr
        t = batch.filter(pa.array(m))
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "event_type": t["event_type"],
                "value": pa.array(np.round(t["value"].to_numpy(), 6)),
            }
        )

    out = (
        ray.data.read_parquet(
            path, columns=["event_id", "user_id", "event_type", "value"]
        )
        .map_batches(keep, batch_format="pyarrow")
        .to_pandas()  # ≥k rows, ≤ k + tie multiplicity
    )
    return out.sort_values("event_id").reset_index(drop=True)


# session cache of the (median, MAD) dicts per corpus — a handful of
# driver floats, recomputed only when the sf_dir changes (the graph
# edge-cache convention); value_mad_by_type and value_outliers share
# the same two chained selections otherwise run twice back-to-back
_ROBUST_STATS_CACHE: dict[str, tuple[dict, dict]] = {}


def clear_robust_stats_cache() -> None:
    """Cold-state reset for benchmarks."""
    _ROBUST_STATS_CACHE.clear()


def _robust_stats_by_type(sf_dir: str) -> tuple[dict, dict]:
    """(median, MAD) per event_type — the shared two-selection head of
    :func:`value_mad_by_type` and :func:`value_outliers`."""
    cached = _ROBUST_STATS_CACHE.get(sf_dir)
    if cached is not None:
        return cached
    path = f"{sf_dir}/events.parquet"

    def make_ds():
        return ray.data.read_parquet(path, columns=["event_type", "value"])

    from torchtrajectory_ray.functions import rankselect

    n = int(make_ds().count())
    if n <= rankselect.LOCAL_SELECT_MAX_ROWS:
        # size-aware fused fast path: both chained grouped selections
        # (median, then median of |v − median|) in ONE single-task sort
        # kernel instead of five full corpus passes — identical
        # interpolation arithmetic to the descent path, pytest-gated

        def _cont_median_sorted(sv: np.ndarray) -> float:
            pos = 0.5 * (len(sv) - 1)
            r0, r1 = int(np.floor(pos)), int(np.ceil(pos))
            f = pos - np.floor(pos)
            v0, v1 = float(sv[r0]), float(sv[r1])
            return float(v0 if r0 == r1 else v0 + f * (v1 - v0))

        def local(t: pa.Table) -> pa.Table:
            et = t["event_type"].to_pandas().to_numpy()
            v = t["value"].to_numpy().astype(np.float64)
            g_out, m_out, d_out = [], [], []
            for g in np.unique(et):
                grp = v[et == g]
                med = _cont_median_sorted(np.sort(grp))
                g_out.append(g)  # native key type, as the descent path
                m_out.append(med)
                d_out.append(_cont_median_sorted(np.sort(np.abs(grp - med))))
            return pa.table(
                {"g": pa.array(g_out),
                 "med": pa.array(m_out, pa.float64()),
                 "mad": pa.array(d_out, pa.float64())}
            )

        got = run_single_task(make_ds(), local, n).to_pandas()
        meds = {g: float(m) for g, m in zip(got["g"], got["med"])}
        mads = {g: float(m) for g, m in zip(got["g"], got["mad"])}
        _ROBUST_STATS_CACHE[sf_dir] = (meds, mads)
        return meds, mads

    def count_part(batch: pa.Table) -> pa.Table:
        g = (
            batch.select(["event_type"])
            .to_pandas()
            .groupby("event_type", as_index=False)
            .size()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (
        make_ds()
        .map_batches(count_part, batch_format="pyarrow")
        .to_pandas()
        .groupby("event_type")["size"]
        .sum()
    )
    meds = _group_cont_medians(make_ds, "value", "event_type", counts=counts)

    def make_dev_ds():
        def dev(batch: pa.Table) -> pa.Table:
            et = batch["event_type"].to_pandas()
            v = batch["value"].to_numpy()
            med = et.map(meds).to_numpy(dtype=np.float64)
            return pa.table(
                {"event_type": batch["event_type"], "dev": np.abs(v - med)}
            )

        return ray.data.read_parquet(
            path, columns=["event_type", "value"]
        ).map_batches(dev, batch_format="pyarrow")

    mads = _group_cont_medians(make_dev_ds, "dev", "event_type", counts=counts)
    _ROBUST_STATS_CACHE[sf_dir] = (meds, mads)
    return meds, mads


def value_outliers(sf_dir: str, n_mads: float = 3.0) -> pd.DataFrame:
    """Robust outlier detection: events whose value sits more than
    ``n_mads`` MADs from their type's median (|v − median| > n·MAD) —
    the filter stage of a robust cleaning pipeline, composed from the
    grouped median/MAD selections plus ONE broadcast-filtered scan.
    Both engines compare against thresholds derived from the same
    doubles (median interpolation at f=0.5 is exact in binary64), so
    the boundary is bit-identical."""
    meds, mads = _robust_stats_by_type(sf_dir)

    def keep(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_pandas()
        v = batch["value"].to_numpy()
        med = et.map(meds).to_numpy(dtype=np.float64)
        mad = et.map(mads).to_numpy(dtype=np.float64)
        t = batch.filter(pa.array(np.abs(v - med) > n_mads * mad))
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "event_type": t["event_type"],
                "value": pa.array(np.round(t["value"].to_numpy(), 6)),
            }
        )

    out = (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "user_id", "event_type", "value"],
        )
        .map_batches(keep, batch_format="pyarrow")
        .to_pandas()  # outlier tail only
    )
    if out.empty:  # all-blocks-empty loses the schema in to_pandas
        return pd.DataFrame(
            {
                "event_id": pd.Series([], dtype=np.int64),
                "user_id": pd.Series([], dtype=np.int64),
                "event_type": pd.Series([], dtype=str),
                "value": pd.Series([], dtype=np.float64),
            }
        )
    return out.sort_values("event_id").reset_index(drop=True)


def value_zscore(sf_dir: str) -> ray.data.Dataset:
    """Per-type z-score standardization ((v − μ_type)/σ_type, sample
    σ) — the feature-normalization map.  One moments pass (per-batch
    CENTERED partials combined with Chan's parallel update on the
    driver, numerically stable at any corpus size — never a naive
    Σv² fold) pins μ/σ per type; one broadcast map pass emits the
    standardized stream.  No shuffle at all: the only exchange is the
    ≤|types| moment rows riding back to the driver."""

    path = f"{sf_dir}/events.parquet"

    def mom_part(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pylist(),
                "value": batch["value"].to_numpy(),
            }
        )
        g = df.groupby("event_type")["value"]
        out = g.agg(n="size", mean="mean").reset_index()
        out["m2"] = g.apply(lambda s: float(((s - s.mean()) ** 2).sum())).to_numpy()
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = (
        ray.data.read_parquet(path, columns=["event_type", "value"])
        .map_batches(mom_part, batch_format="pyarrow")
        .to_pandas()  # ≤ |types| rows per batch
    )
    stats: dict = {}
    for et, grp in parts.groupby("event_type"):
        n, mean, m2 = 0.0, 0.0, 0.0
        for r in grp.itertuples():  # Chan et al. pairwise combine
            d = r.mean - mean
            tot = n + r.n
            m2 = m2 + r.m2 + d * d * n * r.n / tot
            mean = mean + d * r.n / tot
            n = tot
        sd = float(np.sqrt(m2 / (n - 1))) if n > 1 else float("nan")
        stats[et] = (mean, sd)

    def zmap(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_pandas()
        v = batch["value"].to_numpy()
        mu = et.map({k: s[0] for k, s in stats.items()}).to_numpy(np.float64)
        sd = et.map({k: s[1] for k, s in stats.items()}).to_numpy(np.float64)
        return pa.table(
            {
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "zscore": np.round((v - mu) / sd, 6),
            }
        )

    return ray.data.read_parquet(
        path, columns=["event_id", "event_type", "value"]
    ).map_batches(zmap, batch_format="pyarrow")


def top_events_ties_by_type(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """GROUPED top-k WITH TIES (``RANK() OVER (PARTITION BY event_type
    ORDER BY value DESC) <= k``): the grouped rank selector pins each
    type's k-th-largest threshold in shared histogram passes, then one
    broadcast-filtered scan emits every qualifying row — per-group
    WITH-TIES semantics without a per-group sort."""
    from torchtrajectory_ray.functions.rankselect import select_ranks_by_group

    path = f"{sf_dir}/events.parquet"

    def make_ds():
        return ray.data.read_parquet(path, columns=["event_type", "value"])

    def count_part(batch: pa.Table) -> pa.Table:
        g = (
            batch.select(["event_type"])
            .to_pandas()
            .groupby("event_type", as_index=False)
            .size()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (
        make_ds()
        .map_batches(count_part, batch_format="pyarrow")
        .to_pandas()
        .groupby("event_type")["size"]
        .sum()
    )
    ranks_of = {
        g: [max(1, int(n_g) - int(k) + 1)] for g, n_g in counts.items()
    }
    got = select_ranks_by_group(make_ds, "value", "event_type", ranks_of)
    thr = {g: got[g][ranks_of[g][0]] for g in ranks_of}

    def keep(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_pandas()
        v = batch["value"].to_numpy()
        t = batch.filter(pa.array(v >= et.map(thr).to_numpy(np.float64)))
        return pa.table(
            {
                "event_id": t["event_id"],
                "event_type": t["event_type"],
                "value": pa.array(np.round(t["value"].to_numpy(), 6)),
            }
        )

    out = (
        ray.data.read_parquet(
            path, columns=["event_id", "event_type", "value"]
        )
        .map_batches(keep, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values(["event_type", "event_id"]).reset_index(drop=True)


def session_duration_stats(sf_dir: str) -> pd.DataFrame:
    """Pipeline composition gate: sessionize (the stateful per-user
    exchange), derive each session's duration, and take the EXACT
    interpolated median by distributed rank selection — operators
    chained the way a user would chain them.  The session table (far
    smaller than the event stream) is materialized ONCE in the object
    store so the selector's passes re-read blocks, not the
    sessionizer."""
    sessions = (
        session_windows(sf_dir)
        .map_batches(
            lambda b: pa.table(
                {
                    "duration_us": (
                        b["session_end_us"].to_numpy()
                        - b["session_start_us"].to_numpy()
                    ).astype(np.float64)
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    n = int(sessions.count())
    med = _cont_rank_value(lambda: sessions, "duration_us", 0.5, n)
    return pd.DataFrame(
        {
            "n_sessions": np.array([n], np.int64),
            "median_duration_us": np.array([round(med, 6)], np.float64),
        }
    )


def session_bracket_overlap(
    sf_dir: str, n_brackets: int = N_TIME_BRACKETS
) -> pd.DataFrame:
    """INTERVAL-OVERLAP join (both sides are intervals): sessions
    [start, end] against derived time brackets [lo, hi), counting the
    sessions that overlap each bracket — the two-sided non-equi join
    (:func:`time_bracket_join` is its point-in-interval special case).
    A session can overlap MANY brackets, but the per-batch kernel never
    materializes the expansion: two ``searchsorted`` probes give each
    session its first/last overlapped bracket, and a difference array +
    cumsum turns those ranges into per-bracket counts (one fixed-size
    partial per batch regardless of fan-out).  Edge math is all-integer
    (the time_bracket_join convention) so both engines classify
    boundary sessions identically."""
    sessions = (
        session_windows(sf_dir)
        .select_columns(["session_start_us", "session_end_us"])
        .materialize()  # session table ≪ event stream; read twice below
    )

    def mm_part(batch: pa.Table) -> pa.Table:
        s = batch["session_start_us"].to_numpy()
        e = batch["session_end_us"].to_numpy()
        return pa.table(
            {
                "tmin": pa.array([int(s.min())], pa.int64()),
                "tmax": pa.array([int(e.max())], pa.int64()),
            }
        )

    mm = sessions.map_batches(mm_part, batch_format="pyarrow").to_pandas()
    tmin, tmax = int(mm["tmin"].min()), int(mm["tmax"].max())
    span = tmax - tmin + 1
    edges = np.array(
        [tmin + (span * i) // n_brackets for i in range(n_brackets + 1)],
        np.int64,
    )

    def overlap_part(batch: pa.Table) -> pa.Table:
        s = batch["session_start_us"].to_numpy()
        e = batch["session_end_us"].to_numpy()
        # bracket range [j0, j1] overlapped by [s, e]: right-open
        # brackets, so j = searchsorted(edges, t, 'right') − 1
        j0 = np.searchsorted(edges, s, side="right") - 1
        j1 = np.searchsorted(edges, e, side="right") - 1
        diff = np.zeros(n_brackets + 1, np.int64)
        np.add.at(diff, j0, 1)
        np.add.at(diff, j1 + 1, -1)
        cnt = np.cumsum(diff[:-1])
        return pa.table(
            {
                "bracket_id": pa.array(np.arange(n_brackets, dtype=np.int64)),
                "n_sessions": pa.array(cnt, pa.int64()),
            }
        )

    parts = sessions.map_batches(
        overlap_part, batch_format="pyarrow"
    ).to_pandas()  # n_brackets rows per batch
    out = parts.groupby("bracket_id", as_index=False)["n_sessions"].sum()
    out = out[out["n_sessions"] > 0].reset_index(drop=True)  # inner join
    bid = out["bracket_id"].to_numpy()
    out.insert(1, "lo_us", edges[bid])
    out.insert(2, "hi_us", edges[bid + 1])
    out["n_sessions"] = out["n_sessions"].astype(np.int64)
    return out.sort_values("bracket_id").reset_index(drop=True)


def event_type_jaccard(sf_dir: str) -> pd.DataFrame:
    """Set similarity between event types over their USER sets —
    Jaccard(|users(a) ∩ users(b)| / |users(a) ∪ users(b)|) for every
    unordered type pair (the co-occurrence / market-basket table).
    One user-keyed exchange of distinct (user, type) pairs; each
    partition folds its users into per-type bitmasks and counts the
    ≤ C(|types|,2) pair intersections vectorized, so the final merge
    is constant-size regardless of corpus scale."""

    def pairs(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy()
        et = batch["event_type"].to_pandas().to_numpy()
        df = pd.DataFrame({"user_id": uid, "event_type": et}).drop_duplicates()
        u = df["user_id"].to_numpy()
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "event_type": pa.array(df["event_type"].to_numpy()),
                "part": pa.array(_user_part(u), pa.int32()),
            }
        )

    types = list(_EVENT_TYPES)
    bit_of = {t: 1 << i for i, t in enumerate(types)}

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "event_type"])
        bits = (
            g.assign(b=g["event_type"].map(bit_of))
            .groupby("user_id")["b"]
            .sum()  # distinct types per user ⇒ sum == OR
            .to_numpy()
            .astype(np.int64)
        )
        rows = []
        for i, a in enumerate(types):
            ai = bits & bit_of[a] > 0
            rows.append({"type_a": a, "type_b": a, "n": int(ai.sum())})
            for b in types[i + 1 :]:
                both = int((ai & (bits & bit_of[b] > 0)).sum())
                rows.append({"type_a": a, "type_b": b, "n": both})
        return pd.DataFrame(rows)

    parts = (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
        )
        .map_batches(pairs, batch_format="pyarrow")
        .groupby("part")
        .map_groups(fold, batch_format="pandas")
        .to_pandas()  # ≤256 × (types + C(types,2)) rows
    )
    tot = parts.groupby(["type_a", "type_b"], as_index=False)["n"].sum()
    singles = {
        r.type_a: r.n for r in tot[tot["type_a"] == tot["type_b"]].itertuples()
    }
    out = tot[tot["type_a"] != tot["type_b"]].copy()
    na = out["type_a"].map(singles).to_numpy(np.float64)
    nb = out["type_b"].map(singles).to_numpy(np.float64)
    both = out["n"].to_numpy(np.float64)
    out["jaccard"] = np.round(both / (na + nb - both), 6)
    out = out.rename(columns={"n": "n_both"})
    out["n_both"] = out["n_both"].astype(np.int64)
    return (
        out[["type_a", "type_b", "n_both", "jaccard"]]
        .sort_values(["type_a", "type_b"])
        .reset_index(drop=True)
    )


def hourly_active_users_hll_check(sf_dir: str, p: int = 12) -> pd.DataFrame:
    """The SKETCH path for the DAU/HAU metric, driver-gated: per-hour
    HyperLogLog of the user set, folded DISTRIBUTEDLY (per-batch
    register partials → hour-keyed exchange → elementwise-max per
    hour), compared against the exact per-hour distinct count with the
    published 3σ bound flag (the cardinality_hll_check pattern: the
    SQL oracle emits the constant 1, so any sketch break
    hash-mismatches).  Per-(hour × batch) partial is a FIXED 2^p bytes
    whatever the user cardinality — the shape that replaces
    :func:`hourly_active_users`'s pair exchange when hours × users
    outgrow it."""
    from torchtrajectory_ray.functions.bloom import _mix64
    from torchtrajectory_ray.functions.hll import (
        hll_estimate,
        hll_init,
    )

    m_regs = 1 << p

    def partial(batch: pa.Table) -> pa.Table:
        from torchtrajectory_ray.functions.hll import hll_add_hashes

        uid = batch["user_id"].to_numpy()
        hr = (
            batch["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
            // HOUR_US
        ) * HOUR_US
        hashes = (_mix64(uid.astype(np.uint64)) >> np.uint64(1)).astype(
            np.uint64
        )  # 63-bit, deterministic
        hours, regs_rows = [], []
        for h in np.unique(hr):
            regs = hll_init(p)
            hll_add_hashes(regs, hashes[hr == h])
            hours.append(int(h))
            regs_rows.append(regs.tobytes())
        part = (
            (np.asarray(hours, np.uint64) * _FIB) >> np.uint64(56)
        ).astype(np.int32)
        return pa.table(
            {
                "window_start_us": pa.array(hours, pa.int64()),
                "regs": pa.array(regs_rows, pa.binary()),
                "part": pa.array(part, pa.int32()),
            }
        )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for h, grp in g.groupby("window_start_us"):
            regs = np.zeros(m_regs, np.uint8)
            for buf in grp["regs"]:
                np.maximum(regs, np.frombuffer(buf, np.uint8), out=regs)
            rows.append(
                {"window_start_us": int(h), "est": hll_estimate(regs)}
            )
        return pd.DataFrame(rows)

    est = (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(fold, batch_format="pandas")
        .to_pandas()  # one row per active hour
    )
    exact = hourly_active_users(sf_dir)
    merged = exact.merge(est, on="window_start_us", how="outer", sort=True)
    bound = 3.0 * 1.04 / float(np.sqrt(m_regs))
    ratio = np.abs(
        merged["est"].to_numpy(np.float64)
        / merged["n_users"].to_numpy(np.float64)
        - 1.0
    )
    return pd.DataFrame(
        {
            "window_start_us": merged["window_start_us"].astype(np.int64),
            "n_users": merged["n_users"].fillna(-1).astype(np.int64),
            "within_3sigma": np.where(
                np.isfinite(ratio) & (ratio <= bound), 1, 0
            ).astype(np.int64),
        }
    ).reset_index(drop=True)


def user_stickiness(sf_dir: str, window_days: int = 30) -> pd.DataFrame:
    """DAU / MAU stickiness per active day: for every day with any
    activity, the distinct users active THAT day (DAU), the distinct
    users active in the trailing ``window_days`` window (MAU), and the
    ratio.  The naive plan expands every (user, day) pair into 30
    window rows; here each partition instead MERGES each user's
    per-day cover intervals [d, d+29] (fixed width ⇒ a run-break scan:
    a new merged interval starts where the day gap exceeds the window)
    and paints them into a bounded day-length difference array — the
    exchange moves distinct (user, day) pairs once, the fold is
    O(span_days) per partition, and no row is ever replicated 30×.
    Users are disjoint across partitions, so per-day partial counts
    sum exactly."""
    w = int(window_days)

    def pairs(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy()
        day = (
            batch["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
            // DAY_US
        )
        order = np.lexsort((day, uid))
        uid, day = uid[order], day[order]
        keep = np.ones(len(uid), bool)
        keep[1:] = (uid[1:] != uid[:-1]) | (day[1:] != day[:-1])
        uid, day = uid[keep], day[keep]
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "day_i": pa.array(day, pa.int64()),
                "part": pa.array(_user_part(uid), pa.int32()),
            }
        )

    # pin the global day span with a tiny min/max pass
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def mm_part(batch: pa.Table) -> pa.Table:
        d = (
            batch["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
            // DAY_US
        )
        return pa.table(
            {
                "dmin": pa.array([int(d.min())], pa.int64()),
                "dmax": pa.array([int(d.max())], pa.int64()),
            }
        )

    mm = ds.map_batches(mm_part, batch_format="pyarrow").to_pandas()
    d0, d1 = int(mm["dmin"].min()), int(mm["dmax"].max())
    span = d1 - d0 + 1

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day_i"]).sort_values(
            ["user_id", "day_i"]
        )
        uid = g["user_id"].to_numpy()
        day = g["day_i"].to_numpy() - d0
        dau = np.zeros(span, np.int64)
        np.add.at(dau, day, 1)  # pairs are distinct ⇒ one per user
        # merged cover intervals [day, day+w−1]: a new interval starts
        # at a user boundary or where the gap exceeds the window
        new = np.ones(len(day), bool)
        new[1:] = (uid[1:] != uid[:-1]) | (day[1:] - day[:-1] > w - 1)
        run = np.cumsum(new) - 1
        starts = day[new]
        # end of each merged run = last day of the run + w−1 (clamped)
        last = np.zeros(run[-1] + 1 if len(run) else 0, np.int64)
        np.maximum.at(last, run, day)
        ends = np.minimum(last + w - 1, span - 1)
        diff = np.zeros(span + 1, np.int64)
        np.add.at(diff, starts, 1)
        np.add.at(diff, ends + 1, -1)
        mau = np.cumsum(diff[:-1])
        return pd.DataFrame(
            {
                "day_i": np.arange(span, dtype=np.int64) + d0,
                "dau": dau,
                "mau": mau,
            }
        )

    parts = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby("part")
        .map_groups(fold, batch_format="pandas")
        .to_pandas()  # ≤256 × span_days rows — bounded by time
    )
    out = parts.groupby("day_i", as_index=False)[["dau", "mau"]].sum()
    out = out[out["dau"] > 0].reset_index(drop=True)  # active days only
    return pd.DataFrame(
        {
            "day_us": out["day_i"].to_numpy() * DAY_US,
            "dau": out["dau"].astype(np.int64),
            "mau": out["mau"].astype(np.int64),
            "stickiness": np.round(
                out["dau"].to_numpy(np.float64) / out["mau"].to_numpy(np.float64), 6
            ),
        }
    ).sort_values("day_us").reset_index(drop=True)
