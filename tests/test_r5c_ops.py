"""Edge tests for the continuation ops: the generic rank selector
(functions/rankselect), corr_stats (Chan cross-moments), nation_revenue
(fact-fact hash-exchange join), priority_ntile (distributed NTILE),
funnel_conversions (ordered containment), quantiles_cont (interpolated
selection), and lang_source_mode (grouped mode).  Brute-force references
are computed over the same rows; synthetic inputs are multi-file parquet
directories so the exchanges must really move rows across blocks.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF_SMALL = "/root/testdata/sf0.001"


@pytest.fixture
def force_descent(monkeypatch):
    """Pin the rank selectors to the distributed histogram descent
    (disable the size-aware single-task fast path) so these tests keep
    exercising the 100-TB path on small synthetic inputs."""
    from torchtrajectory_ray.functions import rankselect

    monkeypatch.setattr(rankselect, "LOCAL_SELECT_MAX_ROWS", 0)


def _write_parts(tmp_path, name, frames):
    d = tmp_path / f"{name}.parquet"
    d.mkdir()
    for i, df in enumerate(frames):
        pq.write_table(
            pa.Table.from_pandas(df, preserve_index=False),
            str(d / f"part-{i}.parquet"),
        )
    return str(tmp_path)


# ---------------------------------------------------------- rankselect


def _ds_factory(path, cols):
    import ray.data

    def make():
        return ray.data.read_parquet(path, columns=cols)

    return make


def test_select_ranks_values_only(ray_session, tmp_path, force_descent):
    from torchtrajectory_ray.functions.rankselect import select_ranks

    rng = np.random.default_rng(7)
    v = rng.normal(size=5000) * 100
    frames = [
        pd.DataFrame({"v": chunk}) for chunk in np.array_split(v, 7)
    ]
    root = _write_parts(tmp_path, "t", frames)
    make = _ds_factory(f"{root}/t.parquet", ["v"])
    ranks = [1, 17, 2500, 4999, 5000]
    # tiny local_max forces several descent rounds
    got = select_ranks(make, "v", ranks, bins=8, local_max=16)
    sv = np.sort(v)
    for r in ranks:
        assert got[r] == sv[r - 1]


def test_select_ranks_composite_key_ties(ray_session, tmp_path, force_descent):
    """Heavy ties on the value: the boundary element differs from the
    value-only answer, so the key tie-break path must run — including
    the integer-key descent (local_max below the tie-run length)."""
    from torchtrajectory_ray.functions.rankselect import select_ranks

    rng = np.random.default_rng(11)
    # 3 distinct values, 1200 rows → runs of ~400 ties each
    v = rng.choice([1.0, 2.0, 3.0], size=1200)
    k = rng.permutation(1200).astype(np.int64)
    frames = [
        pd.DataFrame({"v": a, "k": b})
        for a, b in zip(np.array_split(v, 5), np.array_split(k, 5))
    ]
    root = _write_parts(tmp_path, "t", frames)
    make = _ds_factory(f"{root}/t.parquet", ["v", "k"])
    order = np.lexsort((k, v))
    ranks = [1, 100, 600, 601, 1200]
    got = select_ranks(make, "v", ranks, key_col="k", bins=8, local_max=64)
    for r in ranks:
        i = order[r - 1]
        assert got[r] == (float(v[i]), int(k[i])), r


def test_select_ranks_all_equal_values(ray_session, tmp_path, force_descent):
    """Every value identical → the value bracket collapses below fp
    spacing immediately; with a key the answer must come from the
    integer descent alone."""
    from torchtrajectory_ray.functions.rankselect import select_ranks

    n = 800
    v = np.full(n, 42.5)
    k = np.arange(n, dtype=np.int64)[::-1]  # descending keys across blocks
    frames = [
        pd.DataFrame({"v": a, "k": b})
        for a, b in zip(np.array_split(v, 4), np.array_split(k, 4))
    ]
    root = _write_parts(tmp_path, "t", frames)
    make = _ds_factory(f"{root}/t.parquet", ["v", "k"])
    got = select_ranks(make, "v", [1, 400, 800], key_col="k",
                       bins=8, local_max=32)
    assert got[1] == (42.5, 0)
    assert got[400] == (42.5, 399)
    assert got[800] == (42.5, 799)
    # values-only flavor on the same degenerate input
    got2 = select_ranks(make, "v", [5, 795], bins=8, local_max=32)
    assert got2[5] == 42.5 and got2[795] == 42.5


def test_select_ranks_massive_tie_converges_fast(ray_session, tmp_path, force_descent):
    """A huge tied run at one end of a wide bracket (90% zeros + a
    spread tail) must resolve via the single-distinct-value early exit,
    NOT by narrowing the bracket ~120 passes down to float spacing (the
    stall that made a 0-heavy session-duration median take 33 s on a
    95k-row table)."""
    from torchtrajectory_ray.functions.rankselect import select_ranks

    rng = np.random.default_rng(7)
    v = np.concatenate([np.zeros(9000), rng.uniform(1e6, 1e9, 1000)])
    rng.shuffle(v)
    frames = [pd.DataFrame({"v": a}) for a in np.array_split(v, 4)]
    root = _write_parts(tmp_path, "tie", frames)
    base = _ds_factory(f"{root}/tie.parquet", ["v"])
    calls = {"n": 0}

    def make():
        calls["n"] += 1
        return base()

    got = select_ranks(make, "v", [1, 4500, 9000, 9500], bins=8,
                       local_max=100)
    sv = np.sort(v)
    assert got[1] == 0.0 and got[4500] == 0.0 and got[9000] == 0.0
    assert got[9500] == sv[9499]
    # unfixed, the zero-run descent alone needs ~350 passes at bins=8
    assert calls["n"] <= 20, calls["n"]

    # grouped flavor: same tie, per-group
    from torchtrajectory_ray.functions.rankselect import select_ranks_by_group

    frames2 = [
        pd.DataFrame({"v": a, "g": np.where(np.arange(len(a)) % 2 == 0, "a", "b")})
        for a in np.array_split(v, 4)
    ]
    root2 = _write_parts(tmp_path, "tie2", frames2)
    make2 = _ds_factory(f"{root2}/tie2.parquet", ["v", "g"])
    out = select_ranks_by_group(
        make2, "v", "g", {"a": [1, 1000], "b": [1, 1000]},
        bins=8, local_max=100,
    )
    assert out["a"][1] == 0.0 and out["b"][1] == 0.0


# ----------------------------------------------------------- corr_stats


def test_corr_stats_matches_pandas(ray_session):
    from torchtrajectory_ray.pipelines.analytics import corr_stats

    got = corr_stats(SF_SMALL).set_index("l_returnflag")
    df = pq.read_table(
        f"{SF_SMALL}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    ).to_pandas()
    for flag, g in df.groupby("l_returnflag"):
        row = got.loc[flag]
        assert row["n"] == len(g)
        assert row["mean_qty"] == round(g["l_quantity"].mean(), 6)
        assert row["corr_qty_price"] == round(
            g["l_quantity"].corr(g["l_extendedprice"]), 6
        )
        assert row["covar_qty_price"] == round(
            g["l_quantity"].cov(g["l_extendedprice"]), 2
        )


# ------------------------------------------------------- nation_revenue


def test_nation_revenue_brute_force(ray_session):
    from torchtrajectory_ray.pipelines.analytics import nation_revenue

    got = nation_revenue(SF_SMALL)
    cust = pq.read_table(f"{SF_SMALL}/customer.parquet").to_pandas()
    supp = pq.read_table(f"{SF_SMALL}/supplier.parquet").to_pandas()
    orders = pq.read_table(f"{SF_SMALL}/orders.parquet").to_pandas()
    li = pq.read_table(f"{SF_SMALL}/lineitem.parquet").to_pandas()
    nat = pq.read_table(f"{SF_SMALL}/nation.parquet").to_pandas()
    reg = pq.read_table(f"{SF_SMALL}/region.parquet").to_pandas()
    rk = reg.loc[reg["r_name"] == "ASIA", "r_regionkey"].iloc[0]
    nsel = nat[nat["n_regionkey"] == rk]
    m = (
        li.merge(orders, left_on="l_orderkey", right_on="o_orderkey")
        .merge(cust, left_on="o_custkey", right_on="c_custkey")
        .merge(supp, left_on="l_suppkey", right_on="s_suppkey")
    )
    m = m[(m["c_nationkey"] == m["s_nationkey"])
          & m["c_nationkey"].isin(nsel["n_nationkey"])]
    m["revenue"] = m["l_extendedprice"] * (1 - m["l_discount"])
    exp = (
        m.groupby("c_nationkey")["revenue"].sum().round(2).reset_index()
        .merge(nsel, left_on="c_nationkey", right_on="n_nationkey")
        [["n_name", "revenue"]]
        .sort_values(["revenue", "n_name"], ascending=[False, True])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp)


# ------------------------------------------------------- priority_ntile


def _ntile_reference(df, tiles):
    df = df.sort_values(["o_totalprice", "o_orderkey"]).reset_index(drop=True)
    n = len(df)
    q, r = divmod(n, tiles)
    tile = np.repeat(
        np.arange(1, tiles + 1),
        [q + 1 if i < r else q for i in range(tiles)],
    )
    df["tile"] = tile
    out = df.groupby(["tile", "o_orderpriority"], as_index=False).agg(
        n_orders=("o_totalprice", "size"), sum_price=("o_totalprice", "sum")
    )
    out["sum_price"] = out["sum_price"].round(2)
    out["n_orders"] = out["n_orders"].astype("int64")
    out["tile"] = out["tile"].astype("int64")
    return out.sort_values(["tile", "o_orderpriority"]).reset_index(drop=True)


def test_priority_ntile_with_heavy_ties(ray_session, tmp_path):
    """Duplicate prices straddling every tile boundary force the
    (price, key) composite tie-break; uneven n exercises the
    ceil/floor tile-size split."""
    from torchtrajectory_ray.pipelines.analytics import priority_ntile

    rng = np.random.default_rng(3)
    n = 1003  # 1003 = 4·250 + 3 → tiles of 251,251,251,250
    price = rng.choice([10.0, 20.0, 30.0, 40.0], size=n)  # massive ties
    df = pd.DataFrame(
        {
            "o_orderkey": np.arange(n, dtype=np.int64),
            "o_custkey": np.zeros(n, dtype=np.int64),
            "o_orderstatus": "O",
            "o_totalprice": price,
            "o_orderdate": pd.Timestamp("2000-01-01"),
            "o_orderpriority": rng.choice(["1-URGENT", "2-HIGH"], size=n),
        }
    )
    frames = [x.copy() for x in np.array_split(df.sample(frac=1, random_state=5), 6)]
    root = _write_parts(tmp_path, "orders", frames)
    got = priority_ntile(root)
    exp = _ntile_reference(df[["o_orderkey", "o_totalprice", "o_orderpriority"]], 4)
    pd.testing.assert_frame_equal(got, exp)


# --------------------------------------------------- funnel_conversions


def test_funnel_edge_cases(ray_session, tmp_path):
    from torchtrajectory_ray.pipelines.events import funnel_conversions

    def ev(eid, uid, t_us, et):
        return {
            "event_id": np.int64(eid),
            "ts": pd.to_datetime(t_us, unit="us"),
            "user_id": np.int64(uid),
            "event_type": et,
            "value": 1.0,
            "props": "{}",
        }

    rows = [
        # u1: classic view → purchase (gap 50)
        ev(1, 1, 100, "view"), ev(2, 1, 150, "purchase"),
        # u2: purchase BEFORE the view only → no conversion
        ev(3, 2, 100, "purchase"), ev(4, 2, 200, "view"),
        # u3: purchase EXACTLY at first-view ts → excluded (strict >)
        ev(5, 3, 100, "view"), ev(6, 3, 100, "purchase"),
        # u4: two views; first view at 100 converts via purchase at 120
        ev(7, 4, 300, "view"), ev(8, 4, 100, "view"), ev(9, 4, 120, "purchase"),
        # u5: view only
        ev(10, 5, 100, "view"),
        # u6: other event types must be ignored
        ev(11, 6, 100, "click"), ev(12, 6, 110, "view"),
        ev(13, 6, 115, "error"), ev(14, 6, 130, "purchase"),
    ]
    df = pd.DataFrame(rows)
    # split so each user's events straddle files
    frames = [df.iloc[::2].copy(), df.iloc[1::2].copy()]
    root = _write_parts(tmp_path, "events", frames)
    got = (
        funnel_conversions(root)
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    exp = pd.DataFrame(
        {"user_id": np.array([1, 4, 6], np.int64),
         "gap_us": np.array([50, 20, 20], np.int64)}
    )
    pd.testing.assert_frame_equal(got, exp)


# ------------------------------------------------------- quantiles_cont


def test_quantiles_cont_matches_numpy(ray_session):
    from torchtrajectory_ray.pipelines.events import quantiles_cont

    got = quantiles_cont(SF_SMALL)
    v = pq.read_table(
        f"{SF_SMALL}/events.parquet", columns=["value"]
    )["value"].to_numpy()
    for q, val in zip(got["q"], got["value"]):
        assert val == round(float(np.quantile(v, q, method="linear")), 6)


def test_quantiles_cont_exact_rank_degenerate(ray_session, tmp_path):
    """n where q·(n−1) is integral → no interpolation (r0 == r1)."""
    from torchtrajectory_ray.pipelines.events import quantiles_cont

    v = np.arange(101, dtype=np.float64)  # q·100 integral for all qs
    df = pd.DataFrame(
        {
            "event_id": np.arange(101, dtype=np.int64),
            "ts": pd.to_datetime(np.arange(101), unit="s"),
            "user_id": np.zeros(101, dtype=np.int64),
            "event_type": "view",
            "value": v,
            "props": "{}",
        }
    )
    root = _write_parts(tmp_path, "events", [df.iloc[:50], df.iloc[50:]])
    got = quantiles_cont(root, qs=(0.25, 0.5, 0.99))
    assert list(got["value"]) == [25.0, 50.0, 99.0]


# ----------------------------------------------------- lang_source_mode


def test_lang_source_mode_tiebreak(ray_session, tmp_path):
    from torchtrajectory_ray.pipelines.textstats import lang_source_mode

    rows = []
    did = 0
    # en: srcB × 3, srcA × 3 → tie, srcA wins alphabetically
    for src, cnt in [("srcB", 3), ("srcA", 3), ("srcC", 1)]:
        for _ in range(cnt):
            rows.append(("en", src))
    # fr: srcZ × 2 beats srcA × 1
    rows += [("fr", "srcZ"), ("fr", "srcZ"), ("fr", "srcA")]
    df = pd.DataFrame(rows, columns=["lang", "source"])
    df["doc_id"] = np.arange(len(df), dtype=np.int64)
    df["text"] = "x"
    df["n_chars"] = np.int64(1)
    df = df[["doc_id", "text", "lang", "source", "n_chars"]]
    root = _write_parts(tmp_path, "documents", [df.iloc[:4], df.iloc[4:]])
    got = lang_source_mode(root)
    exp = pd.DataFrame(
        {"lang": ["en", "fr"], "source": ["srcA", "srcZ"],
         "n": np.array([3, 2], np.int64)}
    )
    pd.testing.assert_frame_equal(got, exp)


# ------------------------------------------ rankselect fast-path identity


def test_select_ranks_fast_path_matches_descent(ray_session, tmp_path, monkeypatch):
    """The size-aware single-task fast path (LOCAL_SELECT_MAX_ROWS
    dispatch) returns identical answers to the distributed histogram
    descent for both selectors — the graph-ops identity pattern —
    including value ties broken by the integer key."""
    from torchtrajectory_ray.functions import rankselect

    rng = np.random.default_rng(3)
    v = np.round(rng.normal(size=4000) * 50, 1)  # rounding makes ties
    k = rng.permutation(4000).astype(np.int64)
    g = rng.choice(["x", "y", "z"], size=4000)
    frames = [
        pd.DataFrame({"v": a, "k": b, "g": c})
        for a, b, c in zip(
            np.array_split(v, 6), np.array_split(k, 6), np.array_split(g, 6)
        )
    ]
    root = _write_parts(tmp_path, "fp", frames)
    make = _ds_factory(f"{root}/fp.parquet", ["v", "k", "g"])
    ranks = [1, 7, 2000, 3999, 4000]
    ranks_of = {"x": [1, 5], "y": [2, 100], "z": [3]}

    fast = rankselect.select_ranks(make, "v", ranks, key_col="k")
    fast_vo = rankselect.select_ranks(make, "v", ranks)
    fast_g = rankselect.select_ranks_by_group(make, "v", "g", ranks_of)

    monkeypatch.setattr(rankselect, "LOCAL_SELECT_MAX_ROWS", 0)
    slow = rankselect.select_ranks(make, "v", ranks, key_col="k",
                                   bins=16, local_max=64)
    slow_vo = rankselect.select_ranks(make, "v", ranks, bins=16, local_max=64)
    slow_g = rankselect.select_ranks_by_group(make, "v", "g", ranks_of,
                                              bins=16, local_max=64)
    assert fast == slow
    assert fast_vo == slow_vo
    assert fast_g == slow_g


def test_single_task_checks_its_batch_holds_every_row(ray_session):
    """run_single_task hands its kernel ONE batch holding every row of a
    multi-block dataset; a batch whose size differs from the caller's
    row count (what a Ray change that split the batch would produce)
    fails loud instead of returning a partial answer."""
    import ray.data

    from torchtrajectory_ray.functions.single_task import run_single_task

    ds = ray.data.from_arrow(
        pa.table({"x": pa.array(np.arange(100), pa.int64())})
    ).repartition(4)

    def total(t: pa.Table) -> pa.Table:
        x = t["x"].to_numpy()
        return pa.table({"n": [len(x)], "s": [int(x.sum())]})

    got = run_single_task(ds, total, 100).to_pandas()
    assert got.to_dict("records") == [{"n": 100, "s": 4950}]
    with pytest.raises(Exception, match="expected all 101 rows in one batch"):
        run_single_task(ds, total, 101).to_pandas()


def test_group_cont_medians_fast_path_keeps_key_types(
    ray_session, tmp_path, monkeypatch
):
    """_group_cont_medians' single-task fast path and its distributed
    descent return equal dicts with the SAME key types — native ints for
    an integer group column, not their str() forms."""
    from torchtrajectory_ray.functions import rankselect
    from torchtrajectory_ray.pipelines.events import _group_cont_medians

    rng = np.random.default_rng(5)
    frames = [
        pd.DataFrame({"v": rng.normal(size=300),
                      "g": rng.integers(0, 4, size=300).astype(np.int64)})
        for _ in range(3)
    ]
    root = _write_parts(tmp_path, "gm", frames)
    make = _ds_factory(f"{root}/gm.parquet", ["v", "g"])
    fast = _group_cont_medians(make, "v", "g")
    monkeypatch.setattr(rankselect, "LOCAL_SELECT_MAX_ROWS", 0)
    slow = _group_cont_medians(make, "v", "g")
    assert fast == slow and sorted(fast) == [0, 1, 2, 3]
    assert [type(g) for g in sorted(fast)] == [type(g) for g in sorted(slow)]


def test_select_ranks_single_row_both_paths(ray_session, tmp_path, monkeypatch):
    from torchtrajectory_ray.functions import rankselect

    root = _write_parts(tmp_path, "one", [pd.DataFrame({"v": [7.5], "k": [3]})])
    make = _ds_factory(f"{root}/one.parquet", ["v", "k"])
    assert rankselect.select_ranks(make, "v", [1]) == {1: 7.5}
    assert rankselect.select_ranks(make, "v", [1], key_col="k") == {1: (7.5, 3)}
    assert rankselect.select_ranks_by_group(make, "v", "k", {3: [1]}) == {3: {1: 7.5}}
    with pytest.raises(ValueError):
        rankselect.select_ranks(make, "v", [2])
    monkeypatch.setattr(rankselect, "LOCAL_SELECT_MAX_ROWS", 0)
    assert rankselect.select_ranks(make, "v", [1], key_col="k") == {1: (7.5, 3)}
    with pytest.raises(ValueError):
        rankselect.select_ranks_by_group(make, "v", "k", {3: [2]})
