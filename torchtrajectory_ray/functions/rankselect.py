"""Distributed order-statistic selection: the element at 1-indexed
global rank ``r`` of a Dataset column, with an optional integer
tie-break key — NO global sort, no driver materialization of the
column.

Same histogram-descent idea as ``events.exact_quantiles`` (per-batch
``bins``-long count partials, geometric bracket narrowing, a bounded
pull once a bin fits in ``local_max`` rows), generalized two ways:

- **composite order** ``(value, key)``: callers like the distributed
  NTILE need the boundary *row* under a strict total order, not just a
  value.  Ties on ``value`` that exceed ``local_max`` resolve through a
  second descent on the integer key *within the tied value run* —
  integer brackets always terminate (bin width < 1 ⇒ one distinct key
  per bin), so no fp-spacing degeneracy exists on that path.
- **caller-owned dataset factory**: the selector re-reads via
  ``make_ds()`` each pass (a fresh pruned ``read_parquet`` per pass —
  each pass streams the corpus once; nothing is pinned in the object
  store between passes).

Reference analogy: the reference's top-k machinery keeps only bounded
per-block state (topk/LORSTopK.java) — this is the same discipline
applied to rank selection: driver state is O(bins × ranks), never
O(rows).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from torchtrajectory_ray.functions.single_task import run_single_task

_BINS = 512
_LOCAL_MAX = 65_536

# Size-aware dispatch (the connected-components / graph-fixpoint
# pattern, graph.LOCAL_GRAPH_MAX_ROWS): a column under this many rows
# (~32 MB of float64 values, ~64 MB with an int64 key) answers EVERY
# requested rank from ONE single-task sort instead of paying O(passes)
# full corpus reads of pure scheduling overhead.  The descent below
# remains the 100-TB shape for columns that outgrow a worker; identity
# between the two paths is pytest-gated on the same corpus.
LOCAL_SELECT_MAX_ROWS = 4_000_000


def _fold_hist(
    parts: pd.DataFrame, n_brackets: int
) -> list[tuple[int, np.ndarray, float, float]]:
    """Fold per-batch partials: (below, hist, vmin, vmax) per bracket.
    vmin/vmax are the extrema of the IN-BRACKET values — when they
    coincide the bracket holds one distinct value, which lets the
    descent answer a massive tie in one pass instead of narrowing
    ~120 passes down to float spacing (a 0-heavy duration column made
    the median stall exactly that way)."""
    out = []
    for i in range(n_brackets):
        below = int(parts[f"below_{i}"].sum())
        h = np.sum(np.stack(parts[f"hist_{i}"].to_numpy()), axis=0)
        vmin = float(parts[f"vmin_{i}"].min())
        vmax = float(parts[f"vmax_{i}"].max())
        out.append((below, h, vmin, vmax))
    return out


def select_ranks(
    make_ds,
    value_col: str,
    ranks: list[int],
    *,
    key_col: str | None = None,
    bins: int = _BINS,
    local_max: int = _LOCAL_MAX,
) -> dict[int, object]:
    """Return ``{rank: value}`` (or ``{rank: (value, key)}`` when
    ``key_col`` is given) for each 1-indexed global rank under the
    ascending ``(value, key)`` order.  ``make_ds()`` must yield a
    Dataset with the needed columns; ranks must lie in ``[1, n]``.
    """
    ds = make_ds()
    # row count first: free from parquet metadata on pruned reads, and
    # no costlier than the stats pass when make_ds() embeds transforms
    n = int(ds.count())
    if n == 0 or not ranks:
        return {}
    bad = [r for r in ranks if not (1 <= r <= n)]
    if bad:
        raise ValueError(f"ranks out of [1, {n}]: {bad}")
    if n <= LOCAL_SELECT_MAX_ROWS:
        rs = np.array(sorted(set(ranks)), dtype=np.int64)

        def local(t: pa.Table) -> pa.Table:
            v = t[value_col].to_numpy().astype(np.float64)
            if key_col is None:
                sv = np.sort(v)
                return pa.table(
                    {"r": pa.array(rs, pa.int64()),
                     "v": pa.array(sv[rs - 1], pa.float64())}
                )
            k = t[key_col].to_numpy().astype(np.int64)
            idx = np.lexsort((k, v))[rs - 1]
            return pa.table(
                {"r": pa.array(rs, pa.int64()),
                 "v": pa.array(v[idx], pa.float64()),
                 "k": pa.array(k[idx], pa.int64())}
            )

        got = run_single_task(ds, local, n).to_pandas()
        if key_col is None:
            return {int(r): float(v) for r, v in zip(got["r"], got["v"])}
        return {
            int(r): (float(v), int(k))
            for r, v, k in zip(got["r"], got["v"], got["k"])
        }

    def stats_part(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy()
        return pa.table(
            {
                "lo": pa.array([float(v.min()) if len(v) else np.inf]),
                "hi": pa.array([float(v.max()) if len(v) else -np.inf]),
            }
        )

    st = ds.map_batches(stats_part, batch_format="pyarrow").to_pandas()
    lo0, hi0 = float(st["lo"].min()), float(st["hi"].max())
    targets = [{"rank": r, "lo": lo0, "hi": hi0} for r in sorted(set(ranks))]
    answers: dict[int, object] = {}

    def hist_pass(brackets):
        bnd = [np.linspace(lo, hi, bins + 1) for lo, hi in brackets]

        def partial(batch: pa.Table) -> pa.Table:
            v = batch[value_col].to_numpy()
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

        parts = make_ds().map_batches(partial, batch_format="pyarrow").to_pandas()
        return _fold_hist(parts, len(brackets))

    def pull_rank(lo: float, hi: float, inclusive: bool, rank_in: int):
        """Bounded pull of one bin's rows; exact rank element under the
        (value, key) lexsort."""

        def grab(batch: pa.Table) -> pa.Table:
            v = batch[value_col].to_numpy()
            m = (v >= lo) & ((v <= hi) if inclusive else (v < hi))
            cols = {"v": [v[m].astype(np.float64)]}
            if key_col is not None:
                cols["k"] = [batch[key_col].to_numpy()[m].astype(np.int64)]
            return pa.table(cols)

        got = ds.map_batches(grab, batch_format="pyarrow").to_pandas()
        allv = np.concatenate(list(got["v"].to_numpy()))
        if key_col is None:
            return float(np.sort(allv)[rank_in - 1])
        allk = np.concatenate(list(got["k"].to_numpy()))
        order = np.lexsort((allk, allv))
        i = order[rank_in - 1]
        return (float(allv[i]), int(allk[i]))

    def tied_value_rank(lo: float, hi: float, rank_in: int):
        """Bracket collapsed below float spacing (a run of near-equal
        values bigger than ``local_max``).  Without a key: walk the
        (bounded) distinct values.  With a key: the rank element's
        VALUE comes from the distinct walk; its KEY from an integer
        descent among the rows tied on that value."""

        def uniq(batch: pa.Table) -> pa.Table:
            v = batch[value_col].to_numpy()
            sel = v[(v >= lo) & (v <= hi)]
            u, c = np.unique(sel, return_counts=True)
            return pa.table({"u": [u.astype(np.float64)], "c": [c]})

        got = ds.map_batches(uniq, batch_format="pyarrow").to_pandas()
        u = np.concatenate(list(got["u"].to_numpy()))
        c = np.concatenate(list(got["c"].to_numpy())).astype(np.int64)
        order = np.argsort(u, kind="stable")
        s = pd.Series(c[order]).groupby(u[order]).sum()
        cum = s.cumsum().to_numpy()
        j = int(np.searchsorted(cum, rank_in))
        val = float(s.index.to_numpy()[j])
        if key_col is None:
            return val
        # rank within the rows whose value == val, by key ascending
        r_in_ties = rank_in - (int(cum[j - 1]) if j else 0)
        key = _select_int_key(make_ds, value_col, val, key_col, r_in_ties,
                              bins=bins, local_max=local_max)
        return (val, key)

    while any(t["rank"] not in answers for t in targets):
        open_ts = [t for t in targets if t["rank"] not in answers]
        res = hist_pass([(t["lo"], t["hi"]) for t in open_ts])
        for t, (below, h, vmin, vmax) in zip(open_ts, res):
            r = t["rank"] - below  # 1-indexed within [lo, hi]
            if vmin == vmax:
                # one distinct value fills the bracket (massive tie):
                # the answer IS that value, no narrowing needed
                if key_col is None:
                    answers[t["rank"]] = vmin
                else:
                    answers[t["rank"]] = (
                        vmin,
                        _select_int_key(make_ds, value_col, vmin, key_col,
                                        r, bins=bins, local_max=local_max),
                    )
                continue
            edges = np.linspace(t["lo"], t["hi"], bins + 1)
            if not np.all(np.diff(edges) > 0):  # fp-collapsed bracket
                answers[t["rank"]] = tied_value_rank(t["lo"], t["hi"], r)
                continue
            cum = np.cumsum(h)
            j = int(np.searchsorted(cum, r))
            lo_new, hi_new = float(edges[j]), float(edges[j + 1])
            r_in_bin = r - (int(cum[j - 1]) if j else 0)
            last = j == bins - 1  # numpy's last bin is right-INclusive
            if int(h[j]) <= local_max:
                answers[t["rank"]] = pull_rank(lo_new, hi_new, last, r_in_bin)
            else:
                t["lo"], t["hi"] = lo_new, hi_new
                if not last:
                    t["hi"] = float(np.nextafter(hi_new, lo_new))
    return {r: answers[r] for r in set(ranks)}


def _select_int_key(
    make_ds, value_col: str, val: float, key_col: str, rank_in: int,
    *, bins: int, local_max: int,
) -> int:
    """Integer-key descent among the rows with ``value == val``: the
    key at 1-indexed ``rank_in`` in ascending key order.  Integer
    brackets terminate unconditionally — once ``hi - lo < bins`` every
    bin holds one distinct key, so each pass strictly shrinks.
    ``rank_in`` stays GLOBAL over the tied run (each pass recomputes
    ``below`` for the current lo — the exact_quantiles no-drift
    invariant)."""

    def span(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy()
        k = batch[key_col].to_numpy()[v == val]
        return pa.table(
            {
                "lo": pa.array([int(k.min()) if len(k) else np.iinfo(np.int64).max],
                               pa.int64()),
                "hi": pa.array([int(k.max()) if len(k) else np.iinfo(np.int64).min],
                               pa.int64()),
            }
        )

    st = make_ds().map_batches(span, batch_format="pyarrow").to_pandas()
    lo, hi = int(st["lo"].min()), int(st["hi"].max())
    while True:
        edges = np.unique(np.linspace(lo, hi + 1, bins + 1).astype(np.int64))

        def partial(batch: pa.Table, _edges=edges, _lo=lo, _hi=hi) -> pa.Table:
            v = batch[value_col].to_numpy()
            tied = batch[key_col].to_numpy()[v == val]
            below = int((tied < _lo).sum())
            k = tied[(tied >= _lo) & (tied <= _hi)]
            h = np.histogram(k, bins=_edges)[0].astype(np.int64)
            return pa.table(
                {
                    "below_0": [below],
                    "hist_0": [h],
                    "vmin_0": [float(k.min()) if len(k) else np.inf],
                    "vmax_0": [float(k.max()) if len(k) else -np.inf],
                }
            )

        parts = make_ds().map_batches(partial, batch_format="pyarrow").to_pandas()
        ((below, h, kmin, kmax),) = _fold_hist(parts, 1)
        if kmin == kmax:  # one distinct key left in the bracket
            return int(kmin)
        r = rank_in - below
        cum = np.cumsum(h)
        j = int(np.searchsorted(cum, r))
        lo_new = int(edges[j])
        hi_new = int(edges[j + 1]) - 1 if j < len(edges) - 2 else int(edges[j + 1])
        r_in = r - (int(cum[j - 1]) if j else 0)
        if int(h[j]) <= local_max or lo_new == hi_new:

            def grab(batch: pa.Table) -> pa.Table:
                v = batch[value_col].to_numpy()
                k = batch[key_col].to_numpy()[v == val]
                k = k[(k >= lo_new) & (k <= hi_new)]
                return pa.table({"k": [k.astype(np.int64)]})

            got = make_ds().map_batches(grab, batch_format="pyarrow").to_pandas()
            allk = np.sort(np.concatenate(list(got["k"].to_numpy())))
            return int(allk[r_in - 1])
        # rank stays GLOBAL over the tied run; next pass recomputes below
        lo, hi = lo_new, hi_new


def select_ranks_by_group(
    make_ds,
    value_col: str,
    group_col: str,
    ranks_of: dict[object, list[int]],
    *,
    bins: int = _BINS,
    local_max: int = _LOCAL_MAX,
) -> dict[object, dict[int, float]]:
    """GROUPED order-statistic selection: for each group ``g`` (a value
    of ``group_col``), the elements at the given 1-indexed ranks within
    that group's rows — every open (group, rank) target shares each
    distributed pass (one histogram per target per batch), so the whole
    grouped vector costs the same number of corpus reads as a single
    ungrouped selection.  Driver state is O(bins × targets); the
    grouped-sketch discipline (heavy_terms_per_lang,
    value_quantiles_by_type) applied to EXACT selection."""
    targets: list[dict] = []
    for g, rs in ranks_of.items():
        for r in sorted(set(rs)):
            targets.append({"g": g, "rank": r, "lo": None, "hi": None})
    if not targets:
        return {}

    n = int(make_ds().count())
    if n <= LOCAL_SELECT_MAX_ROWS:
        groups = list(ranks_of)

        # per-group counts ride along for the same rank validation the
        # descent's span pass performs (ValueError on the driver, not a
        # wrapped in-task IndexError)
        def local(t: pa.Table) -> pa.Table:
            v = t[value_col].to_numpy().astype(np.float64)
            gv = t[group_col].to_pandas().to_numpy()
            gi_out, r_out, v_out, ng_out = [], [], [], []
            for gi, g in enumerate(groups):
                sel = np.sort(v[gv == g])
                for r in sorted(set(ranks_of[g])):
                    gi_out.append(gi)
                    r_out.append(r)
                    ng_out.append(len(sel))
                    v_out.append(
                        float(sel[r - 1]) if 1 <= r <= len(sel) else np.nan
                    )
            return pa.table(
                {"gi": pa.array(gi_out, pa.int64()),
                 "r": pa.array(r_out, pa.int64()),
                 "v": pa.array(v_out, pa.float64()),
                 "ng": pa.array(ng_out, pa.int64())}
            )

        got = run_single_task(make_ds(), local, n).to_pandas()
        out_fast: dict[object, dict[int, float]] = {}
        for gi, r, v, ng in zip(got["gi"], got["r"], got["v"], got["ng"]):
            if not (1 <= int(r) <= int(ng)):
                raise ValueError(
                    f"rank {int(r)} out of [1, {int(ng)}] for group "
                    f"{groups[int(gi)]!r}"
                )
            out_fast.setdefault(groups[int(gi)], {})[int(r)] = float(v)
        return out_fast

    def span_part(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy()
        gv = batch[group_col].to_pandas().to_numpy()
        cols: dict = {}
        for i, t in enumerate(targets):
            sel = v[gv == t["g"]]
            cols[f"n_{i}"] = [int(len(sel))]
            cols[f"lo_{i}"] = [float(sel.min()) if len(sel) else np.inf]
            cols[f"hi_{i}"] = [float(sel.max()) if len(sel) else -np.inf]
        return pa.table(cols)

    st = make_ds().map_batches(span_part, batch_format="pyarrow").to_pandas()
    for i, t in enumerate(targets):
        n_g = int(st[f"n_{i}"].sum())
        if not (1 <= t["rank"] <= n_g):
            raise ValueError(
                f"rank {t['rank']} out of [1, {n_g}] for group {t['g']!r}"
            )
        t["lo"], t["hi"] = float(st[f"lo_{i}"].min()), float(st[f"hi_{i}"].max())

    answers: dict[tuple, float] = {}

    def hist_pass(open_ts):
        bnd = [np.linspace(t["lo"], t["hi"], bins + 1) for t in open_ts]

        def partial(batch: pa.Table) -> pa.Table:
            v = batch[value_col].to_numpy()
            gv = batch[group_col].to_pandas().to_numpy()
            cols: dict = {}
            for i, t in enumerate(open_ts):
                sel = v[gv == t["g"]]
                cols[f"below_{i}"] = [int((sel < t["lo"]).sum())]
                inb = sel[(sel >= t["lo"]) & (sel <= t["hi"])]
                cols[f"hist_{i}"] = [
                    np.histogram(inb, bins=bnd[i])[0].astype(np.int64)
                ]
                cols[f"vmin_{i}"] = [float(inb.min()) if len(inb) else np.inf]
                cols[f"vmax_{i}"] = [float(inb.max()) if len(inb) else -np.inf]
            return pa.table(cols)

        parts = make_ds().map_batches(partial, batch_format="pyarrow").to_pandas()
        return _fold_hist(parts, len(open_ts))

    def pull_rank(t, lo, hi, inclusive, rank_in):
        def grab(batch: pa.Table) -> pa.Table:
            v = batch[value_col].to_numpy()
            gv = batch[group_col].to_pandas().to_numpy()
            sel = v[gv == t["g"]]
            m = (sel >= lo) & ((sel <= hi) if inclusive else (sel < hi))
            return pa.table({"v": [sel[m].astype(np.float64)]})

        got = make_ds().map_batches(grab, batch_format="pyarrow").to_pandas()
        allv = np.sort(np.concatenate(list(got["v"].to_numpy())))
        return float(allv[rank_in - 1])

    def distinct_rank(t, lo, hi, rank_in):
        def uniq(batch: pa.Table) -> pa.Table:
            v = batch[value_col].to_numpy()
            gv = batch[group_col].to_pandas().to_numpy()
            sel = v[gv == t["g"]]
            sel = sel[(sel >= lo) & (sel <= hi)]
            u, c = np.unique(sel, return_counts=True)
            return pa.table({"u": [u.astype(np.float64)], "c": [c]})

        got = make_ds().map_batches(uniq, batch_format="pyarrow").to_pandas()
        u = np.concatenate(list(got["u"].to_numpy()))
        c = np.concatenate(list(got["c"].to_numpy())).astype(np.int64)
        order = np.argsort(u, kind="stable")
        s = pd.Series(c[order]).groupby(u[order]).sum()
        cum = s.cumsum().to_numpy()
        return float(s.index.to_numpy()[int(np.searchsorted(cum, rank_in))])

    def key(t):
        return (t["g"], t["rank"])

    while any(key(t) not in answers for t in targets):
        open_ts = [t for t in targets if key(t) not in answers]
        res = hist_pass(open_ts)
        for t, (below, h, vmin, vmax) in zip(open_ts, res):
            r = t["rank"] - below
            if vmin == vmax:  # one distinct value fills the bracket
                answers[key(t)] = vmin
                continue
            edges = np.linspace(t["lo"], t["hi"], bins + 1)
            if not np.all(np.diff(edges) > 0):
                answers[key(t)] = distinct_rank(t, t["lo"], t["hi"], r)
                continue
            cum = np.cumsum(h)
            j = int(np.searchsorted(cum, r))
            lo_new, hi_new = float(edges[j]), float(edges[j + 1])
            r_in_bin = r - (int(cum[j - 1]) if j else 0)
            last = j == bins - 1
            if int(h[j]) <= local_max:
                answers[key(t)] = pull_rank(t, lo_new, hi_new, last, r_in_bin)
            else:
                t["lo"], t["hi"] = lo_new, hi_new
                if not last:
                    t["hi"] = float(np.nextafter(hi_new, lo_new))
    out: dict[object, dict[int, float]] = {}
    for t in targets:
        out.setdefault(t["g"], {})[t["rank"]] = answers[key(t)]
    return out
