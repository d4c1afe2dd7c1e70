"""URL hygiene for web-crawl corpora: canonicalization, re-crawl dedup,
per-domain stats, and host-blocklist filtering.

The standard first stage of a Common-Crawl-style pipeline (the reference's
ingest normalizes raw entries the same way — `TrajReader` drops malformed
rows and canonicalizes ids before anything else, reference
src/main/java/au/edu/rmit/bdm/Torch/base/db/TrajReader.java): before any
content-level dedup, crawls of the SAME page must collapse to one
canonical URL.  Rules implemented (the widely-published canonical set —
RFC 3986 normalization + tracking-parameter strips):

  * drop the fragment (``#...``)
  * lowercase the scheme and the authority (host[:port])
  * strip explicit default ports (``:443``, ``:80``)
  * drop ``utm_*`` tracking parameters (other params kept, order kept)
  * strip trailing slashes from the path (RFC-normalizing an empty path
    with a query to ``host/?q``)

Everything is zero-copy Arrow: the kernel is pure ``pyarrow.compute``
(RE2 regex + split/join kernels), no per-row Python anywhere — at
10^12 documents URL canonicalization is a hot full-corpus scan.

The sf ``documents`` table has no URL column, so the driver-facing
operators derive a deterministic MESSY crawl URL per doc_id (uppercase
hosts, :443 ports, utm params, fragments, trailing slashes, and a
//3 re-crawl collision so three doc_ids share each page).  The DuckDB
oracle reconstructs the CANONICAL form arithmetically from doc_id —
it never parses a URL — so the gate compares two independent
derivations: the string-parsing kernel here vs integer arithmetic.
"""

from __future__ import annotations

import re
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from torchtrajectory_ray.functions.single_task import run_single_task
from torchtrajectory_ray.functions.text import _COMMENT, _SCRIPT_STYLE

# Hosts blocked by the (tiny, broadcast) blocklist operator.  At real
# scale this is a UT1-style list of ~1e6 hosts: small enough to ship to
# every task as a frozenset via ray.put, never a shuffle side.
BLOCKED_HOSTS = (
    "site13.example",
    "site29.example",
    "site61.example",
    "site83.example",
)

_N_URL_PARTS = 256


def canonicalize_urls(urls: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Vectorized URL canonicalization (see module docstring for rules).

    Rows that are not absolute URLs (``scheme://...``) surface as NULLS —
    the kernel is TOTAL (hypothesis-gated): one junk row must never raise
    out of a 100-TB scan.  (``list_element`` RAISES on the 1-element split
    a scheme-less row produces, so ill-formed rows are nulled up front.)
    ~6 RE2 passes + 2 splits per batch, no Python per row.
    """
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    if not pa.types.is_string(urls.type):
        # e.g. the null-typed array pa.array([]) infers, or large_string
        # (the joins below build string-typed pieces): cast, don't raise
        urls = urls.cast(pa.string())
    ok = pc.match_substring_regex(urls, r"^[A-Za-z][A-Za-z0-9+.\-]*://")
    urls = pc.if_else(
        pc.fill_null(ok, False), urls, pa.nulls(len(urls), pa.string())
    )
    u = pc.replace_substring_regex(urls, r"#.*$", "")  # fragment
    parts = pc.split_pattern(u, "://", max_splits=1)
    scheme = pc.utf8_lower(pc.list_element(parts, 0))
    rest = pc.list_element(parts, 1)
    # normalize "host?q" (query before any slash) to "host/?q", and
    # guarantee a "/" exists so the authority/path split is total
    rest = pc.replace_substring_regex(rest, r"^([^/?]*)\?", r"\1/?")
    rest = pc.if_else(
        pc.match_substring(rest, "/"),
        rest,
        pc.binary_join_element_wise(rest, "/", ""),
    )
    rp = pc.split_pattern(rest, "/", max_splits=1)
    auth = pc.utf8_lower(pc.list_element(rp, 0))
    auth = pc.replace_substring_regex(auth, r":(443|80)$", "")
    pathq = pc.list_element(rp, 1)
    # drop utm_* params; if the dropped param was first, promote the next
    # separator back to "?"
    pathq = pc.replace_substring_regex(pathq, r"[?&]utm_[^&]*", "")
    pathq = pc.replace_substring_regex(pathq, r"^([^?&]*)&", r"\1?")
    # trailing slash: before the query or at the end
    pathq = pc.replace_substring_regex(pathq, r"/+(\?)", r"\1")
    pathq = pc.replace_substring_regex(pathq, r"/+$", "")
    slash = pc.if_else(
        pc.equal(pathq, ""),
        pa.nulls(len(pathq), pa.string()).fill_null(""),
        pc.binary_join_element_wise(
            pa.nulls(len(pathq), pa.string()).fill_null("/"), pathq, ""
        ),
    )
    return pc.binary_join_element_wise(scheme, "://", auth, slash, "")


def with_canonical_urls(
    ds: ray.data.Dataset, url_col: str = "url", out_col: str = "canon_url"
) -> ray.data.Dataset:
    """Library-facing transform: append the canonical form of ``url_col``
    to any Dataset (e.g. a fixtures/WARC webpages table)."""

    def f(batch: pa.Table) -> pa.Table:
        return batch.append_column(out_col, canonicalize_urls(batch[url_col]))

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# deterministic messy-crawl synthesis (driver-gate harness)
# ---------------------------------------------------------------------------


def synthetic_crawl_urls(doc_ids: np.ndarray) -> pa.Array:
    """A messy crawl URL per doc_id, vectorized.  Three consecutive
    doc_ids are re-crawls of the SAME page (page = doc_id // 3): the
    page determines everything canonical (host, path, the kept ``id``
    param), while per-crawl modular branches add only NON-canonical
    noise — uppercase hosts, explicit :443 ports, trailing slashes,
    utm params and fragments — so canonicalization must collapse each
    page's crawls to one identical URL.  The DuckDB oracle reconstructs
    the CANONICAL target with pure integer arithmetic (no URL parsing).
    """
    i = doc_ids.astype(np.int64)
    p = i // 3
    site = (p % 97).astype("U3")
    page = p.astype("U20")
    host = np.where(
        i % 11 == 0,
        np.char.add(np.char.add("SITE", site), ".EXAMPLE"),
        np.char.add(np.char.add("site", site), ".example"),
    )
    port = np.where(i % 17 == 2, ":443", "")
    path = np.char.add("/page/", page)
    tslash = np.where(i % 19 == 4, "/", "")
    # query: a page-level kept param plus per-crawl utm noise, joined
    # with "&" only between the non-empty pieces
    kept = np.where(p % 4 == 1, np.char.add("id=", (p % 5).astype("U1")), "")
    utm1 = np.where(i % 7 == 3, "utm_source=feed", "")
    utm2 = np.where(i % 7 == 5, "utm_campaign=x", "")
    q = utm1
    q = np.char.add(np.char.add(q, np.where((q != "") & (kept != ""), "&", "")), kept)
    q = np.char.add(np.char.add(q, np.where((q != "") & (utm2 != ""), "&", "")), utm2)
    query = np.where(q != "", np.char.add("?", q), "")
    frag = np.where(i % 13 == 1, "#frag", "")
    out = np.char.add("https://", host)
    for piece in (port, path, tslash, query, frag):
        out = np.char.add(out, piece)
    return pa.array(out.tolist(), pa.string())


# SQL fragment the oracles share: the canonical URL from doc_id arithmetic
# (independent of the parsing kernel above).
CANON_SQL = (
    "('https://site' || ((doc_id // 3) % 97)::VARCHAR || '.example/page/' "
    "|| (doc_id // 3)::VARCHAR "
    "|| CASE WHEN (doc_id // 3) % 4 = 1 "
    "THEN '?id=' || ((doc_id // 3) % 5)::VARCHAR ELSE '' END)"
)
HOST_SQL = "('site' || ((doc_id // 3) % 97)::VARCHAR || '.example')"


def _read_ids(sf_dir: str, extra: list[str] | None = None) -> ray.data.Dataset:
    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"] + (extra or [])
    )


def _with_canon(batch: pa.Table) -> pa.Table:
    ids = batch["doc_id"].to_numpy()
    canon = canonicalize_urls(synthetic_crawl_urls(ids))
    return batch.append_column("canon_url", canon)


# ---------------------------------------------------------------------------
# driver-facing operators
# ---------------------------------------------------------------------------


def url_dedup(sf_dir: str) -> ray.data.Dataset:
    """Re-crawl dedup: one row per canonical URL keeping the LATEST crawl
    (max doc_id — ingest order is crawl order) plus the crawl count.

    Exchange shape mirrors ``textstats.exact_dedup``: each batch
    pre-reduces its own canon groups, then a 256-way hash exchange on the
    canonical URL's bytes co-locates groups without a global string sort.
    """

    def partials(batch: pa.Table) -> pa.Table:
        t = _with_canon(batch)
        ids = t["doc_id"].to_numpy()
        canon = np.asarray(t["canon_url"].to_pylist(), dtype=object)
        uniq, inv = np.unique(canon, return_inverse=True)
        latest = np.full(len(uniq), np.iinfo(np.int64).min, np.int64)
        np.maximum.at(latest, inv, ids)
        n = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        # crc32 is process-independent (str hash() is salted per worker
        # and would split a page's rows across parts)
        part = np.fromiter(
            (zlib.crc32(s.encode()) % _N_URL_PARTS for s in uniq),
            np.int64,
            len(uniq),
        )
        return pa.table(
            {
                "canon_url": pa.array(list(uniq), pa.string()),
                "doc_id": pa.array(latest, pa.int64()),
                "n_crawls": pa.array(n, pa.int64()),
                "part": pa.array(part % _N_URL_PARTS, pa.int32()),
            }
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("canon_url", sort=False).agg(
            doc_id=("doc_id", "max"), n_crawls=("n_crawls", "sum")
        )
        return out.reset_index()

    return (
        _read_ids(sf_dir)
        .map_batches(partials, batch_format="pyarrow")
        .groupby("part")
        .map_groups(merge, batch_format="pandas")
        .select_columns(["canon_url", "doc_id", "n_crawls"])
    )


def domain_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-host crawl stats: total crawled docs, DISTINCT canonical pages,
    and total extracted chars.

    Scale shape: batch partials keyed by (host, canon) → 256-way hash
    exchange on the canonical URL (so each page's rows land in ONE part)
    → per-part fold to ONE row per host → the final groupby moves at most
    parts × hosts tiny rows.

    Raw corpora without a precomputed ``n_chars`` column (e.g. the soak
    shards) fall back to ``utf8_length(text)`` inside the batch."""
    import pyarrow.dataset as pds

    has_chars = "n_chars" in pds.dataset(
        f"{sf_dir}/documents.parquet"
    ).schema.names

    def partials(batch: pa.Table) -> pa.Table:
        t = _with_canon(batch)
        canon = np.asarray(t["canon_url"].to_pylist(), dtype=object)
        chars = (
            t["n_chars"].to_numpy()
            if has_chars
            else pc.utf8_length(t["text"]).to_numpy().astype(np.int64)
        )
        uniq, inv = np.unique(canon, return_inverse=True)
        n = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        csum = np.zeros(len(uniq), np.int64)
        np.add.at(csum, inv, chars)
        part = np.fromiter(
            (zlib.crc32(s.encode()) % _N_URL_PARTS for s in uniq),
            np.int64,
            len(uniq),
        )
        return pa.table(
            {
                "canon_url": pa.array(list(uniq), pa.string()),
                "n_docs": pa.array(n, pa.int64()),
                "total_chars": pa.array(csum, pa.int64()),
                "part": pa.array(part % _N_URL_PARTS, pa.int32()),
            }
        )

    def fold_part(g: pd.DataFrame) -> pd.DataFrame:
        per_page = g.groupby("canon_url", sort=False).agg(
            n_docs=("n_docs", "sum"), total_chars=("total_chars", "sum")
        )
        host = per_page.index.str.split("/").str[2]
        out = per_page.groupby(host.values).agg(
            n_docs=("n_docs", "sum"), total_chars=("total_chars", "sum")
        )
        out["n_pages"] = per_page.groupby(host.values).size()
        return out.rename_axis("host").reset_index()

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("host", sort=False).agg(
            n_docs=("n_docs", "sum"),
            n_pages=("n_pages", "sum"),
            total_chars=("total_chars", "sum"),
        )
        return out.reset_index()

    return (
        _read_ids(sf_dir, ["n_chars"] if has_chars else ["text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("part")
        .map_groups(fold_part, batch_format="pandas")
        .groupby("host")
        .map_groups(final, batch_format="pandas")
        .select_columns(["host", "n_docs", "n_pages", "total_chars"])
    )


def blocklist_summary(sf_dir: str) -> ray.data.Dataset:
    """Host-blocklist filter audit: per lang, docs kept vs blocked.

    The blocklist rides into every task as a tiny frozenset (the
    broadcast-small-side rule); the filter itself is one vectorized
    ``isin`` per batch.  Counting BOTH sides gates keep and drop."""
    blocked = frozenset(BLOCKED_HOSTS)

    def partials(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        site = (ids // 3) % 97
        is_blocked = np.isin(
            site,
            np.array(
                [int(h.split(".")[0][4:]) for h in sorted(blocked)], np.int64
            ),
        )
        # derive the host through the PARSING kernel so the gate still
        # exercises it (the oracle derives arithmetically)
        canon = canonicalize_urls(synthetic_crawl_urls(ids)).to_pylist()
        hosts = np.asarray([c.split("/")[2] for c in canon], dtype=object)
        kernel_blocked = np.fromiter(
            (h in blocked for h in hosts), bool, len(hosts)
        )
        if not np.array_equal(is_blocked, kernel_blocked):
            raise AssertionError("kernel host != arithmetic host")
        lang = np.asarray(batch["lang"].to_pylist(), dtype=object)
        df = pd.DataFrame(
            {"lang": lang, "blocked": kernel_blocked.astype(np.int64)}
        )
        out = df.groupby("lang", sort=False).agg(
            n_blocked=("blocked", "sum"), n=("blocked", "size")
        )
        out["n_kept"] = out.pop("n") - out["n_blocked"]
        return pa.Table.from_pandas(out.reset_index())

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.groupby("lang", sort=False)
            .agg(n_kept=("n_kept", "sum"), n_blocked=("n_blocked", "sum"))
            .reset_index()
        )

    return (
        _read_ids(sf_dir, ["lang"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(merge, batch_format="pandas")
        .select_columns(["lang", "n_kept", "n_blocked"])
    )


# ---------------------------------------------------------------------------
# link extraction + host link graph
# ---------------------------------------------------------------------------
#
# The classic web-pipeline composition the pieces above exist for:
# extract <a href> targets from raw HTML (same subtree-stripping
# discipline as functions.text.extract_text — links inside <script>/
# <style> subtrees or comments are NOT links), canonicalize them with
# the SAME kernel that dedups re-crawls, and aggregate a host→host link
# graph (the input of host-level ranking / spam analysis; reference
# analogy: the edge lists TorGraph builds from raw trajectories,
# TorGraph.java:37-97, re-targeted to hyperlinks).  Scale shape: all
# per-doc work (synthesis, extraction, canonicalization) happens inside
# the batch; only (src_host, dst_host, n) partials — bounded by the
# host-pair space, not the corpus — enter the one hash exchange.

_HREF = re.compile(
    rb"""<a\b[^>]*?\bhref\s*=\s*("([^"]*)"|'([^']*)')""",
    re.IGNORECASE | re.DOTALL,
)

# size-aware merge dispatch for the link-graph reduction (the
# LOCAL_*_MAX_ROWS convention: graph.LOCAL_GRAPH_MAX_ROWS,
# rankselect.LOCAL_SELECT_MAX_ROWS)
LOCAL_LINKGRAPH_MAX_DOCS = 4_000_000


def extract_links(html: bytes) -> list[str]:
    """href targets of real anchor tags, document order.  TOTAL on
    arbitrary bytes (hypothesis-gated); <script>/<style> subtrees and
    comments are stripped FIRST so scripted/commented-out markup never
    contributes a link — the extract_text discipline."""
    t = _SCRIPT_STYLE.sub(b" ", html)
    t = _COMMENT.sub(b" ", t)
    return [
        (m.group(2) if m.group(2) is not None else m.group(3)).decode(
            "utf-8", errors="replace"
        )
        for m in _HREF.finditer(t)
    ]


def synthetic_page_html(doc_ids: np.ndarray) -> list[bytes]:
    """Deterministic messy page HTML per doc_id.  Doc ``i`` (page
    ``p = i // 3``) carries ``i % 4`` real outlinks; link ``j`` targets
    page ``q = p*31 + 7*j + 1`` (host ``site{q % 97}.example``) through
    a MESSY crawl URL (synthetic_crawl_urls of the fake crawl id
    ``q*3 + i%3``), with the quote style and attribute spelling varying
    per link.  Docs also carry adversarial decoys the extractor must
    ignore: a scripted anchor (i % 5 == 0) and a commented-out anchor
    (i % 9 == 0) pointing at hosts that exist nowhere else — if either
    leaks through, the oracle hash mismatches."""
    ids = doc_ids.astype(np.int64)
    p = ids // 3
    k = ids % 4
    # ALL messy hrefs of the batch in ONE kernel call (the per-doc
    # pa.array + 6-RE2-pass flavor was ~1 ms/doc — this is the hot
    # per-batch path of host_link_edges)
    doc_rep = np.repeat(np.arange(len(ids)), k)
    total = int(k.sum())
    j_of = np.arange(total) - np.repeat(np.cumsum(k) - k, k)
    fake = (p[doc_rep] * 31 + 7 * j_of + 1) * 3 + ids[doc_rep] % 3
    hrefs = synthetic_crawl_urls(fake).to_pylist() if total else []
    out: list[bytes] = []
    pos = 0
    for i, pp, kk in zip(ids.tolist(), p.tolist(), k.tolist()):
        hs = hrefs[pos : pos + kk]
        pos += kk
        parts = [
            f"<html><head><title>page {pp}</title></head><body>",
            f"<p>content of page {pp}</p>",
        ]
        for j, h in enumerate(hs):
            if j % 2 == 0:
                parts.append(f'<a href="{h}">link {j}</a>')
            else:
                parts.append(f"<A HREF = '{h}'>link {j}</A>")
        if i % 5 == 0:
            parts.append(
                "<script>var x = '<a href=\"https://evil.example/x\">s</a>';"
                "</script>"
            )
        if i % 9 == 0:
            parts.append('<!-- <a href="https://ghost.example/y">c</a> -->')
        parts.append("</body></html>")
        out.append("\n".join(parts).encode())
    return out


def _host_of(canon: list) -> np.ndarray:
    """Host of each canonical URL ('' for null/ill-formed rows)."""
    return np.asarray(
        [c.split("/")[2] if c else "" for c in canon], dtype=object
    )


def host_link_edges(sf_dir: str) -> ray.data.Dataset:
    """``src_host, dst_host, n_links`` — the host-level link graph,
    derived end-to-end through the REAL kernels: synthesize each doc's
    messy HTML, extract its anchors (script/comment decoys must be
    dropped), canonicalize every href with the re-crawl kernel, reduce
    per batch, then ONE 256-way hash exchange on the (src, dst) pair."""

    def partials(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        src_host = _host_of(
            canonicalize_urls(synthetic_crawl_urls(ids)).to_pylist()
        )
        # extract per doc (regex over the bytes — the honest work), but
        # canonicalize ALL the batch's links in ONE kernel call
        all_links: list[str] = []
        srcs: list = []
        for i, html in zip(range(len(ids)), synthetic_page_html(ids)):
            links = extract_links(html)
            all_links.extend(links)
            srcs.extend([src_host[i]] * len(links))
        dsts = _host_of(
            canonicalize_urls(pa.array(all_links, pa.string())).to_pylist()
        ) if all_links else []
        if not srcs:
            return pa.table(
                {
                    "src_host": pa.array([], pa.string()),
                    "dst_host": pa.array([], pa.string()),
                    "n_links": pa.array([], pa.int64()),
                    "part": pa.array([], pa.int32()),
                }
            )
        df = pd.DataFrame({"src_host": srcs, "dst_host": dsts})
        g = df.groupby(["src_host", "dst_host"], sort=False).size()
        g = g.reset_index(name="n_links")
        part = np.fromiter(
            (
                zlib.crc32(f"{a}|{b}".encode()) % _N_URL_PARTS
                for a, b in zip(g["src_host"], g["dst_host"])
            ),
            np.int64,
            len(g),
        )
        g["part"] = part.astype(np.int32)
        return pa.Table.from_pandas(g, preserve_index=False)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.groupby(["src_host", "dst_host"], sort=False)
            .agg(n_links=("n_links", "sum"))
            .reset_index()
        )

    base = _read_ids(sf_dir)
    parts = base.map_batches(partials, batch_format="pyarrow")
    # size-aware merge (the LOCAL_*_MAX_ROWS convention): per-batch
    # partials are bounded by the batch's DISTINCT host pairs, so under
    # the doc bound one task folds them all; at web scale (host pairs ≫
    # a worker) the 256-way pair-hash exchange below takes over —
    # identity between the two is pytest-gated
    if int(base.count()) <= LOCAL_LINKGRAPH_MAX_DOCS:
        parts = parts.materialize()
        folded = run_single_task(
            parts,
            lambda t: pa.Table.from_pandas(merge(t.to_pandas()), preserve_index=False),
            parts.count(),
        )
        return folded.select_columns(["src_host", "dst_host", "n_links"])
    return (
        parts.groupby("part")
        .map_groups(merge, batch_format="pandas")
        .select_columns(["src_host", "dst_host", "n_links"])
    )


def host_outlink_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-src-host fan-out over the link graph: total links and
    distinct destination hosts.  Consumes the already-pair-reduced edge
    table (≤ hosts² rows), so the second exchange is tiny."""

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("src_host", sort=False).agg(
            n_links=("n_links", "sum"), n_dst_hosts=("dst_host", "nunique")
        )
        out["n_dst_hosts"] = out["n_dst_hosts"].astype(np.int64)
        return out.reset_index()

    edges = host_link_edges(sf_dir)
    if int(_read_ids(sf_dir).count()) <= LOCAL_LINKGRAPH_MAX_DOCS:
        # edge rows are PAIR-distinct already; one task folds per-src
        edges = edges.materialize()
        return run_single_task(
            edges,
            lambda t: pa.Table.from_pandas(fold(t.to_pandas()), preserve_index=False),
            edges.count(),
        ).select_columns(["src_host", "n_links", "n_dst_hosts"])
    return (
        edges.groupby("src_host")
        .map_groups(fold, batch_format="pandas")
        .select_columns(["src_host", "n_links", "n_dst_hosts"])
    )
