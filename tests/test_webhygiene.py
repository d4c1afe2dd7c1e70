"""URL hygiene: canonicalization kernel, re-crawl dedup, domain stats,
blocklist filter.  The sf0.01 DuckDB gates run in test_driver_gate.py
(the keys are in queries() + oracle_sql()); here we pin the kernel's
string semantics and the pipelines' grouping against pandas truth."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from torchtrajectory_ray import fixtures
from torchtrajectory_ray.pipelines import webhygiene as wh

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------- kernel

CASES = [
    # fragment / utm / default port / case, all at once
    (
        "https://SITE22.EXAMPLE:443/page/2/?utm_source=feed&id=2#frag",
        "https://site22.example/page/2?id=2",
    ),
    # trailing utm param
    ("https://a.example/p?id=3&utm_campaign=x", "https://a.example/p?id=3"),
    # http default port
    ("http://a.example:80/p", "http://a.example/p"),
    # bare host
    ("https://a.example", "https://a.example"),
    # root slash collapses
    ("https://a.example/", "https://a.example"),
    # empty path + query normalizes to "/?", both input spellings
    ("https://a.example/?utm_a=1&utm_b=2&id=3", "https://a.example/?id=3"),
    ("https://a.example?id=3", "https://a.example/?id=3"),
    # adjacent utm params, leading and mid
    ("https://a.example/p?utm_a=1&utm_b=2&id=3", "https://a.example/p?id=3"),
    ("https://a.example/p?id=3&utm_a=1&utm_b=2", "https://a.example/p?id=3"),
    # all params dropped -> no query at all, trailing slash also gone
    ("https://a.example/p/?utm_a=1", "https://a.example/p"),
    # non-default port kept; deep path trailing slash
    ("https://a.example:8080/a/b/", "https://a.example:8080/a/b"),
    # non-utm param order preserved
    ("https://a.example/p?b=2&a=1", "https://a.example/p?b=2&a=1"),
    # uppercase scheme
    ("HTTPS://A.EXAMPLE/P#x", "https://a.example/P"),
]


def test_canonicalize_cases():
    got = wh.canonicalize_urls(pa.array([u for u, _ in CASES])).to_pylist()
    for (u, want), g in zip(CASES, got):
        assert g == want, f"{u!r}: {g!r} != {want!r}"


def _ref_canon(u: str) -> str:
    """Per-row reference implementation (urllib) mirroring the kernel's
    documented rules."""
    from urllib.parse import urlsplit

    u = u.split("#", 1)[0]
    sp = urlsplit(u)
    host = sp.netloc.lower()
    for port in (":443", ":80"):
        if host.endswith(port):
            host = host[: -len(port)]
    q = "&".join(
        p for p in sp.query.split("&") if p and not p.startswith("utm_")
    )
    path = sp.path.rstrip("/")
    out = sp.scheme.lower() + "://" + host + path
    if q:
        out += ("?" if path else "/?") + q
    return out


def test_kernel_matches_reference_on_synthetic_corpus():
    ids = np.arange(4000, dtype=np.int64)
    messy = wh.synthetic_crawl_urls(ids)
    got = wh.canonicalize_urls(messy).to_pylist()
    want = [_ref_canon(u) for u in messy.to_pylist()]
    assert got == want


def test_kernel_is_idempotent():
    ids = np.arange(1000, dtype=np.int64)
    once = wh.canonicalize_urls(wh.synthetic_crawl_urls(ids))
    twice = wh.canonicalize_urls(once)
    assert once.to_pylist() == twice.to_pylist()


# ------------------------------------------------------------- pipelines


def _truth() -> pd.DataFrame:
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "lang", "n_chars"])
    df = t.to_pandas()
    df["canon_url"] = wh.canonicalize_urls(
        wh.synthetic_crawl_urls(df["doc_id"].to_numpy())
    ).to_pylist()
    df["host"] = df["canon_url"].str.split("/").str[2]
    return df


def test_url_dedup_matches_pandas_truth(ray_session):
    got = (
        wh.url_dedup(SF)
        .to_pandas()
        .sort_values("canon_url")
        .reset_index(drop=True)
    )
    df = _truth()
    want = (
        df.groupby("canon_url")
        .agg(doc_id=("doc_id", "max"), n_crawls=("doc_id", "size"))
        .reset_index()
        .sort_values("canon_url")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # three crawls per page by construction (tail page may have fewer)
    assert got["n_crawls"].max() == 3


def test_domain_stats_matches_pandas_truth(ray_session):
    got = (
        wh.domain_stats(SF).to_pandas().sort_values("host").reset_index(drop=True)
    )
    df = _truth()
    want = (
        df.groupby("host")
        .agg(
            n_docs=("doc_id", "size"),
            n_pages=("canon_url", "nunique"),
            total_chars=("n_chars", "sum"),
        )
        .reset_index()
        .sort_values("host")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_blocklist_summary_counts_both_sides(ray_session):
    got = wh.blocklist_summary(SF).to_pandas().set_index("lang").sort_index()
    df = _truth()
    blocked = df["host"].isin(set(wh.BLOCKED_HOSTS))
    want = pd.DataFrame(
        {
            "n_kept": (~blocked).groupby(df["lang"]).sum(),
            "n_blocked": blocked.groupby(df["lang"]).sum(),
        }
    ).sort_index()
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_names=False)
    assert int(got["n_blocked"].sum()) > 0  # blocklist actually fired


def test_with_canonical_urls_on_fixture_webpages(ray_session):
    import ray

    tbl = fixtures.webpages_table(200)
    out = (
        wh.with_canonical_urls(ray.data.from_arrow(tbl))
        .to_pandas()
        .sort_values("url")
    )
    # fixture URLs are already canonical (lowercase, no port/query/frag)
    assert (out["canon_url"] == out["url"]).all()


# ------------------------------------------------- property: idempotence


from hypothesis import given, settings
from hypothesis import strategies as st

_seg = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126,
                           exclude_characters="/#?&="),
    min_size=0, max_size=8,
)
_urlish = st.builds(
    lambda scheme, host, port, segs, params, frag: (
        f"{scheme}://{host}{port}/" + "/".join(segs)
        + ("?" + "&".join(f"{k}={v}" for k, v in params) if params else "")
        + (f"#{frag}" if frag else "")
    ),
    scheme=st.sampled_from(["http", "https", "HTTP", "Https"]),
    host=st.from_regex(r"[A-Za-z0-9.\-]{1,20}", fullmatch=True),
    port=st.sampled_from(["", ":80", ":443", ":8080"]),
    segs=st.lists(_seg | st.sampled_from([".", "..", ""]), max_size=5),
    params=st.lists(
        st.tuples(
            _seg | st.sampled_from(
                ["utm_source", "utm_medium", "fbclid", "gclid", "id", "q"]
            ),
            _seg,
        ),
        max_size=5,
    ),
    frag=_seg,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_urlish | _seg, min_size=1, max_size=20))
def test_kernel_idempotent_on_adversarial_urls(urls):
    """canon(canon(u)) == canon(u) over arbitrary URL-ish strings (and
    non-URL garbage): the re-crawl dedup key is a fixpoint, so feeding an
    already-canonical corpus through the pipeline again changes nothing.
    The kernel must also be TOTAL — no input string may make the Arrow
    kernel raise."""
    arr = pa.array(urls, pa.string())
    once = wh.canonicalize_urls(arr)
    twice = wh.canonicalize_urls(once)
    assert once.to_pylist() == twice.to_pylist()
    # large_string input canonicalizes the same (and never raises)
    wide = wh.canonicalize_urls(pa.array(urls, pa.large_string()))
    assert wide.to_pylist() == once.to_pylist()
    # non-absolute-URL rows become null, never raise
    for raw, c in zip(urls, once.to_pylist()):
        if "://" not in raw:
            assert c is None


# ------------------------------------------------------- link extraction


def test_extract_links_drops_script_and_comment_decoys():
    ids = np.arange(0, 90, dtype=np.int64)
    for i, html in zip(ids.tolist(), wh.synthetic_page_html(ids)):
        links = wh.extract_links(html)
        assert len(links) == i % 4, i  # decoys never counted
        assert all("evil.example" not in l and "ghost.example" not in l
                   for l in links)
        # targets match the arithmetic model after canonicalization
        p = i // 3
        got_hosts = [c.split("/")[2] for c in
                     wh.canonicalize_urls(pa.array(links)).to_pylist()]
        want = [f"site{(p * 31 + 7 * j + 1) % 97}.example"
                for j in range(i % 4)]
        assert got_hosts == want, i


def test_extract_links_quote_and_case_variants():
    html = (b'<a href="https://a.example/1">x</a>'
            b"<A HREF = 'https://b.example/2'>y</A>"
            b'<a class="z" href="https://c.example/3">z</a>'
            b'<p href="https://not-an-anchor.example/4">p</p>')
    assert wh.extract_links(html) == [
        "https://a.example/1", "https://b.example/2", "https://c.example/3"
    ]


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=400))
def test_extract_links_total_on_arbitrary_bytes(data):
    links = wh.extract_links(data)
    assert isinstance(links, list)
    assert all(isinstance(l, str) for l in links)
    assert links == wh.extract_links(data)


def test_host_outlink_stats_matches_pandas_truth(ray_session):
    import pandas as pd
    import pyarrow.parquet as pq

    got = (
        wh.host_outlink_stats(SF)
        .to_pandas()
        .sort_values("src_host")
        .reset_index(drop=True)
    )
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"])
    ids = t["doc_id"].to_numpy()
    rows = []
    for i in ids.tolist():
        p = i // 3
        for j in range(i % 4):
            rows.append((f"site{p % 97}.example",
                         f"site{(p * 31 + 7 * j + 1) % 97}.example"))
    df = pd.DataFrame(rows, columns=["src_host", "dst_host"])
    want = (
        df.groupby("src_host")
        .agg(n_links=("dst_host", "size"), n_dst_hosts=("dst_host", "nunique"))
        .reset_index()
        .sort_values("src_host")
        .reset_index(drop=True)
        .astype({"n_links": np.int64, "n_dst_hosts": np.int64})
    )
    pd.testing.assert_frame_equal(got, want)


def test_linkgraph_exchange_path_matches_fast_path(ray_session, monkeypatch):
    """The 256-way pair-hash exchange (the above-threshold path) returns
    the same edge table and fan-out stats as the single-task fold."""
    def _sorted(df, cols):
        return df.sort_values(cols).reset_index(drop=True)

    fast_e = _sorted(wh.host_link_edges(SF).to_pandas(),
                     ["src_host", "dst_host"])
    fast_s = _sorted(wh.host_outlink_stats(SF).to_pandas(), ["src_host"])
    monkeypatch.setattr(wh, "LOCAL_LINKGRAPH_MAX_DOCS", 0)
    pd.testing.assert_frame_equal(
        _sorted(wh.host_link_edges(SF).to_pandas(),
                ["src_host", "dst_host"]),
        fast_e,
    )
    pd.testing.assert_frame_equal(
        _sorted(wh.host_outlink_stats(SF).to_pandas(), ["src_host"]), fast_s
    )
