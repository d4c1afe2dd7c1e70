"""Cursor pagination (Lucene searchAfter): pages obtained by passing the
previous page's last row must tile the global ranking bitwise — the same
identity family that gates ``topk_page`` (the rounded-protocol
``topk_paged`` driver entry covers the SQL side of pagination)."""

from __future__ import annotations

import pytest

from torchtrajectory_ray.pipelines.corpus import (
    WEB_QUERIES,
    _engine,
    documents_index,
)

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def eng(ray_session):
    return _engine(documents_index(SF))


def test_first_page_equals_topk(eng):
    for q in WEB_QUERIES:
        assert eng.search_after(q["terms"], None, k=10) == eng.topk(
            q["terms"], k=10
        ), q


def test_cursor_pages_tile_the_ranking(eng):
    """page0 + page1 + page2 via cursors == the global top-3k, bitwise
    (scores included) — no overlap, no skips, exact ties handling."""
    k = 7
    for q in WEB_QUERIES:
        full = eng.topk(q["terms"], k=3 * k)
        pages, after = [], None
        for _ in range(3):
            p = eng.search_after(q["terms"], after, k=k)
            if not p:
                break
            pages.extend(p)
            after = p[-1]
        assert pages == full, q


def test_cursor_equals_offset_pages(eng):
    k = 5
    for q in WEB_QUERIES[:6]:
        p0 = eng.topk(q["terms"], k=k)
        if len(p0) < k:
            continue
        assert eng.search_after(q["terms"], p0[-1], k=k) == eng.topk_page(
            q["terms"], k=k, page=1
        ), q


def test_cursor_past_the_end_is_empty(eng):
    q = WEB_QUERIES[0]["terms"]
    everything = eng.topk(q, k=10**9)
    assert eng.search_after(q, everything[-1], k=5) == []


def test_distributed_parity(ray_session):
    from torchtrajectory_ray.state.engine import QueryEngine

    idx = documents_index(SF)
    local, dist = QueryEngine(idx), QueryEngine(idx, distributed=True)
    q = WEB_QUERIES[0]["terms"]
    p0 = local.topk(q, k=5)
    assert dist.search_after(q, p0[-1], k=5) == local.search_after(
        q, p0[-1], k=5
    )


def test_filters_compose(ray_session):
    from torchtrajectory_ray.state.engine import QueryEngine

    eng = QueryEngine(documents_index(SF))
    q = WEB_QUERIES[0]["terms"]
    full = eng.topk(q, k=20, lang="en")
    if len(full) > 10:
        head, tail = full[:10], full[10:]
        assert (
            eng.search_after(q, head[-1], k=len(tail), lang="en") == tail
        )


def test_significant_terms_branches_agree(eng):
    """Pushdown and distributed-membership branches of the
    significant-terms aggregation return identical tables (the driver
    oracle gates the values; this gates the branch switch)."""
    q = WEB_QUERIES[0]["terms"]
    a = eng.significant_terms(q, n=15, max_candidates=1 << 62)
    b = eng.significant_terms(q, n=15, max_candidates=0)
    assert a.values.tolist() == b.values.tolist()
    assert len(a) > 0
    # lift ordering and the min_fg floor hold
    assert (a["fg_df"] >= 3).all()
    assert a["lift"].is_monotonic_decreasing or len(a) <= 1


def test_count_equals_boolean_sizes_and_distributed(ray_session):
    from torchtrajectory_ray.state.engine import QueryEngine

    idx = documents_index(SF)
    eng, dist = QueryEngine(idx), QueryEngine(idx, distributed=True)
    for q in WEB_QUERIES[:6]:
        assert eng.count(q["terms"], "or") == eng.bool_or(q["terms"]).size
        assert eng.count(q["terms"], "and") == eng.bool_and(q["terms"]).size
        assert dist.count(q["terms"], "or") == eng.count(q["terms"], "or")
    assert eng.count(["nosuchtermxyz"], "or") == 0
    import pytest

    with pytest.raises(ValueError, match="mode"):
        eng.count(["the"], "xor")
