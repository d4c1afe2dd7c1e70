"""Round-3 third-pass operators: wildcard dictionary scan, numeric
range faceting, and Rocchio pseudo-relevance feedback.  Each pipeline's
sf0.01 oracle gate runs in test_driver_gate.py; these tests pin the
kernel semantics (glob translation, bucket flooring across both facet
branches, feedback determinism and expansion behavior)."""

from __future__ import annotations

import re

import numpy as np
import pytest

from torchtrajectory_ray.functions.text import glob_to_regex
from torchtrajectory_ray.pipelines.corpus import _engine, documents_index

SF = "/root/testdata/sf0.001"


def test_glob_to_regex_semantics():
    cases = [
        ("sp*", ["spark", "sp", "spun"], ["asp", "xsp"]),
        ("?able", ["table", "cable"], ["able", "stable"]),
        ("s*n", ["scan", "sn", "sun"], ["scans", "nscan"]),
        # regex metachars in the glob are matched literally
        ("a.b*", ["a.b", "a.bc"], ["axb", "axbc"]),
        ("c[1]?", ["c[1]x"], ["c1x", "cx"]),
    ]
    for pat, yes, no in cases:
        rx = re.compile(glob_to_regex(pat))
        for t in yes:
            assert rx.fullmatch(t), (pat, t)
        for t in no:
            assert not rx.fullmatch(t), (pat, t)


def test_wildcard_terms_and_or(ray_session):
    eng = _engine(documents_index(SF))
    # a plain-star glob is exactly the prefix scan
    assert eng.wildcard_terms("sp*") == eng.prefix_terms("sp")
    np.testing.assert_array_equal(eng.wildcard_or("sp*"), eng.prefix_or("sp"))
    # ? holes restrict, never extend
    q = set(eng.wildcard_terms("?able"))
    assert q <= {t for t in eng.prefix_terms("") if len(t) == 5}
    assert eng.wildcard_or("zzz*q").size == 0  # empty-scan edge


def test_facet_doclen_buckets_and_guards(ray_session):
    eng = _engine(documents_index(SF))
    f = eng.facet_counts(["the", "a"], facet_col="doclen", bucket_width=64)
    assert (f["doclen"] % 64 == 0).all()
    assert f["n_docs"].sum() == len(eng.bool_or(["the", "a"]))
    # bucketed counts are the exact regroup of the unbucketed facet
    raw = eng.facet_counts(["the", "a"], facet_col="doclen")
    regroup = (
        raw.assign(b=(raw["doclen"] // 64) * 64)
        .groupby("b")["n_docs"]
        .sum()
    )
    assert dict(zip(f["doclen"], f["n_docs"])) == regroup.to_dict()
    with pytest.raises(ValueError, match="numeric facets"):
        eng.facet_counts(["the"], facet_col="lang", bucket_width=8)
    with pytest.raises(ValueError, match=">= 1"):
        eng.facet_counts(["the"], facet_col="doclen", bucket_width=0)


def test_prf_expands_and_is_deterministic(ray_session):
    eng = _engine(documents_index(SF))
    q = ["spark", "join"]
    a = eng.prf_topk(q, k=10, r=3, e=2)
    assert a == eng.prf_topk(q, k=10, r=3, e=2)
    # e=0 disables expansion: boosted(all 1.0) == plain topk, bitwise
    base = eng.topk(q, k=10)
    assert eng.prf_topk(q, k=10, r=3, e=0) == base
    # with expansion the score vector must differ somewhere (the
    # expansion terms add positive contributions to feedback docs)
    assert a != base


def test_prf_edge_cases(ray_session):
    eng = _engine(documents_index(SF))
    assert eng.prf_topk(["zzzmissing"], k=5) == []  # empty base result
    # r larger than the match set still works (fb = every match)
    small = eng.prf_topk(["spark"], k=5, r=10_000, e=2)
    assert len(small) <= 5


def test_sort_by_field(ray_session):
    eng = _engine(documents_index(SF))
    top = eng.sort_by(["the", "a"], field="doclen", k=10)
    assert list(top.columns) == ["rank", "doc_id", "doclen"]
    assert (top["doclen"].diff().dropna() <= 0).all()  # descending
    # ascending flips the order
    bot = eng.sort_by(["the", "a"], field="doclen", k=10, descending=False)
    assert (bot["doclen"].diff().dropna() >= 0).all()
    # ranks tile 1..k and ties break doc_id-ascending within equal keys
    assert top["rank"].tolist() == list(range(1, len(top) + 1))
    with pytest.raises(ValueError, match="metadata column"):
        eng.sort_by(["the"], field="text")
    assert eng.sort_by(["zzzmissing"]).empty


def test_topk_corrected(ray_session):
    eng = _engine(documents_index(SF))
    terms, res = eng.topk_corrected(["spak", "join"], k=10)
    assert "spark" in terms and "join" in terms and "spak" not in terms
    # correcting the typo == querying the corrected set directly
    assert res == eng.topk(terms, k=10)
    # in-vocab terms pass through untouched
    t2, r2 = eng.topk_corrected(["spark", "join"], k=10)
    assert t2 == sorted({"spark", "join"}) and r2 == eng.topk(t2, k=10)
    # uncorrectable-only query: empty rewrite, empty result
    t3, r3 = eng.topk_corrected(["zzznothing"], k=10)
    assert t3 == [] and r3 == []
    # two typos of one word collapse to a single corrected term
    t4, _ = eng.topk_corrected(["spak", "sparkk"], k=5)
    assert t4 == ["spark"]


def test_bool_min_match_identities(ray_session):
    eng = _engine(documents_index(SF))
    q = ["the", "a", "row"]
    # m=1 == OR, m=n == AND, monotone containment in between
    np.testing.assert_array_equal(eng.bool_min_match(q, 1), eng.bool_or(q))
    np.testing.assert_array_equal(eng.bool_min_match(q, 3), eng.bool_and(q))
    m2 = set(eng.bool_min_match(q, 2).tolist())
    assert set(eng.bool_min_match(q, 3).tolist()) <= m2 <= set(
        eng.bool_or(q).tolist()
    )
    # unindexed terms cannot contribute to the count
    assert eng.bool_min_match(["spark", "zzzmissing"], 2).size == 0
    np.testing.assert_array_equal(
        eng.bool_min_match(["spark", "zzzmissing"], 1), eng.bool_or(["spark"])
    )
    import pytest

    with pytest.raises(ValueError, match=">= 1"):
        eng.bool_min_match(q, 0)


def test_topk_min_match(ray_session):
    eng = _engine(documents_index(SF))
    q = ["the", "a", "row"]
    # m=1 ranks exactly like plain topk (candidates = OR set)
    assert eng.topk_min_match(q, 1, k=10) == eng.topk(sorted(set(q)), k=10)
    # every ranked doc satisfies the candidate predicate
    got = eng.topk_min_match(q, 2, k=10)
    cand = set(eng.bool_min_match(q, 2).tolist())
    assert got and all(d in cand for d, _ in got)
    assert eng.topk_min_match(["spark", "zzzmissing"], 2, k=5) == []
