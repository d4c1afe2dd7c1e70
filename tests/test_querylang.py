"""Search-box mini-language: parser determinism and compositional
identities of QueryEngine.search against the verified base operators."""

from __future__ import annotations

import numpy as np
import pytest

from torchtrajectory_ray.functions.querylang import parse_query
from torchtrajectory_ray.pipelines.corpus import _engine, documents_index

SF = "/root/testdata/sf0.001"

_tok = str.split


def test_parser_clauses():
    p = parse_query('"table hash" +scan -window the data lang:en', _tok)
    assert p.phrases == [["table", "hash"]]
    assert p.must == ["scan"]
    assert p.must_not == ["window"]
    assert p.should == ["the", "data"]
    assert p.filters == {"lang": "en"}


def test_parser_fail_loud():
    with pytest.raises(ValueError, match="empty"):
        parse_query("   ", _tok)
    with pytest.raises(ValueError, match="no positive clause"):
        parse_query("-window lang:en", _tok)
    with pytest.raises(ValueError, match="unknown query field"):
        parse_query("the site:example.com", _tok)


def test_search_bare_terms_equals_topk(ray_session):
    eng = _engine(documents_index(SF))
    assert eng.search("the data", k=10) == eng.topk(["the", "data"], k=10)


def test_search_must_equals_conjunctive_ranking(ray_session):
    eng = _engine(documents_index(SF))
    got = eng.search("+the +data", k=10)
    cand = set(eng.bool_and(["the", "data"]).tolist())
    want = [(d, s) for d, s in eng.topk(["the", "data"], k=10**9) if d in cand][:10]
    assert got == want
    assert got  # non-trivial


def test_search_exclusion_and_phrase(ray_session):
    eng = _engine(documents_index(SF))
    got = eng.search("the -data", k=10**9)
    bad = set(eng.bool_or(["data"]).tolist())
    assert got and not bad & {d for d, _ in got}
    # quoted phrase restricts candidates to consecutive matches
    ph = set(eng.phrase_and(["table", "hash"]).tolist())
    got2 = eng.search('"table hash" scan', k=10**9)
    assert got2 and {d for d, _ in got2} <= ph


def test_search_lang_filter_equals_topk_lang(ray_session):
    eng = _engine(documents_index(SF))
    assert eng.search("the lang:en", k=10) == eng.topk(["the"], k=10, lang="en")


def test_search_contradiction_is_empty(ray_session):
    eng = _engine(documents_index(SF))
    assert eng.search("+spark -spark", k=10) == []
    assert eng.search('"zzz impossible phrase" the', k=10) == []


def test_parse_boost_syntax():
    from torchtrajectory_ray.functions.querylang import parse_query

    tok = str.split
    pq = parse_query("spark^2.0 +join^0.5 table", tok)
    assert pq.should == ["spark", "table"] and pq.must == ["join"]
    assert pq.boosts == {"spark": 2.0, "join": 0.5}
    # a non-numeric suffix stays part of the term, never a silent boost
    pq2 = parse_query("a^b", tok)
    assert pq2.should == ["a^b"] and not pq2.boosts
    import pytest as _pytest

    with _pytest.raises(ValueError, match="boost"):
        parse_query("spark^0", tok)
    with _pytest.raises(ValueError, match="boost"):
        parse_query("^2.0", tok)


def test_search_boost_equals_topk_boosted(ray_session):
    eng = _engine(documents_index(SF))
    got = eng.search("spark^2.0 join^0.5", k=10)
    want = eng.topk_boosted([("spark", 2.0), ("join", 0.5)], k=10)
    assert got == want and got
    # unit boost == the plain search ranking
    assert eng.search("spark^1.0 join", k=10) == eng.search("spark join", k=10)


def test_search_fuzzy_and_wildcard_grammar(ray_session):
    import pytest

    eng = _engine(documents_index(SF))
    # term~ == synonym-group scoring over the edit-1 expansion
    exp = eng.fuzzy_terms("spak")["term"].tolist()
    assert eng.search("spak~", k=10) == eng.topk_synonyms([exp], k=10)
    # wildcard token == synonym group over the glob dictionary scan
    wexp = eng.wildcard_terms("sp*")
    assert eng.search("sp*", k=10) == eng.topk_synonyms([wexp], k=10)
    # plain terms ride along as singleton groups
    assert eng.search("join spak~", k=10) == eng.topk_synonyms(
        [["join"], exp], k=10
    )
    # composes with exclusions and filters
    eng_meta = _engine(documents_index(SF))
    got = eng_meta.search("sp* -join lang:en", k=10)
    banned = set(eng.bool_or(["join"]).tolist())
    assert all(d not in banned for d, _ in got)
    # no-match expansion alone -> empty, not an error
    assert eng.search("zzz*qq", k=5) == []
    # boost + multi-term in one query fails loud
    with pytest.raises(ValueError, match="boost cannot combine"):
        eng.search("spark^2.0 spak~", k=5)
    with pytest.raises(ValueError, match="malformed fuzzy"):
        eng.search("~", k=5)


def test_multiterm_operator_misuse_fails_loud(ray_session):
    import pytest

    eng = _engine(documents_index(SF))
    # boost attached directly to a glob / fuzzy token
    with pytest.raises(ValueError, match="boost cannot combine"):
        eng.search("sp*^2.0", k=5)
    with pytest.raises(ValueError, match="boost cannot combine"):
        eng.search("spak~^2.0", k=5)
    # glob+fuzzy in one token
    with pytest.raises(ValueError, match="malformed fuzzy"):
        eng.search("sp*~", k=5)
    # metachars on +must / -not clauses never silently fragment
    with pytest.raises(ValueError, match="bare scoring term"):
        eng.search("+wild*card foo", k=5)
    with pytest.raises(ValueError, match="bare scoring term"):
        eng.search("spark -spak~", k=5)


def test_proximity_phrase_grammar(ray_session):
    """'"a b"~N' == span_near(tokens, len+N) intersected with the BM25
    ranking — composed from the oracle-gated span operator."""
    import pytest

    eng = _engine(documents_index(SF))
    from torchtrajectory_ray.functions.querylang import parse_query

    pq = parse_query('"spark join"~3 lake', eng._tokenize)
    assert pq.prox == [(["spark", "join"], 3)] and pq.should == ["lake"]
    got = eng.search('"spark join"~3', k=10**9)
    allowed = set(eng.span_near(["spark", "join"], 5).tolist())
    assert {d for d, _ in got} == allowed
    # slop 0 == the exact phrase clause
    assert eng.search('"spark join"~0', k=50) == eng.search(
        '"spark join"', k=50
    )
    # malformed slop fails loud, never a silent bare term
    with pytest.raises(ValueError, match="slop"):
        eng.search('"spark join"~x', k=5)
    with pytest.raises(ValueError, match="slop"):
        eng.search('"spark join"~-1', k=5)


# --------------------------------------------------- property: totality


from hypothesis import given, settings
from hypothesis import strategies as st

from torchtrajectory_ray.functions.text import tokenize

_qchars = st.text(
    alphabet=st.sampled_from(list('"+-:*~^()[]{}\\ .|?&!abcXYZ012µé')),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(_qchars | st.text(max_size=40))
def test_parser_totality_valueerror_only(s):
    """parse_query over ARBITRARY user input either parses or raises
    ValueError — never IndexError / TypeError / re.error.  A search box
    is the one surface that sees adversarial strings constantly (the
    webhygiene totality lesson applied to the query side)."""
    try:
        p = parse_query(s, tokenize)
    except ValueError:
        return
    for t in list(p.must) + list(p.should) + list(p.must_not):
        assert isinstance(t, str) and t
    for ph in p.phrases:
        assert all(isinstance(w, str) for w in ph)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_tokenize_total_on_arbitrary_unicode(s):
    toks = tokenize(s)
    assert isinstance(toks, list)
    assert all(isinstance(t, str) and t for t in toks)
    # deterministic
    assert toks == tokenize(s)
