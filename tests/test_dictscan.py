"""Trigram / sorted-prefix dictionary-scan acceleration
(state/dictscan.py): the pattern-analysis planner must only ever claim
SOUND required literals, and the accelerated engine scans must be
bit-identical to the naive full scan on every pattern class — the
pruning is an optimization, never a semantic."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torchtrajectory_ray.functions.text import glob_to_regex
from torchtrajectory_ray.pipelines.corpus import (
    REGEX_QUERIES,
    WILDCARD_QUERIES,
    _engine,
    documents_index,
)
from torchtrajectory_ray.state.dictscan import (
    DictScanIndex,
    analyze_glob,
    analyze_regex,
)

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------- planner


def test_analyze_glob_plans():
    p = analyze_glob("sp*")
    assert p.prefix == "sp" and p.runs == ("sp",)
    p = analyze_glob("?able")
    assert p.prefix == "" and p.runs == ("able",)
    p = analyze_glob("w?ndow*")
    assert p.prefix == "w" and p.runs == ("w", "ndow")
    p = analyze_glob("*abc")
    assert p.prefix == "" and p.runs == ("abc",)
    p = analyze_glob("abc")  # no wildcard: the whole term is the prefix
    assert p.prefix == "abc" and p.runs == ("abc",)


def test_analyze_regex_prefix_soundness():
    # the canonical trap: a quantifier on the FIRST literal means the
    # later run must NOT be claimed as a start anchor
    p = analyze_regex("a?bc")
    assert p.prefix == "" and p.runs == ("bc",)
    p = analyze_regex("ab*c")
    assert p.prefix == "a" and set(p.runs) == {"a", "c"}
    p = analyze_regex("ab+c")  # + keeps its atom required
    assert p.prefix == "ab" and set(p.runs) == {"ab", "c"}
    p = analyze_regex("zzz.+")
    assert p.prefix == "zzz" and p.runs == ("zzz",)
    p = analyze_regex(".*ble")
    assert p.prefix == "" and p.runs == ("ble",)
    p = analyze_regex("[st]..")
    assert p.prefix == "" and p.runs == ()
    p = analyze_regex(r"a\.b")  # escaped punctuation is literal
    assert p.prefix == "a.b" and p.runs == ("a.b",)
    p = analyze_regex(r"a\db")  # class shorthand breaks the run
    assert p.prefix == "a" and set(p.runs) == {"a", "b"}
    p = analyze_regex("ab{2,3}c")  # counted repeat trims like '*'
    assert p.prefix == "a" and set(p.runs) == {"a", "c"}


def test_analyze_regex_bails_on_unhandled():
    for pat in ("a|b", "(ab)c", "a(?:b)c"):
        p = analyze_regex(pat)
        assert p.prefix == "" and p.runs == () and not p.exhaustive


def _naive(terms, rx):
    return sorted(t for t in terms if rx.fullmatch(t))


def test_planner_claims_hold_on_random_vocab():
    # every plan claim (prefix / contained runs) must hold for every
    # actual regex match — checked over a vocab dense enough to hit
    # the pattern shapes
    rng = np.random.default_rng(7)
    alphabet = "abcz."
    vocab = {
        "".join(rng.choice(list(alphabet), size=rng.integers(1, 8)))
        for _ in range(400)
    }
    patterns = [
        "a?bc", "ab*c", "ab+c", "a.c", "a.*c", "abc{1,2}", r"a\.b",
        "zzz.+", ".*ble", "a[bc]z", "abc", "a$", "^ab",
    ]
    for pat in patterns:
        rx = re.compile(pat)
        plan = analyze_regex(pat)
        for t in vocab:
            if rx.fullmatch(t):
                assert t.startswith(plan.prefix), (pat, t, plan)
                for run in plan.runs:
                    assert run in t, (pat, t, plan)


# ----------------------------------------------------- index scan identity


@pytest.fixture(scope="module")
def vocab_index():
    rng = np.random.default_rng(11)
    alphabet = "abcdez"
    vocab = sorted(
        {
            "".join(rng.choice(list(alphabet), size=rng.integers(1, 9)))
            for _ in range(600)
        }
        | {"spark", "sp", "table", "cable", "window", "windows", "scan"}
    )
    return vocab, DictScanIndex(vocab)


def test_scan_regex_identity_all_pattern_classes(vocab_index):
    vocab, idx = vocab_index
    patterns = [
        "sp.*", ".*ble", "[sc]..", "zzz.+", "a?bc", "ab*c", "ab+c",
        "wind.w", "w.ndow.*", "a|b", "(ab)c", "abc{1,2}", ".*", "spark",
        r"c\wble", "", "z+",
    ]
    for pat in patterns:
        rx = re.compile(pat)
        got = idx.scan_regex(rx, analyze_regex(pat))
        assert got == _naive(vocab, rx), pat


@settings(max_examples=150, deadline=None)
@given(
    pat=st.text(alphabet="abz*?", min_size=0, max_size=8),
)
def test_scan_glob_identity_property(pat, vocab_index):
    vocab, idx = vocab_index
    rx = re.compile(glob_to_regex(pat))
    got = idx.scan_regex(rx, analyze_glob(pat))
    assert got == _naive(vocab, rx)


def test_prefix_scan_identity(vocab_index):
    vocab, idx = vocab_index
    for prefix in ("", "a", "ab", "spark", "zzzz", "wind"):
        assert idx.scan_prefix(prefix) == sorted(
            t for t in vocab if t.startswith(prefix)
        )


def test_pruning_actually_prunes(vocab_index):
    vocab, idx = vocab_index
    # a selective pattern must verify far fewer candidates than |vocab|
    cand = idx.candidates(analyze_regex("wind.w.*"))
    assert cand is not None and 0 < len(cand) < len(vocab) // 4
    # an unanalyzable pattern yields no candidate set (full scan)
    assert idx.candidates(analyze_regex("[st]..")) is None


# ------------------------------------------------------- engine integration


def test_engine_scans_match_naive_on_gate_index(ray_session):
    eng = _engine(documents_index(SF))
    for q in REGEX_QUERIES:
        pat = q["pattern"]
        assert eng.regex_terms(pat) == eng._regex_terms_scan(pat), pat
    for q in WILDCARD_QUERIES:
        pat = q["pattern"]
        assert eng.wildcard_terms(pat) == eng._regex_terms_scan(
            glob_to_regex(pat)
        ), pat
    # prefix bisect == naive startswith scan (suggest builds on this)
    for prefix in ("sp", "a", "zzz", ""):
        assert eng.prefix_terms(prefix) == sorted(
            t for t in eng.term_dict.term.to_pylist() if t.startswith(prefix)
        ), prefix


def test_regex_escape_classes_are_sound(vocab_index):
    # review regression: \x41-style multi-char escapes and \t must NOT be
    # treated as "literal next char" — the planner either understands the
    # escape or bails, never claims a wrong literal
    vocab = ["abc", "a\tb", "x61bc", "tab"]
    idx = DictScanIndex(vocab)
    for pat in (r"\x61bc", r"a\tb", r"\N{BULLET}?abc", r"a\x20*b"):
        rx = re.compile(pat)
        assert idx.scan_regex(rx, analyze_regex(pat)) == _naive(vocab, rx), pat


def test_prefix_range_handles_max_code_point():
    hi_char = chr(0x10FFFF)
    vocab = ["ab", "abc", f"ab{hi_char}", f"ab{hi_char}x", hi_char]
    idx = DictScanIndex(vocab)
    assert idx.scan_prefix("ab") == sorted(
        t for t in vocab if t.startswith("ab")
    )
    assert idx.scan_prefix(hi_char) == [hi_char]
    assert idx.scan_prefix("") == sorted(vocab)


def test_fuzzy_candidates_qgram_filter_is_lossless():
    from torchtrajectory_ray.functions.fuzzy import edit1_mask

    rng = np.random.default_rng(13)
    alphabet = list("abcdefg")
    base = ["window", "windows", "widow", "wandow", "xwindow", "window",
            "abcdefgh", "abcdefh", "zzzzzz"]
    vocab = sorted(
        set(base)
        | {
            "".join(rng.choice(alphabet, size=rng.integers(1, 10)))
            for _ in range(500)
        }
    )
    idx = DictScanIndex(vocab)
    arr = np.asarray(vocab, dtype=object)
    lens = np.fromiter((len(t) for t in vocab), np.int64, len(vocab))
    for q in ("window", "abcdefgh", "qqqqqq", "abcdef", "banana"):
        cand = idx.fuzzy_candidates(q)
        assert cand is not None  # all length >= 6
        full = sorted(arr[edit1_mask(q, arr, lens)])
        sub = idx.terms_arr[cand]
        pruned = sorted(sub[edit1_mask(q, sub, idx.lens_arr[cand])])
        assert pruned == full, q
    # short queries: no sound bound, full scan
    assert idx.fuzzy_candidates("abc") is None


def test_engine_fuzzy_pruned_matches_naive(ray_session):
    eng = _engine(documents_index(SF))
    # gate-index terms are short (w0000-style, len 5) — plant a long
    # probe by checking both branches behave identically on the API
    vocab = eng.term_dict.term.to_pylist()
    long_terms = [t for t in vocab if len(t) >= 6]
    probe = long_terms[0] if long_terms else "w0000x"
    got = eng.fuzzy_terms(probe)
    naive = sorted(t for t in vocab if _edit1(probe, t))
    assert got["term"].tolist() == naive


def _edit1(a: str, b: str) -> bool:
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) == 1
    s, t = (a, b) if la < lb else (b, a)
    i = 0
    while i < len(s) and s[i] == t[i]:
        i += 1
    return s[i:] == t[i + 1 :]


def test_parallel_build_identical_to_inprocess(ray_session):
    rng = np.random.default_rng(21)
    vocab = sorted(
        {
            "".join(rng.choice(list("abcdef"), size=rng.integers(1, 9)))
            for _ in range(3_000)
        }
    )
    a = DictScanIndex(vocab, parallel=False)
    b = DictScanIndex(vocab, parallel=True)
    assert a.terms_arr.tolist() == b.terms_arr.tolist()
    assert set(a._post) == set(b._post)
    for g in a._post:
        assert np.array_equal(a._post[g], b._post[g]), g
    for pat in ("ab.*", ".*cde", "a?bcd"):
        rx = re.compile(pat)
        plan = analyze_regex(pat)
        assert a.scan_regex(rx, plan) == b.scan_regex(rx, plan), pat
