"""Edit-distance-≤2 fuzzy matching: the min-plus-scan DP kernel
(``editk_mask``) vs the reference DP, the k=2 q-gram prune's
losslessness, and the engine surface (``fuzzy_terms(max_edits=2)``)."""

from __future__ import annotations

import itertools
import random

import numpy as np

from torchtrajectory_ray.functions.fuzzy import (
    edit1_mask,
    editk_mask,
    levenshtein_ref,
)
from torchtrajectory_ray.state.dictscan import DictScanIndex


def test_editk_exhaustive_small_alphabet():
    words = [""] + [
        "".join(p)
        for n in range(1, 5)
        for p in itertools.product("ab", repeat=n)
    ]
    arr = np.asarray(words, dtype=object)
    for k in (0, 1, 2, 3):
        for q in words:
            got = editk_mask(q, arr, k)
            exp = np.asarray([levenshtein_ref(q, w) <= k for w in words])
            assert (got == exp).all(), (q, k)


def test_editk_random_words_vs_reference():
    rng = random.Random(29)
    vocab = [
        "".join(rng.choice("abcdefgh") for _ in range(rng.randint(1, 14)))
        for _ in range(1500)
    ]
    arr = np.asarray(vocab, dtype=object)
    for q in ["abcdefg", "hh", "a", "", "abcdefghijklmn", "hgfedcba"]:
        got = editk_mask(q, arr, 2)
        exp = np.asarray([levenshtein_ref(q, w) <= 2 for w in vocab])
        assert (got == exp).all(), q


def test_editk_k1_agrees_with_edit1_kernel():
    rng = random.Random(31)
    vocab = [
        "".join(rng.choice("abcd") for _ in range(rng.randint(1, 9)))
        for _ in range(800)
    ]
    arr = np.asarray(vocab, dtype=object)
    for q in ["abcd", "dcba", "aa", ""]:
        assert (editk_mask(q, arr, 1) == edit1_mask(q, arr)).all(), q


def test_editk_unicode_and_empty():
    hi = chr(0x10FFFF)
    arr = np.asarray(["", "ab", f"a{hi}", f"{hi}{hi}", f"ab{hi}cd"], dtype=object)
    for q in ("", "ab", f"a{hi}b", hi):
        got = editk_mask(q, arr, 2)
        exp = np.asarray([levenshtein_ref(q, w) <= 2 for w in arr])
        assert (got == exp).all(), repr(q)
    assert editk_mask("abc", np.asarray([], dtype=object), 2).shape == (0,)


def test_qgram_k2_prune_is_lossless():
    rng = np.random.default_rng(17)
    alphabet = list("abcdefg")
    base = [
        "aggregates", "aggregated", "agregates", "aggrxgates",
        "abcdefghij", "abcdefghxy", "zzzzzzzzz",
    ]
    vocab = sorted(
        set(base)
        | {
            "".join(rng.choice(alphabet, size=rng.integers(1, 13)))
            for _ in range(600)
        }
    )
    idx = DictScanIndex(vocab)
    arr = np.asarray(vocab, dtype=object)
    lens = np.fromiter((len(t) for t in vocab), np.int64, len(vocab))
    for q in ("aggregates", "abcdefghij", "qqqqqqqqq", "abcdefgabcd"):
        cand = idx.fuzzy_candidates(q, k=2)
        assert cand is not None  # all length >= 9
        full = sorted(arr[editk_mask(q, arr, 2, lens)])
        sub = idx.terms_arr[cand]
        pruned = sorted(sub[editk_mask(q, sub, 2, idx.lens_arr[cand])])
        assert pruned == full, q
    # below the k=2 bound (len < 9): no sound prune
    assert idx.fuzzy_candidates("abcdefgh", k=2) is None
    # ... but the SAME query still prunes at k=1 (len >= 6)
    assert idx.fuzzy_candidates("abcdefgh", k=1) is not None


def test_engine_fuzzy2_matches_bruteforce(ray_session):
    import pytest

    from torchtrajectory_ray.pipelines.corpus import _engine, documents_index

    eng = _engine(documents_index("/root/testdata/sf0.001"))
    probes = ["w0000", "w000", "w00000x", "zzz"]
    vocab = eng.term_dict.term.to_pylist()
    long_terms = [t for t in vocab if len(t) >= 9]
    if long_terms:
        probes.append(long_terms[0])
    for probe in probes:
        got = eng.fuzzy_terms(probe, max_edits=2)
        naive = sorted(
            t for t in vocab if levenshtein_ref(probe, t) <= 2
        )
        assert got["term"].tolist() == naive, probe
        # distance-2 result is a superset of distance-1
        e1 = set(eng.fuzzy_terms(probe)["term"])
        assert e1 <= set(got["term"]), probe
    with pytest.raises(ValueError):
        eng.fuzzy_terms("w0000", max_edits=3)
