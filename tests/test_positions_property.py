"""Property tests for the positional machinery (no Ray needed):

- tokenize→combine full-position payload roundtrips byte-exactly for
  ARBITRARY small corpora;
- the vectorized proximity kernels agree with brute-force enumeration
  of every window on arbitrary position sets.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from torchtrajectory_ray.config import IndexConfig
from torchtrajectory_ray.functions.codec import delta_decode_concat, varint_decode
from torchtrajectory_ray.functions.proximity import near_cover_ok, span_chain_ok
from torchtrajectory_ray.stages.postings import TokenizeCombine

VOCAB = ["a", "b", "c", "d"]


@st.composite
def corpus(draw):
    n = draw(st.integers(1, 12))
    docs = [
        draw(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=30))
        for _ in range(n)
    ]
    return docs


@given(corpus())
@settings(max_examples=60, deadline=None)
def test_full_position_payload_roundtrip_property(docs):
    cfg = IndexConfig(
        num_term_shards=2,
        num_salts=2,
        store_positions=True,
    )
    tc = TokenizeCombine(cfg, shift=2)
    ids = np.arange(len(docs), dtype=np.int64) * 3  # sparse ids
    tbl = tc.combine_tokens(ids, docs)
    truth: dict[tuple, list[int]] = {}
    for d, toks in zip(ids.tolist(), docs):
        for p, t in enumerate(toks):
            truth.setdefault((t, d), []).append(p)
    seen = 0
    for r in tbl.to_pylist():
        from torchtrajectory_ray.functions.codec import delta_decode

        run_ids = delta_decode(r["doc_ids_blob"], r["df"])
        tfs = varint_decode(r["tfs_blob"], r["df"])
        pos = delta_decode_concat([r["pos_blob"]], tfs)
        off = np.concatenate(([0], np.cumsum(tfs)))
        for i, d in enumerate(run_ids.tolist()):
            got = pos[off[i] : off[i + 1]].tolist()
            assert got == truth[(r["term"], d)]
            seen += 1
    assert seen == len(truth)


def _brute_span(pos: list[np.ndarray], window: int) -> bool:
    """Enumerate every strictly-increasing occurrence assignment."""

    def rec(j, prev, start):
        if j == len(pos):
            return prev - start + 1 <= window
        for p in pos[j]:
            if p > prev and rec(j + 1, p, start):
                return True
        return False

    for s in pos[0]:
        if rec(1, s, s):
            return True
    return False


def _brute_near(pos: list[np.ndarray], window: int) -> bool:
    allp = sorted({int(p) for arr in pos for p in arr})
    for x in allp:
        if all(any(x <= int(p) <= x + window - 1 for p in arr) for arr in pos):
            return True
    return False


@st.composite
def position_sets(draw):
    k = draw(st.integers(1, 3))
    pos = [
        np.array(
            sorted(
                draw(
                    st.sets(st.integers(0, 25), min_size=1, max_size=6)
                )
            ),
            dtype=np.int64,
        )
        for _ in range(k)
    ]
    w = draw(st.integers(1, 12))
    return pos, w


@given(position_sets())
@settings(max_examples=200, deadline=None)
def test_span_kernel_matches_bruteforce(case):
    pos, w = case
    assert span_chain_ok(pos, w) == _brute_span(pos, w)


@given(position_sets())
@settings(max_examples=200, deadline=None)
def test_near_kernel_matches_bruteforce(case):
    pos, w = case
    assert near_cover_ok(pos, w) == _brute_near(pos, w)
