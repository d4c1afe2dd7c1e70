"""Pure per-document proximity kernels over POSITION ARRAYS.

``QueryEngine.near_and`` / ``span_near`` pick their verifier from the
index.  On an index without positions they verify against the text
(``state.engine._span_doc_hits`` / ``_near_doc_hits``: each term's
positions come from re-tokenizing the stored text), calling these
kernels per doc.  On a ``store_positions=True`` index they answer from
the postings (``state.segment.SaltSearcher.span_pos`` / ``near_pos``),
which re-express the same decisions vectorized across all candidate
docs at once via composite ``ordinal<<32|pos`` keys.  These kernels are
the reference semantics of both; the route identity is pytest- and
driver-oracle-gated (``tests/test_positions.py``,
``queries()[span_match_pos / near_match_pos]``).

The kernels take one sorted int64 position array per query term and
answer "does this document match" — no text, no tokenizer.
"""
from __future__ import annotations

import numpy as np


def span_chain_ok(pos: list[np.ndarray], window: int) -> bool:
    """Terms IN ORDER at strictly increasing positions inside a span of
    at most ``window`` tokens (ordered proximity / span-near).  ``pos``
    has one ascending position array per query term IN QUERY ORDER
    (repeated terms repeat their array — strict increase forces distinct
    occurrences).  Greedy earliest chain from every start position:
    greedy is optimal for a fixed start (it minimizes the span end), and
    scanning every start covers every window; vectorized as one
    searchsorted per query term over all starts at once."""
    if any(p.size == 0 for p in pos):
        return False
    starts = pos[0].astype(np.int64)
    f = starts
    ok = np.ones(f.size, dtype=bool)
    for j in range(1, len(pos)):
        idx = np.searchsorted(pos[j], f, side="right")
        ok &= idx < pos[j].size
        idx = np.minimum(idx, pos[j].size - 1)  # masked rows: any value
        f = pos[j][idx]
    return bool(np.any(ok & (f - starts + 1 <= window)))


def near_cover_ok(pos: list[np.ndarray], window: int) -> bool:
    """Every term occurs inside some span of at most ``window``
    consecutive tokens, any order (unordered proximity — NEAR/WITHIN).
    ``pos`` has one ascending position array per UNIQUE query term.
    Classic two-pointer minimal-cover sweep over the merged position
    stream."""
    k = len(pos)
    if k == 0 or any(p.size == 0 for p in pos):
        return False
    allpos = np.concatenate(pos)
    labels = np.concatenate(
        [np.full(p.size, j, np.int64) for j, p in enumerate(pos)]
    )
    order = np.argsort(allpos, kind="stable")
    allpos, labels = allpos[order], labels[order]
    count = np.zeros(k, np.int64)
    covered = 0
    left = 0
    for right in range(len(allpos)):
        c = labels[right]
        count[c] += 1
        if count[c] == 1:
            covered += 1
        while count[labels[left]] > 1:  # shrink to the minimal cover
            count[labels[left]] -= 1
            left += 1
        if covered == k and allpos[right] - allpos[left] + 1 <= window:
            return True
    return False
