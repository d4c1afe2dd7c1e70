"""Correctness checks: every search against the exact BM25 oracle of
``corpus.py``, and that oracle against the program's reference oracle."""

from __future__ import annotations

import numpy as np

from rxbench.corpus import Corpus, idx_of_url

K = 10
TOL = 1e-9
SELF_TEST_DOCS = 300


class Oracle:
    """Exact expected answers, cached per (index state, query).  State
    ``g`` is the base corpus plus the first ``g`` extend generations."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.cache: dict = {}

    def check(self, state: int, qi: int, terms, hits, rows) -> str | None:
        """None if ``hits`` (``topk``) and ``rows`` (``resolve`` of their
        ids) are the right answer, else why not: the same count, every url
        scored within ``TOL`` of the oracle, (score desc, doc id asc) order,
        and no better-scoring doc left out."""
        key = (state, qi)
        if key not in self.cache:
            self.cache[key] = self.corpus.scores(terms, upto=state + 1)
        docs, scores = self.cache[key]
        if len(hits) != min(K, len(docs)):
            return f"{len(hits)} hits, expected {min(K, len(docs))}"
        url = dict(zip(rows["doc_id"].tolist(), rows["url"].tolist()))
        if len(url) != len(hits) or any(d not in url for d, _ in hits):
            return "resolve did not return every hit"
        if not hits:
            return None
        idx = np.array([idx_of_url(url[d]) for d, _ in hits])
        got = np.array([s for _, s in hits])
        pos = np.minimum(np.searchsorted(docs, idx), len(docs) - 1)
        if (docs[pos] != idx).any():
            return "a hit matches no query term"
        if (np.abs(scores[pos] - got) > TOL).any():
            return "score differs from the oracle"
        # doc ids ascend with the corpus index (see Corpus)
        for i in range(len(hits) - 1):
            if got[i] < got[i + 1] or (got[i] == got[i + 1] and idx[i] > idx[i + 1]):
                return "hits out of order"
        if not np.isin(docs[scores > got[-1] + TOL], idx).all():
            return "a better-scoring doc is missing"
        return None


def oracle_self_test(seed: int, queries) -> list[bool]:
    """Per query, whether this oracle agrees with the program's reference
    oracle (``torchtrajectory_ray.oracle``) on a small corpus."""
    from torchtrajectory_ray.oracle import build_oracle

    small = Corpus(seed)
    small.generate(SELF_TEST_DOCS)
    ref = build_oracle(list(range(SELF_TEST_DOCS)), small.texts(0, SELF_TEST_DOCS))
    out = []
    for terms in queries:
        docs, scores = small.scores(terms)
        mine = sorted(zip(-scores, docs))[:K]
        want = ref.topk(terms, k=K)
        out.append(
            len(want) == len(mine)
            and all(
                d == int(md) and abs(s + ms) <= TOL
                for (d, s), (ms, md) in zip(want, mine)
            )
        )
    return out
