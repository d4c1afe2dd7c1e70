"""Negated boolean retrieval (bool_and_not): bucket-local subtraction
must equal the global setdiff of the existing primitives, with the
unindexed-exclude and self-exclusion edges.  The sf0.01 oracle gate for
the `bool_and_not` pipeline runs in test_driver_gate.py."""

from __future__ import annotations

import numpy as np

from torchtrajectory_ray.pipelines import corpus
from torchtrajectory_ray.pipelines.corpus import _engine, documents_index

SF = "/root/testdata/sf0.001"


def test_and_not_equals_global_setdiff(ray_session):
    eng = _engine(documents_index(SF))
    for q in corpus.ANDNOT_QUERIES:
        got = eng.bool_and_not(q["include"], q["exclude"])
        want = np.setdiff1d(
            eng.bool_and(q["include"]), eng.bool_or(q["exclude"])
        )
        assert got.tolist() == want.tolist(), q


def test_and_not_edges(ray_session):
    eng = _engine(documents_index(SF))
    base = eng.bool_and(["row"])
    assert base.size > 0
    # unindexed exclude term is a no-op
    assert eng.bool_and_not(["row"], ["zzzmissing"]).tolist() == base.tolist()
    # empty exclude list is the plain AND
    assert eng.bool_and_not(["row"], []).tolist() == base.tolist()
    # self-exclusion is provably empty
    assert eng.bool_and_not(["spark"], ["spark"]).size == 0
    # unindexed include term empties the AND
    assert eng.bool_and_not(["row", "zzzmissing"], ["the"]).size == 0


def test_and_not_respects_metadata_filter(ray_session):
    eng = _engine(documents_index(SF))
    got = eng.bool_and_not(["the", "data"], ["window"], lang="en")
    want = np.setdiff1d(
        eng.bool_and(["the", "data"], lang="en"), eng.bool_or(["window"])
    )
    assert got.tolist() == want.tolist()
    assert got.size < eng.bool_and_not(["the", "data"], ["window"]).size


def test_and_not_pipeline_nonempty(ray_session):
    out = corpus.bool_and_not(SF)
    assert len(out) > 0
    assert list(out.columns) == ["query_id", "doc_id"]
    # the self-exclusion query contributes zero rows
    assert (out["query_id"] == 3).sum() == 0
