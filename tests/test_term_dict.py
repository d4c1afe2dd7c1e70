"""The columnar term dictionary (``state/dictscan.py::TermDict``).

The engine opens without a pandas copy of the dictionary, and every
dictionary reader answers as a pandas reference built here from the
dict shards does — on an index of a base build, two ``extend_index``
generations and tombstones.  Also: the df-0 corruption guard,
``extend_index`` without ``cfg`` and the assembly stage's schema on a
grid with empty segments."""

from __future__ import annotations

import heapq
import json
import logging
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from torchtrajectory_ray import fixtures
from torchtrajectory_ray.config import IndexConfig
from torchtrajectory_ray.functions.fuzzy import levenshtein_ref
from torchtrajectory_ray.functions.text import glob_to_regex, term_hash
from torchtrajectory_ray.pipelines.build import (
    build_index,
    delete_docs,
    extend_index,
    manifest_abspath,
)
from torchtrajectory_ray.pipelines.federated import FederatedEngine
from torchtrajectory_ray.state.engine import QueryEngine

N = 300
CFG = dict(num_term_shards=3, num_salts=2, block_size=16)


def _dict_paths(index_dir: str) -> list[str]:
    with open(os.path.join(index_dir, "manifest.json")) as f:
        m = json.load(f)
    return [manifest_abspath(p, index_dir) for p in m["dict_paths"]]


def _ref_dict(index_dir: str) -> pd.DataFrame:
    """The pandas reference: every dict shard, concatenated."""
    return pd.concat(
        [pq.read_table(p).to_pandas() for p in _dict_paths(index_dir)],
        ignore_index=True,
    )


def _merge(parts, k):
    merged = heapq.nlargest(
        k,
        ((float(s), -int(d)) for ids, scores in parts for d, s in zip(ids, scores)),
    )
    return [(-nd, s) for s, nd in merged]


@pytest.fixture(scope="module")
def gens(ray_session, tmp_path_factory):
    """(engine opened with Table.to_pandas raising, pandas reference,
    index dir) on a base + 2 generations + tombstones index."""
    tmp = tmp_path_factory.mktemp("termdict")
    paths = fixtures.write_webpages(str(tmp / "c"), N, num_files=6)
    d = str(tmp / "idx")
    cfg = IndexConfig(**CFG)
    build_index(paths[:2], d, cfg)
    extend_index(d, paths[2:4], cfg)
    extend_index(d, paths[4:], cfg)
    with open(os.path.join(d, "manifest.json")) as f:
        docs0 = manifest_abspath(json.load(f)["docs_paths"][0], d)
    delete_docs(d, pq.read_table(docs0, columns=["doc_id"])["doc_id"].to_numpy()[::7])

    import pyarrow.pandas_compat as compat

    def no_pandas(*a, **k):
        raise AssertionError("QueryEngine.__init__ converted a Table to pandas")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compat, "table_to_dataframe", no_pandas)
        eng = QueryEngine(d)
    return eng, _ref_dict(d), d


def test_dictionary_columns_equal_reference(gens):
    eng, ref, _ = gens
    ref = ref.sort_values("term_id")
    assert np.array_equal(eng.term_dict.ids, ref["term_id"].to_numpy())
    assert np.array_equal(eng.term_dict.df, ref["df"].to_numpy())
    assert eng.term_dict.term.to_pylist() == ref["term"].tolist()


def test_resolve_terms_equals_reference(gens):
    eng, ref, _ = gens
    by_tid = dict(zip(ref["term_id"], ref["df"]))
    queries = [q["terms"] for q in fixtures.query_set(25, N)]
    queries += [["nosuchterm"], [], ["w0000", "w0000", "nosuchterm", "w0001"]]
    for q in queries:
        tids, idfs = [], []
        for t in sorted(set(q)):
            df = by_tid.get(term_hash(t))
            if df:
                tids.append(term_hash(t))
                idfs.append(float(eng.scorer.idf(df, eng.n_docs)))
        assert eng.resolve_terms(q) == (tids, idfs), q


def test_dictionary_scans_equal_reference(gens):
    eng, ref, _ = gens
    vocab = sorted(ref["term"])
    by_term = dict(zip(ref["term"], ref["df"]))
    for prefix in ("w", "w00", "needle", "", "zz"):
        want = sorted(t for t in vocab if t.startswith(prefix))
        assert eng.prefix_terms(prefix) == want, prefix
        top = sorted(want, key=lambda t: (-by_term[t], t))[:7]
        s = eng.suggest(prefix, n=7)
        assert s["term"].tolist() == top, prefix
        assert s["df"].tolist() == [by_term[t] for t in top], prefix
    for pat in ("w00.*", ".*_.*", "needle_(pair|unique)", "[a-z]+1", "nosuch"):
        rx = re.compile(pat)
        assert eng.regex_terms(pat) == [t for t in vocab if rx.fullmatch(t)], pat
    for pat in ("w00*", "*_*", "needle_?air", "*phrase*"):
        rx = re.compile(glob_to_regex(pat))
        want = [t for t in vocab if rx.fullmatch(t)]
        assert eng.wildcard_terms(pat) == want, pat


def test_fuzzy_terms_equal_reference(gens):
    eng, ref, _ = gens
    by_term = dict(zip(ref["term"], ref["df"]))
    long_terms = sorted(t for t in by_term if len(t) >= 9)
    assert long_terms  # the needles are long enough for the k=2 bound
    probes = ["w0000", "w000", "w00x1", "zz"]  # short: full scan
    probes += [long_terms[0], long_terms[0][:-1], long_terms[-1] + "x"]
    for probe in probes:
        for edits in (1, 2):
            got = eng.fuzzy_terms(probe, max_edits=edits)
            want = sorted(
                t for t in by_term if levenshtein_ref(probe, t) <= edits
            )
            assert got["term"].tolist() == want, (probe, edits)
            assert got["df"].tolist() == [by_term[t] for t in want]


def test_short_fuzzy_probe_builds_no_trigrams(gens):
    eng = QueryEngine(gens[2])
    assert len(eng.fuzzy_terms("w000", max_edits=2))
    assert "_post" not in vars(eng._scan_index())  # no q-gram bound at len 4
    eng.fuzzy_terms("needle_pair")
    assert "_post" in vars(eng._scan_index())


def test_scored_readers_equal_reference(gens):
    eng, ref, _ = gens
    by_term = dict(zip(ref["term"], ref["df"]))

    def idf(df):
        return float(eng.scorer.idf(df, eng.n_docs))

    # explain: each row's df / idf from the dictionary
    for d, s in eng.topk(["w0001", "w0007", "nosuchterm"], k=3):
        ex = eng.explain(["w0001", "w0007", "nosuchterm"], d)
        assert ex["score"] == s
        for row in ex["terms"]:
            assert row["df"] == by_term[row["term"]]
            assert row["idf"] == idf(by_term[row["term"]])

    boosts = {"w0001": 2.0, "w0010": 0.5, "needle_pair": 3.0, "nosuchterm": 4.0}
    known = sorted(t for t in boosts if t in by_term)
    want = _merge(
        eng._fanout(
            "topk",
            [term_hash(t) for t in known],
            [idf(by_term[t]) * boosts[t] for t in known],
            10,
            "wand",
            None,
            None,
            None,
        ),
        10,
    )
    assert eng.topk_boosted(boosts, k=10) == want

    groups = [["w0003", "w0004", "nosuchterm"], ["needle_pair"], ["nosuch2"]]
    members = [sorted(t for t in set(g) if t in by_term) for g in groups]
    members = [m for m in members if m]
    want = _merge(
        eng._fanout(
            "topk_groups",
            [[term_hash(t) for t in m] for m in members],
            [idf(max(by_term[t] for t in m)) for m in members],
            10,
            None,
            None,
            None,
        ),
        10,
    )
    assert eng.topk_synonyms(groups, k=10) == want

    sig = eng.significant_terms(["needle_pair"], n=10, min_fg=1)
    assert len(sig)
    for term, fg_df, df, lift in sig.itertuples(index=False):
        assert df == by_term[term]
        n_fg = len(eng.bool_or(["needle_pair"]))
        assert lift == np.round((fg_df / n_fg) / (df / eng.n_docs), 6)


def test_federated_topk_equals_reference(ray_session, tmp_path):
    paths = fixtures.write_webpages(str(tmp_path / "c"), 160, num_files=4)
    cfg = IndexConfig(num_term_shards=3, num_salts=2, doc_id_mode="url_hash")
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    build_index(paths[:2], dirs[0], cfg)
    build_index(paths[2:], dirs[1], cfg)
    fed = FederatedEngine(dirs)
    df = pd.concat([_ref_dict(d) for d in dirs]).groupby("term")["df"].sum()
    for q in (["w0001", "w0009"], ["needle_pair", "nosuchterm"], ["nosuch"]):
        known = sorted(t for t in set(q) if t in df.index)
        tids = [term_hash(t) for t in known]
        idfs = [
            float(fed.engines[0].scorer.idf(int(df[t]), fed.n_docs))
            for t in known
        ]
        parts = []
        for e in fed.engines:
            parts += e._fanout("topk", tids, idfs, 10, "wand", None, None, None)
        want = _merge(parts, 10) if tids else []
        assert fed.topk(q, k=10) == want, q


def test_df0_row_fails_loud(ray_session, tmp_path):
    """A present dictionary row with df=0 is corruption: the proximity
    path raises and names check_index; resolve_terms skips the row."""
    paths = fixtures.write_webpages(str(tmp_path / "c"), 60, num_files=2)
    d = str(tmp_path / "idx")
    build_index(paths, d, IndexConfig(**CFG))
    shard = _dict_paths(d)[0]
    t = pq.read_table(shard)
    term = t["term"][0].as_py()
    df = t["df"].to_numpy().copy()
    df[0] = 0
    pq.write_table(t.set_column(t.schema.get_field_index("df"), "df", pa.array(df)), shard)
    eng = QueryEngine(d)
    assert eng.resolve_terms([term]) == ([], [])
    with pytest.raises(ValueError, match="check_index"):
        eng.phrase_and([term])


def test_extend_without_cfg_uses_the_manifest_config(ray_session, tmp_path):
    paths = fixtures.write_webpages(str(tmp_path / "c"), 120, num_files=4)
    cfg = IndexConfig(**CFG)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for d in (a, b):
        build_index(paths[:2], d, cfg)
    extend_index(a, paths[2:])
    extend_index(b, paths[2:], cfg)
    ea, eb = QueryEngine(a), QueryEngine(b)
    for q in fixtures.query_set(15, 120):
        assert ea.topk(q["terms"], k=10) == eb.topk(q["terms"], k=10)


def test_assembly_schema_is_stable_with_empty_segments(ray_session, tmp_path):
    """Ray Data warns when one block of a stage has another schema; an
    empty segment must not produce a schema-less block."""
    paths = fixtures.write_webpages(str(tmp_path / "c"), 3, num_files=1)
    seen: list[str] = []

    class Grab(logging.Handler):
        def emit(self, record):
            seen.append(record.getMessage())

    log = logging.getLogger("ray.data._internal.execution.streaming_executor_state")
    h = Grab(logging.WARNING)
    log.addHandler(h)
    try:
        m = build_index(
            paths, str(tmp_path / "i"), IndexConfig(num_term_shards=8, num_salts=4)
        )
    finally:
        log.removeHandler(h)
    assert len(m["segments"]) < 32  # the grid has empty segments
    assert not [s for s in seen if "different schema" in s], seen
