"""The term dictionary fold (``pipelines.build._build_dictionary``) on
synthetic segment files, without Ray.

A base and three generations of segment files carry only the five
metadata columns.  The dictionary of a build, and of each extend that
merges one generation into the previous dict shards, must equal a pandas
``groupby("term_id")`` over ALL segments of the shard in sorted-path
order — the rule the dictionary has always followed, kept here as the
reference.  Sorted-path order puts ``segments/gen-NNN/`` before the base
``segments/seg-…``, so when two terms share a term_id (a hash collision)
the earliest generation holding it names it, and the base comes last.
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from torchtrajectory_ray.config import IndexConfig
from torchtrajectory_ray.pipelines.build import _build_dictionary

CFG = IndexConfig(num_term_shards=3, num_salts=2)
COLS = ["term", "term_id", "df", "max_tf", "min_dl"]

# term ids 10/11 collide: the base names them alpha/delta, gen-001 names
# 11 delta too, gen-002 names them beta/eps.  Expected: 10 → beta (gen-002
# is its first generation), 11 → delta (gen-001 comes first)
BASE = {
    0: [(10, "alpha", 3, 2, 7), (12, "c", 1, 1, 4), (3, "x", 2, 5, 9)],
    1: [(10, "alpha", 1, 4, 3), (11, "delta", 2, 1, 6)],
    2: [(13, "m", 5, 3, 2)],
    4: [(14, "p", 1, 1, 1), (20, "q", 2, 2, 2)],
}
GENS = [
    {0: [(11, "delta", 1, 3, 5), (15, "new", 1, 1, 8)]},
    {
        0: [(10, "beta", 2, 9, 1), (3, "x", 1, 1, 1)],
        1: [(11, "eps", 4, 2, 2)],
        3: [(16, "z", 1, 1, 4)],
    },
    # shard 1 gets an empty segment file; shard 2 gets nothing
    {2: [], 0: [(12, "c", 1, 7, 2)]},
]


def _write_segments(root: str, rows_by_segment: dict) -> list[dict]:
    os.makedirs(root, exist_ok=True)
    out = []
    for seg, rows in rows_by_segment.items():
        path = os.path.join(root, f"seg-{seg:05d}-t.parquet")
        tbl = pa.table(
            {
                "term_id": pa.array([r[0] for r in rows], pa.int64()),
                "term": pa.array([r[1] for r in rows], pa.string()),
                "df": pa.array([r[2] for r in rows], pa.int64()),
                "max_tf": pa.array([r[3] for r in rows], pa.int64()),
                "min_dl": pa.array([r[4] for r in rows], pa.int64()),
            }
        )
        pq.write_table(tbl, path)
        out.append({"segment": seg, "path": path})
    return out


def _reference(seg_rows: list[dict]) -> dict[int, pa.Table]:
    """Per term shard: pandas groupby over every segment of the shard,
    concatenated in sorted-path order."""
    by_shard: dict[int, list[str]] = {}
    for r in seg_rows:
        by_shard.setdefault(r["segment"] // CFG.num_salts, []).append(r["path"])
    out = {}
    for shard, paths in by_shard.items():
        df = (
            pd.concat([pd.read_parquet(p) for p in sorted(paths)])
            .groupby("term_id", sort=True)
            .agg(term=("term", "first"), df=("df", "sum"),
                 max_tf=("max_tf", "max"), min_dl=("min_dl", "min"))
            .reset_index()[COLS]
        )
        out[shard] = pa.Table.from_pandas(df, preserve_index=False)
    return out


def _shard_of(path: str) -> int:
    return int(os.path.basename(path)[len("dict-"):][:5])


def _check(paths: list[str], seg_rows: list[dict]) -> dict[int, str]:
    ref = _reference(seg_rows)
    got = {_shard_of(p): p for p in paths}
    assert [_shard_of(p) for p in paths] == sorted(ref)  # shard order
    for shard, tbl in ref.items():
        assert pq.read_table(got[shard]).equals(tbl), shard
    return got


def test_build_then_extends_equal_full_fold(tmp_path):
    seg_root = str(tmp_path / "segments")
    dict_dir = str(tmp_path / "dict")
    os.makedirs(dict_dir)

    rows = _write_segments(seg_root, BASE)
    prev = _check(_build_dictionary(dict_dir, rows, CFG, tag="-base"), rows)

    for g, gen in enumerate(GENS, 1):
        new = _write_segments(os.path.join(seg_root, f"gen-{g:03d}"), gen)
        paths = _build_dictionary(
            dict_dir,
            new,
            CFG,
            tag=f"-g{g:03d}",
            prev_paths=list(prev.values()),
            prev_rows=rows,
        )
        rows = rows + new
        cur = _check(paths, rows)
        for shard in set(prev) - {r["segment"] // CFG.num_salts for r in new}:
            assert cur[shard] == prev[shard]  # no new segments: carried over
        prev = cur

    final = pa.concat_tables([pq.read_table(p) for p in prev.values()]).to_pydict()
    named = dict(zip(final["term_id"], final["term"]))
    assert named[10] == "beta" and named[11] == "delta"


def test_merge_without_collision_reads_only_the_new_generation(tmp_path):
    """Without a collision an extend reads the old dict shard and the new
    segments only: the older segments may be gone from disk."""
    seg_root = str(tmp_path / "segments")
    dict_dir = str(tmp_path / "dict")
    os.makedirs(dict_dir)
    rows = _write_segments(seg_root, BASE)
    prev = _check(_build_dictionary(dict_dir, rows, CFG, tag="-base"), rows)
    new = _write_segments(os.path.join(seg_root, "gen-001"), GENS[0])
    ref = _reference(rows + new)
    for r in rows:
        os.remove(r["path"])
    paths = _build_dictionary(
        dict_dir, new, CFG, tag="-g001", prev_paths=list(prev.values()), prev_rows=rows
    )
    got = {_shard_of(p): p for p in paths}
    for shard, tbl in ref.items():
        assert pq.read_table(got[shard]).equals(tbl), shard
