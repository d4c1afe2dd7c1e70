"""``bench.py``'s regression tripwire compares a run only with a
recorded run on the same CPU count."""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import bench  # noqa: E402


def _record(path, num_cpus: int, seconds: float) -> None:
    parsed = {"num_cpus": num_cpus, "queries": {"index_build": seconds}}
    path.write_text(json.dumps({"cpus": num_cpus, "parsed": parsed}))


def test_regressions_compare_same_cpu_count_only(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "REPO", str(tmp_path))
    _record(tmp_path / "BENCH_r01.json", 4, 2.0)
    _record(tmp_path / "BENCH_r02.json", 32, 0.5)
    # the newest record ran on 32 CPUs: a 4-CPU run is held to r01 only
    assert bench._regressions({"index_build": 2.2}, 4) == {}
    slow = bench._regressions({"index_build": 9.0}, 4)
    assert slow["index_build"]["r01_s"] == 2.0
    assert set(bench._regressions({"index_build": 9.0}, 32)["index_build"]) >= {
        "r02_s"
    }


def test_regressions_without_same_cpu_record_flag_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "REPO", str(tmp_path))
    _record(tmp_path / "BENCH_r01.json", 32, 0.5)
    got = bench._regressions({"index_build": 100.0}, 4)
    assert got == {"no_reference": "no parsed BENCH_r*.json ran with num_cpus=4"}
