"""Spans around the program's public entry points, for the traced run.

``install`` wraps, in the calling process, the layer boundaries the
per-layer metrics are named after: the parquet input read, ``extract_text``
and the tokenizer (per-document calls, kept as counters), the partials
combine and write, segment assembly, the dictionary build, and the query
engine's term resolve, fan-out, top-k, hydration and bucket searchers.
Ray workers and actors install the same wrappers through the
``worker_process_setup_hook`` ``install_worker``.

A span is ``{"name", "t0", "t1", "parent", "search", "a"}``: ``parent`` is
the index of the enclosing span in the same batch, ``search`` the main
process's search number and ``a`` layer counts.  Spans stay in memory; a worker
appends the batch of each top-level call to ``spans-<pid>.jsonl`` under
``RXB_TRACE_DIR`` when that call returns.  The program itself is unchanged.
"""

from __future__ import annotations

import functools
import glob
import json
import os
from time import perf_counter

_REC: "Recorder | None" = None  # this process's recorder, set by install()


class Recorder:
    def __init__(self, sink_dir: str | None):
        self.sink = (
            os.path.join(sink_dir, f"spans-{os.getpid()}.jsonl") if sink_dir else None
        )
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counters: dict[str, list] = {}  # name -> [calls, busy_s, bytes]
        self.search: int | None = None
        self.enabled = True
        self.top_calls = 0  # numbers an actor's calls, in the caller's order

    def open(self, name: str) -> dict:
        span = {
            "name": name,
            "t0": perf_counter(),
            "t1": None,
            "parent": self.stack[-1] if self.stack else -1,
            "search": self.search,
            "a": {},
        }
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def close(self, span: dict) -> None:
        span["t1"] = perf_counter()
        self.stack.pop()
        if not self.stack:
            span["a"]["call"] = self.top_calls
            self.top_calls += 1
            if self.sink is not None:
                with open(self.sink, "a") as f:
                    f.write(json.dumps(self.take()) + "\n")

    def count(self, name: str, seconds: float, nbytes: int) -> None:
        c = self.counters.setdefault(name, [0, 0.0, 0])
        c[0] += 1
        c[1] += seconds
        c[2] += nbytes

    def take(self) -> dict:
        """The spans and counters recorded since the last take."""
        batch = {"pid": os.getpid(), "spans": self.spans, "counters": self.counters}
        self.spans, self.counters = [], {}
        return batch


def _span(name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = _REC
        if rec is None or not rec.enabled:
            return fn(*args, **kwargs)
        span = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(span)

    return traced


def _counted(name: str, fn):
    """Per-document calls: one counter instead of one span per call."""

    @functools.wraps(fn)
    def traced(x):
        rec = _REC
        if rec is None or not rec.enabled:
            return fn(x)
        t0 = perf_counter()
        out = fn(x)
        rec.count(name, perf_counter() - t0, len(x))
        return out

    return traced


def _postings(fn):
    """SaltSearcher.postings with its decode counts: a cache miss decodes
    every run of the term (``n`` postings in ``blocks`` 128-blocks)."""

    @functools.wraps(fn)
    def traced(self, term_id):
        rec = _REC
        if rec is None or not rec.enabled:
            return fn(self, term_id)
        hit = term_id in self._decoded_cache
        span = rec.open("segment.postings")
        try:
            out = fn(self, term_id)
        finally:
            rec.close(span)
        runs = self._rows(term_id)
        span["a"].update(
            hit=hit,
            runs=len(runs),
            n=len(out[0]),
            decoded=0 if hit else len(out[0]),
            blocks=0 if hit else sum(len(r["blk_last"]) for r in runs),
        )
        return out

    return traced


def _searcher_topk(fn):
    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        rec = _REC
        if rec is None or not rec.enabled:
            return fn(self, *args, **kwargs)
        span = rec.open("segment.topk")
        try:
            out = fn(self, *args, **kwargs)
        finally:
            rec.close(span)
        span["a"]["results"] = len(out[0])
        return out

    return traced


class _Module:
    """Stands in for a module global, overriding some of its attributes."""

    def __init__(self, mod, **overrides):
        self._mod = mod
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._mod, name)


def install(sink_dir: str | None = None) -> Recorder:
    """Wrap the layer boundaries in this process (idempotent)."""
    global _REC
    if _REC is not None:
        return _REC
    import pyarrow.parquet as pq

    from torchtrajectory_ray.functions import text
    from torchtrajectory_ray.pipelines import build
    from torchtrajectory_ray.stages import postings, prepare
    from torchtrajectory_ray.state import engine, segment

    def partials_writer(*args, **kwargs):
        w = pq.ParquetWriter(*args, **kwargs)
        w.write_table = _span("postings.partials_write", w.write_table)
        w.close = _span("postings.partials_write", w.close)
        return w

    prepare.pq = _Module(
        pq,
        read_table=_span("prepare.read", pq.read_table),
        write_table=_span("prepare.docs_write", pq.write_table),
    )
    prepare.extract_text = _counted("text.extract", text.extract_text)
    text.TOKENIZERS["default"] = _counted("text.tokenize", text.tokenize)
    postings.pq = _Module(
        pq,
        ParquetWriter=partials_writer,
        write_table=_span("postings.segment_write", pq.write_table),
    )
    P = postings
    P.FusedShardTask.__call__ = _span("build.fused_task", P.FusedShardTask.__call__)
    P.PartialsWriter._one = _span("postings.partials", P.PartialsWriter._one)
    P.TokenizeCombine.combine_tokens = _span(
        "postings.combine", P.TokenizeCombine.combine_tokens
    )
    P.SegmentWriter.__call__ = _span("postings.segment", P.SegmentWriter.__call__)
    # one wrapper object under both names, so cloudpickle ships it by
    # reference and a worker resolves it to its own wrapper
    assemble = _span("postings.assemble", P.assemble_segment)
    P.assemble_segment = build.assemble_segment = assemble
    build._build_dictionary = _span("build.dict", build._build_dictionary)

    Q = engine.QueryEngine
    Q.__init__ = _span("engine.open", Q.__init__)
    Q.resolve_terms = _span("engine.resolve_terms", Q.resolve_terms)
    Q._fanout = _span("engine.fanout", Q._fanout)
    Q.topk = _span("engine.topk", Q.topk)
    Q.resolve = _span("engine.resolve", Q.resolve)
    S = segment.SaltSearcher
    S.__init__ = _span("segment.load", S.__init__)
    S.postings = _postings(S.postings)
    S.topk = _searcher_topk(S.topk)
    _REC = Recorder(sink_dir)
    return _REC


def install_worker() -> None:
    """Ray ``worker_process_setup_hook``."""
    install(os.environ["RXB_TRACE_DIR"])


def read_worker_batches(sink_dir: str) -> list[dict]:
    """Every batch the workers flushed.  Deletes the files, so the next
    phase starts empty."""
    out = []
    for path in sorted(glob.glob(os.path.join(sink_dir, "spans-*.jsonl"))):
        with open(path) as f:
            out.extend(json.loads(line) for line in f if line.strip())
        os.remove(path)
    return out


def flatten(batches: list[dict]) -> tuple[list[dict], dict]:
    """Spans with ``dur`` and ``self`` (duration minus the part its child
    spans cover) in seconds, plus the summed counters."""
    spans, counters = [], {}
    for b in batches:
        bs = b["spans"]
        child = [0.0] * len(bs)
        for s in bs:
            s["dur"] = s["t1"] - s["t0"]
            if s["parent"] >= 0:
                child[s["parent"]] += s["dur"]
        for s, c in zip(bs, child):
            s["self"] = s["dur"] - c
        spans.extend(bs)
        for name, (n, busy, nbytes) in b["counters"].items():
            c = counters.setdefault(name, [0, 0.0, 0])
            c[0] += n
            c[1] += busy
            c[2] += nbytes
    return spans, counters
