"""Benchmark of the index build and the BM25 query engine, driven through
the public API on a private Ray cluster pinned to ``cluster.RAY_CPUS``.

    python3 rxbench/run.py --workload build_rich --seed 1 --seconds 30 --trace 0

A run generates its corpus from ``--seed`` (``corpus.py``), starts the
cluster ``SETUP_STARTS`` times and makes ``SETUP_BUILDS`` tiny warm-up builds
on the last one (``setup_s``), then:

1. builds the base corpus with ``build_index``, ``BUILDS`` times into fresh
   dirs (``build_docs_per_s``, ``index_bytes_per_doc``);
2. opens it in-process with ``QueryEngine`` ``OPENS`` times and searches it:
   ``topk(terms, k=10)`` then ``resolve`` of the ids, a closed loop from one
   client thread (``search_p50_ms``, ``search_heavy_ms``).  The searches come
   in ``EXTENDS + 1`` bursts: one on the base index, then one after each
   ``extend_index`` generation (``ingest_docs_per_s``) and reopen.
   ``engine_open_s`` is the mean of the base opens and the reopens;
3. sends the same queries through ``QueryEngine(distributed=True)``, one
   searcher actor per salt bucket, on the final index
   (``search_ray_p50_ms``, ``search_ray_heavy_ms``).

The tail is the median latency of the heavy searches: the ``HEAVY_SHARE``
whose terms have the most postings, chosen by their work, not by their time.  p99 (in
the record) swings by 40-50 % between runs on a host with CPU steal, since
the slowest 1 % of searches are the ones a neighbour interrupted.

Every search is checked against an exact BM25 oracle (``check.py``), and
every distributed answer must equal bitwise the in-process answer to the
same query on the final index, computed untimed after the last burst.  A
wrong answer or a missed phase deadline is a failed operation.
``--trace 1`` runs the same workload with spans around each layer
(``trace.py``) and prints the per-layer metrics (``layers.py``) instead.

The last stdout line is the JSON result.  A record of it with the hardware
and the host-steal time goes to ``.rxb-records/`` (``compare.py`` compares
records).  A run does a fixed amount of work, the same on every commit;
``--seconds`` is accepted and not used.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

# the program itself is imported only once main() has found it
from rxbench import layers, trace  # noqa: E402
from rxbench.check import K, Oracle, oracle_self_test  # noqa: E402
from rxbench.cluster import (  # noqa: E402
    RAY_CPUS,
    Cluster,
    Deadlines,
    PhaseTimeout,
    StealMeter,
    hardware,
)
from rxbench.corpus import Corpus  # noqa: E402

RUN_BUDGET_S = 165.0  # phases stop here; a run must end within 180 s
SPILL_LIMIT = 2.0  # a build may spill at most this × its input bytes


# fixed per run, the same on every commit
SEARCHES = 360  # per stream
HEAVY_SHARE = 0.2
BUILDS = 2
OPENS = 2
SETUP_STARTS = 2
SETUP_BUILDS = 5
EXTENDS = 2
BASE_SHARDS = 4  # every docs shard costs each resolve() a file open
EXTEND_SHARDS = 1


@dataclasses.dataclass(frozen=True)
class Workload:
    rich: bool  # ~36 KB boilerplate pages instead of minimal ones
    base_docs: int
    extend_docs: int


WORKLOADS = {
    # extraction-heavy build; searches and extends on a small rich index
    "build_rich": Workload(rich=True, base_docs=2000, extend_docs=250),
    # text-only build, then ingest while serving: each extend appends a
    # generation that clamps into the tail salt bucket before a burst
    "serve_ingest": Workload(rich=False, base_docs=6000, extend_docs=1000),
}


class Run:
    """Counts operations and failures, and holds the measurements."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.info: dict = {}

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def median(xs) -> float:
    return float(statistics.median(xs))


def heavy_median(lat: list[float], cost: list[int]) -> float:
    """Median latency of the ``HEAVY_SHARE`` of searches with the largest
    ``cost`` (postings of their terms)."""
    n = max(1, int(len(lat) * HEAVY_SHARE))
    heavy = sorted(range(len(lat)), key=lambda i: (-cost[i], i))[:n]
    return median([lat[i] for i in heavy])


def file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


class Bench:
    """One run of one workload; the phases run in this order."""

    def __init__(self, name: str, seed: int, trace_on: bool, work: str, run: Run):
        from torchtrajectory_ray.config import IndexConfig

        self.w = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.run = run
        self.dl = Deadlines(RUN_BUDGET_S)
        self.corpus = Corpus(seed)
        self.oracle = Oracle(self.corpus)
        # one searcher actor per salt bucket, each asking for one CPU
        self.cfg = IndexConfig(num_term_shards=8, num_salts=RAY_CPUS)
        self.trace_dir = os.path.join(work, "trace") if trace_on else None
        self.rec = None  # this process's span recorder when tracing
        self.layer: dict[str, float] = {}
        self.cluster = None
        self.index_dir = ""
        self.answers: list[list] = []  # in-process, on the final index

    def timed(self, phase: str, deadline_s: float, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = self.dl.run(phase, deadline_s, fn, *args, **kwargs)
        return out, time.perf_counter() - t0

    def traced(self) -> tuple[dict, list[dict]]:
        """Spans since the last call: this process's batch and the workers'."""
        return self.rec.take(), trace.read_worker_batches(self.trace_dir)

    def spilled(self) -> int:
        return self.cluster.spilled_bytes()

    def generate(self) -> None:
        """Inputs are the benchmark's own work, outside every metric."""
        w, d = self.w, os.path.join(self.work, "in")

        def gen():
            self.base = self.corpus.add_generation(
                d, "base", w.base_docs, BASE_SHARDS, w.rich
            )
            self.gens = [
                self.corpus.add_generation(
                    d, f"gen{g + 1:02d}", w.extend_docs, EXTEND_SHARDS, w.rich
                )
                for g in range(EXTENDS)
            ]
            # enough shards that the warm-up build reaches every worker
            self.warm = Corpus(self.seed + 1_000_003).add_generation(
                os.path.join(self.work, "warm"), "warm", 64, 2 * RAY_CPUS, w.rich
            )

        self.dl.run("generate", 60, gen)
        self.queries = self.corpus.queries(SEARCHES)
        for qi, ok in enumerate(oracle_self_test(self.seed, self.queries[:20])):
            self.run.op(ok, f"oracle self-test query {qi}")

    def setup(self) -> None:
        """Cluster start plus tiny builds, so worker start-up and first
        imports stay out of the timed work.  ``setup_s`` is the median of
        ``SETUP_STARTS`` starts plus the median build: the first build,
        which starts the workers, is one sample of ``SETUP_BUILDS``."""
        from torchtrajectory_ray.pipelines.build import build_index

        if self.trace_dir:
            os.makedirs(self.trace_dir)
            self.rec = trace.install()
        starts = []
        for _ in range(SETUP_STARTS - 1):  # timed, then shut down
            cluster = Cluster(ROOT, self.trace_dir)
            starts.append(cluster.init_s)
            cluster.close()
        self.cluster = Cluster(ROOT, self.trace_dir)  # on the main thread
        starts.append(self.cluster.init_s)
        builds = []
        for b in range(SETUP_BUILDS):
            _, dt = self.timed(
                "setup.warmup", 60, build_index, self.warm,
                os.path.join(self.work, f"warm-idx{b}"), self.cfg,
            )
            builds.append(dt)
        self.run.info["setup_starts_s"] = starts
        self.run.info["setup_builds_s"] = builds
        self.run.put("setup_s", median(starts) + median(builds), "s")

    def build(self) -> None:
        from torchtrajectory_ray.pipelines.build import build_index, manifest_abspath

        w, run = self.w, self.run
        rates = []
        for b in range(BUILDS):
            if self.rec:  # the layers are those of the last build
                self.traced()
            self.index_dir = os.path.join(self.work, f"idx{b}")
            spill0 = self.spilled()
            m, dt = self.timed("build", 90, build_index, self.base, self.index_dir, self.cfg)
            spilled = self.spilled() - spill0
            rates.append(w.base_docs / dt)
            run.info.setdefault("build_docs_per_s", []).append(rates[-1])
            run.op(m["stats"]["n_docs"] == w.base_docs, "build n_docs")
            run.op(
                spilled <= SPILL_LIMIT * file_bytes(self.base),
                f"build spilled {spilled} B",
            )
            if b < BUILDS - 1:
                shutil.rmtree(self.index_dir)
        seg = file_bytes(manifest_abspath(s["path"], self.index_dir) for s in m["segments"])
        dic = file_bytes(manifest_abspath(p, self.index_dir) for p in m["dict_paths"])
        run.put("build_docs_per_s", median(rates), "docs/s")
        run.put("index_bytes_per_doc", (seg + dic) / w.base_docs, "bytes/doc")
        run.info["build_spilled_bytes"] = spilled
        if self.rec:
            main, workers = self.traced()
            self.layer.update(layers.build(workers, main, m, self.cluster.cpus))
            self.layer.update({
                "build.spilled_bytes": spilled,
                "segments.bytes_per_doc": seg / w.base_docs,
                "dict.bytes_per_doc": dic / w.base_docs,
                "postings.partials_bytes_per_doc": (
                    sum(p["bytes"] for p in m["partials"]) / w.base_docs
                ),
            })

    def serve(self) -> None:
        from torchtrajectory_ray.pipelines.build import extend_index
        from torchtrajectory_ray.state.engine import QueryEngine

        w, run, rec = self.w, self.run, self.rec
        opens, reopens, lat, cost, extend_s = [], [], [], [], []
        traced_lat, untraced_lat = [], []
        for _ in range(OPENS):
            # drop the last engine first: every open starts from one heap
            engine = None
            gc.collect()
            engine, dt = self.timed("open", 60, QueryEngine, self.index_dir)
            opens.append(dt)
        run.op(engine.n_docs == w.base_docs, "engine n_docs")

        def burst(engine, g: int, lo: int, hi: int) -> None:
            """Searches lo..hi-1 on index state g (base + g generations)."""
            for qi in range(lo, hi):
                if rec:
                    rec.search = qi
                    rec.enabled = qi % 2 == 0  # odd searches: overhead
                dt, hits, rows = timed_search(engine, self.queries[qi], K)
                lat.append(dt)
                cost.append(self.corpus.postings(self.queries[qi], upto=g + 1))
                if rec:
                    (traced_lat if rec.enabled else untraced_lat).append(dt)
                why = self.oracle.check(g, qi, self.queries[qi], hits, rows)
                run.op(why is None, f"search {qi} state {g}: {why}")
            if rec:
                rec.enabled, rec.search = True, None

        per_burst = SEARCHES // (EXTENDS + 1)
        for g in range(EXTENDS + 1):
            if g:
                n_docs = w.base_docs + g * w.extend_docs
                spill0 = self.spilled()
                m, dt = self.timed(
                    "extend", 60, extend_index, self.index_dir, self.gens[g - 1], self.cfg
                )
                extend_s.append(dt)
                spilled = self.spilled() - spill0
                run.op(m["stats"]["n_docs"] == n_docs, "extend n_docs")
                run.op(
                    spilled <= SPILL_LIMIT * file_bytes(self.gens[g - 1]),
                    f"extend spilled {spilled} B",
                )
                engine = None
                gc.collect()
                engine, dt = self.timed("reopen", 60, QueryEngine, self.index_dir)
                reopens.append(dt)
                run.op(engine.n_docs == n_docs, "reopen n_docs")
            hi = (g + 1) * per_burst if g < EXTENDS else SEARCHES
            self.dl.run(f"search.burst{g}", 60, burst, engine, g, g * per_burst, hi)
        # untimed: the answers every distributed search must equal
        if rec:
            rec.enabled = False
        self.answers = self.dl.run(
            "search.answers", 60, lambda: [engine.topk(q, k=K) for q in self.queries]
        )
        if rec:
            rec.enabled = True
        run.put("engine_open_s", statistics.fmean(opens + reopens), "s")
        run.put("search_p50_ms", 1e3 * median(lat), "ms")
        run.put("search_heavy_ms", 1e3 * heavy_median(lat, cost), "ms")
        run.put("ingest_docs_per_s", EXTENDS * w.extend_docs / sum(extend_s), "docs/s")
        run.info["opens_s"] = opens
        run.info["reopens_s"] = reopens
        run.info["percentiles_ms"] = {"search": percentiles_ms(lat)}
        if rec:
            main, _ = self.traced()
            self.layer.update(layers.serve(main, K))
            self.layer.update({
                "ingest.extend_s": median(extend_s),
                "ingest.reopen_s": median(reopens),
                "trace.search_p50_traced_ms": 1e3 * median(traced_lat),
                "trace.search_p50_untraced_ms": 1e3 * median(untraced_lat),
            })

    def serve_ray(self) -> None:
        import ray
        from torchtrajectory_ray.state.engine import QueryEngine

        w, run = self.w, self.run
        # each bucket actor takes a CPU: a cluster too small to place them
        # all would leave ray.get blocked forever
        self.cluster.wait_free_cpus(self.cfg.num_salts)
        t0 = time.perf_counter()
        engine = self.dl.run("ray.open", 60, QueryEngine, self.index_dir, distributed=True)
        lat, cost = [], []
        try:
            # actors load their buckets asynchronously: wait until they serve
            self.dl.run("ray.ready", 60, engine.update)
            run.info["ray_open_s"] = time.perf_counter() - t0

            def stream():
                for qi in range(SEARCHES):
                    if self.rec:
                        self.rec.search = qi
                    dt, hits, rows = timed_search(engine, self.queries[qi], K)
                    lat.append(dt)
                    cost.append(self.corpus.postings(self.queries[qi]))
                    why = self.oracle.check(EXTENDS, qi, self.queries[qi], hits, rows)
                    if why is None and hits != self.answers[qi]:
                        why = "differs from the in-process answer"
                    run.op(why is None, f"ray search {qi}: {why}")

            self.dl.run("ray.search", 90, stream)
        finally:  # release the actors' CPUs before any further Ray work
            for actor in engine.searchers:
                ray.kill(actor)
        self.cluster.wait_free_cpus(self.cfg.num_salts)
        run.put("search_ray_p50_ms", 1e3 * median(lat), "ms")
        run.put("search_ray_heavy_ms", 1e3 * heavy_median(lat, cost), "ms")
        run.info["percentiles_ms"]["ray"] = percentiles_ms(lat)
        if self.rec:
            self.layer.update(layers.serve_ray(*self.traced()))

    def close(self) -> None:
        self.run.info["phase_s"] = {k: round(v, 3) for k, v in self.dl.spent.items()}
        if self.cluster is not None:
            self.run.info["final_spilled_bytes"] = self.spilled()
            self.cluster.close()


def timed_search(engine, terms, k: int):
    """One search as a user sees it: the top-k, then its rows."""
    t0 = time.perf_counter()
    hits = engine.topk(terms, k=k)
    rows = engine.resolve([d for d, _ in hits])
    return time.perf_counter() - t0, hits, rows


def percentiles_ms(lat) -> dict:
    """Latency percentiles for the record (not metrics: see the module doc)."""
    q = statistics.quantiles(lat, n=100, method="inclusive")
    return {f"p{p}": round(1e3 * q[p - 1], 3) for p in (50, 90, 95, 98, 99)}


def measure(name: str, seed: int, trace_on: bool, work: str, run: Run) -> None:
    bench = Bench(name, seed, trace_on, work, run)
    bench.generate()
    # what exists now lives for the whole run: keep it out of every later
    # collection, which would otherwise land inside timed calls
    gc.collect()
    gc.freeze()
    try:
        bench.setup()
        bench.build()
        bench.serve()
        bench.serve_ray()
    finally:
        bench.close()
    if trace_on:
        run.metrics = {k: (float(v), layers.UNITS[k]) for k, v in bench.layer.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import torchtrajectory_ray  # noqa: F401
    except ImportError as e:
        print(f"the program is not in this checkout: {e}", file=sys.stderr)
        return 2


    hw = hardware()
    steal = StealMeter()
    work = os.path.join(ROOT, ".rxb-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    run = Run()
    timed_out = False
    t0 = time.perf_counter()
    try:
        measure(args.workload, args.seed, bool(args.trace), work, run)
    except Exception as e:  # a phase failed or missed its deadline: count it
        timed_out = isinstance(e, PhaseTimeout)
        traceback.print_exc(file=sys.stderr)
        run.op(False, f"{type(e).__name__}: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "hardware": hw,
        "steal_jiffies": steal.read(),
        "wall_s": time.perf_counter() - t0,
        "failures": run.failures,
        "info": run.info,
        **result,
    }
    rec_dir = os.path.join(ROOT, ".rxb-records")
    os.makedirs(rec_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(rec_dir, name), "w") as f:
        json.dump(record, f, indent=1)
    for why in run.failures:
        print(f"failed: {why}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    if timed_out:
        os._exit(0)  # the timed-out phase's thread may still be blocked
    return 0


if __name__ == "__main__":
    sys.exit(main())
