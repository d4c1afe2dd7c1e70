"""Per-layer metrics of the traced run, derived from ``trace.py`` spans.

Each metric is named ``module.metric`` after the program module it
measures; "per search" metrics are medians over the traced searches.
"""

from __future__ import annotations

import statistics

from rxbench import trace

UNITS = {
    "prepare.read_s": "s",
    "text.extract_s": "s",
    "text.extract_mb_per_s": "MB/s",
    "text.tokenize_s": "s",
    "postings.combine_s": "s",
    "postings.partials_write_s": "s",
    "postings.partials_bytes_per_doc": "bytes/doc",
    "postings.assemble_s": "s",
    "postings.assemble_max_s": "s",
    "build.dict_s": "s",
    "build.worker_busy_ratio": "ratio",
    "build.spilled_bytes": "bytes",
    "segments.bytes_per_doc": "bytes/doc",
    "dict.bytes_per_doc": "bytes/doc",
    "ingest.extend_s": "s",
    "ingest.reopen_s": "s",
    "engine.dict_load_s": "s",
    "segment.load_s": "s",
    "engine.resolve_terms_ms": "ms",
    "segment.postings_ms": "ms",
    "segment.postings_decoded": "count",
    "segment.blocks_decoded": "count",
    "segment.decode_cache_hit_ratio": "ratio",
    "segment.score_ms": "ms",
    "segment.postings_per_result": "count",
    "segment.runs_per_probe": "count",
    "engine.hydrate_ms": "ms",
    "engine.merge_ms": "ms",
    "engine.fanout_ms": "ms",
    "segment.bucket_max_ms": "ms",
    "trace.search_p50_traced_ms": "ms",
    "trace.search_p50_untraced_ms": "ms",
}


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def build(worker_batches, main_batch, manifest, cpus: int) -> dict:
    """One build: its worker spans and counters, the main process's dictionary
    span and the manifest's stage walls."""
    spans, counters = trace.flatten(worker_batches)
    main, _ = trace.flatten([main_batch])

    def total(name, among=spans):
        return sum(s["dur"] for s in among if s["name"] == name)

    _, ext_s, ext_bytes = counters.get("text.extract", [0, 0.0, 0])
    assemble = [s["dur"] for s in spans if s["name"] == "postings.assemble"]
    busy = total("build.fused_task") + sum(assemble)
    met = manifest["metrics"]
    return {
        "prepare.read_s": total("prepare.read"),
        "text.extract_s": ext_s,
        "text.extract_mb_per_s": ext_bytes / 1e6 / ext_s if ext_s else 0.0,
        "text.tokenize_s": counters.get("text.tokenize", [0, 0.0, 0])[1],
        "postings.combine_s": total("postings.combine"),
        "postings.partials_write_s": total("postings.partials_write"),
        "postings.assemble_s": sum(assemble),
        "postings.assemble_max_s": max(assemble, default=0.0),
        "build.dict_s": total("build.dict", main),
        # task busy time over what the stage walls offered
        "build.worker_busy_ratio": busy / ((met["prepare_s"] + met["index_s"]) * cpus),
    }


def serve(main_batch, k: int) -> dict:
    """The in-process opens and traced searches."""
    spans, _ = trace.flatten([main_batch])
    opens = [i for i, s in enumerate(spans) if s["name"] == "engine.open"]
    loads = {i: 0.0 for i in opens}
    for s in spans:
        if s["name"] == "segment.load" and s["parent"] in loads:
            loads[s["parent"]] += s["dur"]
    by_search: dict[int, list] = {}
    for s in spans:
        if s["search"] is not None:
            by_search.setdefault(s["search"], []).append(s)
    per: dict[str, list] = {k_: [] for k_ in ("rt", "post", "dec", "blk", "score", "hyd")}
    hits = probes = runs = touched = results = 0
    for ss in by_search.values():
        post = [s for s in ss if s["name"] == "segment.postings"]
        tops = [s for s in ss if s["name"] == "segment.topk"]
        per["rt"].append(sum(s["dur"] for s in ss if s["name"] == "engine.resolve_terms"))
        per["post"].append(sum(s["dur"] for s in post))
        per["dec"].append(sum(s["a"]["decoded"] for s in post))
        per["blk"].append(sum(s["a"]["blocks"] for s in post))
        per["score"].append(sum(s["self"] for s in tops))
        per["hyd"].append(sum(s["dur"] for s in ss if s["name"] == "engine.resolve"))
        present = [s for s in post if s["a"]["runs"]]
        probes += len(present)
        hits += sum(s["a"]["hit"] for s in present)
        runs += sum(s["a"]["runs"] for s in present)
        touched += sum(s["a"]["n"] for s in post)
        results += min(k, sum(s["a"]["results"] for s in tops))
    return {
        "engine.dict_load_s": median([spans[i]["self"] for i in opens]),
        "segment.load_s": median(list(loads.values())),
        "engine.resolve_terms_ms": 1e3 * median(per["rt"]),
        "segment.postings_ms": 1e3 * median(per["post"]),
        "segment.postings_decoded": median(per["dec"]),
        "segment.blocks_decoded": median(per["blk"]),
        "segment.decode_cache_hit_ratio": hits / probes if probes else 0.0,
        "segment.score_ms": 1e3 * median(per["score"]),
        "segment.postings_per_result": touched / results if results else 0.0,
        "segment.runs_per_probe": runs / probes if probes else 0.0,
        "engine.hydrate_ms": 1e3 * median(per["hyd"]),
    }


def serve_ray(main_batch, worker_batches) -> dict:
    """Main-process merge and fan-out per distributed search, and the slowest
    bucket: an actor serves its calls in the caller's order, so its j-th
    top-k belongs to the j-th search."""
    spans = [s for s in trace.flatten([main_batch])[0] if s["search"] is not None]
    per_actor: dict[int, list] = {}
    for b in worker_batches:
        for s in trace.flatten([b])[0]:
            if s["name"] == "segment.topk" and s["parent"] == -1:
                per_actor.setdefault(b["pid"], []).append((s["a"]["call"], s["dur"]))
    columns = [[d for _, d in sorted(v)] for v in per_actor.values()]
    return {
        "engine.merge_ms": 1e3 * median([s["self"] for s in spans if s["name"] == "engine.topk"]),
        "engine.fanout_ms": 1e3 * median([s["dur"] for s in spans if s["name"] == "engine.fanout"]),
        "segment.bucket_max_ms": 1e3 * median([max(c) for c in zip(*columns)]),
    }
