"""Docs-preparation stage: raw web pages → forward-index ("doc store") shards.

Analog of the reference's ingest loop — ``TrajReader.readBatch`` →
map-matching → ``TorSaver.saveMappedTrajectories``
(/root/reference/src/main/java/au/edu/rmit/bdm/Torch/mapMatching/
MapMatching.java:87-120, TorSaver.java:185-258) — except nothing
accumulates in one heap and every input shard checkpoints independently:
one input parquet file → one atomically-written docs shard + a lineage
sidecar, so a rerun skips finished shards (the reference's crash-loses-
everything append files, TorSaver.java:45,257, are the anti-pattern).

Runs inside the fused build task (``stages.postings.FusedShardTask``,
one task per input file — at Common-Crawl scale input files are the
natural ~100-500 MB work units).  The per-row invariant from
BASELINE.json lives here: ``extract_text(html)`` must equal the ``text``
column byte-for-byte when both are present.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from torchtrajectory_ray.config import IndexConfig
from torchtrajectory_ray.functions.text import extract_text, get_tokenizer


def url_doc_id(url: str) -> int:
    """Stable 62-bit doc id from the url (order-independent, unlike the
    reference's arrival-order idGenerator++, Torch/base/model/TorEdge.java:17).
    62 bits keeps ids positive int64 with headroom; at 10^12 docs a
    128-bit id column would be preferred — noted, not needed here."""
    h = hashlib.blake2b(url.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(h, "little") & 0x3FFF_FFFF_FFFF_FFFF


def prepare_table(
    tbl: pa.Table,
    *,
    check_invariant: bool = True,
    doc_id_base: int | None = None,
    bad_rows: str = "raise",
    tokenizer: str = "default",
) -> tuple[pa.Table, int, list[list[str]]]:
    """Normalize one raw-pages table to the docs schema.

    Accepts any of: (url, warc_ts, html, text, lang) [input_hint shape],
    or a pre-extracted (doc_id, text, lang, ...) table.  html, when
    present, is extracted and must reproduce ``text`` byte-identically
    (rows violating the invariant raise — determinism bugs must not pass
    silently).  The html column is dropped immediately after extraction
    so wide binary payloads never travel further (SURVEY.md §7.5).

    doc_id assignment when the input has no doc_id column: with
    ``doc_id_base`` given (the default build path), ids are dense
    ``base + row`` — deterministic w.r.t. the (sorted) input file list,
    independent of execution order, and doc-local per input shard, which
    keeps every tokenize batch inside one salt range and keeps posting
    deltas small (Lucene-style segment-local ids).  Without a base, ids
    fall back to the 62-bit url hash (globally stable but spread over the
    whole id space — every batch then fans out to all salts and deltas
    are large; only use when no stable file layout exists).

    Returns (docs table, n_rejected, token lists — computed for doclen
    anyway and reused by the fused build stage so each doc is tokenized
    exactly once).  ``bad_rows`` controls rows that
    violate the extract invariant: "raise" (determinism bugs must not
    pass silently — the default) or "drop" (skip + count, the
    reference's malformed-row policy)."""
    names = set(tbl.column_names)
    n = tbl.num_rows

    n_rejected = 0
    if "html" in names:
        htmls = tbl["html"].to_pylist()
        extracted = [extract_text(h) for h in htmls]
        if "text" in names and check_invariant:
            golden = tbl["text"].to_pylist()
            bad = [i for i, (e, g) in enumerate(zip(extracted, golden)) if e != g]
            if bad and bad_rows == "raise":
                i = bad[0]
                raise ValueError(
                    f"extract invariant violated at row {i}: "
                    f"{extracted[i][:80]!r} != {golden[i][:80]!r}"
                )
            if bad:
                # drop + count, the reference's malformed-row policy
                # (TrajReader.java:80-84,104-108: log and skip)
                keep = np.ones(n, dtype=bool)
                keep[bad] = False
                tbl = tbl.filter(pa.array(keep))
                extracted = [e for i, e in enumerate(extracted) if keep[i]]
                n_rejected = len(bad)
                names = set(tbl.column_names)
                n = tbl.num_rows
        texts = extracted
    elif "text" in names:
        texts = tbl["text"].to_pylist()
    else:
        raise ValueError(f"need html or text column, got {sorted(names)}")

    if "doc_id" in names:
        doc_ids = tbl["doc_id"].to_numpy().astype(np.int64)
    elif doc_id_base is not None:
        doc_ids = doc_id_base + np.arange(n, dtype=np.int64)
    elif "url" in names:
        doc_ids = np.fromiter(
            (url_doc_id(u) for u in tbl["url"].to_pylist()), np.int64, n
        )
    else:
        raise ValueError("need doc_id, doc_id_base, or url column")

    urls = (
        tbl["url"]
        if "url" in names
        else pa.array([f"doc://{d}" for d in doc_ids], pa.string())
    )
    warc_ts = (
        tbl["warc_ts"]
        if "warc_ts" in names
        else pa.nulls(n, pa.timestamp("us"))
    )
    langs = tbl["lang"] if "lang" in names else pa.nulls(n, pa.string())
    tok = get_tokenizer(tokenizer)
    tok_lists = [tok(t) for t in texts]
    doclens = np.fromiter((len(t) for t in tok_lists), np.int64, n)

    return (
        pa.table(
            {
                "doc_id": pa.array(doc_ids),
                "url": urls,
                "warc_ts": warc_ts,
                "lang": langs,
                "doclen": pa.array(doclens),
                "text": pa.array(texts, pa.string()),
            }
        ),
        n_rejected,
        tok_lists,
    )


def prepare_file(
    path: str,
    docs_dir: str,
    cfg: IndexConfig,
    cfg_tag: str,
    doc_id_base: int | None = None,
) -> tuple[dict, pa.Table | None, list[list[str]] | None]:
    """Read one raw input parquet, prepare it and write one docs shard
    atomically.  Returns ``(lineage row, docs table, token lists)`` — the
    lineage row is the per-partition checkpoint + metrics the north rule
    requires; the docs table and token lists let the fused build stage
    combine postings without re-reading or re-tokenizing the shard.  An
    already-finished shard is skipped by checking its lineage sidecar and
    returns ``(lineage, None, None)``."""
    stem = os.path.splitext(os.path.basename(path))[0]
    out = os.path.join(docs_dir, f"docs-{stem}.parquet")
    sidecar = out + ".lineage.json"
    st = os.stat(path)
    # identity includes doc_id_base: the same file re-ordinaled by a
    # changed input set must rebuild, or two files would silently
    # share doc ids
    src_id = [st.st_size, st.st_mtime_ns, doc_id_base]
    if os.path.exists(sidecar) and os.path.exists(out):
        with open(sidecar) as f:
            lin = json.load(f)
        if lin.get("cfg_tag", "") == cfg_tag and lin.get("src_id") == src_id:
            lin["skipped"] = True
            return lin, None, None
        # stale checkpoint (different config OR changed source file):
        # rebuild

    t0 = time.monotonic()
    raw = pq.read_table(path)
    docs, n_rejected, tok_lists = prepare_table(
        raw,
        check_invariant=cfg.check_invariant,
        doc_id_base=doc_id_base,
        bad_rows=cfg.bad_rows,
        tokenizer=cfg.tokenizer,
    )
    tmp = out + ".tmp"
    pq.write_table(docs, tmp)
    os.replace(tmp, out)
    dl = docs["doclen"].to_numpy()
    ids = docs["doc_id"].to_numpy()
    lin = {
        "input": path,
        "output": out,
        "cfg_tag": cfg_tag,
        "src_id": src_id,
        "n_docs": int(docs.num_rows),
        "n_rejected": n_rejected,
        "sum_doclen": int(dl.sum()) if len(dl) else 0,
        "max_doc_id": int(ids.max()) if len(ids) else -1,
        "min_doc_id": int(ids.min()) if len(ids) else -1,
        "wall_s": round(time.monotonic() - t0, 4),
        "skipped": False,
    }
    with open(sidecar + ".tmp", "w") as f:
        json.dump(lin, f)
    os.replace(sidecar + ".tmp", sidecar)
    return lin, docs, tok_lists
