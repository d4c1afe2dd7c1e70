"""torchtrajectory_ray — a Ray-Data-native inverted-index build + BM25 top-k
query engine over Common-Crawl-style web text.

Structural blueprint: tgbnhy/torchtrajectory ("Torch", SIGIR 2018), a
single-JVM trajectory search engine.  Its inverted-list construction
(`Torch/base/invertedIndex/InvertedIndex.java`), delta + FastPFOR posting
compression (`InvertedIndex.java:89-136`), posting-list set/count algebra
(`EdgeInvertedIndex.java:52-89`) and upper-bound-pruned top-k ("LORS",
`EdgeInvertedIndex.java:102-177`) are re-expressed here as Ray Data
pipelines over Arrow batches:

- tokenize/extract  -> ``Dataset.map_batches`` (zero-copy pyarrow)
- index build       -> fused per-file ``map_batches`` (extract, tokenize,
                       combine) -> salted (term, salt) partial runs
                       shuffled through storage -> one task per
                       segment compresses -> parquet segments
- query serving     -> stateful segment-searcher actor pool with
                       block-max upper-bound pruning (MaxScore / LORS shape)

Nothing is copied from the reference; all citations are file:line pointers
for behavioural parity only.
"""

__version__ = "0.1.0"

from torchtrajectory_ray.config import IndexConfig, BM25Params  # noqa: F401
