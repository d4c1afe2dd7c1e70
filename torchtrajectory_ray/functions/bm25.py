"""BM25 scoring math (vectorized).

Replaces the reference's pluggable similarity measures
(/root/reference/src/main/java/au/edu/rmit/bdm/Torch/queryEngine/similarity/
SimilarityFunction.java:50-300) and the LORS edge-length-weighted DP scorer
(Torch/base/invertedIndex/EdgeInvertedIndex.java:196-233).

score(q, d) = Σ_t idf(t) · tf·(k1+1) / (tf + k1·(1 − b + b·dl/avgdl))
idf(t)      = ln(1 + (N − df + 0.5)/(df + 0.5))        (Lucene-style, ≥ 0)

The per-term **upper bound** idf(t)·(k1+1) plays the role the edge length
plays in the reference's candidate upper bound (EdgeInvertedIndex.java:121);
per-block maxima of the tf-normalization term give the per-term bounds
of the MaxScore top-k (state/segment.py).
"""

from __future__ import annotations

import numpy as np


def idf(df: np.ndarray | float, n_docs: float) -> np.ndarray | float:
    return np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def tf_norm(
    tf: np.ndarray, doclen: np.ndarray, avgdl: float, k1: float, b: float
) -> np.ndarray:
    """tf·(k1+1) / (tf + k1·(1 − b + b·dl/avgdl)) — the doc-side factor."""
    tf = tf.astype(np.float64)
    denom = tf + k1 * (1.0 - b + b * (doclen.astype(np.float64) / avgdl))
    return tf * (k1 + 1.0) / denom
