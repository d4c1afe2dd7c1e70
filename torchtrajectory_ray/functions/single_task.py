"""One-task execution for the size-aware fast paths (rank selection,
graph fixpoints, near-dup components): an input small enough for one
worker runs ``kernel(pa.Table) -> pa.Table`` once over ALL its rows
instead of paying many exchange rounds of scheduling overhead."""

from __future__ import annotations

import pyarrow as pa


def run_single_task(ds, kernel, n_rows: int):
    """``ds`` as ONE Ray task (not on the driver) whose single batch holds
    all ``n_rows`` rows, mapped through ``kernel``; returns the (lazy)
    result Dataset.  The one-batch delivery of ``repartition(1)`` +
    ``batch_size=None`` is what every kernel's answer depends on, so the
    batch is checked against the caller's row count: a Ray change that
    splits it fails loud instead of returning a wrong answer."""

    def whole(t: pa.Table) -> pa.Table:
        if t.num_rows != n_rows:
            raise RuntimeError(
                f"single-task kernel got a batch of {t.num_rows} rows, "
                f"expected all {n_rows} rows in one batch"
            )
        return kernel(t)

    return ds.repartition(1).map_batches(
        whole, batch_format="pyarrow", batch_size=None
    )
