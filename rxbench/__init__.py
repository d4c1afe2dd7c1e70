"""End-to-end benchmark of the index build and BM25 query engine.

Run ``python3 rxbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``run.py``.
"""
