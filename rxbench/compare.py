"""Compare two sets of benchmark records (``.rxb-records/*.json``).

    python3 rxbench/compare.py BASE_RECORD... -- NEW_RECORD...

Prints, per workload and metric, the median of each side and the change.
Records taken on different hardware (any ``hardware`` field differs: Ray
CPUs, affinity CPUs, nproc, OMP_NUM_THREADS, CPU model, memory) are refused
with exit code 2, as are traced records mixed with untraced ones.  A record
whose host stole more than ``NOISY_STEAL_PER_S`` jiffies per second of its
run is named as noisy and left out of the medians; a workload left with no
record on a side is refused.
"""

from __future__ import annotations

import json
import statistics
import sys

# /proc/stat steal, summed over the host's CPUs: 10 jiffies/s is a tenth of a
# CPU taken from the run on average.  On a 4-CPU Xeon VM, runs whose spread
# stayed within the bounds saw 0.5-10, noisy ones 14-83.
NOISY_STEAL_PER_S = 10.0


def load(paths: list[str]) -> list[dict]:
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1 :])
    if not base or not new:
        print("need records on both sides", file=sys.stderr)
        return 2
    kinds = {json.dumps(r["hardware"], sort_keys=True) for r in base + new}
    if len(kinds) > 1:
        print("refused: records come from different hardware:", file=sys.stderr)
        for k in sorted(kinds):
            print(f"  {k}", file=sys.stderr)
        return 2
    if len({r["trace"] for r in base + new}) > 1:
        print("refused: traced and untraced records are mixed", file=sys.stderr)
        return 2
    noisy = [r for r in base + new if r["steal_jiffies"] > NOISY_STEAL_PER_S * r["wall_s"]]
    for r in noisy:
        print(f"noisy, left out: {r['workload']} seed {r['seed']}: "
              f"{r['steal_jiffies']} steal jiffies in {r['wall_s']:.0f} s")
    refused = False
    for wl in sorted({r["workload"] for r in base + new}):
        b = [r for r in base if r["workload"] == wl]
        n = [r for r in new if r["workload"] == wl]
        if not b or not n:
            continue
        b = [r for r in b if r not in noisy]
        n = [r for r in n if r not in noisy]
        if not b or not n:
            print(f"refused: {wl} has no calm record on a side", file=sys.stderr)
            refused = True
            continue
        print(f"{wl}: {len(b)} vs {len(n)} runs, "
              f"steal jiffies {sum(r['steal_jiffies'] for r in b)} vs "
              f"{sum(r['steal_jiffies'] for r in n)}")
        for m in sorted(b[0]["metrics"]):
            bv = [r["metrics"][m]["value"] for r in b if m in r["metrics"]]
            nv = [r["metrics"][m]["value"] for r in n if m in r["metrics"]]
            if not bv or not nv:
                continue
            mb, mn = statistics.median(bv), statistics.median(nv)
            change = (mn - mb) / mb if mb else float("nan")
            unit = b[0]["metrics"][m]["unit"]
            print(f"  {m:32s} {mb:14.4f} {mn:14.4f} {unit:10s} {change:+.1%}")
    return 2 if refused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
