"""Compare two sets of benchmark runs, for example a parent commit and a change.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``run-*.json`` records that ``bench/run.py --out DIR``
wrote.  One row per (workload, end-to-end metric) gives each side's median
and quartiles over its untraced runs and a verdict against the metric's bound
in BENCHMARK.json:

  better / worse  the median moved by more than the bound
  unchanged       it moved by less
  unresolved      either side's spread (quartile distance over median) exceeds
                  the bound, so a move of that size could be noise

Below the rows: differences of the exact counters and result digests between
runs of the same workload and seed, then the per-layer deltas (medians over
the traced runs).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: Counters that must repeat exactly for a given seed, with the digest.
EXACT = (
    "lang.product_states",
    "lang.result_states",
    "automata.pruned_states",
    "behavioral.quotient_candidates",
    "oracle.cases",
    "contracts.incompatible_share",
)


def load(folder: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(folder, "run-*.json"))):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    if not records:
        raise SystemExit(f"error: no run-*.json records in {folder}")
    return records


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    (bm, bq1, bq3), (nm, nq1, nq3) = summary(base), summary(new)
    sign = 1 if better == "higher" else -1
    spread = max((bq3 - bq1) / abs(bm) if bm else 0.0, (nq3 - nq1) / abs(nm) if nm else 0.0)
    if spread > bound:
        # A wide spread is still a verdict when every run of one side beats
        # every run of the other.
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "better"
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "worse"
        return "unresolved"
    change = sign * (nm - bm) / abs(bm) if bm else 0.0
    if change > bound:
        return "better"
    if change < -bound:
        return "worse"
    return "unchanged"


def _values(records: list[dict], workload: str, trace: bool, key) -> list[float]:
    return [key(r) for r in records if r["workload"] == workload and r["trace"] == trace]


def compare(base: list[dict], new: list[dict], spec: dict) -> list[str]:
    lines = [
        f"{'workload':13s} {'metric':16s} {'base median [q1, q3]':>34s} {'new median [q1, q3]':>34s}"
        f" {'change':>8s}  verdict (bound)",
    ]
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for wl in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = _values(base, wl, False, lambda r: r[name])
            n = _values(new, wl, False, lambda r: r[name])
            if not b or not n:
                continue
            (bm, bq1, bq3), (nm, nq1, nq3) = summary(b), summary(n)
            change = (nm - bm) / bm * 100 if bm else 0.0
            lines.append(
                f"{wl:13s} {name:16s} {bm:12.4f} [{bq1:9.4f}, {bq3:9.4f}] {nm:12.4f} [{nq1:9.4f}, {nq3:9.4f}]"
                f" {change:+7.1f}%  {verdict(b, n, metric['better'], metric['bound'])} ({metric['bound']})"
                f"  runs={len(b)}/{len(n)}"
            )

    lines.append("")
    lines.append("exact counters and digests (same workload, seed and trace setting):")
    differences = 0
    for r in new:
        for other in base:
            if (other["workload"], other["seed"], other["trace"]) != (r["workload"], r["seed"], r["trace"]):
                continue
            where = f"{r['workload']} seed={r['seed']} trace={int(r['trace'])}"
            if other["digest"] != r["digest"]:
                differences += 1
                lines.append(f"  {where}: digest {other['digest'][:16]} -> {r['digest'][:16]}")
            for key in EXACT:
                was, now = other.get("per_layer", {}).get(key), r.get("per_layer", {}).get(key)
                if was != now:
                    differences += 1
                    lines.append(f"  {where}: {key} {was} -> {now}")
            break
    if not differences:
        lines.append("  none")

    lines.append("")
    lines.append("per-layer deltas (medians over traced runs; layers a workload does not call are left out):")
    for wl in workloads:
        for metric in spec["per_layer"]:
            name = metric["name"]
            b = _values(base, wl, True, lambda r: r["per_layer"][name])
            n = _values(new, wl, True, lambda r: r["per_layer"][name])
            if not b or not n or not any(b + n):
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            change = f"{(nm - bm) / bm * 100:+7.1f}%" if bm else "    n/a"
            lines.append(f"  {wl:13s} {name:32s} {bm:14.4f} -> {nm:14.4f} {change} {metric['unit']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for line in compare(load(args.base), load(args.new), spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
