"""Record the result digest of every workload for a range of seeds.

    python3 bench/record_digests.py 0 20

Runs each workload once per seed, for pass 1 only, and writes the digests to
bench/digests.json.  run.py then fails any later run whose digest for a
recorded seed differs: a change that alters an answer must say so by
re-recording.  The default and held-out seeds of spec.json are always
included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run

#: Long enough for one timed op; the rest of pass 1 runs untimed.
SECONDS = 0.001


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    parser.add_argument("--out", default=".bench_results")
    args = parser.parse_args(argv)
    with open(os.path.join(run.HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seeds = sorted({*range(args.first, args.last + 1), spec["default_seed"], spec["heldout_seed"]})
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(run.HERE, "digests.json")
    recorded: dict[str, dict[str, str]] = {}
    for workload in run.WORKLOADS:
        for seed in seeds:
            record = run.run_workload(workload, seed, SECONDS, False, args.out)
            if record["failed"] or any(not m.startswith("digest ") for m in record["mismatches"]):
                print(f"error: {workload} seed {seed} does not pass the gate: {record['mismatches']}",
                      file=sys.stderr)
                return 1
            recorded.setdefault(workload, {})[str(seed)] = record["digest"]
            print(f"{workload} {seed} {record['digest']}", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
