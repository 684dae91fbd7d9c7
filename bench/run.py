"""Run one workload of the hyperc benchmark (or all of them) and report.

    python3 bench/run.py --workload lang-large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

The checkout is the directory above bench/.  Each run starts fresh
interpreters that import that checkout's ``src/``: SETUP_REPEATS that only
set up, then one that sets up, measures for ``--seconds`` and checks its
outputs.  ``setup_s``
is the median of all set-ups.  Human-readable lines come first; the last
line of standard output is the JSON result.  The full record of the run
(and, with ``--trace 1``, its spans) is written under ``--out``.

Exit codes: 0 on a run whose outputs pass the correctness gate, 1 when the
gate finds a mismatch or a recorded digest differs, 2 when the run cannot
start (for example, no ``src/hyperc`` next to ``bench/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lang-large", "iface-design", "conic", "cli-verify")
SETUP_REPEATS = 4
CHILD_TIMEOUT_S = 150

#: End-to-end metrics in report order: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("error_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _child(workload: str, seed: int, seconds: float, trace: bool,
           setup_only: bool, run_id: str, span_path: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("HYPERC_MAX_STATES", "PYTHONPATH")}
    opts = {
        "root": ROOT,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_only": setup_only,
        "run_id": run_id,
        "span_path": span_path,
        "spawn_time": time.monotonic(),
    }
    proc = subprocess.run(
        [sys.executable, "-s", os.path.join(HERE, "child.py"), json.dumps(opts)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, out: str) -> dict:
    """Set up SETUP_REPEATS + 1 times, measure once; returns the run record."""
    run_id = f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}-{time.time_ns()}"
    span_path = os.path.join(out, f"spans-{run_id}.jsonl") if trace else None
    setups = [
        _child(workload, seed, seconds, trace, True, run_id, None)["setup_s"]
        for _ in range(SETUP_REPEATS)
    ]
    record = _child(workload, seed, seconds, trace, False, run_id, span_path)
    setups.append(record["setup_s"])
    record.update(
        {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "run_id": run_id,
            "setup_s": statistics.median(setups),
            "setup_samples_s": setups,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "span_file": span_path,
        }
    )
    expected = _recorded_digest(workload, seed)
    record["digest_expected"] = expected
    if expected is not None and expected != record["digest"]:
        record["mismatches"].append(f"digest {record['digest']} differs from the recorded {expected}")
    record["correct"] = not record["mismatches"]
    if trace:
        record["per_layer"] = per_layer_metrics(record)
    with open(os.path.join(out, f"run-{run_id}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def _recorded_digest(workload: str, seed: int) -> str | None:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def per_layer_metrics(record: dict) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json; layers a workload does not
    call read 0."""
    layers = record["layers_ms"]
    counters = record["counters"]
    out = {}
    for metric in _per_layer_names():
        if metric.endswith("_ms") and metric[:-3] in layers:
            out[metric] = layers[metric[:-3]]
        elif metric in counters:
            out[metric] = counters[metric]
        else:
            out[metric] = 0.0
    untraced, traced = record["untraced_ops_per_s"], record["traced_ops_per_s"]
    out["trace.overhead_ops_per_s"] = untraced - traced
    out["trace.overhead_pct"] = 100.0 * (untraced - traced) / untraced
    return out


def _per_layer_names() -> list[str]:
    return [m["name"] for m in _benchmark_spec()["per_layer"]]


def report_lines(record: dict, units: dict[str, str]) -> list[str]:
    wl = record["workload"]
    lines = [
        f"# {wl}: seed={record['seed']} seconds={record['seconds']} trace={int(record['trace'])} "
        f"python={record['python']} nproc={record['nproc']} hyperc={record['hyperc_file']}",
        f"# {wl}: attempted={record['attempted']} failed={record['failed']} pool={record['pool']} "
        f"passes={record['passes']} digest={record['digest']} correct={record['correct']}",
    ]
    if record["trace"]:
        for name, value in record["per_layer"].items():
            lines.append(f"{wl}  {name:32s} {value:14.4f} {units.get(name, '')}")
    else:
        counts = {
            "setup_s": len(record["setup_samples_s"]),
            "peak_rss_mb": 1,
            "error_rate": record["attempted"],
        }
        for name, unit in END_TO_END:
            n = counts.get(name, record["samples"])
            lines.append(f"{wl}  {name:16s} {record[name]:14.4f} {unit:6s} n={n}")
    lines.extend(f"{wl}  error: {e}" for e in record["errors"])
    lines.extend(f"{wl}  MISMATCH: {m}" for m in record["mismatches"])
    return lines


def result_json(record: dict, spec: dict) -> dict:
    if record["trace"]:
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = record["per_layer"]
    else:
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = record
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=None, help="default: the spec's default seed")
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".bench_results", help="directory for run records and spans")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hyperc", "__init__.py")):
        print(f"error: no src/hyperc in {ROOT}: the benchmark must sit in a hyperc checkout", file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        seed = args.seed if args.seed is not None else json.load(fh)["default_seed"]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for wl in workloads:
        try:
            record = run_workload(wl, seed, seconds, bool(args.trace), args.out)
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        for line in report_lines(record, units):
            print(line)
        results[wl] = result_json(record, spec)

    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{wl}/{k}": v for wl, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
