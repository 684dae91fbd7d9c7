"""Timing loop, span tracer and result record shared by every workload.

A workload is a class with these members (see the ``wl_*`` modules):

  name                  workload name as passed to ``--workload``
  generate(rng, limit)  list of op specs (immutable tuples, spec[0] the op
                        kind) for one pass, or `limit` ops for the warm-up
  warmup_ops            how many ops the warm-up runs
  prepare(spec)         fresh operand objects for one execution (untimed)
  execute(spec, args, call)
                        the timed op; every library call goes through
                        ``call(span_name, fn, *args)``
  outcome_ok(spec, result)
                        the outcome the generator fixed for the op
  encode(spec, result)  canonical bytes of the result, for the digest
  spot_checks           how many pass-1 ops the gate re-checks
  spot_check(spec, result, rng, call)
                        independent-definition checks (list of messages)
  counters(pool, pass_results)
                        exact per-layer counts over one pass
  rss_of_children       whether peak_rss_mb is taken over child processes
  close()               release what the workload created

One run: set up, then execute the pool of ops in order, over and over, until
``--seconds`` have elapsed.  Pass 1 is always completed (untimed beyond the
deadline), because the digest, the spot checks and the exact counters are
taken over pass 1 only, so they do not depend on how fast the code is.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from time import perf_counter_ns


class Tracer:
    """In-memory spans around the benchmark's own calls into the library.

    A span is (id, parent id, name, layer, start ns, end ns); the layer is the
    part of the name before the first dot.  With tracing off, ``call`` is a
    plain call.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, name.split(".", 1)[0], start, end)

    def layer_times_ms(self, since: int = 0, until: int | None = None) -> dict[str, float]:
        """Sum of span durations per span name, and the self time of op spans."""
        spans = self.spans[since:until]
        sums: dict[str, float] = {}
        child_ns: dict[int, int] = {}
        for span in spans:
            sid, parent, name, _layer, start, end = span
            sums[name] = sums.get(name, 0.0) + (end - start) / 1e6
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        glue = sum(
            (end - start - child_ns.get(sid, 0)) / 1e6
            for sid, _p, name, _l, start, end in spans
            if name.startswith("op.") and sid in child_ns
        )
        sums["bench.glue"] = glue
        return sums

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, layer, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "layer": layer,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )


def quantile(values: list[float], q: float) -> float:
    """Inclusive quantile (q in (0, 1)) of a nonempty sample."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _attempt(wl, spec, call):
    """Execute one op on fresh operands; returns (result, latency ns, error)."""
    args = wl.prepare(spec)
    start = perf_counter_ns()
    try:
        result = call(f"op.{spec[0]}", wl.execute, spec, args, call)
    except Exception as err:  # every exception is a counted failure
        return None, perf_counter_ns() - start, f"{type(err).__name__}: {err}"
    elapsed = perf_counter_ns() - start
    if not wl.outcome_ok(spec, result):
        return result, elapsed, "unexpected outcome"
    return result, elapsed, None


def run_child(wl, seed: int, seconds: float, trace: bool, spawn_time: float, setup_only: bool,
              tracer: Tracer) -> dict:
    """Set up, measure and check one workload in this interpreter."""
    pool = wl.generate(random.Random(seed))
    # Warm-up runs a few ops on separately seeded inputs, so first-call costs
    # are paid while the timed inputs' caches stay cold.
    warm = wl.generate(random.Random(f"warm-up:{seed}"), wl.warmup_ops)
    for spec in warm:
        _attempt(wl, spec, tracer.call)
    gc.collect()
    first_op = time.monotonic()
    record = {"setup_s": first_op - spawn_time}
    if setup_only:
        return record

    n = len(pool)
    pass1: list = [None] * n
    pass1_spans = 0
    errors: list[str] = []
    # Latencies of executions started inside the window; executions that
    # complete pass 1 after the deadline count as attempted but not as samples.
    lat_ms: list[float] = []
    traced_ms: list[float] = []
    attempted = failed = 0
    deadline = first_op + seconds
    window_end = None
    loop_start = perf_counter_ns()
    i = 0
    while True:
        in_window = i == 0 or time.monotonic() < deadline
        if not in_window:
            if window_end is None:
                window_end = perf_counter_ns()
            if i >= n:
                break
        k = i % n
        spec = pool[k]
        # In a traced run each op runs once traced and once untraced, in
        # alternating order; the two rates give the tracing overhead.
        modes = ((True, False) if i % 2 == 0 else (False, True)) if trace else (False,)
        for traced in modes:
            tracer.enabled = traced
            result, ns, err = _attempt(wl, spec, tracer.call)
            tracer.enabled = False
            if i < n and traced == trace:
                pass1[k] = result
            if in_window:
                (traced_ms if traced else lat_ms).append(ns / 1e6)
            attempted += 1
            if err is not None:
                failed += 1
                if len(errors) < 20:
                    errors.append(f"op {k} ({spec[0]}): {err}")
        if i == n - 1:
            pass1_spans = len(tracer.spans)
        i += 1
    window_s = (window_end - loop_start) / 1e9
    record["peak_rss_mb"] = peak_rss_mb(children=wl.rss_of_children)

    # -- correctness gate, outside the timed phase ---------------------------
    digest = hashlib.sha256()
    for k, (spec, result) in enumerate(zip(pool, pass1)):
        digest.update(f"{k}:{spec[0]}:".encode())
        digest.update(wl.encode(spec, result) if result is not None else b"<failed>")
        digest.update(b"\n")
    check_rng = random.Random(f"spot-check:{seed}")
    picked = sorted(check_rng.sample(range(n), min(wl.spot_checks, n)))
    tracer.enabled = trace
    gate_first_span = len(tracer.spans)
    mismatches: list[str] = []
    for k in picked:
        if pass1[k] is not None:
            found = wl.spot_check(pool[k], pass1[k], check_rng, tracer.call)
            mismatches.extend(f"op {k} ({pool[k][0]}): {m}" for m in found)
            failed += bool(found)
    tracer.enabled = False

    record.update(
        {
            "attempted": attempted,
            "failed": failed,
            "errors": errors,
            "mismatches": mismatches[:20],
            "digest": digest.hexdigest(),
            "pool": n,
            "passes": round(i / n, 3),
            "samples": len(lat_ms),
            "error_rate": failed / attempted,
        }
    )
    if trace:
        layers = tracer.layer_times_ms(0, pass1_spans)
        for name, ms in tracer.layer_times_ms(gate_first_span).items():
            layers[name] = layers.get(name, 0.0) + ms
        record["layers_ms"] = layers
        record["counters"] = wl.counters(pool, pass1)
        record["untraced_ops_per_s"] = len(lat_ms) / (sum(lat_ms) / 1e3)
        record["traced_ops_per_s"] = len(traced_ms) / (sum(traced_ms) / 1e3)
    else:
        record["ops_per_s"] = len(lat_ms) / window_s
        record["latency_p50_ms"] = statistics.median(lat_ms)
        record["latency_p90_ms"] = quantile(lat_ms, 0.9)
    return record


def child_main(argv: list[str]) -> int:
    """Entry point of a workload interpreter (see run.py)."""
    opts = json.loads(argv[0])
    root = opts["root"]
    sys.path.insert(0, os.path.join(root, "src"))
    import hyperc

    src = os.path.realpath(os.path.join(root, "src", "hyperc"))
    if os.path.dirname(os.path.realpath(hyperc.__file__)) != src:
        print(f"error: imported {hyperc.__file__}, not this checkout's src/", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[opts["workload"]](root)
    try:
        tracer = Tracer(opts["run_id"])
        record = run_child(
            wl,
            seed=opts["seed"],
            seconds=opts["seconds"],
            trace=opts["trace"],
            spawn_time=opts["spawn_time"],
            setup_only=opts["setup_only"],
            tracer=tracer,
        )
        if opts["trace"] and not opts["setup_only"]:
            tracer.dump(opts["span_path"])
    finally:
        wl.close()
    record["hyperc_file"] = hyperc.__file__
    print(json.dumps(record))
    return 0
