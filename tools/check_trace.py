#!/usr/bin/env python3
"""CI validator for the observability outputs of a bench run.

Usage: check_trace.py BENCH_DIR [--shards N]

Checks, for every BENCH_*.json in BENCH_DIR:
  - the file parses and carries the full scalar schema (throughput,
    message-plane, scheduler, and observability scalars) plus the
    provenance object (see bench/trajectory/README.md);
and for every TRACE_*.json:
  - the file parses as Chrome trace-event JSON ("traceEvents" array);
  - the union of event categories across all traces covers every category
    the run must produce: send, route, deliver, rewrite, answer — plus
    rendezvous when the run was sharded (--shards > 0).

Exits non-zero with a description of the first failure.
"""

import argparse
import glob
import json
import os
import sys

REQUIRED_SCALARS = [
    "wall_seconds",
    "tuples_processed",
    "tuples_per_sec",
    "peak_rss_mb",
    "messages_per_sec",
    "allocs_per_tuple",
    "interned_keys",
    "interner_hit_rate",
    "route_cache_hit_rate",
    "route_cache_hit_rate_lifetime",
    "route_cache_resolves",
    "coalesced_fanout_width",
    "coalesced_groups",
    "event_queue_depth_p99",
    "mailbox_batches",
    "mailbox_batch_width",
    "sched_epochs",
    "watermark_stalls",
    "rendezvous_caps",
    "overlap_ratio",
    "hardware_threads",
    "answers",
    "answer_latency_p50",
    "answer_latency_p95",
    "answer_latency_p99",
    "route_hops_p50",
    "route_hops_p99",
    "rewrite_depth_p99",
    "stall_wall_seconds",
    "stall_p99_us",
    "trace_events",
]

REQUIRED_PROVENANCE = [
    "git_sha",
    "build_type",
    "hardware_threads",
    "rjoin_shards",
    "rjoin_churn",
    "rjoin_trace",
    "rjoin_scale",
]

# Categories every traced bench run emits.
REQUIRED_CATEGORIES = {"send", "route", "deliver", "rewrite", "answer"}


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_bench_json(path):
    with open(path) as f:
        doc = json.load(f)
    scalars = doc.get("scalars")
    if not isinstance(scalars, dict):
        fail(f"{path}: no scalars object")
    missing = [k for k in REQUIRED_SCALARS if k not in scalars]
    if missing:
        fail(f"{path}: missing scalars: {missing}")
    prov = doc.get("provenance")
    if not isinstance(prov, dict):
        fail(f"{path}: no provenance object")
    missing = [k for k in REQUIRED_PROVENANCE if k not in prov]
    if missing:
        fail(f"{path}: missing provenance keys: {missing}")
    print(f"check_trace: {os.path.basename(path)}: "
          f"{len(scalars)} scalars, provenance ok "
          f"(sha={prov['git_sha'][:12]}, shards={prov['rjoin_shards']}, "
          f"trace={prov['rjoin_trace']})")
    return doc


def check_trace_json(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: no traceEvents array")
    cats = set()
    for e in events:
        if not isinstance(e, dict):
            fail(f"{path}: non-object trace event")
        if e.get("ph") == "M":
            continue  # metadata
        for key in ("name", "cat", "ph", "ts", "pid", "tid"):
            if key not in e:
                fail(f"{path}: event missing '{key}': {e}")
        cats.add(e["cat"])
    print(f"check_trace: {os.path.basename(path)}: "
          f"{len(events)} events, categories: {sorted(cats)}")
    return cats


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("bench_dir")
    ap.add_argument("--shards", type=int, default=0,
                    help="shard count the run used (0 = serial)")
    args = ap.parse_args()

    bench_files = sorted(glob.glob(os.path.join(args.bench_dir,
                                                "BENCH_*.json")))
    trace_files = sorted(glob.glob(os.path.join(args.bench_dir,
                                                "TRACE_*.json")))
    if not bench_files:
        fail(f"no BENCH_*.json in {args.bench_dir}")
    if not trace_files:
        fail(f"no TRACE_*.json in {args.bench_dir} (was RJOIN_TRACE set?)")

    for path in bench_files:
        doc = check_bench_json(path)
        if doc["scalars"]["answers"] > 0 and \
                doc["scalars"]["answer_latency_p99"] <= 0:
            fail(f"{path}: answers delivered but answer_latency_p99 == 0")

    cats = set()
    for path in trace_files:
        cats |= check_trace_json(path)

    required = set(REQUIRED_CATEGORIES)
    if args.shards > 0:
        required.add("rendezvous")
    missing = required - cats
    if missing:
        fail(f"traces missing categories: {sorted(missing)} "
             f"(have {sorted(cats)})")

    print(f"check_trace: OK ({len(bench_files)} bench files, "
          f"{len(trace_files)} traces)")


if __name__ == "__main__":
    main()
