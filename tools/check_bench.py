#!/usr/bin/env python3
"""CI perf-regression gate for the figure-3 throughput and failures benches.

Usage: check_bench.py FRESH_BENCH_JSON TRAJECTORY_DIR [--max-regression R]

Compares a freshly produced BENCH_fig3_tuples.json against the most recent
committed point in bench/trajectory/ whose provenance matches the fresh
run's machine and knobs (hardware_threads, build_type, rjoin_scale) —
cross-machine wall-clock numbers are not comparable, so only
provenance-matched baselines gate.

Fails (exit 1) when:
  - tuples_per_sec regressed by more than --max-regression (default 10%);
  - messages_per_sec regressed by more than --max-regression — the routing
    plane's own throughput, gated separately so a delivery-path regression
    can't hide behind a tuple-plane win;
  - allocs_per_tuple increased at all (the zero-alloc hot path is a
    ratchet: once the rewrite plane stops allocating, it must not start
    again);
  - route_cache_hit_rate dropped below --min-hit-rate (default 0.95) when
    the fresh run reports the scalar. Baselines predating the route cache
    lack it; those simply don't gate the hit rate.

Given a BENCH_failures.json instead, the gate switches to the replication
correctness schema:
  - the scalar set must carry replication_msgs_per_sec, replica_bytes,
    answer_loss_rate, and recovery_rounds_p99 (the trajectory schema of
    bench/trajectory/README.md);
  - answer_loss_rate (measured at replication factor 2 on the reference
    fault trace) must be exactly 0 — one successor replica is the
    configuration the recovery design guarantees single-kill completeness
    for, so any loss is a correctness bug, not a perf regression;
  - recovery_rounds_p99 must be positive (crashes promoted) and at most
    --max-recovery-rounds (default 8) rounds.
These are absolute gates: no provenance-matched baseline is required.

When no committed point matches the fresh provenance (first run on a new
machine, or older points predate provenance), the gate passes with a
notice — it cannot distinguish a regression from a hardware change.
"""

import argparse
import glob
import json
import os
import sys

# Provenance keys that must agree for wall-clock numbers to be comparable.
MATCH_KEYS = ["hardware_threads", "build_type", "rjoin_scale"]

ALLOCS_EPSILON = 1e-9
LOSS_EPSILON = 1e-12

# Required scalar schema per bench JSON (basename); anything else gets the
# fig3 defaults for backward compatibility.
REQUIRED_SCALARS = {
    "BENCH_fig3_tuples.json": ["tuples_per_sec", "allocs_per_tuple"],
    "BENCH_failures.json": ["replication_msgs_per_sec", "replica_bytes",
                            "answer_loss_rate", "recovery_rounds_p99"],
}
DEFAULT_REQUIRED = ["tuples_per_sec", "allocs_per_tuple"]


def fail(msg):
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def notice(msg):
    print(f"check_bench: NOTICE: {msg}")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    scalars = doc.get("scalars")
    if not isinstance(scalars, dict):
        fail(f"{path}: no scalars object")
    required = REQUIRED_SCALARS.get(os.path.basename(path), DEFAULT_REQUIRED)
    for key in required:
        if key not in scalars:
            fail(f"{path}: missing scalar '{key}'")
    return doc


def gate_failures(fresh, path, max_recovery_rounds):
    """Absolute correctness gate for BENCH_failures.json."""
    fs = fresh["scalars"]
    loss = fs["answer_loss_rate"]
    p99 = fs["recovery_rounds_p99"]
    print(f"check_bench: {os.path.basename(path)}: "
          f"answer_loss_rate={loss:.6f} recovery_rounds_p99={p99:.2f} "
          f"replication_msgs_per_sec={fs['replication_msgs_per_sec']:.2f} "
          f"replica_bytes={fs['replica_bytes']:.0f}")
    if loss > LOSS_EPSILON:
        fail(f"answer_loss_rate {loss:.6f} != 0 with replication_factor=2 "
             f"on the reference fault trace; single-kill completeness is "
             f"a correctness guarantee, not a budgeted metric")
    if p99 <= 0:
        fail("recovery_rounds_p99 is 0: the reference trace applied no "
             "replica promotions, so the gate measured nothing")
    if p99 > max_recovery_rounds:
        fail(f"recovery_rounds_p99 {p99:.2f} exceeds the "
             f"{max_recovery_rounds}-round bound")
    print("check_bench: OK")


def provenance_matches(fresh, baseline):
    fp, bp = fresh.get("provenance"), baseline.get("provenance")
    if not isinstance(fp, dict) or not isinstance(bp, dict):
        return False
    return all(fp.get(k) == bp.get(k) for k in MATCH_KEYS)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh_json", help="freshly produced BENCH_fig3_tuples.json")
    ap.add_argument("trajectory_dir", help="bench/trajectory/ checkout")
    ap.add_argument("--max-regression", type=float, default=0.10,
                    help="tolerated fractional tuples_per_sec / "
                         "messages_per_sec drop")
    ap.add_argument("--min-hit-rate", type=float, default=0.95,
                    help="required route_cache_hit_rate when reported")
    ap.add_argument("--max-recovery-rounds", type=float, default=8.0,
                    help="bound on recovery_rounds_p99 for the failures "
                         "bench")
    args = ap.parse_args()

    fresh = load(args.fresh_json)
    name = os.path.basename(args.fresh_json)

    if name == "BENCH_failures.json":
        gate_failures(fresh, args.fresh_json, args.max_recovery_rounds)
        return

    # Trajectory points live in date-named subdirectories; lexicographic
    # order is chronological (YYYY-MM-DD[-suffix]).
    candidates = sorted(glob.glob(
        os.path.join(args.trajectory_dir, "*", name)))
    baseline = None
    baseline_path = None
    for path in reversed(candidates):
        doc = load(path)
        if provenance_matches(fresh, doc):
            baseline, baseline_path = doc, path
            break

    if baseline is None:
        notice(f"no provenance-matched baseline for {name} among "
               f"{len(candidates)} trajectory points "
               f"(keys compared: {MATCH_KEYS}); passing without a gate")
        sys.exit(0)

    fs, bs = fresh["scalars"], baseline["scalars"]
    f_tps, b_tps = fs["tuples_per_sec"], bs["tuples_per_sec"]
    f_apt, b_apt = fs["allocs_per_tuple"], bs["allocs_per_tuple"]
    rel = os.path.relpath(baseline_path, args.trajectory_dir)
    print(f"check_bench: baseline {rel}: "
          f"tuples_per_sec {b_tps:.2f} -> {f_tps:.2f}, "
          f"allocs_per_tuple {b_apt:.4f} -> {f_apt:.4f}")

    if b_tps > 0 and f_tps < b_tps * (1.0 - args.max_regression):
        fail(f"tuples_per_sec regressed {100 * (1 - f_tps / b_tps):.1f}% "
             f"({b_tps:.2f} -> {f_tps:.2f}), more than the "
             f"{100 * args.max_regression:.0f}% budget")
    # messages_per_sec gates with the same budget, but only when both sides
    # report it (the scalar arrived after the earliest trajectory points).
    f_mps, b_mps = fs.get("messages_per_sec"), bs.get("messages_per_sec")
    if f_mps is not None and b_mps is not None:
        print(f"check_bench: messages_per_sec {b_mps:.2f} -> {f_mps:.2f}")
        if b_mps > 0 and f_mps < b_mps * (1.0 - args.max_regression):
            fail(f"messages_per_sec regressed "
                 f"{100 * (1 - f_mps / b_mps):.1f}% "
                 f"({b_mps:.2f} -> {f_mps:.2f}), more than the "
                 f"{100 * args.max_regression:.0f}% budget")
    if f_apt > b_apt + ALLOCS_EPSILON:
        fail(f"allocs_per_tuple increased ({b_apt:.6f} -> {f_apt:.6f}); "
             f"the zero-alloc hot path is a ratchet")
    # The route cache must stay effective on the steady-state figure; the
    # threshold is absolute (not baseline-relative) so the first run that
    # reports the scalar already gates.
    f_hit = fs.get("route_cache_hit_rate")
    if f_hit is not None:
        print(f"check_bench: route_cache_hit_rate {f_hit:.4f} "
              f"(floor {args.min_hit_rate:.2f})")
        if f_hit < args.min_hit_rate:
            fail(f"route_cache_hit_rate {f_hit:.4f} below the "
                 f"{args.min_hit_rate:.2f} floor")

    print("check_bench: OK")


if __name__ == "__main__":
    main()
