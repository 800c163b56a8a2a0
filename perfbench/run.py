#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see DESIGN.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/rjbench from the
checkout's own sources (RelWithDebInfo) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, runs one workload, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The results file, the span trace and the per-layer table
are written under <build dir>/results/, with provenance: commit, dirty
flag and diff hash when the checkout is a git repository, and always a hash
of the sources that were built.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# Every run must end within 180 s, or 900 s when it builds.
DEADLINE_S = 175
BUILD_DEADLINE_S = 700


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def build(out):
    """Configures (once) and builds rjbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no rjoin sources next to perfbench/; nothing to build", 2)
    cmake_dir = os.path.join(out, "rjbench")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "rjbench",
                  "-j", str(os.cpu_count() or 1)])
    start = time.monotonic()
    for cmd in steps:
        left = BUILD_DEADLINE_S - (time.monotonic() - start)
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, left))
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build failed: %s" % err)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "rjbench")


def git(*args):
    # Only the checkout's own repository: never one that encloses it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT] + list(args),
                              capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def source_hash():
    """SHA-256 over every file that goes into the build."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def provenance(out):
    prov = {"source_sha256": source_hash(), "git_sha": "unknown",
            "git_dirty": None, "git_diff_sha256": None}
    top = git("rev-parse", "--show-toplevel")
    if top is not None and \
            os.path.realpath(top.decode().strip()) == os.path.realpath(ROOT):
        prov["git_sha"] = (git("rev-parse", "HEAD") or b"").decode().strip()
        diff = (git("diff", "HEAD", "--binary") or b"") + \
            (git("ls-files", "--others", "--exclude-standard") or b"")
        prov["git_dirty"] = bool(diff)
        prov["git_diff_sha256"] = hashlib.sha256(diff).hexdigest()
    cache = os.path.join(out, "rjbench", "CMakeCache.txt")
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                prov["build_type"] = line.split("=", 1)[1].strip()
            elif line.startswith("CMAKE_CXX_COMPILER:"):
                prov["compiler"] = line.split("=", 1)[1].strip()
    return prov


def check_result(line, spec, trace):
    """The result must hold exactly correct, attempted, failed and metrics,
    with exactly the metrics (names and units) that BENCHMARK.json lists
    for this kind of run."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("the last line of rjbench's output is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys %s" % sorted(result))
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != units:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(units.items())))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    start = time.monotonic()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read %s: %s" % (spec_path, err), 2)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload, 2)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]", 2)

    out = build_dir()
    binary = build(out)
    results = os.path.join(out, "results")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", results, "--provenance", json.dumps(provenance(out))]
    # A run that built may take longer; rjbench itself gets the same
    # budget either way.
    left = DEADLINE_S - min(time.monotonic() - start, 5)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=left)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("rjbench did not finish within %.0f s" % left)
    if proc.returncode != 0:
        fail("rjbench exited with status %d" % proc.returncode)
    lines = stdout.strip().splitlines()
    if not lines:
        fail("rjbench printed no result")
    check_result(lines[-1], spec, args.trace)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
