#!/usr/bin/env python3
"""Builds and runs the hornsafe benchmark of record.

Run from the root of a checkout:

    python3 hsbench/run.py --workload run_cold --seed 1 --seconds 10 --trace 0

The first run configures and builds hsbench/CMakeLists.txt (the hornsafe
libraries and CLI from src/ plus the hsbench driver) into
$CARGO_TARGET_DIR/hsbench, default .bench_build/hsbench. Later runs only
re-check the build. The driver's stdout is passed through; its last line
is the result object. Exit code 0 iff the run completed; a build or run
failure exits 1 without printing a result.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("run_cold", "edit_warm", "serve_mixed", "fleet_corpus")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"hsbench: {msg}", file=sys.stderr, flush=True)


def source_digest(root):
    """sha256 over src/ and hsbench/ (paths and contents): identifies the
    measured code when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "hsbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and len(sha) == 40 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(root, bench_dir, build_dir):
    """Configures (once) and builds; returns True on success."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no src/CMakeLists.txt next to hsbench/: not a hornsafe checkout")
        return False
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", "hsbench", "hornsafe"])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:])
                log(f"build step failed: {' '.join(cmd)}")
                return False
    return True


def check_result(line, spec, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names
    for this mode, with their units."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from the contract"
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in want}:
        return "metric names differ from BENCHMARK.json"
    for m in want:
        if got[m["name"]]["unit"] != m["unit"]:
            return f"unit of {m['name']} differs from BENCHMARK.json"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "hsbench")
    if not build(root, bench_dir, build_dir):
        return 1
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)

    work = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    results = os.path.join(build_dir, "results")
    cmd = [os.path.join(build_dir, "hsbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--data-dir", bench_dir,
           "--work-dir", work,
           "--results-dir", results,
           "--hornsafe", os.path.join(build_dir, "hornsafe", "tools",
                                      "hornsafe"),
           "--git-sha", git_sha(root),
           "--source-digest", source_digest(root)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        # fleet_corpus deletes its files itself; this also covers a run
        # that ended early.
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"driver exited with {proc.returncode}")
        return 1
    problem = check_result(lines[-1], spec, args.trace == 1)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(problem)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
