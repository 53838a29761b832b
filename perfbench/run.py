#!/usr/bin/env python3
"""The repository benchmark: builds the simulator from source, runs one
workload, checks its outputs, and prints every metric.

    python3 perfbench/run.py --workload day|fleet|live --seed N --seconds S --trace 0|1

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see README.md). Everything
built or written goes under .bench_build/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# Fresh processes timed per run for setup_s; the median is reported.
SETUP_SPAWNS = 7
# Every run but the first (which builds) must end within this many seconds.
RUN_LIMIT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds; a no-op rebuild takes about a second."""
    if not (ROOT / "src" / "core" / "engine.h").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=850)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))


def source_digest():
    """sha256 over every file under src/, in path order: names the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        commit = got.stdout.strip() or None
    return {"commit": commit, "source_sha256": source_digest(), "nproc": os.cpu_count(),
            "cpu": cpu}


def perfbench(*args, timeout):
    return subprocess.run([str(BUILD / "perfbench"), *args], stdout=subprocess.PIPE,
                          text=True, timeout=timeout)


def setup_seconds(workload, seed, deadline):
    """Median wall time of fresh processes that do the workload's set-up and
    exit: loading the program, its static registries, and the workload's
    inputs, up to the point where the first simulated day would start."""
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        done = perfbench("--workload", workload, "--seed", str(seed), "--setup-only",
                      timeout=max(1.0, deadline - time.monotonic()))
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            fail(f"set-up of {workload} failed")
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["day", "fleet", "live"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    if subprocess.run([str(BUILD / "perfbench_selftest")], stdout=subprocess.DEVNULL,
                      timeout=60).returncode != 0:
        fail("the benchmark's arithmetic self-test failed")

    setup_s = None
    if args.trace == 0:
        setup_s = setup_seconds(args.workload, args.seed, deadline)

    command = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        command += ["--spans-out", str(spans / f"{args.workload}-{args.seed}.json")]
    done = perfbench(*command, timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        fail(f"perfbench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])

    for line in lines[:-1]:
        print(line)
    if setup_s is not None:
        print(f"{'setup_s':<28} {setup_s:16.6f} s")
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print("host " + json.dumps(host_fingerprint()))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
