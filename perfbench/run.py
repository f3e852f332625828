#!/usr/bin/env python3
"""Build and run the pdet benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload frame_1080p --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The benchmark binary is built from source
into .bench_build/perfbench (build output goes to stderr), then run with the
program's PDET_* environment overrides removed, so a stray
PDET_SCORE_BACKEND cannot pass for a code change. The last line of standard
output is the result JSON; the exit code is non-zero when the build fails,
an output check fails, or the result does not match BENCHMARK.json.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("frame_1080p", "cameras_fleet", "uhd_roi")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no pdet source tree next to perfbench/; nothing to build")
        return False
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", target,
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                log("build step failed: " + " ".join(cmd))
                return False
    return True


def source_revision():
    """Git commit when the tree is a checkout, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is here."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    target = "perfbench_selftest" if args.selftest else "perfbench"
    if not build(target):
        return 1
    binary = os.path.join(BUILD, target)
    if args.selftest:
        return subprocess.run([binary]).returncode

    env = dict(os.environ)
    cleared = sorted(k for k in env if k.startswith("PDET_"))
    for key in cleared:
        del env[key]
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_revision(),
           "--env-cleared", ",".join(cleared) or "none"]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        log("perfbench exited %d without a result" % proc.returncode)
        return proc.returncode or 1
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("metrics differ from BENCHMARK.json: %s"
            % sorted(set(result["metrics"]) ^ want))
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
