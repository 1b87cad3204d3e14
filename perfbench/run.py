#!/usr/bin/env python3
"""Trace-replay benchmark for the SecureAngle pipeline.

Builds the benchmark package (perfbench/CMakeLists.txt: the library from
the sources one directory up, plus the benchmark program) in an optimized
configuration, then runs one workload and relays its report. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

    python3 perfbench/run.py --workload office-dense --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

Workloads: office-dense, sparse-air, roaming-wideband. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones (and writes a
Chrome trace plus a self-time table next to the build). BENCHMARK.json
gates office-dense and roaming-wideband only: on a shared 4-vCPU host
sparse-air's run-to-run spread comes too close to the bounds (its
dataplane keeps about 2.6 of the 4 CPUs busy), so it is run by hand.

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) under the checkout root.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("office-dense", "sparse-air", "roaming-wideband")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    base = os.path.realpath(base)
    if not base.startswith(os.path.realpath(ROOT) + os.sep):
        base = os.path.join(ROOT, ".bench_build")
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Run a build step; its output goes to stderr only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
    return proc.returncode == 0


def build(bdir):
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    return run_quiet(["cmake", "--build", bdir, "-j", str(jobs)])


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    digest = hashlib.sha1()
    for sub in ("include", "src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, sub)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the harness self-tests")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    bdir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(bdir, "perfbench_selftest")]).returncode

    sys.stdout.flush()
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--out-dir", bdir,
           "--source-id", source_id()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
