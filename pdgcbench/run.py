#!/usr/bin/env python3
"""Builds the PDGC end-to-end benchmark from source and runs one workload.

    python3 pdgcbench/run.py --workload specjvm --seed 1 --seconds 20 --trace 0

Workloads: specjvm, mega, serve, serve_isolated. BENCHMARK.json lists all
but mega and says why each exists; pdgcbench/README.md says why mega is
left out of it. The first call configures and builds a Release tree under
.bench_build/pdgcbench at the repository root; later calls rebuild
incrementally. Build output goes to stderr. The benchmark prints lines
starting with '#' for people, then one JSON result line; the exit status
is non-zero when any correctness check failed. Each run also stores its
result with its provenance under .bench_build/pdgcbench/runs. See
pdgcbench/README.md.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pdgcbench")
WORKLOADS = ("specjvm", "mega", "serve", "serve_isolated")
# A run must end within 180 s; the benchmark's own work is far shorter, so
# this only bounds a hang.
RUN_TIMEOUT_S = 170


def die(message):
    print("pdgcbench: " + message, file=sys.stderr)
    sys.exit(2)


def step(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("the PDGC sources (src/) are not next to the benchmark")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step(["cmake", "--build", BUILD, "-j", jobs,
          "--target", "pdgc-bench", "pdgc-serve"])


def source_id():
    """The commit of a git checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "tools", "pdgcbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="0 keeps the seeds committed in Suites.cpp")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Test hook (test_bench.py): a corrupted reference the correctness
    # check must catch.
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    build()
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    cmd = [os.path.join(BUILD, "pdgc-bench"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds,
           "--trace=%d" % args.trace,
           "--serve-bin=" + os.path.join(BUILD, "pdgc-serve"),
           "--out-dir=" + runs,
           "--commit=" + source_id()]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    sys.stdout.flush()
    # A process group of its own, so a hang can be ended together with the
    # pdgc-serve daemon and workers the benchmark started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
