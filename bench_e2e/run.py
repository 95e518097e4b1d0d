#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of the dhpf-sets toolchain.

Builds the repository's libraries, the dhpf_rt rank binary and the
benchmark driver from source (CMake project in this directory, build tree
in .bench_build/), then runs one workload:

    python3 bench_e2e/run.py --workload stencil-bulk --seed 1 \
        --seconds 12 --trace 0

Run it from the root of a checkout. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (and merged Chrome traces land in .bench_out/).
Exit status is 0 only when every operation succeeded and every result
matched the tree-interpreter oracle bit for bit.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# Relative to ROOT (the working directory of the driver and its ranks):
# mesh socket paths live under it and must stay short (sun_path limit).
STATE = ".bench_state"
# A run measures for --seconds plus set-up; anything beyond this is a hang.
DRIVER_TIMEOUT_S = 175


def log(msg):
    print("bench_e2e: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver and the rank binary."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "bench_e2e", "dhpf_rt"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def revision():
    """The git revision when there is one, plus a digest of the sources
    the benchmark builds, so a run outside git is still identified."""
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        git = "none"
    digest = hashlib.sha256()
    for top in ("src", os.path.join("tools", "dhpf_rt"), "bench_e2e"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "git:%s sources:%s" % (git, digest.hexdigest()[:16])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["stencil-bulk", "timestep-tcp", "compile-sym"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--inject",
                    choices=["net-fault", "corrupt-merge", "wipe-kernels",
                             "rank-fallback"],
                    help="force failures after set-up (the benchmark's "
                         "own tests)")
    args = ap.parse_args()

    os.chdir(ROOT)
    if not build():
        return 2
    state = os.path.join(STATE, "run-%d" % os.getpid())
    os.makedirs(state, exist_ok=True)
    cmd = [os.path.join(BUILD, "bench_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--state", state, "--rt-bin",
           os.path.join(BUILD, "dhpf_rt", "dhpf_rt"),
           "--revision", revision()]
    if args.inject:
        cmd += ["--inject", args.inject]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("driver exceeded %d s and was killed" % DRIVER_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(state, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
