#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload private_hits --seed 1 \
        --seconds 20 --trace 0

The build goes to .bench_build/ at the repository root. The last line
of standard output is the result object of perfbench/perfbench.cc;
per-run records (host descriptor, every repeat) and span files land in
.bench_build/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BUILD_TYPE = "RelWithDebInfo"


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def source_hash():
    """SHA-256 over the sources the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".hh", "CMakeLists.txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_quiet(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources (src/) not found next to perfbench/")
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]):
            log("cmake configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs]):
        log("build failed")
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--insts", type=int, default=0,
                    help="measured instructions per core (0 = workload's)")
    ap.add_argument("--fault-control", action="store_true",
                    help="inject faults with detection off (gate self-test)")
    args = ap.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("D2M_"))
    if knobs:
        log("refusing to run with D2M_* variables set: " + " ".join(knobs))
        return 2

    binary = build()
    if binary is None:
        return 2
    os.makedirs(RESULTS_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", RESULTS_DIR, "--commit", git_commit(),
           "--source-hash", source_hash()]
    if args.insts:
        cmd += ["--insts", str(args.insts)]
    if args.fault_control:
        cmd.append("--fault-control")
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
