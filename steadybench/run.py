#!/usr/bin/env python3
"""Steady-state benchmark entry point (see NOTES.md).

Run from the root of a checkout:

    python3 steadybench/run.py --workload pipelines --seed 1 --seconds 10 --trace 0

Builds a Release tree of the repository with the checked kernel off and
native codegen on (into $CARGO_TARGET_DIR, default .bench_build), then runs
the `steady` program for one workload.  It prints a record line and,
as the last line of standard output, the result object
{"correct", "attempted", "failed", "metrics"}.  Exits non-zero, without a
result, when the repository sources are missing or the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("pipelines", "rack", "rack-durable")
BUILD_FLAGS = {
    "CMAKE_BUILD_TYPE": "Release",
    "LIBERTY_CHECKED_KERNEL": "OFF",
    "LIBERTY_NATIVE_CODEGEN": "ON",
}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("steadybench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_rev(root):
    """git revision when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "steadybench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree:" + h.hexdigest()[:16]


def compiler_id(build_dir):
    cxx = None
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as fh:
            for line in fh:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
    except OSError:
        return "unknown"
    if not cxx:
        return "unknown"
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=30)
        return out.stdout.splitlines()[0] if out.stdout else cxx
    except (OSError, subprocess.SubprocessError):
        return cxx


def build(root, build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", os.path.join(root, "steadybench"),
                 "-B", build_dir] + ["-D%s=%s" % kv for kv in BUILD_FLAGS.items()]
    compile_ = ["cmake", "--build", build_dir, "--target", "steady",
                "-j", jobs]
    with open(log_path, "w") as log:
        for cmd in (configure, compile_):
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(cmd))
            if rc != 0:
                log.flush()
                with open(log_path) as fh:
                    sys.stderr.write("".join(fh.readlines()[-40:]))
                fail("build failed (%s); log in %s" % (" ".join(cmd), log_path))
    exe = os.path.join(build_dir, "steady")
    if not os.path.isfile(exe):
        fail("build produced no steady executable")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.getcwd()
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("steadybench", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("run from the root of a liberty checkout (missing %s)"
                 % needed)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    exe = build(root, build_dir)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "steady-work"),
           "--rev", source_rev(root), "--compiler", compiler_id(build_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("steady exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines or \
            not lines[-1].startswith("{\"correct\""):
        sys.stderr.write(out)
        fail("steady exited with code %d and no result" % proc.returncode)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
