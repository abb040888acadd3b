#!/usr/bin/env python3
"""Build and run the GOOFI++ benchmark.

From the root of a checkout:

    python3 perfbench/run.py --workload long_mission --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --selftest

A run builds the repository's libraries and the perfbench binary from
source (CMake, Release) into the build directory, then runs one workload
and relays its output. The last line of standard output is one JSON
object: {"correct": ..., "attempted": ..., "failed": ..., "metrics": ...}.
A failed build or a failed correctness gate exits non-zero without
printing that line.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build in
the checkout. Run scratch files and span dumps live under it too.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the source tree clean of __pycache__

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
WORKLOADS = ("long_mission", "equiv_parallel", "serve_stream")
RUN_TIMEOUT_S = 170


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    return os.path.abspath(configured) if configured else os.path.join(
        CHECKOUT, ".bench_build")


def build(targets):
    """Configure once and build `targets`; returns the CMake binary dir."""
    root = build_dir()
    cmake_dir = os.path.join(root, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(root, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(cmake_dir, "Makefile")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", cmake_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", cmake_dir, "--parallel", "4", "--target"]
            + list(targets),
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return cmake_dir


def source_id():
    """The commit when the checkout is a git repository, else a digest
    of the library sources the benchmark built."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(CHECKOUT, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def binary_command(cmake_dir, workload, seed, seconds, trace, smoke=False):
    root = build_dir()
    command = [os.path.join(cmake_dir, "perfbench"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scratch", os.path.join(root, "runs"),
               "--commit", source_id()]
    if trace:
        dumps = os.path.join(root, "traces")
        os.makedirs(dumps, exist_ok=True)
        command += ["--trace-dump",
                    os.path.join(dumps, "%s-seed%d.tsv" % (workload, seed))]
    if smoke:
        command.append("--smoke")
    return command


def run_binary(command):
    """Runs perfbench to completion (or kills it at the timeout) and
    returns (exit code, stdout text)."""
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print("error: benchmark run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 1, ""
        return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        sys.path.insert(0, os.path.join(HERE, "tests"))
        import selftest  # pylint: disable=import-outside-toplevel
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        cmake_dir = build(["perfbench"])
    except (OSError, subprocess.CalledProcessError) as error:
        print("error: build failed: %s" % error, file=sys.stderr)
        return 1
    code, out = run_binary(binary_command(cmake_dir, args.workload, args.seed,
                                          args.seconds, args.trace))
    if code != 0:
        return code
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
