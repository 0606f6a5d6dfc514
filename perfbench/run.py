#!/usr/bin/env python3
"""Build hwsec's benchmark and run one workload in its own process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (a CMake project that pulls in the repository's own
sources) in Release mode under $CARGO_TARGET_DIR (default .bench_build),
then runs the hwsec_perfbench binary for one workload. The binary's last
stdout line is the result JSON; this script prints nothing after it and
exits with the binary's exit code. See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign_mobile", "fuzz_allarch", "sca_stream")
# Environment knobs that silently change what a workload measures.
PINNED_ENV = ("HWSEC_SHARD_HOSTS", "HWSEC_DISPATCH", "HWSEC_WORKERS", "HWSEC_TRACE_OUT",
              "HWSEC_HEARTBEAT_MS")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(directory):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isfile(
            os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"hwsec sources not found under {ROOT}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(["cmake", "--build", directory, "--target", "hwsec_perfbench", "-j", jobs])
    return os.path.join(directory, "hwsec_perfbench")


def run_build_step(command):
    # Build output goes to stderr so stdout ends with the result line.
    try:
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"build step failed: {error}")
    if result.returncode != 0:
        fail(f"build step failed ({result.returncode}): {' '.join(command)}")


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--corrupt", default="", help="self-test: corrupt one output check")
    args = parser.parse_args()

    directory = build_dir()
    binary = build(directory)
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    # Relative to the checkout root, which is the child's working directory:
    # keeps the daemon's Unix socket path short.
    out_dir = os.path.relpath(os.path.join(directory, "out"), ROOT)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--out-dir", out_dir,
               "--commit", commit_id()]
    if args.corrupt:
        command += ["--corrupt", args.corrupt]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
