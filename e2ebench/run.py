#!/usr/bin/env python3
"""End-to-end benchmark entry point (see e2ebench/WORKLOADS.md).

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (op2ca from src/ plus e2e_bench) in Release
under .bench_build/ at the repository root on first use, then runs one
workload. The last line of standard output is the result JSON object.
Extra options (--episodes, --setups) pass through to e2e_bench.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds e2e_bench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: op2ca sources (src/) not found beside e2ebench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2e_bench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "e2e_bench")


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"e2ebench: build failed: {e}")
    try:
        proc = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
