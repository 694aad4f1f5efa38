#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload image_shm_xproc --seed 1 \\
        --seconds 10 --trace 0

Builds perfbench/ (a CMake package that compiles the middleware from
../src) on first use, runs the `perfbench` binary, checks that no shared
memory segment of the run survived it, and prints the host facts followed
by one JSON result line: {"correct", "attempted", "failed", "metrics"}.
The build tree and per-run outputs go under $CARGO_TARGET_DIR (default
.bench_build) in the repository root.
"""
import argparse
import glob
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("image_shm_xproc", "image_tcp_xproc", "imu_intra_fanout")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "ros", "publication.cpp")):
        fail("middleware sources not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def run(exe, args, out_dir):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=out_dir, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench exited with status {proc.returncode}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        fail("perfbench printed no result")
    return json.loads(lines[-2]), json.loads(lines[-1])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    exe = build(os.path.join(build_root, "perfbench"))
    out_dir = os.path.join(build_root, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    host, result = run(exe, args, out_dir)

    # Shm hygiene: every segment a process of this run created must be gone.
    leftovers = [path for pid in host["pids"]
                 for path in glob.glob(f"/dev/shm/rsf.{pid}.*")]
    if leftovers:
        print("perfbench: shm segments survived teardown: " +
              " ".join(leftovers), file=sys.stderr)
        result["correct"] = False

    names = list(result["metrics"])
    if names != expected_metrics(args.trace):
        fail("metric names differ from BENCHMARK.json: " + ", ".join(names))

    print(json.dumps(host))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
