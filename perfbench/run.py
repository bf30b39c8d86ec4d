#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds
perfbench (Release) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only let the
build tool confirm the binary is current.  Build output goes to stderr; the
benchmark's report goes to stdout and its last line is the JSON result.
Traced runs also write their spans to <build>/spans/<workload>-<seed>.jsonl.
See RUNBOOK.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cf_random", "baseline_worstcase", "ragged_requests", "instrumented"]
# The benchmark process itself (set-up + timed loop + checks) must end well
# inside this; the build before it is not counted.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    bdir = build_dir()
    try:
        build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(bdir, "spans"), exist_ok=True)
        cmd += ["--spans", os.path.join(bdir, "spans", f"{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: last line is not a JSON result", file=sys.stderr)
        return 1

    # Tracing overhead: the traced run's median op against the untraced
    # run of the same workload and seed, when one was made in this build.
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    untraced = os.path.join(results, f"{args.workload}-{args.seed}.json")
    note = None
    if not args.trace:
        with open(untraced, "w") as f:
            json.dump(result, f)
    elif os.path.exists(untraced):
        with open(untraced) as f:
            base = json.load(f)["metrics"]["op_ms_p50"]["value"]
        traced = result["metrics"]["trace.op_ms_p50"]["value"]
        note = (f"  tracing overhead: trace.op_ms_p50 {traced:.3f} ms vs untraced "
                f"op_ms_p50 {base:.3f} ms = {traced - base:+.3f} ms "
                f"({100.0 * (traced - base) / base:+.2f}%)")

    print("\n".join(lines[:-1]))
    if note:
        print(note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
