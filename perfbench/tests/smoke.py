#!/usr/bin/env python3
"""Smoke test: every workload, untraced and traced, prints the result line
BENCHMARK.json promises.  That covers ragged_requests too, which the
benchmark runs but BENCHMARK.json holds out (see RUNBOOK.md).

    smoke.py PERFBENCH

Each workload runs one rotation of ops (--ops).  Checks: the last stdout
line is {"correct", "attempted", "failed", "metrics"}; the metric names and
units are exactly BENCHMARK.json's end_to_end (untraced) or per_layer
(traced) lists; correct == (failed == 0); and no traced op failed its replay
identity check.  Failed ops from program defects are reported, not hidden:
they make `correct` false but do not fail this test of the benchmark.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "..", "BENCHMARK.json")
OPS = {"cf_random": 2, "baseline_worstcase": 1, "ragged_requests": 6, "instrumented": 3}


def main():
    binary = sys.argv[1]
    with open(SPEC) as f:
        spec = json.load(f)
    errors = [f"BENCHMARK.json workload {w['name']} is unknown to this test"
              for w in spec["workloads"] if w["name"] not in OPS]
    for name in OPS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run([binary, "--workload", name, "--seed", "3", "--ops",
                                   str(OPS[name]), "--trace", str(trace)],
                                  capture_output=True, text=True)
            where = f"{name} trace={trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            lines = proc.stdout.strip().split("\n")
            r = json.loads(lines[-1])
            if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{where}: result keys {sorted(r)}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want:
                errors.append(f"{where}: metrics differ from BENCHMARK.json {key}: "
                              f"missing {sorted(set(want) - set(got))}, "
                              f"extra {sorted(set(got) - set(want))}")
            if not (r["attempted"] >= 1 and 0 <= r["failed"] <= r["attempted"]):
                errors.append(f"{where}: attempted/failed {r['attempted']}/{r['failed']}")
            if r["correct"] != (r["failed"] == 0):
                errors.append(f"{where}: correct={r['correct']} with failed={r['failed']}")
            failed = [l for l in lines if l.lstrip().startswith("FAILED")]
            errors += [f"{where}: {l.strip()}" for l in failed if "replay" in l]
            for l in failed:
                print(f"{where}: reported {l.strip()}")
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
