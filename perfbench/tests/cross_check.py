#!/usr/bin/env python3
"""Cross-check baseline_worstcase against the cfsort CLI.

    cross_check.py PERFBENCH CFSORT

Runs one baseline_worstcase op and asks cfsort for the same input
(--algo=baseline --dist=worst-case --n=122880 --seed=<op 0 input seed>).
gpusim.model.merge.merge.conflicts_per_elem must equal cfsort's merge.merge
bank conflicts per element exactly, and sim_elem_per_us must equal cfsort's
throughput_elem_per_us to the 6 significant digits cfsort prints.
"""
import json
import re
import subprocess
import sys

SEED = 7


def perfbench(binary, trace):
    out = subprocess.run([binary, "--workload", "baseline_worstcase", "--seed", str(SEED),
                          "--ops", "1", "--trace", str(trace)],
                         capture_output=True, text=True, check=True).stdout
    seed = re.search(r"op 0 input seed: (\d+)", out).group(1)
    return seed, json.loads(out.strip().split("\n")[-1])["metrics"]


def main():
    bench, cfsort = sys.argv[1], sys.argv[2]
    seed, layers = perfbench(bench, 1)
    _, e2e = perfbench(bench, 0)
    cf = json.loads(subprocess.run(
        [cfsort, "--algo=baseline", "--dist=worst-case", "--n=122880", f"--seed={seed}",
         "--json"], capture_output=True, text=True, check=True).stdout)

    want_conf = cf["phases"]["merge.merge"]["bank_conflicts"] / cf["n"]
    got_conf = layers["gpusim.model.merge.merge.conflicts_per_elem"]["value"]
    want_sim = cf["throughput_elem_per_us"]
    got_sim = e2e["sim_elem_per_us"]["value"]
    print(f"input seed {seed}: conflicts/elem perfbench {got_conf!r} cfsort {want_conf!r}; "
          f"sim elem/us perfbench {got_sim!r} cfsort {want_sim!r}")
    ok = got_conf == want_conf and abs(got_sim - want_sim) <= 5e-6 * want_sim
    if not ok:
        print("cross-check FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
