#!/usr/bin/env python3
"""Compare nscbench's exact metrics with the committed baseline.

Runs every workload named in bench/nscbench_baseline.json for a short
untraced window through nscbench/run.sh, at the baseline's seed, and
checks that each exact metric (simulated cycles per op, sustained
MFLOPS, allocated minor words per op, ok fraction) equals the recorded
value bit for bit.  These metrics are computed over the workload's first
pass, so they do not depend on the window length or the host's speed.
A drift is printed with its direction, judged by the metric's `better`
field in BENCHMARK.json: "lower (better)" can be re-recorded, "higher
(worse)" is a regression to fix.

    python3 bench/check_baseline.py            # check; exit 1 on any drift
    python3 bench/check_baseline.py --write    # re-record the baseline

Run it from the root of a checkout.  A change that moves an exact metric
re-records the file in the same change and says why in CHANGES.md.
"""

import json
import subprocess
import sys

BASELINE = "bench/nscbench_baseline.json"
BENCHMARK = "BENCHMARK.json"
EXACT = ["sim_cycles_per_op", "sim_mflops", "alloc_mwords_per_op", "ok_frac"]


def measure(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "nscbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: the benchmark reported a wrong answer")
    return {m: result["metrics"][m]["value"] for m in EXACT}


def direction(got, want, better):
    """How a drifted value moved, and whether that is an improvement."""
    if want is None:
        return "new"
    moved = "higher" if got > want else "lower"
    return f"{moved} ({'better' if moved == better else 'worse'})"


def main():
    write = sys.argv[1:] == ["--write"]
    with open(BASELINE) as f:
        baseline = json.load(f)
    with open(BENCHMARK) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    seed, seconds = baseline["seed"], baseline["seconds"]
    drift = []
    for workload, want in baseline["workloads"].items():
        got = measure(workload, seed, seconds)
        for m in EXACT:
            ok = got[m] == want.get(m)
            verdict = "ok" if ok else (
                f"DRIFT {direction(got[m], want.get(m), better[m])} "
                f"(baseline {want.get(m)!r})")
            print(f"{workload:14s} {m:22s} {got[m]!r:>24} {verdict}")
            if not ok:
                drift.append(f"{workload} {m}")
        if write:
            baseline["workloads"][workload] = got
    if write:
        with open(BASELINE, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"wrote {BASELINE}")
    elif drift:
        sys.exit("exact metrics moved from the baseline: " + ", ".join(drift))


if __name__ == "__main__":
    main()
