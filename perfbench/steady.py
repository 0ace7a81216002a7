#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one build, alternating.

    python3 perfbench/steady.py                      # 10 runs per set, every workload
    python3 perfbench/steady.py --runs 5 --workloads fuzzy_tail

Builds once, then runs set A and set B in turn (A, B, A, B, ...), each
run with its own seed (set A takes seeds first_seed, first_seed+2, ...;
set B the odd offsets). For every metric of every workload it prints
each set's median and quartiles, the spread (third minus first quartile,
over the median) and, for the end-to-end metrics, whether the two sets
agree within the bounds of BENCHMARK.json:

  * each set's spread is within the metric's bound;
  * the two sets' medians differ by no more than the bound (either way);
  * the share of failed operations is the same in both sets.

Exits 0 when everything agrees, 1 otherwise. Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the build step of the benchmark command)


def one_run(binary, workload, seed, seconds):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0",
           "--out", os.path.join(HERE, "out")]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("nan")


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    binary = run.build()
    if binary is None:
        return 1
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    all_ok = True
    for workload in args.workloads.split(","):
        sets = [[], []]
        for k in range(args.runs):
            for s in range(2):
                seed = args.first_seed + 2 * k + s
                result = one_run(binary, workload, seed, spec["run_seconds"])
                sets[s].append(result)
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"{workload} set {'AB'[s]} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} {values}",
                      file=sys.stderr)
        print(f"\n{workload}: {args.runs} runs per set, {spec['run_seconds']} s each")
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"  correct in every run: {correct}; failed shares: "
              + "; ".join(f"{'AB'[s]} {sorted(x)}" for s, x in enumerate(shares)))
        ok = correct and all(len(x) == 1 for x in shares) and len(set().union(*shares)) == 1
        for name in sets[0][0]["metrics"]:
            unit = sets[0][0]["metrics"][name]["unit"]
            cols = []
            stats = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, spread = summary(values)
                stats.append((med, spread))
                cols.append(f"median {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
            verdict = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                (a, _), (b, _) = stats
                agree = (all(spread <= bound for _, spread in stats)
                         and abs(b - a) / a <= bound)
                verdict = f"  bound {bound}: {'agree' if agree else 'DISAGREE'}"
                ok = ok and agree
            print(f"  {name} ({unit}): " + " | ".join(cols) + verdict)
        print(f"  => {workload}: {'steady' if ok else 'NOT steady'}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
