#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of N runs of one workload.

    python3 lcbench/steady.py --workload serve_unique [--runs 10]
        [--seconds S] [--first-seed 1000] [--save FILE]

Run i of set A uses seed first_seed + 2i, run i of set B first_seed + 2i + 1,
and the runs alternate A, B, A, B, ... so slow drift of the host lands on
both sets alike. For every end-to-end metric of BENCHMARK.json that the
workload reports, prints both medians, each set's quartiles and its spread
(interquartile distance over the median), the spread of all 2N runs
together, and whether the sets agree: the spread of each set within the
metric's bound, and the two medians apart by no more than the bound (as a
share of set A's median), in either direction.
Exits 1 when any metric disagrees, any run fails, or the failed share
differs between sets.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--save", default=None, help="write every result here")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]

    sets = {"A": [], "B": []}
    for i in range(args.runs):
        for k, name in enumerate("AB"):
            seed = args.first_seed + 2 * i + k
            res = run_once(args.workload, seed, seconds)
            res["seed"] = seed
            sets[name].append(res)
            print(f"run {name}{i} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr, flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(sets, f)

    ok = True
    for name, runs in sets.items():
        if not all(r["correct"] for r in runs):
            print(f"set {name}: a run reported correct=false")
            ok = False
    shares = {n: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
              for n, rs in sets.items()}
    print(f"failed share: A {shares['A']:.6f}  B {shares['B']:.6f}")
    ok &= shares["A"] == shares["B"]

    print(f"{'metric':<16}{'unit':>8}{'median A':>12}{'median B':>12}"
          f"{'q1..q3 A':>22}{'q1..q3 B':>22}{'spread A':>10}{'spread B':>10}"
          f"{'spread all':>11}{'apart':>8}{'bound':>7}  verdict")
    for m in bench["end_to_end"]:
        name = m["name"]
        if name not in sets["A"][0]["metrics"]:
            continue
        a = [r["metrics"][name]["value"] for r in sets["A"]]
        b = [r["metrics"][name]["value"] for r in sets["B"]]
        qa, qb, qall = spread(a), spread(b), spread(a + b)
        bound = m["bound"]
        apart = abs(qb[1] - qa[1]) / qa[1]
        agree = apart <= bound and qa[3] <= bound and qb[3] <= bound
        ok &= agree
        print(f"{name:<16}{m['unit']:>8}{qa[1]:>12.4g}{qb[1]:>12.4g}"
              f"{f'{qa[0]:.4g}..{qa[2]:.4g}':>22}{f'{qb[0]:.4g}..{qb[2]:.4g}':>22}"
              f"{qa[3]:>10.3f}{qb[3]:>10.3f}{qall[3]:>11.3f}{apart:>8.3f}"
              f"{bound:>7.2f}  {'agree' if agree else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
