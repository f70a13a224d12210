#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--seconds S]
                                [--save MEDIANS.json] [--against MEDIANS.json]

Runs perfbench/run.py --trace 0 once per seed on each workload, then
prints, per end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median as statistics.quantiles(values, n=4) gives them,
next to a third of the metric's bound from BENCHMARK.json. Also reruns
the first seed once untraced and twice traced, and requires every
model.* count to repeat exactly (a traced run may count more).
Run from the repository root; exits non-zero on a failed run or a
non-repeating count. --save writes the medians to a JSON file; --against
reads such a file from an earlier set and prints, per metric, how much
worse this set's median is than that one's, flagging a change past the
bound (and exiting non-zero).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace=0):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().split("\n")
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-2000:])
        sys.exit("run failed: %s seed %d" % (workload, seed))
    every = {}
    for line in lines:
        if line.startswith("# all "):
            every = json.loads(line[len("# all "):])
    return json.loads(lines[-1]), every


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default="")
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--save", default="")
    p.add_argument("--against", default="")
    args = p.parse_args()
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    medians = {}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    ok = True
    for w in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        model = None
        for i in range(args.runs):
            seed = args.first_seed + i
            res, every = run(w, seed, seconds)
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            if i == 0:
                model = {k: v["value"] for k, v in every.items()
                         if k.startswith("model.")}
        repeats = [run(w, args.first_seed, seconds, trace)[1]
                   for trace in (0, 1, 1)]
        repeats = [{k: v["value"] for k, v in again.items()
                    if k.startswith("model.")} for again in repeats]
        same = (repeats[0] == model and repeats[1] == repeats[2]
                and all(repeats[1][k] == v for k, v in model.items()))
        if not same:
            ok = False
            print("%s: model counts differ on a repeat: %s vs %s"
                  % (w, model, repeats))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < m["bound"] / 3 else "  <-- over bound/3"
            print("%-12s %-18s median %-12.6g spread %.4f (bound/3 %.4f)%s"
                  % (w, m["name"], med, spread, m["bound"] / 3, flag))
            print("    " + " ".join("%.5g" % x for x in v))
            medians.setdefault(w, {})[m["name"]] = med
            before = earlier.get(w, {}).get(m["name"])
            if before:
                worse = ((med - before) if m["better"] == "lower"
                         else (before - med)) / before
                over = worse > m["bound"]
                ok = ok and not over
                print("    vs earlier median %.6g: worse by %+.4f (bound %.2f)%s"
                      % (before, worse, m["bound"],
                         "  <-- past bound" if over else ""))
        print("%-12s model counts repeat: %s %s" % (w, same, repeats[1]))
        sys.stdout.flush()
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1, sort_keys=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
