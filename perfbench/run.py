#!/usr/bin/env python3
"""Build and run the dphls host wall-clock benchmark.

    python3 perfbench/run.py --workload align_batch|serve_open \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which pulls in the
library and the dphls_serve daemon from the source tree) into
.bench_build/, runs the workload in a fresh process, and prints as the
last line one JSON object: correct, attempted, failed and the metrics
BENCHMARK.json lists (end_to_end with --trace 0, per_layer with
--trace 1). A per-layer metric the workload does not exercise reads 0.
Exits non-zero, without a result line, when the build or the run fails,
and non-zero after the result line when an output check failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; logs go to a file."""
    tmp = os.path.join(BUILD, "tmp")  # compiler temporaries stay inside
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench", "dphls_serve"])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                 cwd=ROOT, env=env)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def find_binary(name):
    for sub in ("", "dphls"):
        path = os.path.join(BUILD, sub, name)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            return path
    fail("built binary not found: " + name)


def run_workload(args):
    """Run perfbench in its own process group; stop everything it left."""
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [find_binary("perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir",
           os.path.relpath(work, ROOT),
           "--serve-bin", find_binary("dphls_serve")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        # Wait until every process of the group has ended.
        for _ in range(200):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    if out is None:
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 3):
        fail("workload exited with status %d" % proc.returncode)
    try:
        return json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("workload printed no result")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    build()
    result = run_workload(args)
    measured = result["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in measured:
            metrics[name] = measured[name]
        elif args.trace:
            metrics[name] = {"value": 0, "unit": m["unit"]}
        else:
            fail("workload did not measure " + name)
        if metrics[name]["unit"] != m["unit"]:
            fail("unit of %s is %s, BENCHMARK.json says %s"
                 % (name, metrics[name]["unit"], m["unit"]))
    print("# all " + json.dumps(measured, sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
