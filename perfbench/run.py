#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source checkout.  The harness is built from the
checkout's sources into .bench_build/ (or $CARGO_TARGET_DIR when that lies
inside the checkout), then run once for the workload.  Build output, the
harness's per-op log and any error go to stderr; stdout carries the
harness's context line and, as its last line, the result JSON.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS_TIMEOUT_S = 175

# Environment of every workload: the rank runtime is pinned to threads, and
# only dslash-halfwire selects the compressed ghost wire.  Every other
# LQCD_* variable is cleared so a run never inherits a knob.
WORKLOAD_ENV = {
    "gcrdd-cluster": {},
    "dslash-halfwire": {"LQCD_GHOST_PREC": "half", "LQCD_GHOST_RECON": "min"},
    "serve-campaign": {},
    "multishift-asqtad": {},
}


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    if target:
        path = (ROOT / target).resolve()
        if path == ROOT or ROOT in path.parents:
            return path
    return ROOT / ".bench_build"


def build(out, targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources next to {HERE.name}/ (expected {ROOT}/src)", 2)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target"] + targets)
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}", 2)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, or units differ")
    return result


def run_workload(args):
    if args.workload not in WORKLOAD_ENV:
        fail(f"unknown workload {args.workload!r}; "
             f"known: {', '.join(WORKLOAD_ENV)}", 2)
    out = build_dir()
    build(out, ["perfbench"])
    env = {k: v for k, v in os.environ.items() if not k.startswith("LQCD_")}
    env["LQCD_RANK_MODE"] = "threads"
    env.update(WORKLOAD_ENV[args.workload])
    logs = out / "logs"
    logs.mkdir(exist_ok=True)
    log = logs / f"{args.workload}-seed{args.seed}-trace{args.trace}.log"
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    with open(log, "w") as err:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  stderr=err, text=True,
                                  timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"harness exceeded {HARNESS_TIMEOUT_S} s (log: {log})")
    print(f"perfbench: per-op log in {log}", file=sys.stderr)
    if proc.returncode != 0:
        sys.stderr.write(log.read_text()[-4000:])
        fail(f"harness exited with {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("harness printed no result")
    check_result(lines[-1], args.trace)
    for line in lines[:-1]:
        print(line)
    print(lines[-1], flush=True)


def run_selftest():
    out = build_dir()
    build(out, ["perfbench_selftest"])
    env = {k: v for k, v in os.environ.items() if not k.startswith("LQCD_")}
    env["LQCD_RANK_MODE"] = "threads"
    proc = subprocess.run([str(out / "perfbench_selftest")], cwd=ROOT, env=env,
                          timeout=HARNESS_TIMEOUT_S)
    sys.exit(proc.returncode)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        run_selftest()
    if not args.workload:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    run_workload(args)


if __name__ == "__main__":
    main()
