#!/usr/bin/env python3
"""Election benchmark of ppsim: builds the benchmark from the source tree
around this directory and runs one workload.

    python3 electbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 electbench/run.py --self-test

Run from the repository root. The build goes to .bench_build/electbench
(Release); the run's scratch files go to .bench_build/tmp and are removed
when it ends. The last line of standard output is the JSON result; build
output goes to standard error. --self-test runs every workload and the
traced run at tiny n and checks that every metric BENCHMARK.json names is
emitted with its unit, and that an election starved of budget is counted
as failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "electbench")
BINARY = os.path.join(BUILD, "electbench")
# Compiler and run temporaries stay inside the working tree as well.
TMP = os.path.join(".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=os.path.abspath(TMP))


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    os.makedirs(TMP, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "electbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=ENV).returncode != 0:
            return False
    return True


def commit():
    """The source tree's git commit, or "unknown" outside a git checkout."""
    env = dict(ENV, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(args, capture=False):
    cmd = [BINARY] + args + ["--commit", commit()]
    if capture:
        return subprocess.run(cmd, capture_output=True, text=True, env=ENV)
    return subprocess.run(cmd, env=ENV)


def self_test():
    """Tiny-n end-to-end check of every workload, untraced and traced."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_binary(["--workload", name, "--seed", "1", "--seconds", "1",
                               "--trace", str(trace), "--tiny"], capture=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{name} trace {trace}: gate failed: {lines[-1]}")
            emitted = result["metrics"]
            for metric in spec[key]:
                got = emitted.get(metric["name"])
                if got is None:
                    problems.append(f"{name} trace {trace}: {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{name} trace {trace}: {metric['name']} unit "
                                    f"{got['unit']} != {metric['unit']}")
            extra = set(emitted) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{name} trace {trace}: unlisted metrics {sorted(extra)}")
            print(f"self-test {name} trace {trace}: {len(emitted)} metrics, "
                  f"{result['attempted']} elections")
        starved = run_binary(["--workload", name, "--seed", "1", "--seconds", "1",
                              "--trace", "0", "--tiny", "--starve"], capture=True)
        lines = starved.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if (starved.returncode != 1 or result.get("correct") is not False
                or result.get("attempted") != 1 or result.get("failed") != 1):
            problems.append(f"{name}: starved election not counted as failed\n{starved.stdout}")
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not build():
        print("electbench: build failed", file=sys.stderr)
        return 3
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    return run_binary(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", repr(args.seconds), "--trace", str(args.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
