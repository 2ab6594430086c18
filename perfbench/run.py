#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed n] [--seconds s] [--trace 0|1]

Run it from the repository root. It builds perfbench/ (a Go module that
uses the tbtm module in the parent directory) into .bench_build/, with
the Go build cache and temporary files kept there too, then runs one
workload and passes its output and exit code through. "all" runs every
workload in turn and ends with one combined result line whose metric
names are prefixed with the workload.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["bank", "kv-mem", "kv-durable", "kv-replica"]
BUILD = ".bench_build"
BINARY = os.path.join(BUILD, "perfbench")


def build():
    root = os.getcwd()
    for sub in ("gocache", "gotmp"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    env = dict(os.environ)
    # Everything the toolchain writes stays under BUILD: its caches,
    # temporary files, GOPATH and (through XDG_CONFIG_HOME) its
    # telemetry counters.
    env.update(
        GOCACHE=os.path.join(root, BUILD, "gocache"),
        GOTMPDIR=os.path.join(root, BUILD, "gotmp"),
        GOMODCACHE=os.path.join(root, BUILD, "gomodcache"),
        GOPATH=os.path.join(root, BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(root, BUILD, "config"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOENV="off",
    )
    res = subprocess.run(
        ["go", "build", "-o", os.path.join(root, BINARY), "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    return res.returncode == 0


def main():
    args = sys.argv[1:]
    if not os.path.isfile("perfbench/go.mod") or not os.path.isfile("go.mod"):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if "--workload" in args and args[args.index("--workload") + 1 :][:1] == ["all"]:
        return run_all(args)
    return subprocess.run([BINARY] + args).returncode


def run_all(args):
    i = args.index("--workload")
    rest = args[:i] + args[i + 2 :]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        res = subprocess.run(
            [BINARY, "--workload", name] + rest, stdout=subprocess.PIPE, text=True
        )
        lines = res.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name:<12} {line}")
        code = code or res.returncode
        try:
            out = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and out["correct"]
        combined["attempted"] += out["attempted"]
        combined["failed"] += out["failed"]
        for metric, v in out["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return code or (0 if combined["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
