#!/usr/bin/env python3
"""Build seedbd and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload explore_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test --seed 1

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); span files of traced runs go to <target>/perfbench.
The last line of stdout is the run's JSON result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["explore_cold", "session_warm", "ingest_refresh"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build(root, target):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(root / "perfbench" / "Cargo.toml"),
        "-p", "seedb-perfbench", "-p", "seedb-server", "--bins",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S)
    return done.returncode == 0


def run(binary, args, timeout):
    """Runs the benchmark in its own process group, so a timeout also stops
    the seedbd it launched. Returns (exit code, stdout)."""
    proc = subprocess.Popen([str(binary)] + args, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    if not build(root, target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = target / "release" / "seedb-perfbench"
    common = ["--seedbd", str(target / "release" / "seedbd"),
              "--seed", str(a.seed), "--out", str(target / "perfbench")]

    if a.self_test:
        code, out = run(binary, common + ["--self-test"], RUN_TIMEOUT_S)
        sys.stdout.write(out)
        return code

    names = WORKLOADS if a.workload == "all" else [a.workload]
    results = {}
    for name in names:
        code, out = run(binary, common + [
            "--workload", name, "--seconds", str(a.seconds),
            "--trace", str(a.trace)], RUN_TIMEOUT_S)
        lines = out.splitlines()
        if code != 0 or not lines:
            sys.stdout.write(out)
            return code or 1
        if len(names) == 1:
            sys.stdout.write(out)
            return 0
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        results[name] = json.loads(lines[-1])

    # All workloads: one combined result, metrics keyed workload/metric.
    metrics = {f"{w}/{k}": v for w, r in results.items()
               for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
