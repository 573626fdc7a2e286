#!/usr/bin/env python3
"""Build and run the SoCL benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark binary is built from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use;
later runs only re-check it. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is 0 only when the run completed and every correctness check passed.

--self-test runs every workload at a seconds-long size, traced and
untraced, and checks that each reports exactly the metric names and units
BENCHMARK.json declares.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s, and a first run (build included) within 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 350  # each of configure and build


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"SoCL sources not found under {ROOT}/src")
    out = build_dir()
    tmp = os.path.join(out, "tmp")  # keep compiler temporaries in the tree
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent first runs build once
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr, env=env,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", out, "--target", "socl_perfbench",
                        "-j", jobs], check=True, stdout=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "socl_perfbench")


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def declared_metrics(trace):
    """{name: unit} that BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(binary, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (result dict or None, its exit code)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        return None, done.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, done.returncode or 1
    for line in lines[:-1]:
        print(line)
    return result, done.returncode


def check_names(result, trace):
    """Problems with the reported metric names/units, as strings."""
    want = declared_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = [f"missing metric {n}" for n in want if n not in got]
    problems += [f"undeclared metric {n}" for n in got if n not in want]
    problems += [f"{n}: unit {got[n]!r}, declared {u!r}"
                 for n, u in want.items() if n in got and got[n] != u]
    return problems


def self_test(binary):
    ok = True
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for workload in workloads:
        for trace in (False, True):
            result, code = run_binary(binary, workload, 1, 1, trace,
                                      tiny=True)
            if result is None:
                problems = ["no result"]
            else:
                problems = check_names(result, trace)
                if not result["correct"]:
                    problems.append("correctness check failed")
                if result["failed"]:
                    problems.append(f"{result['failed']} operations failed")
            if code != 0:
                problems.append(f"exit code {code}")
            label = f"{workload} trace={int(trace)}"
            print(f"self-test {label}: " + ("ok" if not problems
                                            else "; ".join(problems)))
            ok = ok and not problems
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 1
    if args.self_test:
        return 0 if self_test(binary) else 1

    print(f"info git_sha = {git_sha()}")
    try:
        result, code = run_binary(binary, args.workload, args.seed,
                                  args.seconds, bool(args.trace))
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if result is None:
        log(f"{args.workload} printed no result (exit code {code})")
        return 1
    problems = check_names(result, bool(args.trace))
    for problem in problems:
        log(problem)
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    return 0 if code == 0 and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
