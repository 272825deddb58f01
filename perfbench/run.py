#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
the program from source (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls only
rebuild what changed. The workload binary prints its metrics; this
script checks them against BENCHMARK.json and prints the JSON result
object as the last line of stdout. Per-layer metrics a workload does
not exercise are reported as 0. Exits non-zero, printing no result,
when the program cannot be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The whole invocation must end within 180 s once the build exists.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure once, then (re)build the perfbench binary."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"program sources missing: no {need} at {ROOT}")
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-6000:] + p.stderr[-6000:])
            fail(f"build step {' '.join(cmd[:2])} exited {p.returncode}")
    return os.path.join(out, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def complete(result, spec, traced):
    """Check the binary's metrics against BENCHMARK.json.

    Every reported metric must be declared with the same unit. Traced
    runs report every per-layer metric: those the workload does not
    exercise (no kernel in the simulator workload, no batch norm in a
    fused graph) are filled in as 0.
    """
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            fail(f"metric {name} [{m['unit']}] is not declared that way "
                 "in BENCHMARK.json")
    for name, unit in units.items():
        if name not in metrics:
            if not traced:
                fail(f"end-to-end metric {name} missing")
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {name: metrics[name] for name in units}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="check that the output checks catch a "
                         "one-bit perturbation, on every workload")
    args = ap.parse_args()
    started = time.monotonic()

    if args.self_test:
        binary = build()
        sys.exit(subprocess.run([binary, "--self-test"],
                                timeout=RUN_BUDGET_S).returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in [1, 120]")
    binary = build()
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    budget = max(RUN_BUDGET_S - (time.monotonic() - started),
                 args.seconds + 30)
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"workload run exceeded {budget:.0f} s")
    sys.stderr.write(p.stderr)
    lines = p.stdout.rstrip("\n").split("\n")
    if p.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(f"workload binary exited {p.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("workload binary printed no result line")
    result = complete(result, spec, bool(args.trace))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
