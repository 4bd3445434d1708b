#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of the repository:

  python3 perfbench/run.py --workload lazy-maintenance --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --workload query-serving --seed 1 --seconds 15 --trace 1
  python3 perfbench/run.py --repeat 5 [--workload W] [--seed 1] [--seconds 15]
  python3 perfbench/run.py --self-test

The first form builds the p3q library and the benchmark program from source
(into $CARGO_TARGET_DIR or .bench_build), runs one workload, and relays the
program's output: one line per kind of operation with its attempted and
failed counts, the end-to-end metrics, and as the last line one JSON object
with "correct", "attempted", "failed" and "metrics". --trace 1 prints the
per-layer metrics instead, plus each layer's self time and the tracing
overhead, and writes the spans under the build directory.

--repeat N runs each workload (or the one given) N times on seeds seed,
seed+1, ... and prints each metric's median, quartiles and spread (the
distance between the quartiles as a share of the median) next to the
metric's bound in BENCHMARK.json.

--self-test builds and runs the tests of the benchmark's checkers.

The exit code is non-zero when the build, a run, a check or a test fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["lazy-maintenance", "query-serving", "churn-update"]
RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", target,
                  "-j", BUILD_JOBS])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print(f"run.py: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    binary = out / target
    return binary if binary.exists() else None


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs the program once; returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} seed {seed} timed out", file=sys.stderr)
        return 1, []
    if echo:
        sys.stdout.write(proc.stdout)
    return proc.returncode, proc.stdout.splitlines()


def parse_metrics(lines):
    """Every metric a run printed: the end_to_end line and the result line."""
    values, units = {}, {}
    for line in lines:
        if line.startswith("end_to_end "):
            block = json.loads(line[len("end_to_end "):])
        elif line.startswith("{"):
            block = json.loads(line)["metrics"]
        else:
            continue
        for name, m in block.items():
            values[name] = m["value"]
            units[name] = m["unit"]
    return values, units


def bounds():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def repeat(binary, workloads, first_seed, count, seconds):
    limits = bounds()
    ok = True
    for workload in workloads:
        samples, units = {}, {}
        for seed in range(first_seed, first_seed + count):
            code, lines = run_once(binary, workload, seed, seconds, False,
                                   echo=False)
            if code != 0:
                print(f"{workload} seed {seed}: exit {code}")
                ok = False
                continue
            values, u = parse_metrics(lines)
            units.update(u)
            for name, value in values.items():
                samples.setdefault(name, []).append(value)
        print(f"\n{workload}: {count} runs, seeds {first_seed}.."
              f"{first_seed + count - 1}, {seconds} s each")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'bound':>6}  unit")
        for name, values in samples.items():
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / med if med else float("nan")
            bound = limits.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  > bound/3"
            print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:8.4f} {bound if bound is not None else '':>6}"
                  f"  {units[name]}{flag}")
        for name in ("setup_s", "run_s"):
            runs = " ".join(f"{v:.4g}" for v in samples.get(name, []))
            print(f"  {name} by seed: {runs}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        binary = build("checks_test")
        if binary is None:
            return 1
        return subprocess.run([str(binary)]).returncode

    if args.repeat <= 0 and args.workload is None:
        parser.error("--workload is required unless --repeat or --self-test")
    binary = build("p3q_perfbench")
    if binary is None:
        return 1
    if args.repeat > 0:
        workloads = [args.workload] if args.workload else WORKLOADS
        return repeat(binary, workloads, args.seed, args.repeat, args.seconds)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds,
                       args.trace == 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
