#!/usr/bin/env python3
"""Builds and runs the POSET-RL end-to-end benchmark (perfbench/NOTES.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --selftest

The benchmark package (perfbench/CMakeLists.txt) compiles the program's
src/ libraries from source into $CARGO_TARGET_DIR, or .bench_build when that
is unset. Build output goes to stderr; the last line of stdout is the JSON
result. --selftest runs every workload twice on a tiny budget and checks
the metric set against BENCHMARK.json and the deterministic metrics for
bit-identity.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

PACKAGE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PACKAGE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
# Metrics that depend only on the seed, never on timing, per workload. On
# serve-online the served policy changes whenever the learner promotes,
# which depends on timing, so only the set-up policy's quality repeats.
DETERMINISTIC = {
    "serve": ["policy_size_ratio_vs_oz", "policy_cycles_ratio_vs_oz",
              "served_size_ratio_vs_oz", "serve_policy_win_rate"],
    "serve-online": ["policy_size_ratio_vs_oz", "policy_cycles_ratio_vs_oz"],
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources next to the benchmark (src/CMakeLists.txt)")
    # One build tree per benchmark package: a build directory shared by two
    # checkouts must not compile one checkout's sources for the other.
    key = hashlib.sha256(PACKAGE.encode()).hexdigest()[:12]
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench-" + key)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", PACKAGE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def run(binary, workload, seed, seconds, trace, tiny=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd + (["--tiny"] if tiny else []),
                          stdout=subprocess.PIPE, text=True)


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"] for m in spec[kind]}
            results = []
            for attempt in range(2):
                proc = run(binary, workload, 7, 1, trace, tiny=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else {}
                where = f"{workload} trace {trace} run {attempt}"
                if proc.returncode != 0 or not result.get("correct"):
                    problems.append(f"{where}: exit {proc.returncode}, {result}")
                    continue
                metrics = result["metrics"]
                if set(metrics) != expected:
                    problems.append(f"{where}: missing {sorted(expected - set(metrics))}, "
                                    f"unexpected {sorted(set(metrics) - expected)}")
                for name, m in metrics.items():
                    if not NAME.match(name) or len(name) > 64:
                        problems.append(f"{where}: bad metric name {name!r}")
                    if units.get(name) != m["unit"]:
                        problems.append(f"{where}: {name} unit {m['unit']!r}")
                results.append(metrics)
            if trace == 0 and len(results) == 2:
                for name in DETERMINISTIC[workload]:
                    a, b = (r[name]["value"] for r in results)
                    if a != b:
                        problems.append(f"{workload}: {name} differs: {a!r} vs {b!r}")
            print(f"selftest {workload} trace {trace}: {len(results)} runs", file=sys.stderr)
    for p in problems:
        print("selftest: " + p, file=sys.stderr)
    print(json.dumps({"selftest": "fail" if problems else "pass",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if args.selftest:
        return selftest(binary)
    proc = run(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
