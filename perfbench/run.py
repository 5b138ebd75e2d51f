#!/usr/bin/env python3
"""The repository benchmark: builds the runner from source, runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and builds
perfbench/ (the library sources plus the runner, Release) into
.bench_build/perfbench; later runs only re-check the build.

The runner prints every metric it measured, one per line with its unit,
then the host fingerprint and any failed output check. This script then
prints, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. A per-layer metric of a
layer the workload does not exercise (perfbench/layers.json lists where
each is measured) reads 0. The full result, with the fingerprint and p99,
is also written to .bench_build/results/.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    jobs = str(os.cpu_count() or 2)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def select(result, bench, layers, workload, trace):
    """The metrics BENCHMARK.json asks for, plus the problems found."""
    problems = []
    wanted = bench["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        m = measured.get(name)
        if m is None:
            where = layers.get(name, {}).get("workloads", [])
            if not trace or workload in where:
                problems.append(f"{name} was not measured")
            metrics[name] = {"value": 0.0, "unit": spec["unit"]}
            continue
        if m["unit"] != spec["unit"]:
            problems.append(f"{name} measured in {m['unit']}, "
                            f"declared in {spec['unit']}")
        metrics[name] = {"value": m["value"], "unit": spec["unit"]}
    return metrics, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    layers_path = os.path.join(HERE, "layers.json")
    if not os.path.exists(bench_path) or not os.path.exists(layers_path):
        log("perfbench: BENCHMARK.json or perfbench/layers.json is missing")
        return 2
    bench = load_json(bench_path)
    layers = load_json(layers_path)["metrics"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        log(f"perfbench: unknown workload {args.workload}; "
            f"expected one of {', '.join(workloads)}")
        return 2
    declared = {m["name"] for m in bench["per_layer"]}
    if declared != set(layers):
        log("perfbench: BENCHMARK.json per_layer and perfbench/layers.json "
            "name different metrics: "
            + ", ".join(sorted(declared.symmetric_difference(layers))))
        return 2

    if not build():
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(BUILD_ROOT, "results"), exist_ok=True)
    cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(BUILD_ROOT, "traces"), exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(BUILD_ROOT, "traces", tag + ".jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"perfbench: runner exceeded {RUN_TIMEOUT_S} s")
        return 1
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        log(f"perfbench: runner failed with exit code {proc.returncode}")
        return proc.returncode or 1

    metrics, problems = select(result, bench, layers, args.workload,
                               bool(args.trace))
    for p in problems:
        print("problem " + p)
    result["problems"] += problems
    with open(os.path.join(BUILD_ROOT, "results", tag + ".json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    out = {
        "correct": bool(result["correct"]) and not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
